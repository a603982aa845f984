"""Span self-time arithmetic, including the unattributed remainder."""

import pytest

from benchmarks.harness.spans import UNATTRIBUTED, Recorder, Span, layer_table, self_times


def _spans():
    return [
        Span(0, None, "op", "request", UNATTRIBUTED, 0.0, 10.0),
        Span(1, 0, "op", "engine.query", "sparql", 1.0, 7.0),
        Span(2, 1, "op", "scan", "store", 2.0, 4.5),
        Span(3, 0, "op", "to_json", "serialize", 7.0, 8.0),
    ]


def test_self_time_is_duration_minus_children():
    own = self_times(_spans())
    assert own == {0: 3.0, 1: 3.5, 2: 2.5, 3: 1.0}


def test_layers_sum_to_the_operation():
    table = layer_table(_spans())
    assert table == {UNATTRIBUTED: 3.0, "sparql": 3.5, "store": 2.5, "serialize": 1.0}
    assert sum(table.values()) == pytest.approx(10.0)


def test_overbooked_children_clamp_the_parent_at_zero():
    spans = _spans() + [Span(4, 3, "op", "replay", "rdf", 0.0, 1.5)]
    assert self_times(spans)[3] == 0.0


def test_recorder_nests_and_books():
    recorder = Recorder()
    with recorder.operation("round-0") as root:
        with recorder.span("build_and_write", "corpus") as build:
            with recorder.span("inner", "rdf"):
                pass
    replay = recorder.add("replay", "rdf", 0.25, build)
    assert [s.parent for s in recorder.spans] == [None, root.id, build.id, build.id]
    assert {s.op for s in recorder.spans} == {"round-0"}
    assert replay.duration == pytest.approx(0.25)
    booked = recorder.add_operation("class:Q1", "Q1", 0.04)
    assert booked.parent is None and booked.layer == UNATTRIBUTED
    assert booked.duration == pytest.approx(0.04)
