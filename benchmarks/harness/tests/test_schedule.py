"""Schedules are a function of the seed and nothing else."""

import pytest

from benchmarks.harness import schedule, spec

SERVING = [w for w in spec.WORKLOADS.values() if w.serving]


def _traces():
    """A manifest in miniature: 3 Taverna templates (one multi-run), 2 Wings."""
    traces = []
    for system, prefix, template, runs in (
        ("taverna", "t", "t-bio-01", 3), ("taverna", "t", "t-bio-02", 1),
        ("taverna", "t", "t-astro-01", 1), ("wings", "w", "w-bio-01", 2),
        ("wings", "w", "w-geo-01", 1),
    ):
        for number in range(1, runs + 1):
            run_id = f"{template}-run{number}"
            traces.append({
                "system": system, "template_id": template, "template_name": template + "-wf",
                "run_id": run_id if system == "taverna" else f"ACCOUNT-{run_id}",
                "status": "failed" if (template, number) == ("t-bio-02", 1) else "ok",
            })
    return traces


@pytest.mark.parametrize("workload", SERVING, ids=lambda w: w.name)
def test_same_seed_same_texts_in_the_same_order(workload):
    first = schedule.build_schedule(workload, _traces(), seed=7)
    again = schedule.build_schedule(workload, _traces(), seed=7)
    assert first == again
    assert len(first) == workload.requests_per_pass
    other = schedule.build_schedule(workload, _traces(), seed=8)
    assert [r.key for r in other] != [r.key for r in first]
    # another seed reorders; it never changes how often a class is asked
    assert schedule.class_counts(other) == schedule.class_counts(first)


def test_class_shares_follow_the_cycle():
    cold = schedule.build_schedule(spec.WORKLOADS["serve_cold"], _traces(), seed=1)
    counts = schedule.class_counts(cold)
    assert counts["Q5"] == 2 * counts["Q1"] and counts["Q1"] == 144
    paths = schedule.build_schedule(spec.WORKLOADS["serve_paths"], _traces(), seed=1)
    assert schedule.class_counts(paths) == {"LIN": 960, "P1": 20, "P4": 20}


def test_seeded_pools_are_used_evenly():
    cold = schedule.build_schedule(spec.WORKLOADS["serve_cold"], _traces(), seed=3)
    uses = {}
    for request in cold:
        if request.cls == "Q4":
            uses[request.key] = uses.get(request.key, 0) + 1
    assert len(uses) == len(_traces())  # every run is asked about
    assert max(uses.values()) - min(uses.values()) <= 1


def test_a_seeded_class_draws_a_bounded_sample_of_its_pool():
    traces = [{"system": "taverna", "template_id": f"t-x-{n:02d}", "template_name": "wf",
               "run_id": f"t-x-{n:02d}-run1", "status": "ok"} for n in range(60)]
    traces.append({"system": "wings", "template_id": "w-x-01", "template_name": "wf",
                   "run_id": "ACCOUNT-w-x-01-run1", "status": "ok"})
    cold = schedule.build_schedule(spec.WORKLOADS["serve_cold"], traces, seed=5)
    uses = {}
    for request in cold:
        uses.setdefault(request.cls, {}).setdefault(request.key, 0)
        uses[request.cls][request.key] += 1
    assert len(uses["Q4"]) == len(uses["Q2"]) == 144 // spec.MIN_SENDS_PER_PASS
    # every text is sent often enough to have a floor
    assert min(min(texts.values()) for texts in uses.values()) >= spec.MIN_SENDS_PER_PASS
    other = schedule.build_schedule(spec.WORKLOADS["serve_cold"], traces, seed=6)
    assert {r.key for r in other if r.cls == "Q4"} != set(uses["Q4"])


def test_warm_schedule_has_seven_fixed_texts_for_every_seed():
    warm = spec.WORKLOADS["serve_warm"]
    texts = {r.text for r in schedule.build_schedule(warm, _traces(), seed=1)}
    assert len(texts) == 7
    assert texts == {r.text for r in schedule.build_schedule(warm, _traces(), seed=2)}


def test_lineage_is_asked_of_successful_taverna_runs_only():
    paths = schedule.build_schedule(spec.WORKLOADS["serve_paths"], _traces(), seed=1)
    keys = {r.key for r in paths if r.cls == "LIN"}
    assert keys == {"LIN:t-bio-01-run1", "LIN:t-bio-01-run2", "LIN:t-bio-01-run3",
                    "LIN:t-astro-01-run1"}


def test_all_requests_covers_every_schedulable_key():
    every = {r.key for r in schedule.all_requests(_traces())}
    for workload in SERVING:
        for seed in (1, 2):
            assert {r.key for r in schedule.build_schedule(workload, _traces(), seed)} <= every
    assert {"P1", "P2", "P3", "P4"} <= every
