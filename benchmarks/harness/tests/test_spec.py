"""BENCHMARK.json is what spec.py says, and both fit the driver's contract."""

import json
import re

from benchmarks.harness import spec
from benchmarks.harness.server import REPO_ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec():
    assert json.loads((REPO_ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


def test_names_and_units_fit_the_contract():
    metrics = spec.END_TO_END + spec.PER_LAYER
    names = [m.name for m in metrics] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
    assert 1 <= len(spec.END_TO_END) <= 16 and 1 <= len(spec.PER_LAYER) <= 128
    assert 2 <= len(spec.WORKLOADS) <= 8
    for workload in spec.WORKLOADS.values():
        assert NAME.match(workload.name) and len(workload.why) <= 200 and "\n" not in workload.why


def test_bounds():
    by_name = {m.name: m for m in spec.END_TO_END}
    assert by_name["setup_s"].unit == "s" and by_name["setup_s"].better == "lower"
    assert by_name["setup_s"].bound == max(m.bound for m in spec.END_TO_END) <= 0.25
    # a wall-clock metric never gets a bound tighter than a tenth
    for metric in spec.END_TO_END:
        if metric.unit in ("s", "ms", "1/s"):
            assert metric.bound >= 0.10
    assert all(m.bound is None for m in spec.PER_LAYER)


def test_floors_survive_any_seconds():
    for workload in spec.WORKLOADS.values():
        floor = spec.MIN_PASSES if workload.serving else spec.MIN_ROUNDS
        assert workload.repeats_for(1) == floor
        assert workload.repeats_for(spec.RUN_SECONDS) == workload.repeats
        if workload.serving:
            assert workload.requests_per_pass >= spec.MIN_SAMPLES_PER_PASS
