"""Experiment S2 — Section 2 statistics: 120 workflows / 198 runs / 30 failed.

Checks the run plan and the built corpus against the paper's
corpus-creation numbers: every workflow executed at least once, 198 runs
total, 30 failures with the documented cause profile (third-party
resource unavailability leading); writes ``_artifacts/section2_stats.json``.
"""

import json

from repro.corpus import CorpusBuilder, FAILURE_MIX
from .conftest import write_artifact


def test_run_plan():
    builder = CorpusBuilder(seed=2013)
    templates = builder.generator.all_templates()

    plan = builder.plan_runs(templates)

    assert len(plan) == 198
    assert len({e.template_id for e in plan}) == 120
    failing = [e for e in plan if e.will_fail]
    assert len(failing) == 30
    causes = {}
    for entry in failing:
        causes[entry.fault_cause] = causes.get(entry.fault_cause, 0) + 1
    assert causes == FAILURE_MIX


def test_full_build(corpus, artifacts_dir):
    stats = corpus.statistics()
    assert stats["workflows"] == 120
    assert stats["runs"] == 198
    assert stats["failed_runs"] == 30
    assert stats["failure_causes"] == FAILURE_MIX
    write_artifact(artifacts_dir, "section2_stats.json",
                   json.dumps(stats, indent=2, sort_keys=True))


def test_failed_runs_truncated(corpus):
    for trace in corpus.failed_traces():
        executed = set(trace.result.executed_steps())
        planned = set(corpus.templates[trace.template_id].processors)
        assert executed < planned or trace.result.failed_step in executed
