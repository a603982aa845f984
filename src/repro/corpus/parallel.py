"""Process-parallel corpus build with a deterministic merge.

The serial build threads one :class:`~repro.workflow.dataflow.SimulatedClock`
through all 198 runs: each run starts where the previous run's teardown
left off, plus a seeded idle gap.  That chain is the only cross-run
coupling — everything else (service latencies, inputs, faults) is a pure
function of the run itself — so the build parallelizes in two phases:

1. **Schedule** (parent, cheap): an execute-only pass over the plan
   resolves every run's exact start instant
   (:meth:`CorpusBuilder.plan_start_times`).  No export, no
   serialization — a few percent of total build cost.
2. **Produce** (workers): each worker owns a private engine set seeded
   identically to the parent's, seats its clock at the run's exact start
   time, re-executes the run, exports PROV, and serializes Turtle/TriG.
   Results stream back in plan order (:func:`repro.parallel.map_tasks`).

Because a run's outcome depends only on (template, inputs, run id,
fault plan, user, clock start), every worker reproduces byte-for-byte
what the serial build would have produced at that position, and the
merged trace list is identical to a ``jobs=1`` build.

A worker failure is captured as a :class:`~repro.parallel.RemoteError`
and re-raised in the parent as the original exception class with the
failing run and template named in the message.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..parallel import Task, map_tasks, resolve_jobs
from ..workflow.dataflow import SimulatedClock
from ..workflow.errors import WorkflowError

__all__ = ["iter_traces_parallel"]


def _setup_worker(seed, start, scale):
    """Per-worker state, built once: a private builder and engine set
    seeded identically to the parent's.  Tasks only carry (entry, start)."""
    from .builder import CorpusBuilder

    builder = CorpusBuilder(seed=seed, start=start, scale=scale)
    by_id = {t.template_id: t for t in builder.generator.all_templates()}
    clock = SimulatedClock(start)
    taverna, wings = builder._make_engines(clock)
    return builder, by_id, clock, taverna, wings


def _build_one(state, args, tracer):
    """Pool task: build one run at its exact start instant."""
    builder, by_id, clock, taverna, wings = state
    entry, started = args
    clock.reset(started)
    return builder._trace_for(entry, by_id[entry.template_id], taverna, wings,
                              tracer=tracer)


def iter_traces_parallel(
    builder,
    plan,
    by_id: Dict[str, object],
    jobs: Optional[int],
    tracer=None,
) -> Iterator[object]:
    """Fan the run plan over a process pool; yield traces in plan order.

    Results arrive in submission (= plan) order while workers run ahead,
    so the consumer sees the exact serial trace sequence without the
    corpus ever being held whole.
    """
    jobs = min(resolve_jobs(jobs), len(plan))
    starts = builder.plan_start_times(plan, by_id)
    tasks = [
        Task(
            entry.run_id,
            f"run {entry.run_id} (template {entry.template_id}) failed in worker",
            (entry, started),
        )
        for entry, started in zip(plan, starts)
    ]
    return map_tasks(
        "build", tasks, jobs,
        _setup_worker, (builder.seed, builder.start, builder.scale), _build_one,
        tracer=tracer, fallback=WorkflowError,
    )
