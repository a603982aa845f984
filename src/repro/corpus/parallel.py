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
   Results stream back via ``imap`` in plan order.

Because a run's outcome depends only on (template, inputs, run id,
fault plan, user, clock start), every worker reproduces byte-for-byte
what the serial build would have produced at that position, and the
merged trace list is identical to a ``jobs=1`` build.

A worker failure is captured as a :class:`~repro.parallel.RemoteError`
and re-raised in the parent as the original exception class with the
failing run and template named in the message.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..obs import shm
from ..obs import tracectx as _tracectx
from ..parallel import ObsConfig, RemoteError, pool_context, resolve_jobs
from ..workflow.dataflow import SimulatedClock
from ..workflow.errors import WorkflowError

__all__ = ["iter_traces_parallel"]

# Per-worker state: (builder, template index, clock, taverna, wings,
# tracer).  Built once per worker by _init_worker; tasks only carry
# (entry, start).
_WORKER_STATE = None


def _init_worker(seed, start, obs: ObsConfig = ObsConfig(), scale: int = 1) -> None:
    global _WORKER_STATE
    from .builder import CorpusBuilder

    obs.attach_worker()
    builder = CorpusBuilder(seed=seed, start=start, scale=scale)
    templates = builder.generator.all_templates()
    by_id = {t.template_id: t for t in templates}
    clock = SimulatedClock(start)
    taverna, wings = builder._make_engines(clock)
    _WORKER_STATE = (builder, by_id, clock, taverna, wings, obs.make_tracer())


def _build_one(task) -> Tuple[str, object, Optional[list]]:
    """Pool task: build one run; ship the trace plus any span events.

    The worker drains its tracer per task, so each result carries
    exactly that run's spans; the parent absorbs them in plan order,
    which makes the merged trace ordering independent of which worker
    built which run.
    """
    entry, started = task
    builder, by_id, clock, taverna, wings, tracer = _WORKER_STATE
    try:
        clock.reset(started)
        if tracer is not None:
            tracer.reset_clock()
        # Same derived trace context a serial build enters for this run
        # id — worker spans stamp identical trace/span/parent ids.
        with _tracectx.task_scope(entry.run_id):
            trace = builder._trace_for(
                entry, by_id[entry.template_id], taverna, wings, tracer=tracer
            )
        # Publish this worker's counters after every task: the pool is
        # terminated (not joined) on exit, so per-task flushes are the
        # only guaranteed publication point before the orphan sweep.
        shm.flush()
        return ("ok", trace, tracer.drain() if tracer is not None else None)
    except Exception as exc:
        if tracer is not None:
            tracer.drain()
        shm.flush()
        context = f"run {entry.run_id} (template {entry.template_id}) failed in worker"
        return ("error", RemoteError.capture(exc, context), None)


def iter_traces_parallel(
    builder,
    plan,
    by_id: Dict[str, object],
    jobs: Optional[int],
    tracer=None,
) -> Iterator[object]:
    """Fan the run plan over a process pool; yield traces in plan order.

    ``imap`` yields results in submission (= plan) order while workers
    run ahead, so the consumer sees the exact serial trace sequence with
    only the pool's in-flight chunk buffered — memory stays flat in the
    corpus size.
    """
    jobs = min(resolve_jobs(jobs), len(plan))
    starts = builder.plan_start_times(plan, by_id)
    ctx = pool_context()
    chunksize = max(1, len(plan) // (jobs * 4))
    with ctx.Pool(
        processes=jobs,
        initializer=_init_worker,
        initargs=(builder.seed, builder.start, ObsConfig.from_tracer(tracer),
                  builder.scale),
    ) as pool:
        for status, payload, events in pool.imap(
            _build_one, list(zip(plan, starts)), chunksize=chunksize
        ):
            if status == "error":
                payload.reraise(fallback=WorkflowError)
            if tracer is not None:
                tracer.reset_clock()
                tracer.add_events(events or ())
            yield payload
