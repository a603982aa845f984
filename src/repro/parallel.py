"""Shared multiprocessing utilities for the parallel pipelines.

Both process-parallel hot paths — the corpus build
(:mod:`repro.corpus.parallel`) and store ingest
(:mod:`repro.store.ingest`) — fan pure-CPU work out over a process pool
and merge results back in a deterministic order.  This module owns
everything they share:

* :func:`map_tasks` — the one pool driver.  Each :class:`Task` runs in a
  worker under the wrapper :func:`_run_task` and comes back as one
  :class:`TaskRecord`: its payload (or a :class:`RemoteError`), the
  spans it recorded, and the additive metric series that moved in that
  worker since its previous record.  The parent folds records in task
  order — deltas into its own registry, spans into its tracer — so a
  ``--jobs N`` run leaves the same counters and the same trace bytes as
  the serial one.  A worker that dies without returning (SIGKILL, OOM)
  raises :class:`~concurrent.futures.process.BrokenProcessPool` in the
  parent, naming the pipeline and the first unfinished task;
* :func:`pool_context` — the start-method policy (``fork`` where the
  platform offers it: workers inherit imported modules, which keeps
  per-worker startup cheap and lets tests monkeypatch engine behavior
  into children; elsewhere the platform default);
* :func:`resolve_jobs` — ``jobs`` argument normalization (``None``/``0``
  → one worker per CPU);
* :func:`task_scope` — the per-task trace scope the serial loops and
  the worker wrapper all enter, so both mint the same spans;
* :class:`RemoteError` — a picklable record of an exception raised in a
  worker.  Workers catch their own failures and return one of these
  instead of letting ``multiprocessing`` pickle the live exception, so
  the parent can re-raise the *original* exception class with task
  context (which run, which file) prepended to the message rather than
  surfacing a bare pool traceback;
* :class:`ObsConfig` — the tracing settings a parent passes to the pool
  initializer so each worker can build its own
  :class:`~repro.obs.trace.Tracer` (tracers hold locks and event
  buffers, so they never cross the process boundary themselves).
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pickle
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Type

from .obs import metrics as _metrics
from .obs import tracectx as _tracectx
from .obs.trace import Tracer

__all__ = [
    "map_tasks", "pool_context", "resolve_jobs", "task_scope",
    "ObsConfig", "RemoteError", "Task", "TaskRecord",
]


@dataclass(frozen=True)
class ObsConfig:
    """Picklable tracing settings for pool workers.

    ``from_tracer`` snapshots the parent's tracer (or ``None``) and
    ambient trace context at pool spawn time; ``make_tracer`` rebuilds
    an equivalent worker-side tracer inside the pool initializer and
    ``attach_worker`` re-activates the trace context there.
    """

    trace: bool = False
    deterministic: bool = False
    # Ambient W3C trace coordinates at pool-spawn time:
    # (trace_id, span_id, flags, deterministic ids).  Workers re-activate
    # them so a per-task ``task_scope(key)`` derives exactly the child
    # context the serial loop would — the --jobs 1/2 id-identity contract.
    trace_ctx: Optional[tuple] = None

    @classmethod
    def from_tracer(cls, tracer) -> "ObsConfig":
        ctx = _tracectx.current()
        return cls(
            trace=tracer is not None,
            deterministic=bool(getattr(tracer, "deterministic", False)),
            trace_ctx=(
                (ctx.trace_id, ctx.span_id, ctx.flags, ctx.deterministic)
                if ctx is not None
                else None
            ),
        )

    def make_tracer(self):
        return Tracer(deterministic=self.deterministic) if self.trace else None

    def attach_worker(self) -> None:
        """Re-activate the parent's ambient trace context (when one was
        active at pool spawn) in this worker process."""
        if self.trace_ctx is not None:
            trace_id, span_id, flags, deterministic = self.trace_ctx
            _tracectx.activate(
                _tracectx.TraceContext(
                    trace_id, span_id, flags=flags, deterministic=deterministic
                )
            )


def pool_context():
    """The multiprocessing context used by all parallel pipelines."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` argument: ``None`` or ``<= 0`` means one
    worker per available CPU."""
    if jobs is None or jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


@contextmanager
def task_scope(tracer, key: str):
    """Run one unit of work (one corpus run, one ingest file) in its own
    trace scope: rewind *tracer*'s logical clock, then enter the trace
    context derived from *key*.  A serial loop and a pool worker entering
    it for the same key stamp the same ticks and span ids."""
    if tracer is not None:
        tracer.reset_clock()
    with _tracectx.task_scope(key):
        yield


@dataclass
class RemoteError:
    """An exception captured in a worker process, ready to re-raise.

    The worker records the exception's type (by module/qualname), its
    message, the formatted worker-side traceback, and — when the
    exception instance pickles cleanly — the instance itself.  The
    parent re-raises the original class with *context* prepended, so a
    failure inside a pool surfaces as e.g.::

        WorkflowError: run t-gen-01-run2 (template t-gen-01): missing
        workflow inputs: ['accession']

    instead of a ``multiprocessing.pool.RemoteTraceback`` wall.
    """

    exc_module: str
    exc_type: str
    message: str
    traceback_text: str
    context: str = ""
    pickled: Optional[bytes] = None

    @classmethod
    def capture(cls, exc: BaseException, context: str = "") -> "RemoteError":
        payload: Optional[bytes] = None
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)
        except Exception:
            payload = None
        return cls(
            exc_module=type(exc).__module__,
            exc_type=type(exc).__qualname__,
            message=str(exc),
            traceback_text=traceback.format_exc(),
            context=context,
            pickled=payload,
        )

    def _resolve_type(self) -> Optional[Type[BaseException]]:
        try:
            module = importlib.import_module(self.exc_module)
            resolved = getattr(module, self.exc_type)
        except Exception:
            return None
        if isinstance(resolved, type) and issubclass(resolved, BaseException):
            return resolved
        return None

    def reraise(self, fallback: Type[BaseException] = RuntimeError) -> None:
        """Re-raise in the parent: original class, context-prefixed message.

        Falls back to the pickled instance when the class cannot be
        rebuilt from a single message (multi-argument ``__init__``), and
        to *fallback* when neither works.  The worker-side traceback is
        attached as ``remote_traceback`` either way.
        """
        message = f"{self.context}: {self.message}" if self.context else self.message
        exc: Optional[BaseException] = None
        resolved = self._resolve_type()
        if resolved is not None:
            try:
                exc = resolved(message)
            except Exception:
                exc = None
        if exc is None and self.pickled is not None:
            try:
                exc = pickle.loads(self.pickled)
                exc.remote_context = self.context
            except Exception:
                exc = None
        if exc is None:
            exc = fallback(message)
        exc.remote_traceback = self.traceback_text
        raise exc from None


class Task(NamedTuple):
    """One unit of pool work."""

    key: str  # trace-scope key; names the task if its worker dies
    context: str  # RemoteError prefix if the task raises
    args: tuple  # handed to the pipeline's run function


class TaskRecord(NamedTuple):
    """Everything one task sends back: the single carrier across the
    process boundary."""

    key: str
    payload: object  # the run function's result, or a RemoteError
    spans: Optional[List[dict]]  # the worker tracer's events for this task
    deltas: dict  # MetricsRegistry.delta() since this worker's previous record


# Per-worker state, set once by _init_worker: (run function, pipeline
# state, tracer, registry baseline).
_WORKER = None


def _init_worker(obs: ObsConfig, setup: Callable, setup_args: tuple, run: Callable) -> None:
    global _WORKER
    obs.attach_worker()
    state = setup(*setup_args)
    # The baseline is this worker's registry as forked (plus whatever
    # setup moved): values inherited from the parent are never shipped.
    _WORKER = (run, state, obs.make_tracer(), _metrics.get_registry().additive())


def _run_task(task: Task) -> TaskRecord:
    """The worker-side wrapper: run one task under the trace scope the
    serial loop enters for the same key, and report through the result.

    The tracer is drained and the registry delta taken per task, so a
    record carries exactly that task's spans and increments no matter
    which worker ran what before it — a failing task's included.
    """
    run, state, tracer, baseline = _WORKER
    try:
        with task_scope(tracer, task.key):
            payload = run(state, task.args, tracer)
    except Exception as exc:
        payload = RemoteError.capture(exc, task.context)
    return TaskRecord(
        task.key, payload,
        tracer.drain() if tracer is not None else None,
        _metrics.get_registry().delta(baseline),
    )


def map_tasks(
    pipeline: str,
    tasks: List[Task],
    jobs: int,
    setup: Callable,
    setup_args: tuple,
    run: Callable,
    tracer=None,
    fallback: Type[BaseException] = RuntimeError,
) -> Iterator[object]:
    """Fan *tasks* over *jobs* worker processes; yield payloads in task
    order — the parent-side fold.

    Each worker calls ``setup(*setup_args)`` once and then
    ``run(state, task.args, tracer)`` per task.  Results stream back in
    submission order while workers run ahead, and every record is folded
    before its payload is yielded: metric deltas into this process's
    registry, spans into *tracer* — which makes counters and the merged
    trace independent of which worker ran which task.  A task that
    raised re-raises here as its original class (*fallback* when that
    cannot be rebuilt); a worker that died raises ``BrokenProcessPool``.
    """
    # Imported here: the serving path loads this module but never runs a
    # pool, and the executor drags in ~1 MB of multiprocessing plumbing.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    registry = _metrics.get_registry()
    executor = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=pool_context(),
        initializer=_init_worker,
        initargs=(ObsConfig.from_tracer(tracer), setup, setup_args, run),
    )
    done = 0
    finished = False
    try:
        chunksize = max(1, len(tasks) // (jobs * 4))
        for record in executor.map(_run_task, tasks, chunksize=chunksize):
            registry.absorb(record.deltas)
            if isinstance(record.payload, RemoteError):
                record.payload.reraise(fallback=fallback)
            if tracer is not None:
                tracer.reset_clock()
                tracer.add_events(record.spans)
            done += 1
            yield record.payload
        finished = True
    except BrokenProcessPool as exc:
        raise BrokenProcessPool(
            f"{pipeline}: a pool worker died without returning its result; "
            f"first unfinished task: {tasks[done].key}"
        ) from exc
    finally:
        # On any error (or an abandoned iteration) pending tasks are
        # cancelled and nothing is waited for, so it surfaces at once.
        executor.shutdown(wait=finished, cancel_futures=True)
