"""Corpus construction: plan, execute, and export all 198 runs.

Reproduces Section 2 of the paper ("Corpus creation setup"):

* 120 workflows, each "executed at least one time";
* 198 runs in total — 39 templates are designated *multi-run* (3 runs
  each) for the decay studies, the remaining 81 run once
  (81 + 39 × 3 = 198);
* 30 runs fail, with the paper's cause mix — 14 third-party resource
  unavailability, 10 illegal input values, 6 service timeouts — injected
  deterministically at a chosen step;
* runs are spread over simulated months (decay is observed "over time");
* every run's provenance is exported with its system's native plugin
  conventions: Taverna → Turtle (PROV-O + wfprov + wfdesc),
  Wings → TriG (PROV-O + OPMW, account bundles as named graphs).

Everything derives from the integer seed (default 2013 — the paper's
year), so two builds produce byte-identical corpora.
"""

from __future__ import annotations

import datetime as _dt
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from ..parallel import resolve_jobs as _resolve_jobs
from ..parallel import task_scope as _task_scope
from ..rdf.graph import Dataset, Graph
from ..rdf.trig import serialize_trig
from ..rdf.turtle import serialize_turtle
from ..taverna import TavernaEngine
from ..taverna import export_run as taverna_export
from ..taverna import export_template_description
from ..wings import WingsEngine
from ..wings import export_run as wings_export
from ..wings import export_template
from ..workflow.dataflow import RunResult, SimulatedClock
from ..workflow.errors import FAILURE_CAUSES, WorkflowError
from ..workflow.model import WorkflowTemplate
from ..workflow.services import FaultPlan
from .domains import DOMAINS, domain_by_slug
from .generator import TemplateGenerator

__all__ = ["RunPlanEntry", "CorpusTrace", "Corpus", "CorpusBuilder", "build_corpus"]

#: Paper constants (Section 2).  A ``scale`` factor multiplies each of
#: these linearly (templates, runs, failures, and the cause mix), so a
#: scale-N corpus is N seeded copies of the paper's proportions.
TOTAL_RUNS = 198
FAILED_RUNS = 30
FAILURE_MIX = {"resource-unavailable": 14, "illegal-input-value": 10, "service-timeout": 6}
MULTI_RUN_TEMPLATES = 39
MULTI_RUN_FAILURES = 6
RUNS_PER_MULTI_TEMPLATE = 3

TAVERNA_USERS = ("soiland-reyes", "kbelhajjame", "palper", "jzhao")
WINGS_USERS = ("dgarijo", "agarrido", "ocorcho", "vratnakar")

_BUILD_RUNS = _metrics.counter(
    "repro_build_runs_total", "Corpus runs built", labels=("system", "status")
)


@dataclass(frozen=True)
class RunPlanEntry:
    """One planned execution."""

    run_id: str
    template_id: str
    sequence: int  # 1-based run number for this template
    variant: int  # input variant (decay templates drift across sequences)
    user: str
    fault_step: Optional[str] = None
    fault_cause: Optional[str] = None

    @property
    def will_fail(self) -> bool:
        return self.fault_step is not None


@dataclass
class CorpusTrace:
    """One exported provenance trace plus its run metadata."""

    run_id: str
    system: str
    domain: str
    template_id: str
    template_name: str
    status: str
    started: _dt.datetime
    ended: Optional[_dt.datetime]
    user: str
    rdf: Union[Graph, Dataset]  # the emitted triples: a Graph (Taverna), a Dataset (Wings)
    text: str  # serialized RDF (Turtle for Taverna, TriG for Wings)
    rdf_format: str  # "turtle" | "trig"
    triples: int  # size of the merged RDF graph (what ``len(graph())`` is)
    failed_step: Optional[str] = None
    failure_cause: Optional[str] = None
    result: Optional[RunResult] = None

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode("utf-8"))

    def graph(self) -> Graph:
        """A copy of the trace's triples as one graph (bundles merged)."""
        if isinstance(self.rdf, Dataset):
            return self.rdf.union_graph()
        return self.rdf.copy()

    def dataset(self) -> Dataset:
        """A copy of the trace's triples as a dataset (bundles as named graphs)."""
        copy = Dataset(namespaces=self.rdf.namespaces.copy())
        for name, graph in _graphs(self.rdf):
            copy.graph(name).add_all(graph)
        return copy


def _graphs(rdf: Union[Graph, Dataset]):
    """``(name, graph)`` for each graph of *rdf*; None names the default."""
    if isinstance(rdf, Graph):
        return [(None, rdf)]
    return [(None, rdf.default), *((name, rdf.graph(name)) for name in rdf.graph_names())]


def merged_dataset(traces) -> Dataset:
    """Every trace's dataset merged into one (bundles stay named graphs)."""
    merged = Dataset()
    for trace in traces:
        trace_ds = trace.dataset()
        merged.default.add_all(trace_ds.default)
        for name in trace_ds.graph_names():
            merged.graph(name).add_all(trace_ds.graph(name))
        for prefix, base in trace_ds.namespaces.namespaces():
            merged.namespaces.bind(prefix, base, replace=False)
    return merged


def merged_graph(traces) -> Graph:
    """Every trace's graph merged into one."""
    merged = Graph()
    for trace in traces:
        merged.add_all(trace.graph())
    return merged


class CorpusStatistics:
    """Section 2's running totals: one :meth:`add` per trace.

    :meth:`Corpus.statistics` and the streaming corpus writer both count
    through it, so the in-memory corpus and ``manifest.json`` report the
    same dict without either holding the other's traces.
    """

    def __init__(self, templates: Dict[str, WorkflowTemplate]):
        self.templates = templates
        self.runs = {"taverna": 0, "wings": 0}
        self.failure_causes: Counter = Counter()
        self.size_bytes = 0
        self.triples = 0

    def add(self, trace: CorpusTrace) -> None:
        self.runs[trace.system] += 1
        if trace.failed:
            self.failure_causes[trace.failure_cause] += 1
        self.size_bytes += trace.size_bytes
        self.triples += trace.triples

    def as_dict(self) -> Dict[str, object]:
        systems = [template.system for template in self.templates.values()]
        return {
            "workflows": len(systems),
            "taverna_workflows": systems.count("taverna"),
            "wings_workflows": systems.count("wings"),
            "runs": sum(self.runs.values()),
            "taverna_runs": self.runs["taverna"],
            "wings_runs": self.runs["wings"],
            "failed_runs": sum(self.failure_causes.values()),
            "failure_causes": dict(self.failure_causes),
            "domains": len(DOMAINS),
            "size_bytes": self.size_bytes,
            "triples": self.triples,
        }


class Corpus:
    """The built corpus: 120 templates, 198 traces, and query surfaces."""

    def __init__(
        self,
        seed: int,
        templates: Dict[str, WorkflowTemplate],
        traces: List[CorpusTrace],
        plan: List[RunPlanEntry],
        generator: TemplateGenerator,
    ):
        self.seed = seed
        self.templates = templates
        self.traces = traces
        self.plan = plan
        self.generator = generator
        self._merged: Optional[Dataset] = None
        self._system_graphs: Dict[str, Graph] = {}
        # Lazy selection indexes; traces are immutable after construction.
        self._by_run_id: Optional[Dict[str, CorpusTrace]] = None
        self._by_template: Optional[Dict[str, List[CorpusTrace]]] = None
        self._by_domain: Optional[Dict[str, List[CorpusTrace]]] = None
        self._by_system: Optional[Dict[str, List[CorpusTrace]]] = None

    # -- selection -------------------------------------------------------------

    def _build_indexes(self) -> None:
        by_run_id: Dict[str, CorpusTrace] = {}
        by_template: Dict[str, List[CorpusTrace]] = {}
        by_domain: Dict[str, List[CorpusTrace]] = {}
        by_system: Dict[str, List[CorpusTrace]] = {}
        for t in self.traces:
            by_run_id[t.run_id] = t
            by_template.setdefault(t.template_id, []).append(t)
            by_domain.setdefault(t.domain, []).append(t)
            by_system.setdefault(t.system, []).append(t)
        self._by_run_id = by_run_id
        self._by_template = by_template
        self._by_domain = by_domain
        self._by_system = by_system

    def by_system(self, system: str) -> List[CorpusTrace]:
        if self._by_system is None:
            self._build_indexes()
        return list(self._by_system.get(system, ()))

    def by_template(self, template_id: str) -> List[CorpusTrace]:
        if self._by_template is None:
            self._build_indexes()
        return list(self._by_template.get(template_id, ()))

    def by_domain(self, domain_slug: str) -> List[CorpusTrace]:
        if self._by_domain is None:
            self._build_indexes()
        return list(self._by_domain.get(domain_slug, ()))

    def failed_traces(self) -> List[CorpusTrace]:
        return [t for t in self.traces if t.failed]

    def trace(self, run_id: str) -> CorpusTrace:
        if self._by_run_id is None:
            self._build_indexes()
        try:
            return self._by_run_id[run_id]
        except KeyError:
            raise KeyError(f"no trace for run {run_id!r}") from None

    def multi_run_templates(self) -> List[str]:
        """Template ids with more than one run (the decay-study set)."""
        counts: Dict[str, int] = {}
        for trace in self.traces:
            counts[trace.template_id] = counts.get(trace.template_id, 0) + 1
        return sorted(tid for tid, n in counts.items() if n > 1)

    # -- query surfaces -----------------------------------------------------------

    def dataset(self) -> Dataset:
        """The whole corpus as one dataset (Wings bundles as named graphs)."""
        if self._merged is None:
            self._merged = merged_dataset(self.traces)
        return self._merged

    def system_graph(self, system: str) -> Graph:
        """All of one system's traces merged into a single graph."""
        if system not in self._system_graphs:
            self._system_graphs[system] = merged_graph(self.by_system(system))
        return self._system_graphs[system]

    # -- statistics ------------------------------------------------------------------

    def statistics(self) -> Dict[str, object]:
        """Section 2's numbers (the dict ``manifest.json`` carries)."""
        totals = CorpusStatistics(self.templates)
        for trace in self.traces:
            totals.add(trace)
        return totals.as_dict()

    def domain_histogram(self) -> List[Tuple[str, int, int]]:
        """Figure 1: (domain name, taverna workflows, wings workflows),
        counted over the built templates in :data:`DOMAINS` order."""
        counts = Counter((t.domain, t.system) for t in self.templates.values())
        return [(d.name, counts[d.slug, "taverna"], counts[d.slug, "wings"]) for d in DOMAINS]

    def __repr__(self) -> str:
        return (
            f"<Corpus seed={self.seed}: {len(self.templates)} workflows, "
            f"{len(self.traces)} runs, {len(self.failed_traces())} failed>"
        )


class CorpusBuilder:
    """Plans and executes the whole corpus build."""

    def __init__(self, seed: int = 2013, start: Optional[_dt.datetime] = None,
                 scale: int = 1):
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.seed = seed
        self.scale = int(scale)
        self.start = start if start is not None else _dt.datetime(2012, 5, 7, 9, 0, 0)
        self.generator = TemplateGenerator(seed=seed, scale=self.scale)

    # -- planning -------------------------------------------------------------------

    def plan_runs(self, templates: List[WorkflowTemplate]) -> List[RunPlanEntry]:
        """The deterministic 198·scale-run plan with its failure schedule."""
        rng = random.Random(self.seed)
        template_ids = [t.template_id for t in templates]
        shuffled = list(template_ids)
        rng.shuffle(shuffled)
        multi = set(shuffled[:MULTI_RUN_TEMPLATES * self.scale])
        single = [tid for tid in template_ids if tid not in multi]

        # Most failures land on single-run templates; 6·scale hit the
        # *last* run of a multi-run template, leaving two earlier
        # successful runs — the donor material the decay application
        # repairs from.
        multi_failing = set(rng.sample(sorted(multi), MULTI_RUN_FAILURES * self.scale))
        failing = set(
            rng.sample(single, FAILED_RUNS * self.scale - len(multi_failing))
        )
        cause_pool: List[str] = []
        for cause, count in FAILURE_MIX.items():
            cause_pool.extend([cause] * (count * self.scale))
        rng.shuffle(cause_pool)
        cause_of = dict(zip(sorted(failing | multi_failing), cause_pool))

        by_id = {t.template_id: t for t in templates}
        entries: List[RunPlanEntry] = []
        serial = 0
        for template_id in template_ids:
            template = by_id[template_id]
            runs = RUNS_PER_MULTI_TEMPLATE if template_id in multi else 1
            decay_template = template_id in multi and (hash_of(template_id, self.seed) % 2 == 0)
            for sequence in range(1, runs + 1):
                serial += 1
                users = TAVERNA_USERS if template.system == "taverna" else WINGS_USERS
                user = users[hash_of(template_id, sequence) % len(users)]
                fault_step = fault_cause = None
                failing_sequence = RUNS_PER_MULTI_TEMPLATE if template_id in multi else 1
                if template_id in cause_of and sequence == failing_sequence:
                    fault_cause = cause_of[template_id]
                    fault_step = self._fault_step(template, fault_cause)
                entries.append(
                    RunPlanEntry(
                        run_id=self._run_id(template, sequence),
                        template_id=template_id,
                        sequence=sequence,
                        variant=(sequence - 1) if decay_template else 0,
                        user=user,
                        fault_step=fault_step,
                        fault_cause=fault_cause,
                    )
                )
        expected = TOTAL_RUNS * self.scale
        assert len(entries) == expected, f"planned {len(entries)} runs, expected {expected}"
        assert sum(1 for e in entries if e.will_fail) == FAILED_RUNS * self.scale
        return entries

    @staticmethod
    def _run_id(template: WorkflowTemplate, sequence: int) -> str:
        if template.system == "taverna":
            return f"{template.template_id}-run{sequence}"
        return f"ACCOUNT-{template.template_id}-run{sequence}"

    @staticmethod
    def _fault_step(template: WorkflowTemplate, cause: str) -> str:
        """Pick the step the fault hits, matched to the cause."""
        ordered = [p.name for p in template.topological_order()]
        remote = template.remote_steps()
        if cause in ("resource-unavailable", "service-timeout") and remote:
            return remote[0]
        if cause == "illegal-input-value" and len(ordered) > 1:
            return ordered[1]  # a mid-pipeline validation failure
        return ordered[0]

    # -- building ----------------------------------------------------------------------

    def plan(self) -> Tuple[Dict[str, WorkflowTemplate], List[RunPlanEntry]]:
        """Generate all templates and the run plan (no execution)."""
        templates = self.generator.all_templates()
        by_id = {t.template_id: t for t in templates}
        return by_id, self.plan_runs(templates)

    def build(self, jobs: int = 1, tracer=None) -> Corpus:
        """Execute the full plan and export every trace.

        With ``jobs > 1`` the per-run work (engine execution, PROV
        export, RDF serialization) fans out over a process pool; results
        merge back in plan order, so the returned corpus — trace order,
        timestamps, serialized bytes — is identical to a ``jobs=1``
        build.  ``jobs=None`` or ``0`` means one worker per CPU.

        With a *tracer*, every run emits a ``run`` span wrapping its
        ``execute`` / ``export`` / ``serialize`` phases; pool workers
        forward their spans with each result, merged in plan order.
        """
        by_id, plan = self.plan()
        traces = list(self.iter_traces(jobs=jobs, tracer=tracer, plan=plan, by_id=by_id))
        return Corpus(self.seed, by_id, traces, plan, self.generator)

    def iter_traces(
        self,
        jobs: int = 1,
        tracer=None,
        plan: Optional[List[RunPlanEntry]] = None,
        by_id: Optional[Dict[str, WorkflowTemplate]] = None,
    ) -> Iterator[CorpusTrace]:
        """Yield traces one at a time, in plan order.

        The streaming face of :meth:`build`: the same plan, the same
        bytes per trace at any worker count, but runs are produced
        lazily so a scale-N corpus never has to exist in RAM at once.
        Consumers that hold no reference to a yielded trace keep memory
        flat in the corpus size.
        """
        if plan is None or by_id is None:
            by_id, plan = self.plan()
        effective = jobs if jobs == 1 else min(_resolve_jobs(jobs), len(plan))
        if effective <= 1:
            yield from self._iter_serial(plan, by_id, tracer=tracer)
        else:
            from .parallel import iter_traces_parallel

            yield from iter_traces_parallel(self, plan, by_id, effective, tracer=tracer)

    def _iter_serial(
        self, plan: List[RunPlanEntry], by_id: Dict[str, WorkflowTemplate],
        tracer=None,
    ) -> Iterator[CorpusTrace]:
        """The sequential path: one clock threaded through all runs."""
        clock = SimulatedClock(self.start)
        taverna, wings = self._make_engines(clock)
        for entry in plan:
            clock.advance(self._gap_seconds(entry))
            # The per-run trace scope is entered (and exited) around the
            # build itself, not the yield, so generator suspension never
            # leaks a derived context into the consumer.
            with _task_scope(tracer, entry.run_id):
                trace = self._trace_for(entry, by_id[entry.template_id],
                                        taverna, wings, tracer=tracer)
            yield trace

    def _make_engines(self, clock: SimulatedClock) -> Tuple[TavernaEngine, WingsEngine]:
        """Fresh engines over generator-derived infrastructure."""
        registry = self.generator.build_registry()
        components = self.generator.build_component_catalog()
        data_catalog = self.generator.build_data_catalog()
        taverna = TavernaEngine(registry, clock)
        wings = WingsEngine(registry, clock, components, data_catalog)
        return taverna, wings

    def _gap_seconds(self, entry: RunPlanEntry) -> int:
        """Simulated idle time before *entry*: 6h..72h, seeded per run."""
        return (6 + hash_of(entry.run_id, self.seed) % 67) * 3600

    def _execute_entry(
        self,
        entry: RunPlanEntry,
        template: WorkflowTemplate,
        taverna: TavernaEngine,
        wings: WingsEngine,
    ):
        """Enact one planned run on whichever engine owns the template."""
        fault_plan = (
            FaultPlan.single(entry.fault_step, entry.fault_cause)
            if entry.will_fail
            else FaultPlan.none()
        )
        inputs = self.generator.inputs_for(template, variant=entry.variant)
        engine = taverna if template.system == "taverna" else wings
        return engine.run(
            template, inputs, run_id=entry.run_id, fault_plan=fault_plan, user=entry.user
        )

    def _trace_for(
        self,
        entry: RunPlanEntry,
        template: WorkflowTemplate,
        taverna: TavernaEngine,
        wings: WingsEngine,
        tracer=None,
    ) -> CorpusTrace:
        """Execute one run and export its provenance trace."""
        with _span(tracer, "run", cat="build", run=entry.run_id,
                   template=entry.template_id, system=template.system) as run_span:
            with _span(tracer, "execute", cat="build", run=entry.run_id):
                run = self._execute_entry(entry, template, taverna, wings)
            if template.system == "taverna":
                with _span(tracer, "export", cat="build", run=entry.run_id):
                    rdf = taverna_export(run)
                    export_template_description(template, rdf)
                with _span(tracer, "serialize", cat="build", run=entry.run_id):
                    text = serialize_turtle(rdf)
                triples = len(rdf)
                rdf_format = "turtle"
            else:
                with _span(tracer, "export", cat="build", run=entry.run_id):
                    rdf = wings_export(run)
                    export_template(template, rdf)
                with _span(tracer, "serialize", cat="build", run=entry.run_id):
                    text = serialize_trig(rdf)
                # The merged graph collapses bundles: count distinct triples.
                triples = len({triple for _, graph in _graphs(rdf) for triple in graph})
                rdf_format = "trig"
            result = run.result
            run_span.set(status=result.status)
            _BUILD_RUNS.labels(template.system, result.status).inc()
        return CorpusTrace(
            run_id=entry.run_id,
            system=template.system,
            domain=template.domain,
            template_id=template.template_id,
            template_name=template.name,
            status=result.status,
            started=result.started,
            ended=result.ended,
            user=entry.user,
            rdf=rdf,
            text=text,
            rdf_format=rdf_format,
            triples=triples,
            failed_step=result.failed_step,
            failure_cause=result.failure_cause,
            result=result,
        )

    def plan_start_times(
        self, plan: List[RunPlanEntry], by_id: Dict[str, WorkflowTemplate]
    ) -> List[_dt.datetime]:
        """The exact clock instant each planned run starts at.

        Run *n* starts after every earlier run's simulated duration plus
        its own idle gap, so start times form a serial dependency chain.
        Durations are pure functions of each run (latencies derive from
        content digests, never from the absolute clock), so a cheap
        execute-only pass — no PROV export, no serialization, under 5%
        of full build cost — resolves the whole chain; workers can then
        replay any run at its exact start time, independently.
        """
        clock = SimulatedClock(self.start)
        taverna, wings = self._make_engines(clock)
        starts: List[_dt.datetime] = []
        for entry in plan:
            clock.advance(self._gap_seconds(entry))
            starts.append(clock.now)
            try:
                self._execute_entry(entry, by_id[entry.template_id], taverna, wings)
            except WorkflowError as exc:
                message = f"run {entry.run_id} (template {entry.template_id}): {exc}"
                try:
                    wrapped = type(exc)(message)
                except Exception:
                    wrapped = WorkflowError(message)
                raise wrapped from exc
        return starts


def build_corpus(
    seed: int = 2013, jobs: int = 1, start: Optional[_dt.datetime] = None, tracer=None,
    scale: int = 1,
) -> Corpus:
    """Build the full 198·scale-run corpus; ``jobs`` fans runs over processes."""
    return CorpusBuilder(seed=seed, start=start, scale=scale).build(jobs=jobs, tracer=tracer)


def hash_of(*parts: object) -> int:
    """Stable (non-salted) hash for deterministic planning decisions."""
    import hashlib

    h = hashlib.sha1("|".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")
