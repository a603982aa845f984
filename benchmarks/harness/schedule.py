"""Seeded request schedules: which query text goes out at which position.

A schedule is a fixed list of requests, not a duration: the same seed
gives the same texts in the same order on every commit, so sample
counts, percentile ranks, cache-hit ratios, probe counts and response
bytes repeat exactly.  Parameters come from the corpus manifest (what
the program wrote), never from the program's internals.

A seeded query class draws from its eligible templates/runs only as many
as it can send ``MIN_SENDS_PER_PASS`` times each, round-robin, so every
text of a schedule is sent often enough for its fastest observation to
mean something.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro import queries as Q
from repro.rdf.terms import IRI
from repro.taverna.engine import TAVERNA_RUN_NS

from .spec import MIN_SENDS_PER_PASS, Workload

#: Whole-corpus property-path closures (the shapes ``query_parity.py``
#: holds equal across execution paths).  P3 (``p*``) cannot be served by
#: the path index and falls back to BFS; it is measured in traced runs
#: only.
PATH_QUERIES = {
    "P1": "SELECT ?out ?src WHERE { ?out (prov:used|^prov:wasGeneratedBy)+ ?src }",
    "P2": "SELECT ?a ?b WHERE { ?a (prov:used/prov:wasGeneratedBy)+ ?b }",
    "P3": "SELECT ?a ?b WHERE { ?a prov:used* ?b }",
    "P4": "SELECT ?e ?act WHERE { ?act ^prov:wasGeneratedBy ?e }",
}


def lineage_query(run: IRI) -> str:
    """Upstream entities of everything a Taverna run's processes generated."""
    return (
        "SELECT ?out ?src WHERE { "
        f"?p wfprov:wasPartOfWorkflowRun {run.n3()} . "
        "?out prov:wasGeneratedBy ?p . "
        "?out (prov:wasGeneratedBy/prov:used)+ ?src }"
    )


@dataclass(frozen=True)
class Request:
    cls: str  # query class: Q1..Q6, LIN, P1..P4
    key: str  # golden key, e.g. "Q4:t-astronomy-03-run1"
    text: str


def _template_iri(trace: Dict) -> IRI:
    if trace["system"] == "taverna":
        return Q.taverna_workflow_iri(trace["template_id"], trace["template_name"])
    return Q.wings_template_iri(trace["template_id"])


def _run_iri(trace: Dict) -> IRI:
    if trace["system"] == "taverna":
        return TAVERNA_RUN_NS.term(f"{trace['run_id']}/")
    return Q.OPMW_EXPORT_NS.term(f"WorkflowExecutionAccount/{trace['run_id']}")


def _templates(traces: Sequence[Dict]) -> List[Dict]:
    """One trace per template, in manifest order."""
    seen: Dict[str, Dict] = {}
    for trace in traces:
        seen.setdefault(trace["template_id"], trace)
    return list(seen.values())


#: class → (which traces are eligible, text of the query for one trace)
_CLASSES: Dict[str, Tuple[Callable[[Sequence[Dict]], List[Dict]], Callable[[Dict], str]]] = {
    "Q2": (_templates, lambda t: Q.q2_runs_of_template(_template_iri(t))),
    "Q3": (_templates, lambda t: Q.q3_template_io(_template_iri(t))),
    "Q4": (list, lambda t: Q.q4_process_runs(_run_iri(t))),
    "Q5": (list, lambda t: Q.q5_who_executed(_run_iri(t))),
    "Q6": (
        lambda traces: [t for t in traces if t["system"] == "wings"],
        lambda t: Q.q6_services_executed(_run_iri(t)),
    ),
    "LIN": (
        lambda traces: [
            t for t in traces if t["system"] == "taverna" and t["status"] == "ok"
        ],
        lambda t: lineage_query(_run_iri(t)),
    ),
}


def _key(cls: str, trace: Dict) -> str:
    ident = trace["template_id"] if cls in ("Q2", "Q3") else trace["run_id"]
    return f"{cls}:{ident}"


def request_for(cls: str, trace: Dict = None) -> Request:
    if cls == "Q1":
        return Request("Q1", "Q1", Q.Q1_WORKFLOW_RUNS)
    if cls in PATH_QUERIES:
        return Request(cls, cls, PATH_QUERIES[cls])
    return Request(cls, _key(cls, trace), _CLASSES[cls][1](trace))


def all_requests(traces: Sequence[Dict]) -> List[Request]:
    """Every instantiation any seed can schedule, plus P2/P3 (golden coverage)."""
    requests = [request_for("Q1")] + [request_for(p) for p in PATH_QUERIES]
    for cls, (eligible, _) in _CLASSES.items():
        requests.extend(request_for(cls, trace) for trace in eligible(traces))
    return requests


def canonical_parameters(traces: Sequence[Dict]) -> Dict[str, List[Dict]]:
    """The fixed fixtures ``repro.queries.exemplar_queries`` uses, from the manifest.

    The first multi-run ``t-`` template and the first non-failed Taverna
    and Wings runs; Q5 alternates between the two runs, so a cycle of
    seven holds seven distinct texts.
    """
    runs_of: Dict[str, int] = {}
    for trace in traces:
        runs_of[trace["template_id"]] = runs_of.get(trace["template_id"], 0) + 1
    template = next(
        t for t in traces
        if t["template_id"].startswith("t-") and runs_of[t["template_id"]] > 1
    )
    taverna = next(t for t in traces if t["system"] == "taverna" and t["status"] == "ok")
    wings = next(t for t in traces if t["system"] == "wings" and t["status"] == "ok")
    return {
        "Q2": [template], "Q3": [template], "Q4": [taverna],
        "Q5": [taverna, wings], "Q6": [wings], "LIN": [taverna],
    }


def build_schedule(workload: Workload, traces: Sequence[Dict], seed: int) -> List[Request]:
    """One pass of *workload*: ``cycles`` shuffled copies of its cycle."""
    rng = random.Random(seed)
    if workload.seeded_parameters:
        pools = {}
        for cls in sorted(set(workload.cycle) & set(_CLASSES)):
            pool = _CLASSES[cls][0](traces)
            rng.shuffle(pool)
            slots = workload.cycle.count(cls) * workload.cycles
            pools[cls] = pool[:slots // MIN_SENDS_PER_PASS]
    else:
        pools = canonical_parameters(traces)
    drawn = {cls: 0 for cls in pools}
    schedule: List[Request] = []
    for _ in range(workload.cycles):
        cycle = list(workload.cycle)
        rng.shuffle(cycle)
        for cls in cycle:
            trace = None
            if cls in pools:
                trace = pools[cls][drawn[cls] % len(pools[cls])]
                drawn[cls] += 1
            schedule.append(request_for(cls, trace))
    return schedule


def distinct(schedule: Sequence[Request]) -> List[Request]:
    """The distinct requests of a schedule, in first-use order."""
    return list({request.key: request for request in schedule}.values())


def class_counts(schedule: Sequence[Request]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for request in schedule:
        counts[request.cls] = counts.get(request.cls, 0) + 1
    return counts
