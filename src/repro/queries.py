"""The paper's six exemplar provenance queries (Section 4).

Each query is provided both as SPARQL text (runnable against the corpus
dataset with :class:`repro.sparql.QueryEngine` or the HTTP endpoint) and
as a typed Python method on :class:`CorpusQueries`.

The queries are *interoperable* where the paper allows and
system-specific where it doesn't:

1. **Workflow runs with start/end times** — UNION over the Taverna idiom
   (``wfprov:WorkflowRun`` + ``prov:startedAtTime``) and the Wings idiom
   (``opmw:WorkflowExecutionAccount`` + ``opmw:overallStartTime``).
2. **Runs of a template, and how many failed** — counts via aggregates.
3. **Runs of a template with their inputs and outputs.**
4. **Process runs of a run with start/end and I/O** — start/end bound
   only on Taverna traces ("only available in Taverna provenance logs").
5. **Who executed a run** — association (Taverna: the engine) ∪
   attribution (Wings: the user).
6. **Services executed by a run** — ``opmw:hasExecutableComponent``,
   "only available in Wings provenance logs".

Beside them, :data:`TRACE_RULES` holds the PROV-CONSTRAINTS checks the
corpus can decide (https://www.w3.org/TR/prov-constraints/), written
over the PROV-O triples a trace ships as: each SELECT returns the
violations of one rule, and :meth:`CorpusQueries.trace_violations` runs
them all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .rdf.graph import Dataset, Graph
from .rdf.terms import IRI
from .sparql.evaluator import QueryEngine
from .sparql.results import ResultTable
from .taverna.engine import TAVERNA_WF_NS
from .wings.engine import OPMW_EXPORT_NS

__all__ = [
    "CorpusQueries",
    "exemplar_queries",
    "taverna_workflow_iri",
    "wings_template_iri",
    "Q1_WORKFLOW_RUNS",
    "q2_runs_of_template",
    "q3_template_io",
    "q4_process_runs",
    "q5_who_executed",
    "q6_services_executed",
    "TRACE_RULES",
]


def taverna_workflow_iri(template_id: str, name: str) -> IRI:
    """The wfdesc workflow IRI Taverna traces point at via prov:hadPlan."""
    return TAVERNA_WF_NS.term(f"{template_id}/workflow/{name}/")


def wings_template_iri(template_id: str) -> IRI:
    """The OPMW template IRI Wings accounts point at."""
    return OPMW_EXPORT_NS.term(f"WorkflowTemplate/{template_id}")


#: Query 1 — What are the workflow runs available, and what is their
#: start and end time?
Q1_WORKFLOW_RUNS = """
SELECT ?run ?start ?end WHERE {
  {
    ?run a wfprov:WorkflowRun ; prov:startedAtTime ?start .
    OPTIONAL { ?run prov:endedAtTime ?end }
    FILTER NOT EXISTS { ?run wfprov:wasPartOfWorkflowRun ?parent }
  }
  UNION
  {
    ?run a opmw:WorkflowExecutionAccount ; opmw:overallStartTime ?start .
    OPTIONAL { ?run opmw:overallEndTime ?end }
  }
}
ORDER BY ?start
"""


def q2_runs_of_template(template: Union[IRI, str]) -> str:
    """Query 2 — runs associated with a template, and how many failed."""
    iri = template.n3() if isinstance(template, IRI) else f"<{template}>"
    return f"""
SELECT (COUNT(?run) AS ?total) (SUM(IF(?failed = "yes", 1, 0)) AS ?failures) WHERE {{
  {{
    ?run wfprov:describedByWorkflow {iri} .
    ?run a wfprov:WorkflowRun .
    FILTER NOT EXISTS {{ ?run wfprov:wasPartOfWorkflowRun ?parent }}
    OPTIONAL {{ ?run tavernaprov:runStatus ?status }}
    BIND(IF(BOUND(?status) && ?status = "failed", "yes", "no") AS ?failed)
  }}
  UNION
  {{
    ?run opmw:correspondsToTemplate {iri} .
    ?run opmw:hasStatus ?status .
    BIND(IF(?status = "FAILURE", "yes", "no") AS ?failed)
  }}
}}
"""


def q3_template_io(template: Union[IRI, str]) -> str:
    """Query 3 — runs of a template with the inputs they used and the
    outputs they generated (workflow-level artifacts)."""
    iri = template.n3() if isinstance(template, IRI) else f"<{template}>"
    return f"""
SELECT ?run ?input ?output WHERE {{
  {{
    ?run wfprov:describedByWorkflow {iri} .
    ?run a wfprov:WorkflowRun .
    FILTER NOT EXISTS {{ ?run wfprov:wasPartOfWorkflowRun ?parent }}
    OPTIONAL {{ ?run prov:used ?input }}
    OPTIONAL {{ ?output prov:wasGeneratedBy ?run }}
  }}
  UNION
  {{
    ?run opmw:correspondsToTemplate {iri} .
    GRAPH ?run {{
      {{ ?input opmw:correspondsToTemplateArtifact ?invar .
         FILTER NOT EXISTS {{ ?input prov:wasGeneratedBy ?anyp }} }}
      UNION
      {{ ?output opmw:correspondsToTemplateArtifact ?outvar .
         ?output prov:wasGeneratedBy ?p }}
    }}
  }}
}}
ORDER BY ?run
"""


def q4_process_runs(run: Union[IRI, str]) -> str:
    """Query 4 — process runs of a run, their start/end (Taverna only),
    and their inputs and outputs."""
    iri = run.n3() if isinstance(run, IRI) else f"<{run}>"
    return f"""
SELECT ?process ?start ?end ?input ?output WHERE {{
  {{
    ?process wfprov:wasPartOfWorkflowRun {iri} .
    ?process a wfprov:ProcessRun .
    OPTIONAL {{ ?process prov:startedAtTime ?start }}
    OPTIONAL {{ ?process prov:endedAtTime ?end }}
  }}
  UNION
  {{
    GRAPH {iri} {{ ?process a opmw:WorkflowExecutionProcess }}
  }}
  OPTIONAL {{ ?process prov:used ?input }}
  OPTIONAL {{ ?output prov:wasGeneratedBy ?process }}
}}
ORDER BY ?process
"""


def q5_who_executed(run: Union[IRI, str]) -> str:
    """Query 5 — who executed a given workflow run?"""
    iri = run.n3() if isinstance(run, IRI) else f"<{run}>"
    return f"""
SELECT DISTINCT ?agent WHERE {{
  {{ {iri} prov:wasAssociatedWith ?agent }}
  UNION
  {{ {iri} prov:wasAttributedTo ?agent }}
}}
ORDER BY ?agent
"""


def q6_services_executed(run: Union[IRI, str]) -> str:
    """Query 6 — services executed as a result of a workflow run
    (only available in Wings provenance logs)."""
    iri = run.n3() if isinstance(run, IRI) else f"<{run}>"
    return f"""
SELECT DISTINCT ?component WHERE {{
  GRAPH {iri} {{ ?process opmw:hasExecutableComponent ?component }}
}}
ORDER BY ?component
"""


#: The PROV-CONSTRAINTS checks, rule name → (severity, SELECT text).
#: Each text returns one row per violation found in its source: one
#: trace's graph or dataset, where a qualified node (``_:qN``) is that
#: trace's own.  Dangling references stay warnings: failed runs may leave
#: them, and the paper keeps such traces.
TRACE_RULES: Dict[str, Tuple[str, str]] = {
    # An activity does not end before it starts.
    "start-precedes-end": ("error", """
SELECT ?activity ?start ?end WHERE {
  ?activity prov:startedAtTime ?start ; prov:endedAtTime ?end .
  FILTER (?end < ?start)
}
"""),
    # Within one graph an entity is generated by one activity.  Taverna
    # also records a process run's output as generated by the run the
    # process is part of: two granularities of one event, not a conflict.
    "generation-uniqueness": ("error", """
SELECT DISTINCT ?entity ?first ?second WHERE {
  { GRAPH ?g { ?entity prov:wasGeneratedBy ?first , ?second } }
  UNION
  { ?entity prov:wasGeneratedBy ?first , ?second .
    FILTER NOT EXISTS { GRAPH ?g { ?entity prov:wasGeneratedBy ?first } }
    FILTER NOT EXISTS { GRAPH ?h { ?entity prov:wasGeneratedBy ?second } } }
  FILTER (STR(?first) < STR(?second))
  FILTER NOT EXISTS { ?first wfprov:wasPartOfWorkflowRun ?second }
  FILTER NOT EXISTS { ?second wfprov:wasPartOfWorkflowRun ?first }
}
"""),
    # An entity is not used before it is generated (both times known).
    "usage-after-generation": ("error", """
SELECT DISTINCT ?entity ?activity ?used ?generated WHERE {
  ?activity prov:qualifiedUsage ?usage .
  ?usage prov:entity ?entity ; prov:atTime ?used .
  ?entity prov:qualifiedGeneration ?generation .
  ?generation prov:atTime ?generated .
  FILTER (?used < ?generated)
}
"""),
    # A timed generation falls inside its activity's [start, end].
    "generation-within-activity": ("error", """
SELECT DISTINCT ?entity ?activity ?time WHERE {
  ?entity prov:qualifiedGeneration ?generation .
  ?generation prov:activity ?activity ; prov:atTime ?time .
  { ?activity prov:startedAtTime ?start FILTER (?time < ?start) }
  UNION
  { ?activity prov:endedAtTime ?end FILTER (?time > ?end) }
}
"""),
    # Nothing is both an entity and an activity (an agent may be either).
    "entity-activity-disjoint": ("error", """
SELECT DISTINCT ?resource WHERE { ?resource a prov:Entity , prov:Activity }
"""),
    # Every IRI a PROV relation names is typed Entity, Activity or Agent
    # somewhere in the source.
    "dangling-reference": ("warning", """
SELECT DISTINCT ?relation ?resource WHERE {
  VALUES ?relation {
    prov:used prov:wasGeneratedBy prov:wasInformedBy prov:wasAssociatedWith
    prov:wasAttributedTo prov:actedOnBehalfOf prov:wasDerivedFrom
    prov:hadPrimarySource prov:wasQuotedFrom prov:wasRevisionOf
    prov:wasInfluencedBy prov:hadMember prov:hadPlan
  }
  { ?resource ?relation ?other } UNION { ?other ?relation ?resource }
  FILTER (isIRI(?resource))
  FILTER NOT EXISTS { ?resource a prov:Entity }
  FILTER NOT EXISTS { ?resource a prov:Activity }
  FILTER NOT EXISTS { ?resource a prov:Agent }
}
"""),
}


def exemplar_queries(corpus) -> Dict[str, str]:
    """All six exemplar queries instantiated against one corpus.

    Q2–Q6 are query *templates*; this picks the same canonical fixtures
    the benchmark suite uses (the first multi-run ``t-`` template, the
    first non-failed Taverna and Wings traces), so the returned query
    texts — and therefore their EXPLAIN plan digests — are deterministic
    for a given corpus build.
    """
    template_id = next(t for t in corpus.multi_run_templates() if t.startswith("t-"))
    template = corpus.templates[template_id]
    taverna_trace = next(t for t in corpus.by_system("taverna") if not t.failed)
    wings_trace = next(t for t in corpus.by_system("wings") if not t.failed)
    from .taverna.engine import TAVERNA_RUN_NS

    taverna_template_iri = taverna_workflow_iri(template_id, template.name)
    taverna_run_iri = TAVERNA_RUN_NS.term(f"{taverna_trace.run_id}/")
    wings_run_iri = OPMW_EXPORT_NS.term(
        f"WorkflowExecutionAccount/{wings_trace.run_id}"
    )
    return {
        "Q1": Q1_WORKFLOW_RUNS,
        "Q2": q2_runs_of_template(taverna_template_iri),
        "Q3": q3_template_io(taverna_template_iri),
        "Q4": q4_process_runs(taverna_run_iri),
        "Q5": q5_who_executed(taverna_run_iri),
        "Q6": q6_services_executed(wings_run_iri),
    }


class CorpusQueries:
    """Typed access to the six exemplar queries over a corpus dataset."""

    def __init__(self, source: Union[Graph, Dataset], tracer=None):
        self.engine = QueryEngine(source, tracer=tracer)
        # The queries rely on the exporters' extension prefixes even when
        # the source graph was built without them.
        self.engine.namespaces.bind(
            "tavernaprov", "http://ns.taverna.org.uk/2012/tavernaprov/", replace=False
        )
        self.engine.namespaces.bind("opmw-export", OPMW_EXPORT_NS.base, replace=False)

    # Q1 ---------------------------------------------------------------------

    def workflow_runs(self) -> ResultTable:
        """All top-level runs with start and (when recorded) end times."""
        return self.engine.select(Q1_WORKFLOW_RUNS)

    # Q2 ---------------------------------------------------------------------

    def runs_of_template(self, template: Union[IRI, str]) -> Dict[str, int]:
        """``{"total": n, "failed": m}`` for one template."""
        table = self.engine.select(q2_runs_of_template(template))
        if not table:
            return {"total": 0, "failed": 0}
        row = table[0]
        total = row.total.to_python() if row.total is not None else 0
        failed = row.failures.to_python() if row.failures is not None else 0
        return {"total": int(total), "failed": int(failed)}

    # Q3 ---------------------------------------------------------------------

    def template_io(self, template: Union[IRI, str]) -> Dict[str, Dict[str, List[str]]]:
        """Per run: the input and output artifact IRIs."""
        table = self.engine.select(q3_template_io(template))
        out: Dict[str, Dict[str, List[str]]] = {}
        for row in table:
            run = row.run.value
            entry = out.setdefault(run, {"inputs": [], "outputs": []})
            if row.input is not None and row.input.value not in entry["inputs"]:
                entry["inputs"].append(row.input.value)
            if row.output is not None and row.output.value not in entry["outputs"]:
                entry["outputs"].append(row.output.value)
        return out

    # Q4 ---------------------------------------------------------------------

    def process_runs(self, run: Union[IRI, str]) -> ResultTable:
        """Process runs of one workflow run with times and I/O."""
        return self.engine.select(q4_process_runs(run))

    # Q5 ---------------------------------------------------------------------

    def who_executed(self, run: Union[IRI, str]) -> List[str]:
        """Agent IRIs responsible for a run."""
        table = self.engine.select(q5_who_executed(run))
        return [row.agent.value for row in table if row.agent is not None]

    # Q6 ---------------------------------------------------------------------

    def services_executed(self, run: Union[IRI, str]) -> List[str]:
        """Component/service IRIs a Wings run executed (empty for Taverna)."""
        table = self.engine.select(q6_services_executed(run))
        return [row.component.value for row in table if row.component is not None]

    # PROV-CONSTRAINTS ----------------------------------------------------------

    def trace_violations(self) -> List[Tuple[str, str, object]]:
        """``(rule, severity, row)`` for every violation a
        :data:`TRACE_RULES` text finds, in rule order."""
        return [
            (rule, severity, row)
            for rule, (severity, text) in TRACE_RULES.items()
            for row in self.engine.select(text)
        ]
