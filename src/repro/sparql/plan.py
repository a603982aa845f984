"""EXPLAIN / PROFILE: the operator tree, its planner and its statistics.

A query is compiled once per shape and source version (``QueryEngine``'s
compiler and plan cache, in :mod:`repro.sparql.evaluator`) into a tree
of :class:`Operator` nodes —
one per algebra operator, a BGP holding one :class:`Scan` per triple
pattern — and that tree is the one thing the engine runs, EXPLAIN
renders, PROFILE times and the digest hashes.  The planner
(:func:`plan_bgp_steps`) is called once per BGP node, at compile time,
with the variables *certainly bound* before it.  Each chosen pattern
carries:

* a **bound mask** (one char per position: ``b`` constant, ``j``
  join-bound variable, ``?`` free) at the moment it was selected;
* the **predicate cardinality estimate** the statistics cache supplied;
* a **tiebreak reason** — the first score component that separated the
  winner from the runner-up (or "only pattern" / "tie: written order").

:class:`QueryPlan` wraps a compiled tree and renders it as text, JSON,
or Chrome-trace args.  Node details are rendered only when asked for,
so a plain execution never turns a pattern into text.  The **digest**
is the first 16 hex chars of the SHA-256 of the plan's canonical JSON;
it covers only static facts (operators, pattern order, masks,
estimates, reasons), so the same query over the same store yields
byte-identical EXPLAIN output across runs and across ``--jobs`` builds
(the stores are bit-identical, and statistics derive from them).

A compiled tree holds no per-execution state, so concurrent executions
may share it, or share subtrees of it (the query engine's plan cache
hands out :class:`PlanTemplate` instantiations that do).  PROFILE
(:meth:`QueryPlan.profile`) keeps its statistics in a per-execution map
from node to ``stats`` dict, published in a context variable for the
length of the run; unprofiled, a node pays one context-variable read per
call.  Collected per operator: rows in/out, wall and CPU
time, call count; per scan additionally segment bisect probes (a path
step's walk reads the same segments) and decode-LRU hits (attributed by
reading the store's plain-int counters before/after each pattern batch)
and the estimate-vs-actual cardinality error.  A BGP that leaves id space before a path step bills the one
decode to the last id-space step, so each scan's row counts and probes
are its own on either side of the switch.  A pattern whose actual
output exceeds its estimate by more than 10x bumps
``repro_planner_misestimate_total`` so bench trajectories catch
statistics staleness.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import metrics as _metrics
from ..rdf.terms import IRI
from .algebra import (
    Aggregate,
    And,
    Arithmetic,
    Compare,
    ExistsExpr,
    FunctionCall,
    InExpr,
    Not,
    Or,
    TermExpr,
    TriplePattern,
    Var,
    VarExpr,
)
from .paths import (
    Path,
    PathAlternative,
    PathClosure,
    PathInverse,
    PathSequence,
    first_access,
)

__all__ = [
    "PlanStep",
    "Operator",
    "Scan",
    "QueryPlan",
    "QueryProfile",
    "PlanTemplate",
    "choose_access",
    "plan_bgp_steps",
    "render_term",
    "render_expression",
]

_MISESTIMATES = _metrics.counter(
    "repro_planner_misestimate_total",
    "Profiled scans whose actual cardinality exceeded the estimate by >10x",
)

#: Factor by which actual rows must exceed the estimate to count as a
#: planner misestimate (only judged when an estimate exists).
MISESTIMATE_FACTOR = 10

# ---------------------------------------------------------------------------
# Deterministic rendering of algebra fragments
# ---------------------------------------------------------------------------


def render_term(term) -> str:
    """A stable string for a pattern position: term N3, ``?var``, or path."""
    if isinstance(term, Var):
        return f"?{term.name}"
    if isinstance(term, Path):
        return _render_path(term)
    n3 = getattr(term, "n3", None)
    return n3() if callable(n3) else str(term)


def _render_path(path) -> str:
    if isinstance(path, PathSequence):
        return "/".join(_render_path(step) for step in path.steps)
    if isinstance(path, PathAlternative):
        return "(" + "|".join(_render_path(o) for o in path.options) + ")"
    if isinstance(path, PathInverse):
        return "^" + _render_path(path.inner)
    if isinstance(path, PathClosure):
        return _render_path(path.inner) + ("*" if path.include_zero else "+")
    return render_term(path)


def render_triple_pattern(tp: TriplePattern) -> str:
    return (
        f"{render_term(tp.subject)} {render_term(tp.predicate)} "
        f"{render_term(tp.object)}"
    )


def render_expression(expr) -> str:
    """A stable one-line rendering of a filter/select expression."""
    if expr is None:
        return ""
    if isinstance(expr, VarExpr):
        return f"?{expr.var.name}"
    if isinstance(expr, TermExpr):
        return render_term(expr.term)
    if isinstance(expr, And):
        return f"({render_expression(expr.left)} && {render_expression(expr.right)})"
    if isinstance(expr, Or):
        return f"({render_expression(expr.left)} || {render_expression(expr.right)})"
    if isinstance(expr, Not):
        return f"!({render_expression(expr.operand)})"
    if isinstance(expr, Compare):
        return f"({render_expression(expr.left)} {expr.op} {render_expression(expr.right)})"
    if isinstance(expr, Arithmetic):
        return f"({render_expression(expr.left)} {expr.op} {render_expression(expr.right)})"
    if isinstance(expr, FunctionCall):
        args = ", ".join(render_expression(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ExistsExpr):
        return ("NOT EXISTS" if expr.negated else "EXISTS") + "{...}"
    if isinstance(expr, InExpr):
        choices = ", ".join(render_expression(c) for c in expr.choices)
        keyword = "NOT IN" if expr.negated else "IN"
        return f"({render_expression(expr.operand)} {keyword} ({choices}))"
    if isinstance(expr, Aggregate):
        inner = "*" if expr.expression is None else render_expression(expr.expression)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{inner})"
    return type(expr).__name__


# ---------------------------------------------------------------------------
# Annotated BGP planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    """One chosen triple pattern with the evidence behind the choice."""

    pattern: TriplePattern
    bound_mask: str  # 'b' constant, 'j' join-bound var, '?' free — s/p/o
    estimate: int  # predicate cardinality estimate (0 = unknown)
    reason: str  # which score component won the tiebreak
    #: Scan operator for encoded (store-backed) execution: "merge" when
    #: a join-bound variable sits in the chosen ordering's sort prefix
    #: (batch sorted, monotone galloping cursor), "bisect" otherwise; a
    #: merge batch dense in its constant range runs as "hash" (decided
    #: at run time, so PROFILE, not EXPLAIN, shows it).
    #: ``None`` on graphs without an encoded surface, and for plain steps
    #: planned after a property path (those run on the per-binding
    #: pipeline).
    access: Optional[str] = None
    #: Segment ordering the scan ranges over (spog/posg/ospg/gspo).
    ordering: Optional[str] = None


def choose_access(mask: str, graph):
    """(operator, access path) for one pattern on a store-backed graph.

    *mask* is the s/p/o bound mask ('b' constant, 'j' join-bound, '?'
    free).  Which ordering and sort prefix answer it is the store's
    decision (``graph.access_path``); the operator is the executor's:
    "merge" when any position of that prefix is join-bound — the
    executor sorts the batch's keys and advances a monotone galloping
    cursor instead of bisecting from scratch per binding — else
    "bisect".  (Prefix position 3 is the scope's graph id, a constant.)
    """
    path = graph.access_path(*(state != "?" for state in mask))
    joined = any((mask + "b")[position] == "j" for position in path.prefix)
    return ("merge" if joined else "bisect"), path


def _access_annotator(graph):
    """(mask, tp) → (access, ordering) annotation for one plan step.

    Called once per step in plan order.  Plain patterns annotate via
    :func:`choose_access` when *graph* supports encoded execution and
    no property path has been planned before them: the executor runs a
    BGP in id space up to its first path step and per binding after it,
    so advertising merge/bisect past that step would describe a pipeline
    that never runs.  A property-path step annotates ``("path",
    ordering)``: its walk reads the store's own orderings, and the one
    named is the ordering of the first lookup the walk makes given the
    mask's bound endpoints.  Annotating only capability-bearing graphs
    keeps in-memory plan digests byte-identical to earlier releases.
    """
    if getattr(graph, "encoded_scope", None) is None:
        return lambda mask, tp: (None, None)
    after_path = False

    def annotate(mask, tp):
        nonlocal after_path
        if isinstance(tp.predicate, Path):
            after_path = True
            bound = first_access(tp.predicate, mask[0] != "?", mask[2] != "?")
            return "path", graph.access_path(*bound).ordering
        if after_path:
            return (None, None)
        operator, path = choose_access(mask, graph)
        return operator, path.ordering

    return annotate


#: Score-tuple component index → human-readable tiebreak reason.  Must
#: stay aligned with the tuple built in :func:`_score`.
_SCORE_REASONS = (
    "most bound positions",
    "plain pattern before property path",
    "bound subject",
    "bound object",
    "lower predicate cardinality",
)


def _mask(tp: TriplePattern, bound: set) -> str:
    chars = []
    for term in (tp.subject, tp.predicate, tp.object):
        if isinstance(term, Var):
            chars.append("j" if term.name in bound else "?")
        else:
            chars.append("b")
    return "".join(chars)


def plan_bgp_steps(
    patterns: List[TriplePattern],
    bound_vars: Iterable[str] = (),
    graph=None,
) -> List[PlanStep]:
    """Order triple patterns most-selective-first, with annotations.

    Greedy: repeatedly pick the pattern with the most bound positions
    (constants plus variables already bound by previously chosen
    patterns), preferring plain patterns over property paths, bound
    subjects over bound objects, and using the graph's predicate
    cardinalities as the final tiebreaker.  Called once per BGP node
    when a query is compiled: the steps it returns are the scans that
    node runs and EXPLAIN prints.
    """
    bound = set(bound_vars)
    statistics = graph.statistics() if graph is not None else None
    annotate = _access_annotator(graph)
    # (pattern, its predicate's cardinality): fixed for the whole BGP
    remaining = [
        (tp, statistics.predicate_cardinality(tp.predicate)
         if statistics is not None and isinstance(tp.predicate, IRI) else 0)
        for tp in patterns
    ]
    steps: List[PlanStep] = []

    def score(tp: TriplePattern, cardinality: int) -> tuple:
        s = not isinstance(tp.subject, Var) or tp.subject.name in bound
        p = not isinstance(tp.predicate, Var) or tp.predicate.name in bound
        o = not isinstance(tp.object, Var) or tp.object.name in bound
        is_path = isinstance(tp.predicate, Path)
        return (-(s + p + o), is_path, not s, not o, cardinality)

    while remaining:
        if len(remaining) == 1:
            best_index, (best, estimate) = 0, remaining[0]
            reason = "only pattern"
        else:
            scored = sorted(
                ((score(tp, card), index, tp, card)
                 for index, (tp, card) in enumerate(remaining)),
                key=lambda item: (item[0], item[1]),
            )
            best_score, best_index, best, estimate = scored[0]
            reason = "tie: written order"
            runner_score = scored[1][0]
            for component, (won, lost) in enumerate(zip(best_score, runner_score)):
                if won != lost:
                    reason = _SCORE_REASONS[component]
                    break
        mask = _mask(best, bound)
        access, ordering = annotate(mask, best)
        steps.append(PlanStep(best, mask, estimate, reason, access, ordering))
        remaining.pop(best_index)
        bound.update(best.variables())
    return steps


# ---------------------------------------------------------------------------
# The operator tree
# ---------------------------------------------------------------------------


#: The statistics of the profiled execution running in this context —
#: one dict per operator of its tree — or None when nothing is profiled.
_PROFILED: ContextVar[Optional[Dict["Operator", dict]]] = ContextVar(
    "repro_profiled", default=None)


def profiled_stats(node: "Operator") -> Optional[dict]:
    """*node*'s statistics in the profiled execution running here, if any."""
    profiled = _PROFILED.get()
    return None if profiled is None else profiled.get(node)


class Operator:
    """One node of a compiled query: what EXPLAIN prints, what PROFILE
    times and what the engine runs.

    Subclasses name their EXPLAIN operator in ``op``, implement
    ``execute(inputs, graph)`` — the solutions out, given the solutions
    in and the active graph — and return their static facts from
    ``describe()``, which is only called when the tree is rendered.
    A node is never written to once compiled.
    """

    op = ""

    def __init__(self, *children: "Operator"):
        self.children = list(children)

    def describe(self) -> Dict[str, object]:
        return {}

    #: Static, JSON-serializable facts: the digest covers them.
    detail = property(lambda self: self.describe())

    def patterns(self) -> Sequence[TriplePattern]:
        """The triple patterns this node itself reads when it runs."""
        return ()

    def rebound(self, children: List["Operator"],
                patterns: Optional[List[TriplePattern]]) -> "Operator":
        """A shallow copy of this node over *children* that reads
        *patterns* in place of :meth:`patterns` (``None``: the same)."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.children = children
        return new

    def run(self, inputs: list, graph) -> list:
        """:meth:`execute`, timed into its statistics when profiling."""
        profiled = _PROFILED.get()
        if profiled is None:
            return self.execute(inputs, graph)
        return _timed(profiled[self], inputs, lambda: self.execute(inputs, graph))

    def new_stats(self) -> dict:
        return {"calls": 0, "rows_in": 0, "rows_out": 0, "wall_s": 0.0, "cpu_s": 0.0}

    def runtime(self, stats: dict) -> dict:
        """JSON-ready profile statistics (times inclusive of children)."""
        return {
            "calls": stats["calls"],
            "rows_in": stats["rows_in"],
            "rows_out": stats["rows_out"],
            "wall_ms": round(stats["wall_s"] * 1000.0, 3),
            "cpu_ms": round(stats["cpu_s"] * 1000.0, 3),
        }

    def to_dict(self) -> dict:
        out: dict = {"op": self.op}
        detail = self.detail
        if detail:
            out["detail"] = detail
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def walk(self) -> Iterable["Operator"]:
        yield self
        for child in self.children:
            yield from child.walk()


def _timed(stats: dict, inputs: list, call: Callable) -> list:
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    out = call()
    stats["wall_s"] += time.perf_counter() - wall0
    stats["cpu_s"] += time.process_time() - cpu0
    stats["calls"] += 1
    stats["rows_in"] += len(inputs)
    stats["rows_out"] += len(out)
    return out


def _runtime_counters(graph) -> Tuple[int, int]:
    """(segment bisect probes, decode-LRU hits) — plain ints, store-backed
    graphs only; in-memory graphs report zeros."""
    counters = getattr(graph, "runtime_counters", None)
    return (0, 0) if counters is None else counters()


class Scan(Operator):
    """One planned triple pattern of a BGP; its BGP drives it."""

    op = "scan"

    def __init__(self, index: int, step: PlanStep):
        super().__init__()
        self.index = index
        self.step = step

    def describe(self) -> Dict[str, object]:
        step = self.step
        detail: Dict[str, object] = {
            "index": self.index,
            "pattern": render_triple_pattern(step.pattern),
            "mask": step.bound_mask,
            "estimate": step.estimate,
            "reason": step.reason,
        }
        if step.access is not None:
            # Only encoded-capable graphs annotate, so in-memory
            # digests are unaffected.
            detail["join"] = step.access
            detail["ordering"] = step.ordering
        return detail

    def patterns(self) -> Sequence[TriplePattern]:
        return (self.step.pattern,)

    def rebound(self, children, patterns):
        new = super().rebound(children, patterns)
        if patterns is not None:
            new.step = replace(self.step, pattern=patterns[0])
        return new

    def run(self, batch: list, graph, extend: Callable) -> list:
        """``extend(step, batch, graph)`` — the encoded executor's or the
        per-binding pipeline's — with the store work it caused attributed
        to this pattern when profiling."""
        step = self.step
        profiled = _PROFILED.get()
        if profiled is None:
            return extend(step, batch, graph)
        stats = profiled[self]
        probes_before, decode_before = _runtime_counters(graph)
        out = _timed(stats, batch, lambda: extend(step, batch, graph))
        probes_after, decode_after = _runtime_counters(graph)
        stats["probes"] += probes_after - probes_before
        stats["decode_hits"] += decode_after - decode_before
        if (not stats["misestimate"] and step.estimate > 0
                and stats["rows_out"] > MISESTIMATE_FACTOR * step.estimate):
            stats["misestimate"] = True
            _MISESTIMATES.inc()
        return out

    def new_stats(self) -> dict:
        return {**super().new_stats(), "probes": 0, "decode_hits": 0,
                "misestimate": False, "hash": False}

    def runtime(self, stats: dict) -> dict:
        out = {**super().runtime(stats), "probes": stats["probes"],
               "decode_hits": stats["decode_hits"]}
        if stats["hash"]:
            # the executor picks its operator per batch: a scan any batch
            # of which read its constants-only range reports ``hash``
            out["join"] = "hash"
        if self.step.estimate:
            out["error_ratio"] = round(stats["rows_out"] / self.step.estimate, 2)
        if stats["misestimate"]:
            out["misestimate"] = True
        return out


class QueryPlan:
    """A compiled query: its operator tree, the graph snapshot it was
    compiled against, and the digest of its static facts."""

    def __init__(self, root: Operator, graph):
        self.root = root
        self.graph = graph
        self._digest: Optional[str] = None

    def execute(self):
        """Run the tree: a ResultTable, a bool or a Graph."""
        return self.root.execute([{}], self.graph)

    @property
    def digest(self) -> str:
        """First 16 hex chars of SHA-256 over the canonical plan JSON.

        Deterministic by construction: the dict holds only static plan
        facts, serialized with sorted keys and fixed separators.
        """
        if self._digest is None:
            canonical = json.dumps(
                self.root.to_dict(), sort_keys=True, separators=(",", ":")
            )
            self._digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        return self._digest

    def to_dict(self) -> dict:
        return {"digest": self.digest, "plan": self.root.to_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        """Byte-stable indented tree rendering."""
        lines = [f"plan digest={self.digest}"]
        self._render(self.root, lines, prefix="", is_last=True, is_root=True)
        return "\n".join(lines)

    def trace_args(self) -> Dict[str, object]:
        """Flat attributes suitable for a Chrome-trace span's ``args``."""
        return {
            "plan_digest": self.digest,
            "plan_operators": sum(1 for _ in self.root.walk()),
        }

    def _render(self, node: Operator, lines, prefix, is_last, is_root=False):
        detail = _render_detail(node.detail)
        label = f"{node.op}{'  ' + detail if detail else ''}"
        if is_root:
            lines.append(label)
            child_prefix = ""
        else:
            connector = "`- " if is_last else "|- "
            lines.append(f"{prefix}{connector}{label}")
            child_prefix = prefix + ("   " if is_last else "|  ")
        for index, child in enumerate(node.children):
            self._render(child, lines, child_prefix, index == len(node.children) - 1)

    # -- profiling ------------------------------------------------------------

    def profile(self) -> "QueryProfile":
        """Execute with statistics on every operator below the query node
        (batch-level: one timestamp pair per operator call and per scan
        batch, nothing per row), kept in this execution's own map."""
        stats = {node: node.new_stats() for node in self.root.walk() if node is not self.root}
        token = _PROFILED.set(stats)
        try:
            started = time.perf_counter()
            result = self.execute()
            duration_ms = (time.perf_counter() - started) * 1000.0
        finally:
            _PROFILED.reset(token)
        return QueryProfile(result=result, plan=self,
                            report=self.profile_report(duration_ms, stats),
                            duration_ms=duration_ms)

    def profile_report(self, duration_ms: float, stats: Dict[Operator, dict]) -> dict:
        """The tree with the runtime *stats* of one execution merged in.

        Returns a JSON-serializable dict with the merged tree plus a
        flat preorder ``operators`` list (what the slow-query log
        embeds).  Operators that never ran keep zero stats.
        """
        operators: List[dict] = []
        misestimates = 0

        def merge(node: Operator) -> dict:
            nonlocal misestimates
            out: dict = {"op": node.op}
            detail = node.detail
            if detail:
                out["detail"] = dict(detail)
            own = stats.get(node)
            if own is not None:
                out.update(node.runtime(own))
                misestimates += bool(own.get("misestimate"))
            row = {"op": node.op, "label": str(
                detail.get("pattern") or detail.get("condition")
                or detail.get("expression") or "")}
            for field_name in (
                "calls", "rows_in", "rows_out", "wall_ms", "cpu_ms",
                "probes", "decode_hits", "estimate", "error_ratio",
                "misestimate", "join", "ordering",
            ):
                if field_name in out:
                    row[field_name] = out[field_name]
                elif field_name in detail:
                    row[field_name] = detail[field_name]
            operators.append(row)
            if node.children:
                out["children"] = [merge(child) for child in node.children]
            return out

        merged = merge(self.root)
        return {
            "digest": self.digest,
            "plan": merged,
            "operators": operators,
            "misestimates": misestimates,
            "duration_ms": round(duration_ms, 3),
        }


class PlanTemplate:
    """A compiled query whose IRI subjects and objects are slots.

    *sites* are the parser's lifted triple patterns: each with the
    token index of its IRIREF subject and/or object.  :attr:`slots`
    lists those token indices in text order; :meth:`instantiate` takes
    one IRI per slot and returns the tree a compile of the text with
    those IRIs would give.  It copies only the nodes on the paths from
    the root to the nodes that read a lifted pattern (scans, a
    CONSTRUCT template) and shares every other node with this template —
    the planner's choices read which positions are constants, never
    their values, so nothing else could differ.
    """

    def __init__(self, plan: QueryPlan, sites: Sequence[Tuple[TriplePattern, Optional[int],
                                                               Optional[int]]]):
        self.plan = plan
        self.slots: List[int] = sorted(
            {index for _, *indices in sites for index in indices if index is not None})
        slot_of = {index: n for n, index in enumerate(self.slots)}
        self._sites = [(pattern, slot_of.get(subject), slot_of.get(obj))
                       for pattern, subject, obj in sites]
        self._program = _rebind_program(plan.root, [pattern for pattern, _, _ in sites])

    def instantiate(self, terms: Sequence[IRI]) -> QueryPlan:
        """The plan with ``terms[n]`` at slot *n*."""
        plan = self.plan
        if self._program is None:
            return plan
        patterns = [
            TriplePattern(pattern.subject if subject is None else terms[subject],
                          pattern.predicate,
                          pattern.object if obj is None else terms[obj])
            for pattern, subject, obj in self._sites]
        return QueryPlan(_rebind(self._program, patterns), plan.graph)


def _rebind_program(node: Operator, lifted: List[TriplePattern]):
    """``(node, [(child index, child program)], [(pattern index, site)])``
    for a node on a path to a lifted pattern, else None.  A site is
    found by identity: equal patterns written twice are two sites."""
    children = []
    for index, child in enumerate(node.children):
        program = _rebind_program(child, lifted)
        if program is not None:
            children.append((index, program))
    own = [(index, site) for index, pattern in enumerate(node.patterns())
           for site, candidate in enumerate(lifted) if candidate is pattern]
    return (node, children, own) if children or own else None


def _rebind(program, patterns: List[TriplePattern]) -> Operator:
    node, children, own = program
    new_children = node.children
    if children:
        new_children = list(new_children)
        for index, child in children:
            new_children[index] = _rebind(child, patterns)
    new_patterns = None
    if own:
        new_patterns = list(node.patterns())
        for index, site in own:
            new_patterns[index] = patterns[site]
    return node.rebound(new_children, new_patterns)


def _render_detail(detail: Dict[str, object]) -> str:
    if not detail:
        return ""
    parts = []
    for key in sorted(detail):
        value = detail[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


@dataclass
class QueryProfile:
    """The outcome of :meth:`QueryEngine.profile`: result + statistics.

    ``report`` is the JSON-serializable merged plan/stats dict (see
    :meth:`QueryPlan.profile_report`); ``result`` is whatever the query
    produced (ResultTable / bool / Graph).
    """

    result: object
    plan: QueryPlan
    report: dict
    duration_ms: float

    def to_dict(self) -> dict:
        return self.report

    def to_json(self) -> str:
        return json.dumps(self.report, indent=2, sort_keys=True)

    def to_text(self) -> str:
        """Flat per-operator table (preorder, times inclusive)."""
        lines = [
            f"profile digest={self.plan.digest} "
            f"duration_ms={self.report.get('duration_ms')}"
        ]
        header = (
            f"{'op':<10} {'label':<46} {'calls':>6} {'rows_in':>8} "
            f"{'rows_out':>8} {'wall_ms':>9} {'probes':>8} {'est':>8} "
            f"{'join':>6}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.report["operators"]:
            label = str(row.get("label", ""))
            if len(label) > 46:
                label = label[:43] + "..."
            wall = row.get("wall_ms")
            lines.append(
                f"{row['op']:<10} {label:<46} {row.get('calls', 0):>6} "
                f"{row.get('rows_in', 0):>8} {row.get('rows_out', 0):>8} "
                f"{wall if wall is not None else 0:>9} "
                f"{row.get('probes', 0):>8} {row.get('estimate', ''):>8} "
                f"{row.get('join', ''):>6}"
            )
        if self.report.get("misestimates"):
            lines.append(f"misestimated patterns: {self.report['misestimates']}")
        return "\n".join(lines)
