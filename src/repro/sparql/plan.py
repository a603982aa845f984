"""EXPLAIN / PROFILE: serializable query plans and operator statistics.

The planner (:func:`plan_bgp_steps`) is the single source of truth for
BGP join ordering: the evaluator executes its steps directly, so the
order EXPLAIN shows is — by construction, not by convention — the order
the evaluator executes.  Each chosen pattern carries:

* a **bound mask** (one char per position: ``b`` constant, ``j``
  join-bound variable, ``?`` free) at the moment it was selected;
* the **predicate cardinality estimate** the statistics cache supplied;
* a **tiebreak reason** — the first score component that separated the
  winner from the runner-up (or "only pattern" / "tie: written order").

:func:`build_plan` folds a parsed query into a :class:`QueryPlan`: a
tree of :class:`PlanNode` rendered as text, JSON, or Chrome-trace args.
The **digest** is the first 16 hex chars of the SHA-256 of the plan's
canonical JSON; it covers only static facts (operators, pattern order,
masks, estimates, reasons), so the same query over the same store yields
byte-identical EXPLAIN output across runs and across ``--jobs`` builds
(PR 3 made stores bit-identical; statistics derive from them).

:class:`ProfileCollector` is the opt-in per-operator statistics
recorder the evaluator consults at two choke points (operator dispatch
and per-pattern extension).  When no profile is active the evaluator
pays a single attribute check — the same contract as the
:class:`~repro.obs.metrics.MetricsRegistry`.  Collected per operator:
rows in/out, wall and CPU time, call count; per scan additionally
bisect probes (segments, plus the path index's adjacency for a path
step it serves) and decode-LRU hits (attributed by reading the store's
plain-int counters before/after each pattern batch) and the
estimate-vs-actual cardinality error.  A BGP that leaves id space
before a path step bills the one decode to the last id-space step, so
each scan's row counts and probes are its own on either side of the
switch.  A pattern whose actual output exceeds its estimate by more
than 10x bumps ``repro_planner_misestimate_total`` so bench
trajectories catch statistics staleness.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs import metrics as _metrics
from ..rdf.terms import IRI
from .algebra import (
    Aggregate,
    And,
    Arithmetic,
    AskQuery,
    BGP,
    Bind,
    Compare,
    ConstructQuery,
    DescribeQuery,
    ExistsExpr,
    Filter,
    FunctionCall,
    GraphPattern,
    InExpr,
    Join,
    LeftJoin,
    Minus,
    Not,
    Or,
    Pattern,
    SelectQuery,
    TermExpr,
    TriplePattern,
    Union,
    Values,
    Var,
    VarExpr,
)
from .paths import (
    Path,
    PathAlternative,
    PathClosure,
    PathInverse,
    PathSequence,
    index_supported,
)

__all__ = [
    "PlanStep",
    "PlanNode",
    "QueryPlan",
    "QueryProfile",
    "ProfileCollector",
    "build_plan",
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
    #: (batch sorted, monotone galloping cursor), "bisect" otherwise.
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


def _access_annotator(patterns: List[TriplePattern], graph):
    """(mask, tp) → (access, ordering) annotation for one plan step.

    Called once per step in plan order.  Plain patterns annotate via
    :func:`choose_access` when *graph* supports encoded execution and
    no property path has been planned before them: the executor runs a
    BGP in id space up to its first path step and per binding after it,
    so advertising merge/bisect past that step would describe a pipeline
    that never runs.  Property-path steps annotate ``("pathindex",
    "fwd"|"inv")`` when the graph's persisted path index can serve the
    path — the direction the closure BFS walks given the mask's bound
    endpoint.  Annotating only capability-bearing graphs keeps in-memory
    plan digests byte-identical to earlier releases.
    """
    scope_of = getattr(graph, "encoded_scope", None)
    index = None
    if any(isinstance(tp.predicate, Path) for tp in patterns):
        probe = getattr(graph, "path_index", None)
        index = probe() if callable(probe) else None
    if scope_of is None and index is None:
        return lambda mask, tp: (None, None)
    after_path = False

    def annotate(mask, tp):
        nonlocal after_path
        if isinstance(tp.predicate, Path):
            after_path = True
            if index is not None and index_supported(tp.predicate, index):
                direction = "fwd" if mask[0] != "?" or mask[2] == "?" else "inv"
                return ("pathindex", direction)
            return (None, None)
        if scope_of is None or after_path:
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
    cardinalities as the final tiebreaker.  This is the planner the
    evaluator executes, so EXPLAIN output is the executed order by
    construction.
    """
    remaining = list(patterns)
    bound = set(bound_vars)
    statistics = graph.statistics() if graph is not None else None
    annotate = _access_annotator(patterns, graph)
    steps: List[PlanStep] = []

    def score(tp: TriplePattern) -> tuple:
        s = not isinstance(tp.subject, Var) or tp.subject.name in bound
        p = not isinstance(tp.predicate, Var) or tp.predicate.name in bound
        o = not isinstance(tp.object, Var) or tp.object.name in bound
        bound_count = s + p + o
        cardinality = 0
        if isinstance(tp.predicate, IRI) and p:
            cardinality = (
                statistics.predicate_cardinality(tp.predicate)
                if statistics is not None
                else 0
            )
        is_path = isinstance(tp.predicate, Path)
        return (-bound_count, is_path, not s, not o, cardinality)

    while remaining:
        scored = sorted(
            ((score(tp), index, tp) for index, tp in enumerate(remaining)),
            key=lambda item: (item[0], item[1]),
        )
        best_score, best_index, best = scored[0]
        if len(scored) == 1:
            reason = "only pattern"
        else:
            reason = "tie: written order"
            runner_score = scored[1][0]
            for component, (won, lost) in enumerate(zip(best_score, runner_score)):
                if won != lost:
                    reason = _SCORE_REASONS[component]
                    break
        estimate = 0
        if isinstance(best.predicate, IRI) and statistics is not None:
            estimate = statistics.predicate_cardinality(best.predicate)
        mask = _mask(best, bound)
        access, ordering = annotate(mask, best)
        steps.append(PlanStep(best, mask, estimate, reason, access, ordering))
        remaining.pop(best_index)
        bound.update(best.variables())
    return steps


# ---------------------------------------------------------------------------
# Plan tree
# ---------------------------------------------------------------------------


@dataclass
class PlanNode:
    """One operator in a query plan.

    ``detail`` holds only static, JSON-serializable facts (it feeds the
    digest); ``key`` is the ``id()`` of the algebra node this operator
    came from, letting a :class:`ProfileCollector` attach runtime stats
    recorded against the same parsed query object.
    """

    op: str
    detail: Dict[str, object] = field(default_factory=dict)
    children: List["PlanNode"] = field(default_factory=list)
    key: Optional[int] = None

    def to_dict(self) -> dict:
        out: dict = {"op": self.op}
        if self.detail:
            out["detail"] = self.detail
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def walk(self) -> Iterable["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class QueryPlan:
    """A stable, serializable plan tree plus its digest."""

    def __init__(self, root: PlanNode, query: Optional[str] = None):
        self.root = root
        self.query = query
        self._digest: Optional[str] = None

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

    def _render(self, node: PlanNode, lines, prefix, is_last, is_root=False):
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

    # -- profile merging ----------------------------------------------------

    def profile_report(
        self, collector: "ProfileCollector", duration_ms: Optional[float] = None
    ) -> dict:
        """Merge collected runtime statistics into the plan tree.

        Returns a JSON-serializable dict with the merged tree plus a
        flat preorder ``operators`` list (what the slow-query log
        embeds).  Nodes the evaluator never reached keep zero stats.
        """
        operators: List[dict] = []

        def merge(node: PlanNode) -> dict:
            out: dict = {"op": node.op}
            if node.detail:
                out["detail"] = dict(node.detail)
            stats = collector.stats_for(node.key)
            if stats is not None:
                out.update(stats)
            row = {"op": node.op}
            label = ""
            if node.detail:
                label = str(
                    node.detail.get("pattern")
                    or node.detail.get("condition")
                    or node.detail.get("expression")
                    or ""
                )
            row["label"] = label
            for field_name in (
                "calls", "rows_in", "rows_out", "wall_ms", "cpu_ms",
                "probes", "decode_hits", "estimate", "error_ratio",
                "misestimate", "join", "ordering",
            ):
                if field_name in out:
                    row[field_name] = out[field_name]
                elif field_name in (node.detail or {}):
                    row[field_name] = node.detail[field_name]
            operators.append(row)
            if node.children:
                out["children"] = [merge(child) for child in node.children]
            return out

        merged = merge(self.root)
        report = {
            "digest": self.digest,
            "plan": merged,
            "operators": operators,
            "misestimates": collector.misestimates,
        }
        if duration_ms is not None:
            report["duration_ms"] = round(duration_ms, 3)
        return report


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


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def build_plan(query, graph=None, text: Optional[str] = None) -> QueryPlan:
    """EXPLAIN a parsed query against *graph* (for cardinality estimates).

    Purely static: nothing is executed.  Variable boundness is
    propagated the way the lateral evaluator binds variables (left to
    right through joins, into OPTIONAL right sides), so the BGP orders
    shown match execution.
    """
    if isinstance(query, SelectQuery):
        detail: Dict[str, object] = {
            "projections": ["*"] if query.select_all
            else [f"?{p.var.name}" for p in query.projections],
        }
        if query.distinct:
            detail["distinct"] = True
        if query.group_by:
            detail["group_by"] = [render_expression(e) for e in query.group_by]
        if query.having is not None:
            detail["having"] = render_expression(query.having)
        if query.order_by:
            detail["order_by"] = [
                ("-" if c.descending else "") + render_expression(c.expression)
                for c in query.order_by
            ]
        if query.limit is not None:
            detail["limit"] = query.limit
        if query.offset:
            detail["offset"] = query.offset
        child, _ = _pattern_node(query.where, set(), graph)
        root = PlanNode("select", detail, [child], key=id(query))
    elif isinstance(query, AskQuery):
        child, _ = _pattern_node(query.where, set(), graph)
        root = PlanNode("ask", {}, [child], key=id(query))
    elif isinstance(query, ConstructQuery):
        detail = {"template_triples": len(query.template)}
        if query.limit is not None:
            detail["limit"] = query.limit
        if query.offset:
            detail["offset"] = query.offset
        child, _ = _pattern_node(query.where, set(), graph)
        root = PlanNode("construct", detail, [child], key=id(query))
    elif isinstance(query, DescribeQuery):
        detail = {"targets": [render_term(t) for t in query.targets]}
        children = []
        if query.where is not None:
            child, _ = _pattern_node(query.where, set(), graph)
            children.append(child)
        root = PlanNode("describe", detail, children, key=id(query))
    else:
        raise TypeError(f"cannot explain {type(query).__name__}")
    return QueryPlan(root, query=text)


def _pattern_node(pattern: Pattern, bound: set, graph) -> Tuple[PlanNode, set]:
    """(plan node, variables bound after the pattern)."""
    if isinstance(pattern, BGP):
        steps = plan_bgp_steps(pattern.triples, bound, graph)
        children = []
        for index, step in enumerate(steps):
            detail: Dict[str, object] = {
                "index": index,
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
            children.append(PlanNode("scan", detail, key=id(step.pattern)))
        out = set(bound)
        for tp in pattern.triples:
            out |= tp.variables()
        return PlanNode("bgp", {"patterns": len(steps)}, children, key=id(pattern)), out
    if isinstance(pattern, Join):
        left, bound_left = _pattern_node(pattern.left, bound, graph)
        right, bound_out = _pattern_node(pattern.right, bound_left, graph)
        return PlanNode("join", {}, [left, right], key=id(pattern)), bound_out
    if isinstance(pattern, LeftJoin):
        left, bound_left = _pattern_node(pattern.left, bound, graph)
        right, bound_out = _pattern_node(pattern.right, bound_left, graph)
        detail = {}
        if pattern.condition is not None:
            detail["condition"] = render_expression(pattern.condition)
        return PlanNode("optional", detail, [left, right], key=id(pattern)), bound_out
    if isinstance(pattern, Union):
        left, bound_left = _pattern_node(pattern.left, bound, graph)
        right, bound_right = _pattern_node(pattern.right, bound, graph)
        return (
            PlanNode("union", {}, [left, right], key=id(pattern)),
            bound_left | bound_right,
        )
    if isinstance(pattern, Minus):
        left, bound_left = _pattern_node(pattern.left, bound, graph)
        # MINUS right side is evaluated from scratch (no shared bindings).
        right, _ = _pattern_node(pattern.right, set(), graph)
        return PlanNode("minus", {}, [left, right], key=id(pattern)), bound_left
    if isinstance(pattern, Filter):
        child, bound_out = _pattern_node(pattern.pattern, bound, graph)
        detail = {"condition": render_expression(pattern.condition)}
        return PlanNode("filter", detail, [child], key=id(pattern)), bound_out
    if isinstance(pattern, Bind):
        child, bound_out = _pattern_node(pattern.pattern, bound, graph)
        detail = {
            "var": f"?{pattern.var.name}",
            "expression": render_expression(pattern.expression),
        }
        return (
            PlanNode("extend", detail, [child], key=id(pattern)),
            bound_out | {pattern.var.name},
        )
    if isinstance(pattern, GraphPattern):
        seeded = set(bound)
        detail = {"name": render_term(pattern.name)}
        if isinstance(pattern.name, Var):
            seeded.add(pattern.name.name)
        child, bound_out = _pattern_node(pattern.pattern, seeded, graph)
        return PlanNode("graph", detail, [child], key=id(pattern)), bound_out
    if isinstance(pattern, Values):
        detail = {
            "variables": [f"?{v.name}" for v in pattern.variables],
            "rows": len(pattern.rows),
        }
        children = []
        bound_out = set(bound) | {v.name for v in pattern.variables}
        if pattern.pattern is not None:
            child, inner_bound = _pattern_node(pattern.pattern, bound, graph)
            children.append(child)
            bound_out |= inner_bound
        return PlanNode("values", detail, children, key=id(pattern)), bound_out
    return PlanNode(type(pattern).__name__.lower(), {}, [], key=id(pattern)), set(bound)


# ---------------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------------


def _runtime_counters(graph, index=None) -> Tuple[int, int]:
    """(bisect probes, decode-LRU hits) — plain ints, store-backed graphs
    only; in-memory graphs report zeros.  Probes are the segments', plus
    the adjacency probes of *index* when a path step is served by it."""
    counters = getattr(graph, "runtime_counters", None)
    if counters is None:
        return (0, 0)
    probes, decode_hits = counters()
    if index is not None:
        probes += index.probes()
    return probes, decode_hits


class ProfileCollector:
    """Accumulates per-operator and per-scan statistics for one query.

    Keyed by ``id()`` of algebra nodes so stats land on the plan nodes
    :func:`build_plan` produced from the *same* parsed query object.
    Times are inclusive of children (the evaluator is recursive).
    """

    __slots__ = ("operators", "patterns", "misestimates")

    def __init__(self):
        self.operators: Dict[int, dict] = {}
        self.patterns: Dict[int, dict] = {}
        self.misestimates = 0

    # -- recording ----------------------------------------------------

    def record_operator(
        self, node, rows_in: int, rows_out: int, wall_s: float, cpu_s: float
    ) -> None:
        stats = self.operators.get(id(node))
        if stats is None:
            stats = {"calls": 0, "rows_in": 0, "rows_out": 0, "wall_s": 0.0, "cpu_s": 0.0}
            self.operators[id(node)] = stats
        stats["calls"] += 1
        stats["rows_in"] += rows_in
        stats["rows_out"] += rows_out
        stats["wall_s"] += wall_s
        stats["cpu_s"] += cpu_s

    def run_pattern(
        self,
        step: PlanStep,
        solutions: List[dict],
        graph,
        extend: Callable,
    ) -> List[dict]:
        """Run one pattern-extension batch, attributing its cost.

        *extend* takes ``(step, solutions, graph)`` — the full step, so
        the encoded executor can reuse the planned mask annotations.
        """
        index = graph.path_index() if step.access == "pathindex" else None
        probes_before, decode_before = _runtime_counters(graph, index)
        started = time.perf_counter()
        out = extend(step, solutions, graph)
        wall_s = time.perf_counter() - started
        probes_after, decode_after = _runtime_counters(graph, index)
        key = id(step.pattern)
        stats = self.patterns.get(key)
        if stats is None:
            stats = {
                "calls": 0,
                "rows_in": 0,
                "rows_out": 0,
                "wall_s": 0.0,
                "probes": 0,
                "decode_hits": 0,
                "estimate": step.estimate,
                "misestimate": False,
            }
            self.patterns[key] = stats
        stats["calls"] += 1
        stats["rows_in"] += len(solutions)
        stats["rows_out"] += len(out)
        stats["wall_s"] += wall_s
        stats["probes"] += probes_after - probes_before
        stats["decode_hits"] += decode_after - decode_before
        if (
            not stats["misestimate"]
            and step.estimate > 0
            and stats["rows_out"] > MISESTIMATE_FACTOR * step.estimate
        ):
            stats["misestimate"] = True
            self.misestimates += 1
            _MISESTIMATES.inc()
        return out

    # -- reporting ----------------------------------------------------

    def stats_for(self, key: Optional[int]) -> Optional[dict]:
        """JSON-ready runtime stats for one plan node, or ``None``."""
        if key is None:
            return None
        stats = self.operators.get(key)
        if stats is not None:
            return {
                "calls": stats["calls"],
                "rows_in": stats["rows_in"],
                "rows_out": stats["rows_out"],
                "wall_ms": round(stats["wall_s"] * 1000.0, 3),
                "cpu_ms": round(stats["cpu_s"] * 1000.0, 3),
            }
        stats = self.patterns.get(key)
        if stats is not None:
            out = {
                "calls": stats["calls"],
                "rows_in": stats["rows_in"],
                "rows_out": stats["rows_out"],
                "wall_ms": round(stats["wall_s"] * 1000.0, 3),
                "probes": stats["probes"],
                "decode_hits": stats["decode_hits"],
            }
            if stats["estimate"]:
                out["error_ratio"] = round(
                    stats["rows_out"] / stats["estimate"], 2
                )
            if stats["misestimate"]:
                out["misestimate"] = True
            return out
        return None


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
