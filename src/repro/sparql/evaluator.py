"""SPARQL query evaluation over in-memory graphs and datasets.

The evaluator walks the algebra tree with *lateral* semantics: every
pattern is evaluated against a list of partial solutions and extends each
one, which gives correct OPTIONAL/EXISTS behavior without a separate join
machinery.  Basic graph patterns are reordered by a selectivity heuristic
before evaluation (see :func:`~repro.sparql.plan.plan_bgp_steps`).

Entry point: :class:`QueryEngine` — construct over a :class:`Graph` or a
:class:`Dataset` and call :meth:`QueryEngine.query` with SPARQL text.

Acceleration layer: the engine keeps a bounded LRU cache of query results
keyed by ``(query text, source version)`` — the version is the source's
monotonic mutation counter, so any write to the graph/dataset implicitly
invalidates every cached entry without bookkeeping.  Predicate
cardinalities used by the planner live in the per-graph
:class:`~repro.rdf.statistics.GraphStatistics` object instead of being
rebuilt per query.  Both caches are lock-protected: the endpoint serves
one shared engine from many threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Union as TyUnion

from ..rdf.graph import Dataset, Graph
from ..rdf.namespace import CORE_PREFIXES, NamespaceManager
from ..rdf.terms import BlankNode, IRI, Literal, Term
from .algebra import (
    Aggregate,
    AskQuery,
    BGP,
    Bind,
    ConstructQuery,
    DescribeQuery,
    Expression,
    Filter,
    FunctionCall,
    GraphPattern,
    Join,
    LeftJoin,
    Minus,
    Pattern,
    Projection,
    SelectQuery,
    TriplePattern,
    Union,
    Values,
    Var,
    VarExpr,
)
from .functions import (
    ExprError,
    effective_boolean_value,
    evaluate_expression,
    order_key,
)
from ..obs import metrics as _metrics
from ..obs import tracectx as _tracectx
from ..obs.trace import span as _span
from .encoded import encoded_executor
from .parser import parse_query
from .paths import Path, eval_path_batch
from .plan import (
    ProfileCollector,
    QueryPlan,
    QueryProfile,
    build_plan,
    plan_bgp_steps,
)
from .results import ResultTable

__all__ = ["QueryEngine", "plan_bgp_steps", "DEFAULT_RESULT_CACHE_SIZE"]

Binding = Dict[str, Term]

#: Default capacity of the per-engine LRU query-result cache.
DEFAULT_RESULT_CACHE_SIZE = 128
_PLAN_CACHE_SIZE = 256  # (query text, version) → plan memo entries

_CACHE_EVENTS = _metrics.counter(
    "repro_query_cache_total", "Query result cache events", labels=("event",)
)
_QUERY_SECONDS = _metrics.histogram(
    "repro_query_seconds", "SPARQL query phase wall time in seconds",
    labels=("phase",),
)
# The label sets are fixed and small, so materialise every series up
# front — scrapes see them at zero instead of the family appearing to
# have no data until the first event.
for _event in ("hit", "miss", "eviction"):
    _CACHE_EVENTS.labels(_event)
for _phase in ("parse", "execute"):
    _QUERY_SECONDS.labels(_phase)
del _event, _phase

_MISS = object()  # sentinel: cached-None must be distinguishable


class QueryEngine:
    """Evaluates SPARQL queries over a Graph or Dataset.

    When constructed over a :class:`Dataset`, plain BGPs match the *union*
    of the default and all named graphs (the behavior of most triple
    stores' default configuration, and what the corpus queries expect),
    while ``GRAPH`` patterns address individual named graphs.
    """

    def __init__(
        self,
        source: TyUnion[Graph, Dataset],
        namespaces: Optional[NamespaceManager] = None,
        cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        tracer=None,
    ):
        if isinstance(source, Dataset):
            self.dataset: Optional[Dataset] = source
            self._union_version = source.version
            self._default = source.union_graph()
        elif isinstance(source, Graph):
            self.dataset = None
            self._union_version = None
            self._default = source
        else:
            raise TypeError("QueryEngine requires a Graph or Dataset")
        self.namespaces = namespaces if namespaces is not None else _corpus_namespaces(source)
        self.tracer = tracer
        # (query text, version) → (plan digest, parsed query, its plan),
        # filled by the first miss that runs under a request record — the
        # last two only for a profiling one: a result-cache hit reads its
        # digest here, and no plan is built twice.
        self._plan_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # Count of active per-thread profilers.  The evaluator's hot
        # paths gate on its truthiness — a single attribute check when
        # no profile is in play.
        self._profiling = 0
        # Result cache: (query text, source version) → result.  The lock
        # also guards the lazy union-graph refresh; the endpoint shares
        # one engine across ThreadingHTTPServer worker threads.
        self.cache_size = max(0, cache_size)
        self._lock = threading.RLock()
        self._tlocal = threading.local()
        self._result_cache: "OrderedDict[tuple, object]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0

    # -- versioning / caching -------------------------------------------------

    def source_version(self) -> int:
        """The source's current monotonic version (cache-key component)."""
        return self.dataset.version if self.dataset is not None else self._default.version

    def _refresh_default_locked(self) -> None:
        """Rebuild the union-graph snapshot if the dataset has moved.

        Before versioning existed the snapshot was built once in the
        constructor and silently served stale data after any dataset
        mutation; now staleness is detected by version comparison.  The
        copy retries until it observes the same version before and after
        (and no mid-iteration RuntimeError), so a concurrent writer can
        never leave a torn snapshot behind.  The snapshot graph itself is
        only ever *replaced*, never mutated, which is what lets queries
        evaluate on it outside the engine lock.
        """
        if self.dataset is None:
            return
        while True:
            version = self.dataset.version
            if version == self._union_version:
                return
            try:
                snapshot = self.dataset.union_graph()
            except RuntimeError:
                continue  # raced a writer mid-iteration; re-copy
            if self.dataset.version == version:
                self._default = snapshot
                self._union_version = version
                return

    def _default_graph(self) -> Graph:
        """The default graph for the query running on this thread.

        :meth:`_dispatch` pins the current snapshot in a thread-local so
        a concurrent refresh cannot swap graphs mid-evaluation (which
        would mix two dataset versions inside one result).
        """
        pinned = getattr(self._tlocal, "default", None)
        return pinned if pinned is not None else self._default

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus current size and version."""
        with self._lock:
            return {
                "size": len(self._result_cache),
                "maxsize": self.cache_size,
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "evictions": self._cache_evictions,
                "version": self.source_version(),
            }

    def clear_cache(self) -> None:
        with self._lock:
            self._result_cache.clear()

    # -- public API ----------------------------------------------------------

    def query(self, query: TyUnion[str, SelectQuery, AskQuery]):
        """Run a SELECT (→ ResultTable) or ASK (→ bool) query.

        String queries go through the LRU result cache: a hit returns
        the previously computed result object as long as the source's
        version is unchanged.  Any mutation bumps the version, which
        makes every older cache entry unreachable (logical invalidation
        — entries age out of the LRU without explicit purging).
        """
        tracer = self.tracer
        if not isinstance(query, str):
            with self._lock:
                self._refresh_default_locked()
            with _span(tracer, "sparql.execute", cat="query"):
                return self._dispatch(query)
        ctx = _tracectx.current()
        record = ctx.record if ctx is not None else None
        started = time.perf_counter()
        with _span(tracer, "sparql.query", cat="query",
                   query=query[:120]) as query_span:
            cached = _MISS
            with self._lock:
                self._refresh_default_locked()
                key = (query, self.source_version())
                memo = self._plan_cache.get(key)
                if memo is not None:
                    self._plan_cache.move_to_end(key)
                if self.cache_size:
                    cached = self._result_cache.get(key, _MISS)
                    if cached is not _MISS:
                        self._result_cache.move_to_end(key)
                        self._cache_hits += 1
                        _CACHE_EVENTS.labels("hit").inc()
                        query_span.set(cache="hit")
                    else:
                        self._cache_misses += 1
                        _CACHE_EVENTS.labels("miss").inc()
                        query_span.set(cache="miss")
            looked_up = time.perf_counter()
            if cached is not _MISS:
                if record is not None:
                    record.cache_ms = (looked_up - started) * 1000.0
                    self._fill_record(record, key, "hit", memo, None, query_span)
                return cached
            with _span(tracer, "sparql.parse", cat="query"):
                parsed = parse_query(query, namespaces=self.namespaces)
            parsed_at = time.perf_counter()
            _QUERY_SECONDS.labels("parse").observe(parsed_at - looked_up)
            if memo is not None and memo[1] is not None:
                # The memoised plan keys its operators by id() of the
                # query object it was built from, so a repeat miss runs
                # that object.  (The parse above stays: skipping it would
                # be a parse cache, which this memo is not.)
                parsed = memo[1]
            # A profiling request runs every miss under a collector:
            # collection is batch-level (per operator call, not per row),
            # so the record gets operator rows without a re-execution.
            collector = (ProfileCollector()
                         if record is not None and record.profile else None)
            with _span(tracer, "sparql.execute", cat="query"):
                result = self._dispatch(parsed, collector)
            executed_at = time.perf_counter()
            _QUERY_SECONDS.labels("execute").observe(executed_at - parsed_at)
            if self.cache_size:
                with self._lock:
                    self._result_cache[key] = result
                    while len(self._result_cache) > self.cache_size:
                        self._result_cache.popitem(last=False)
                        self._cache_evictions += 1
                        _CACHE_EVENTS.labels("eviction").inc()
            if record is not None:
                stored_at = time.perf_counter()
                record.cache_ms = ((looked_up - started)
                                   + (stored_at - executed_at)) * 1000.0
                record.parse_ms = (parsed_at - looked_up) * 1000.0
                record.execute_ms = (executed_at - parsed_at) * 1000.0
                if memo is None or (collector is not None and memo[2] is None):
                    plan = build_plan(parsed, self._default, text=query)
                    # only operator rows need more than the digest kept
                    memo = ((plan.digest, parsed, plan) if collector is not None
                            else (plan.digest, None, None))
                    with self._lock:
                        self._plan_cache[key] = memo
                        while len(self._plan_cache) > _PLAN_CACHE_SIZE:
                            self._plan_cache.popitem(last=False)
                self._fill_record(record, key, "miss", memo, collector, query_span)
            return result

    def _fill_record(self, record, key, cache: str, memo, collector,
                     query_span) -> None:
        """Write what the engine knows about this query onto the active
        request record.  *memo* is the ``(digest, parsed, plan)`` entry
        for *key*, or ``None`` on a hit whose miss predates the memo."""
        record.query, record.generation = key  # (text, version)
        record.cache = cache
        # the span's W3C id: args.span_id of the same span in a --trace file
        record.span_id = query_span.span_id
        if memo is not None:
            record.plan_digest = memo[0]
            if collector is not None:
                report = memo[2].profile_report(collector)
                record.operators = report["operators"]
                record.misestimates = report["misestimates"]

    # -- introspection -------------------------------------------------------

    def explain(self, query: TyUnion[str, SelectQuery, AskQuery]) -> QueryPlan:
        """EXPLAIN: the plan this engine would execute right now.

        Static — nothing is evaluated.  The returned
        :class:`~repro.sparql.plan.QueryPlan` renders as text, JSON, or
        Chrome-trace args; its ``digest`` is deterministic for a given
        query + source contents, so plan regressions diff cleanly.
        """
        text = query if isinstance(query, str) else None
        if isinstance(query, str):
            parsed = parse_query(query, namespaces=self.namespaces)
        else:
            parsed = query
        with self._lock:
            self._refresh_default_locked()
        return build_plan(parsed, self._default, text=text)

    def profile(self, query: TyUnion[str, SelectQuery, AskQuery]) -> QueryProfile:
        """PROFILE: execute with per-operator statistics collection.

        Bypasses the result cache in both directions (a cached answer
        would produce an empty profile; a profiled run should not
        poison timings either).  Returns a
        :class:`~repro.sparql.plan.QueryProfile` carrying the result,
        the plan, and the merged stats report.
        """
        text = query if isinstance(query, str) else None
        if isinstance(query, str):
            with _span(self.tracer, "sparql.parse", cat="query"):
                parsed = parse_query(query, namespaces=self.namespaces)
        else:
            parsed = query
        with self._lock:
            self._refresh_default_locked()
        plan = build_plan(parsed, self._default, text=text)
        collector = ProfileCollector()
        started = time.perf_counter()
        with _span(self.tracer, "sparql.execute", cat="query"):
            result = self._dispatch(parsed, collector)
        duration_ms = (time.perf_counter() - started) * 1000.0
        report = plan.profile_report(collector, duration_ms)
        return QueryProfile(result=result, plan=plan, report=report,
                            duration_ms=duration_ms)

    def _dispatch(self, query, collector: Optional[ProfileCollector] = None):
        """Evaluate a parsed query — under *collector*, installed as this
        thread's profiler for the duration, when one is given."""
        self._tlocal.default = self._default  # pin the snapshot for this query
        if collector is not None:
            self._tlocal.profiler = collector
            with self._lock:
                self._profiling += 1
        try:
            if isinstance(query, SelectQuery):
                return self._run_select(query)
            if isinstance(query, AskQuery):
                return self._run_ask(query)
            if isinstance(query, ConstructQuery):
                return self._run_construct(query)
            if isinstance(query, DescribeQuery):
                return self._run_describe(query)
            raise TypeError(f"unsupported query type {type(query).__name__}")
        finally:
            self._tlocal.default = None
            if collector is not None:
                self._tlocal.profiler = None
                with self._lock:
                    self._profiling -= 1

    def construct(self, text: str) -> Graph:
        result = self.query(text)
        if not isinstance(result, Graph):
            raise TypeError("construct() requires a CONSTRUCT query")
        return result

    def ask(self, text: str) -> bool:
        result = self.query(text)
        if not isinstance(result, bool):
            raise TypeError("ask() requires an ASK query")
        return result

    def select(self, text: str) -> ResultTable:
        result = self.query(text)
        if not isinstance(result, ResultTable):
            raise TypeError("select() requires a SELECT query")
        return result

    # -- SELECT pipeline --------------------------------------------------------

    def _run_select(self, query: SelectQuery) -> ResultTable:
        solutions = self._eval(query.where, [{}], self._default_graph())
        if query.has_aggregates():
            rows, variables = self._aggregate(query, solutions)
            scopes = rows  # ORDER BY sees group keys and aggregate aliases
        else:
            rows, variables = self._project(query, solutions)
            # ORDER BY is evaluated over the pre-projection solution
            # extended with any computed projection aliases.
            scopes = [dict(sol) | row for sol, row in zip(solutions, rows)]
        if query.order_by:
            paired = list(zip(scopes, rows))
            for condition in reversed(query.order_by):
                paired.sort(
                    key=lambda pair: self._order_value(condition.expression, pair[0]),
                    reverse=condition.descending,
                )
            rows = [row for _, row in paired]
        if query.distinct:
            seen = set()
            unique = []
            for row in rows:
                key = tuple(sorted((k, v) for k, v in row.items()))
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        if query.offset:
            rows = rows[query.offset :]
        if query.limit is not None:
            rows = rows[: query.limit]
        return ResultTable(variables, rows)

    def _run_ask(self, query: AskQuery) -> bool:
        for _ in self._eval(query.where, [{}], self._default_graph()):
            return True
        return False

    def _run_construct(self, query: ConstructQuery) -> Graph:
        """Instantiate the template once per solution; ill-formed
        instantiations (unbound positions, literal subjects) are skipped
        per the SPARQL spec."""
        solutions = self._eval(query.where, [{}], self._default_graph())
        if query.offset:
            solutions = solutions[query.offset:]
        if query.limit is not None:
            solutions = solutions[: query.limit]
        out = Graph(namespaces=self.namespaces.copy())
        for sol in solutions:
            for tp in query.template:
                s = _resolve(tp.subject, sol)
                p = _resolve(tp.predicate, sol)
                o = _resolve(tp.object, sol)
                if isinstance(s, Var) or isinstance(p, Var) or isinstance(o, Var):
                    continue
                if not isinstance(s, (IRI, BlankNode)) or not isinstance(p, IRI):
                    continue
                out.add((s, p, o))
        return out

    def _run_describe(self, query: DescribeQuery) -> Graph:
        """Concise bounded description: every triple whose subject is a
        described resource, expanded through blank-node objects."""
        resources: List[Term] = []
        constants = [t for t in query.targets if not isinstance(t, Var)]
        variables = [t for t in query.targets if isinstance(t, Var)]
        resources.extend(constants)
        if variables:
            solutions = self._eval(query.where, [{}], self._default_graph()) if query.where else []
            for sol in solutions:
                for var in variables:
                    value = sol.get(var.name)
                    if value is not None and value not in resources:
                        resources.append(value)
        out = Graph(namespaces=self.namespaces.copy())
        frontier = list(resources)
        seen = set()
        while frontier:
            resource = frontier.pop()
            if resource in seen or isinstance(resource, Literal):
                continue
            seen.add(resource)
            for t in self._default_graph().triples(resource, None, None):
                out.add(t)
                if isinstance(t.object, BlankNode) and t.object not in seen:
                    frontier.append(t.object)
        return out

    def _project(self, query: SelectQuery, solutions: List[Binding]):
        if query.select_all:
            variables = sorted({name for sol in solutions for name in sol})
            return [dict(sol) for sol in solutions], variables
        variables = [p.var.name for p in query.projections]
        rows = []
        for sol in solutions:
            row: Binding = {}
            for proj in query.projections:
                if proj.expression is None:
                    value = sol.get(proj.var.name)
                else:
                    try:
                        value = evaluate_expression(proj.expression, sol, self._exists)
                    except ExprError:
                        value = None
                if value is not None:
                    row[proj.var.name] = value
            rows.append(row)
        return rows, variables

    def _order_value(self, expression: Expression, row: Binding):
        try:
            return order_key(evaluate_expression(expression, row, self._exists))
        except ExprError:
            return order_key(None)

    # -- aggregation --------------------------------------------------------------

    def _aggregate(self, query: SelectQuery, solutions: List[Binding]):
        groups: Dict[tuple, List[Binding]] = {}
        for sol in solutions:
            key_parts = []
            for expr in query.group_by:
                try:
                    key_parts.append(evaluate_expression(expr, sol, self._exists))
                except ExprError:
                    key_parts.append(None)
            groups.setdefault(tuple(key_parts), []).append(sol)
        if not groups and not query.group_by:
            groups[()] = []  # aggregates over an empty solution set yield one row
        variables = [p.var.name for p in query.projections]
        group_var_names = [
            expr.var.name for expr in query.group_by if isinstance(expr, VarExpr)
        ]
        rows: List[Binding] = []
        for key, members in sorted(groups.items(), key=lambda kv: tuple(order_key(k) for k in kv[0])):
            group_binding: Binding = {}
            for expr, value in zip(query.group_by, key):
                if isinstance(expr, VarExpr) and value is not None:
                    group_binding[expr.var.name] = value
            if query.having is not None:
                try:
                    ok = effective_boolean_value(
                        self._eval_group_expression(query.having, group_binding, members)
                    )
                except ExprError:
                    ok = False
                if not ok:
                    continue
            row: Binding = {}
            for proj in query.projections:
                if proj.expression is None:
                    if proj.var.name not in group_var_names:
                        raise ExprError(
                            f"?{proj.var.name} must appear in GROUP BY or inside an aggregate"
                        )
                    value = group_binding.get(proj.var.name)
                else:
                    try:
                        value = self._eval_group_expression(proj.expression, group_binding, members)
                    except ExprError:
                        value = None
                if value is not None:
                    row[proj.var.name] = value
            rows.append(row)
        return rows, variables

    def _eval_group_expression(self, expr: Expression, group_binding: Binding, members: List[Binding]):
        if isinstance(expr, Aggregate):
            return self._eval_aggregate(expr, members)
        if isinstance(expr, VarExpr):
            value = group_binding.get(expr.var.name)
            if value is None:
                raise ExprError(f"?{expr.var.name} not bound at group level")
            return value
        # Rebuild composite expressions bottom-up over the group context.
        from .algebra import And, Arithmetic, Compare, Not, Or, TermExpr

        if isinstance(expr, TermExpr):
            return expr.term
        if isinstance(expr, Compare):
            from .functions import compare_terms

            left = self._eval_group_expression(expr.left, group_binding, members)
            right = self._eval_group_expression(expr.right, group_binding, members)
            return Literal(
                "true" if compare_terms(expr.op, left, right) else "false",
                datatype="http://www.w3.org/2001/XMLSchema#boolean",
            )
        if isinstance(expr, (And, Or, Not, Arithmetic, FunctionCall)):
            # Aggregate-free subtrees evaluate under the group binding alone.
            return evaluate_expression(expr, group_binding, self._exists)
        raise ExprError(f"unsupported group-level expression {type(expr).__name__}")

    def _eval_aggregate(self, agg: Aggregate, members: List[Binding]):
        from ..rdf.terms import from_python

        values: List[Term] = []
        if agg.expression is None:  # COUNT(*)
            count = len(members)
            if agg.distinct:
                count = len({tuple(sorted((k, v) for k, v in m.items())) for m in members})
            return from_python(count)
        for member in members:
            try:
                values.append(evaluate_expression(agg.expression, member, self._exists))
            except ExprError:
                continue
        if agg.distinct:
            unique: List[Term] = []
            seen = set()
            for value in values:
                if value not in seen:
                    seen.add(value)
                    unique.append(value)
            values = unique
        if agg.name == "COUNT":
            return from_python(len(values))
        if agg.name == "SAMPLE":
            return values[0] if values else None
        if agg.name == "GROUP_CONCAT":
            return Literal(agg.separator.join(_lexical(v) for v in values))
        if not values:
            return None
        if agg.name in ("MIN", "MAX"):
            chooser = min if agg.name == "MIN" else max
            return chooser(values, key=order_key)
        numbers = []
        for value in values:
            if isinstance(value, Literal) and value.is_numeric:
                numbers.append(float(value.lexical))
            else:
                raise ExprError(f"{agg.name} over non-numeric value")
        if agg.name == "SUM":
            total = sum(numbers)
            return from_python(int(total) if total == int(total) else total)
        if agg.name == "AVG":
            return from_python(sum(numbers) / len(numbers))
        raise ExprError(f"unknown aggregate {agg.name}")

    # -- pattern evaluation ---------------------------------------------------------

    def _eval(self, pattern: Pattern, inputs: List[Binding], graph: Graph) -> List[Binding]:
        # Hot path: one int check when nobody is profiling anywhere.
        if not self._profiling:
            return self._eval_node(pattern, inputs, graph)
        profiler = getattr(self._tlocal, "profiler", None)
        if profiler is None:
            return self._eval_node(pattern, inputs, graph)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        out = self._eval_node(pattern, inputs, graph)
        profiler.record_operator(
            pattern, len(inputs), len(out),
            time.perf_counter() - wall0, time.process_time() - cpu0)
        return out

    def _eval_node(self, pattern: Pattern, inputs: List[Binding], graph: Graph) -> List[Binding]:
        if isinstance(pattern, BGP):
            return self._eval_bgp(pattern, inputs, graph)
        if isinstance(pattern, Join):
            return self._eval(pattern.right, self._eval(pattern.left, inputs, graph), graph)
        if isinstance(pattern, LeftJoin):
            return self._eval_left_join(pattern, inputs, graph)
        if isinstance(pattern, Union):
            left = self._eval(pattern.left, inputs, graph)
            right = self._eval(pattern.right, inputs, graph)
            return left + right
        if isinstance(pattern, Minus):
            return self._eval_minus(pattern, inputs, graph)
        if isinstance(pattern, Filter):
            solutions = self._eval(pattern.pattern, inputs, graph)
            kept = []
            for sol in solutions:
                try:
                    if effective_boolean_value(
                        evaluate_expression(pattern.condition, sol, self._exists)
                    ):
                        kept.append(sol)
                except ExprError:
                    continue
            return kept
        if isinstance(pattern, Bind):
            solutions = self._eval(pattern.pattern, inputs, graph)
            out = []
            for sol in solutions:
                extended = dict(sol)
                try:
                    value = evaluate_expression(pattern.expression, sol, self._exists)
                    if pattern.var.name in extended and extended[pattern.var.name] != value:
                        continue  # BIND clash: solution is incompatible
                    extended[pattern.var.name] = value
                except ExprError:
                    pass  # errors leave the variable unbound
                out.append(extended)
            return out
        if isinstance(pattern, GraphPattern):
            return self._eval_graph_pattern(pattern, inputs)
        if isinstance(pattern, Values):
            return self._eval_values(pattern, inputs, graph)
        raise TypeError(f"unknown pattern type {type(pattern).__name__}")

    def _eval_values(self, pattern: Values, inputs: List[Binding], graph: Graph):
        base = (
            self._eval(pattern.pattern, inputs, graph)
            if pattern.pattern is not None
            else [dict(sol) for sol in inputs]
        )
        out: List[Binding] = []
        for sol in base:
            for row in pattern.rows:
                merged = dict(sol)
                compatible = True
                for var, value in zip(pattern.variables, row):
                    if value is None:
                        continue  # UNDEF leaves the variable as-is
                    existing = merged.get(var.name)
                    if existing is None:
                        merged[var.name] = value
                    elif existing != value:
                        compatible = False
                        break
                if compatible:
                    out.append(merged)
        return out

    def _eval_bgp(self, bgp: BGP, inputs: List[Binding], graph: Graph) -> List[Binding]:
        if not bgp.triples:
            return [dict(sol) for sol in inputs]
        # After OPTIONAL/UNION the inputs are heterogeneous: only a
        # variable bound in *every* input solution may seed the planner
        # as bound, or patterns get ordered for bindings most solutions
        # don't have.
        if inputs:
            bound = set(inputs[0])
            for sol in inputs[1:]:
                bound.intersection_update(sol)
        else:
            bound = set()
        if self.tracer is not None:
            with _span(self.tracer, "sparql.plan", cat="query",
                       patterns=len(bgp.triples)):
                steps = plan_bgp_steps(bgp.triples, bound, graph)
        else:
            steps = plan_bgp_steps(bgp.triples, bound, graph)
        profiler = (getattr(self._tlocal, "profiler", None)
                    if self._profiling else None)
        # The plain steps before the first property path run in id space
        # (encode once, merge/bisect scans over batches of encoded
        # bindings, decode once at that prefix's egress) when a step can
        # see more than one binding — a multi-pattern prefix (the batch
        # grows step to step) or a multi-solution input.  A single
        # pattern over a single solution (EXISTS checks, OPTIONAL right
        # sides seeded one binding at a time) has exactly one scan range
        # either way, so the leaner per-binding path wins.  The path step
        # and every step after it extend decoded solutions.
        split = len(steps)
        for position, step in enumerate(steps):
            if isinstance(step.pattern.predicate, Path):
                split = position
                break
        executor = None
        if split > 1 or (split and len(inputs) > 1):
            executor = encoded_executor(graph, [step.pattern for step in steps[:split]])
        if executor is not None:
            batch = executor.encode_inputs(inputs)
            for position in range(split):
                # PROFILE bills the one decode to the step whose egress
                # it is, so the step after the switch counts only itself.
                extend = (executor.extend if position < split - 1
                          else executor.extend_and_decode)
                if profiler is not None:
                    batch = profiler.run_pattern(steps[position], batch, graph, extend)
                else:
                    batch = extend(steps[position], batch, graph)
                if not batch:
                    return []
            solutions = batch
            steps = steps[split:]
        else:
            solutions = [dict(sol) for sol in inputs]
        for step in steps:
            if profiler is not None:
                solutions = profiler.run_pattern(
                    step, solutions, graph, self._extend_step)
            else:
                solutions = self._extend_step(step, solutions, graph)
            if not solutions:
                return []
        return solutions

    def _extend_step(self, step, solutions: List[Binding], graph: Graph) -> List[Binding]:
        """One step of the per-binding pipeline (it takes the full
        :class:`PlanStep`, as the profiler hands it so encoded execution
        can reuse its annotations; here only the pattern matters)."""
        if isinstance(step.pattern.predicate, Path):
            return self._extend_with_path(step.pattern, solutions, graph)
        return self._extend_with_pattern(step.pattern, solutions, graph)

    def _extend_with_path(
        self, tp: TriplePattern, solutions: List[Binding], graph: Graph
    ) -> List[Binding]:
        """Extend every solution through a property path: the step's
        whole endpoint column goes to :func:`eval_path_batch` in one
        call, so solutions that reach shared ancestors share their
        lookups."""
        ends = [(_resolve(tp.subject, sol), _resolve(tp.object, sol)) for sol in solutions]
        answers = eval_path_batch(graph, tp.predicate, [
            (None if isinstance(s, Var) else s, None if isinstance(o, Var) else o)
            for s, o in ends])
        out: List[Binding] = []
        for sol, (s, o), pairs in zip(solutions, ends, answers):
            for s_val, o_val in pairs:
                extended = dict(sol)
                if _bind(extended, s, s_val) and _bind(extended, o, o_val):
                    out.append(extended)
        return out

    def _extend_with_pattern(
        self, tp: TriplePattern, solutions: List[Binding], graph: Graph
    ) -> List[Binding]:
        out: List[Binding] = []
        for sol in solutions:
            s = _resolve(tp.subject, sol)
            o = _resolve(tp.object, sol)
            p = _resolve(tp.predicate, sol)
            # A variable repeated inside the pattern must match consistently.
            for triple in graph.triples(
                s if not isinstance(s, Var) else None,
                p if not isinstance(p, Var) else None,
                o if not isinstance(o, Var) else None,
            ):
                extended = dict(sol)
                if not _bind(extended, s, triple.subject):
                    continue
                if not _bind(extended, p, triple.predicate):
                    continue
                if not _bind(extended, o, triple.object):
                    continue
                out.append(extended)
        return out

    def _eval_left_join(self, pattern: LeftJoin, inputs: List[Binding], graph: Graph):
        lefts = self._eval(pattern.left, inputs, graph)
        out: List[Binding] = []
        for sol in lefts:
            extensions = self._eval(pattern.right, [sol], graph)
            if pattern.condition is not None:
                kept = []
                for ext in extensions:
                    try:
                        if effective_boolean_value(
                            evaluate_expression(pattern.condition, ext, self._exists)
                        ):
                            kept.append(ext)
                    except ExprError:
                        continue
                extensions = kept
            if extensions:
                out.extend(extensions)
            else:
                out.append(sol)
        return out

    def _eval_minus(self, pattern: Minus, inputs: List[Binding], graph: Graph):
        lefts = self._eval(pattern.left, inputs, graph)
        rights = self._eval(pattern.right, [{}], graph)
        out = []
        for sol in lefts:
            excluded = False
            for other in rights:
                shared = set(sol) & set(other)
                if shared and all(sol[v] == other[v] for v in shared):
                    excluded = True
                    break
            if not excluded:
                out.append(sol)
        return out

    def _eval_graph_pattern(self, pattern: GraphPattern, inputs: List[Binding]):
        if self.dataset is None:
            return []  # a bare graph has no named graphs
        out: List[Binding] = []
        if isinstance(pattern.name, Var):
            var = pattern.name.name
            for sol in inputs:
                pre_bound = sol.get(var)
                names = [pre_bound] if pre_bound is not None else self.dataset.graph_names()
                for name in names:
                    if not self.dataset.has_graph(name):
                        continue
                    seeded = dict(sol)
                    seeded[var] = name
                    out.extend(self._eval(pattern.pattern, [seeded], self.dataset.graph(name)))
            return out
        target_name = pattern.name
        if not self.dataset.has_graph(target_name):
            return []
        target = self.dataset.graph(target_name)
        return self._eval(pattern.pattern, inputs, target)

    def _exists(self, pattern: Pattern, binding: Binding) -> bool:
        """EXISTS probe: does *pattern* match under *binding*?"""
        return bool(self._eval(pattern, [dict(binding)], self._default_graph()))


def _resolve(term, binding: Binding):
    if isinstance(term, Var):
        bound = binding.get(term.name)
        return bound if bound is not None else term
    return term


def _bind(binding: Binding, pattern_term, value: Term) -> bool:
    """Record a variable match; False if it conflicts with an earlier one."""
    if isinstance(pattern_term, Var):
        existing = binding.get(pattern_term.name)
        if existing is None:
            binding[pattern_term.name] = value
            return True
        return existing == value
    return True


def _lexical(term: Term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, IRI):
        return term.value
    return str(term)


def _corpus_namespaces(source) -> NamespaceManager:
    nsm = source.namespaces.copy()
    for prefix, base in CORE_PREFIXES.items():
        if prefix not in nsm:
            nsm.bind(prefix, base)
    return nsm
