"""SPARQL query evaluation: each query shape compiles into one operator tree.

:class:`QueryEngine` parses a query, compiles it — against the graph
snapshot it will run on — into a tree of
:class:`~repro.sparql.plan.Operator` nodes (this module's ``*Op``
classes) and runs that tree, the one EXPLAIN renders and PROFILE times.
Operators are *lateral*: each extends the list of partial solutions
produced so far.  An OPTIONAL right side and an EXISTS pattern run once
per batch of the solutions they extend or test, over those solutions'
distinct bindings of the variables the side mentions — all it could
read of them — so each solution gets what a run of it alone would give.
The compiler passes down the variables
*certainly bound* before each operator (a UNION keeps what both sides
bind; an OPTIONAL's right side binds nothing certainly), which seed
each BGP's one planner call.  The *active graph* is passed down at run
time: GRAPH swaps it, and the EXISTS patterns of an expression — child
operators of the node holding it — read that node's active graph.

The engine keeps two bounded LRU caches, both keyed on the source
version — its monotonic mutation counter, so any write invalidates every
entry without bookkeeping:

* **results**, keyed by ``(query text, version)``: a hit returns the
  answer before the text is even tokenized;
* **plans**, keyed by the query's *shape* — its token texts with every
  IRIREF blanked — plus the texts of the IRIREFs the plan depends on
  (predicates, GRAPH names, VALUES data, PREFIX / BASE) and the
  version.  The IRIREFs the parser read as triple-pattern subjects and
  objects are slots: a hit resolves them as a parse would and swaps
  them into a copy of the cached tree's paths to them
  (:class:`~repro.sparql.plan.PlanTemplate`), skipping parse, compile
  and planning.  ``explain`` and ``profile`` take the same route.

The endpoint shares one engine across threads, so its caches are
lock-protected, and a compiled tree holds no per-execution state, so
threads may run shared subtrees at once.  Planner cardinalities live in
each graph's :class:`~repro.rdf.statistics.GraphStatistics`, not per
query.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Union as TyUnion

from ..rdf.graph import Dataset, Graph
from ..rdf.namespace import CORE_PREFIXES, NamespaceManager
from ..rdf.terms import BlankNode, IRI, Literal, Term, from_python
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
    Expression,
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
from .functions import (
    ExprError,
    compare_terms,
    effective_boolean_value,
    evaluate_expression,
    order_key,
)
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from .encoded import encoded_executor
from .parser import QueryParser, resolve_iriref
from .paths import Path, eval_path_batch
from .plan import (
    Operator,
    PlanTemplate,
    QueryPlan,
    QueryProfile,
    Scan,
    plan_bgp_steps,
    profiled_stats,
    render_expression,
    render_term,
)
from .results import ResultTable
from .tokenizer import SparqlSyntaxError, Tokenizer, scan

__all__ = ["QueryEngine", "plan_bgp_steps", "DEFAULT_RESULT_CACHE_SIZE"]

Binding = Dict[str, Term]

#: Default capacity of the per-engine LRU query-result cache.
DEFAULT_RESULT_CACHE_SIZE = 128
#: Compiled query shapes the plan cache keeps (and shapes whose pinned
#: IRIREF positions it remembers).
_PLAN_CACHE_SIZE = 256

_QUERY_SECONDS = _metrics.histogram(
    "repro_query_seconds", "SPARQL query phase wall time in seconds",
    labels=("phase",),
)
# The label set is fixed and small, so materialise every series up
# front — scrapes see them at zero instead of the family appearing to
# have no data until the first event.
for _phase in ("parse", "execute"):
    _QUERY_SECONDS.labels(_phase)
del _phase

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
        # Plan cache: (shape, pinned IRIREF texts, version) → (template,
        # BASE), and shape → the token indices of its pinned IRIREFs;
        # both LRU, a lookup refreshing the shape's entry in each.
        self._plans: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._plans_version: Optional[int] = None  # the version _plans hold
        self._pinned: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_evictions = 0
        # Result cache: (query text, source version) → (result, the
        # operator tree that computed it).  The lock also guards the plan cache and the
        # lazy union-graph refresh; the endpoint shares one engine across
        # ThreadingHTTPServer worker threads.  Its counters are plain ints,
        # booked once: the endpoint's registry collector mirrors them into
        # repro_query_cache_total.
        self.cache_size = max(0, cache_size)
        self._lock = threading.RLock()
        self._result_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0

    # -- versioning / caching -------------------------------------------------

    def source_version(self) -> int:
        """The source's current monotonic version (cache-key component)."""
        return self.dataset.version if self.dataset is not None else self._default.version

    def _refresh_default_locked(self) -> int:
        """Rebuild the union-graph snapshot if the dataset has moved;
        returns the source version the snapshot is at (one read of a
        dataset's version, which sums over its graphs).

        Before versioning existed the snapshot was built once in the
        constructor and silently served stale data after any dataset
        mutation; now staleness is detected by version comparison.  The
        copy retries until it observes the same version before and after
        (and no mid-iteration RuntimeError), so a concurrent writer can
        never leave a torn snapshot behind.  The snapshot graph itself is
        only ever *replaced*, never mutated, which is what lets queries
        evaluate on it outside the engine lock: a compiled plan holds the
        snapshot it was compiled against.
        """
        if self.dataset is None:
            return self._default.version
        while True:
            version = self.dataset.version
            if version == self._union_version:
                return version
            try:
                snapshot = self.dataset.union_graph()
            except RuntimeError:
                continue  # raced a writer mid-iteration; re-copy
            if self.dataset.version == version:
                self._default = snapshot
                self._union_version = version
                return version

    def cache_info(self) -> Dict[str, object]:
        """Result-cache hit/miss/eviction counters plus current size and
        version, and the plan cache's under ``plans``."""
        with self._lock:
            return {
                "size": len(self._result_cache),
                "maxsize": self.cache_size,
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "evictions": self._cache_evictions,
                "version": self.source_version(),
                "plans": {
                    "size": len(self._plans),
                    "hits": self._plan_hits,
                    "misses": self._plan_misses,
                    "evictions": self._plan_evictions,
                },
            }

    def clear_cache(self) -> None:
        with self._lock:
            self._result_cache.clear()

    # -- public API ----------------------------------------------------------

    def query(self, query: TyUnion[str, SelectQuery, AskQuery], record=None):
        """Run a SELECT (→ ResultTable) or ASK (→ bool) query.

        String queries go through the LRU result cache: a hit returns
        the previously computed result object as long as the source's
        version is unchanged.  Any mutation bumps the version, which
        makes every older cache entry unreachable (logical invalidation
        — entries age out of the LRU without explicit purging).  A miss
        takes its plan from :meth:`_prepare`.

        *record*, a :class:`~repro.obs.request.RequestRecord`, gets the
        query's facts and layer times stamped on it (a text query only).
        """
        tracer = self.tracer
        if not isinstance(query, str):
            with _span(tracer, "sparql.execute", cat="query"):
                return self._compile(query).execute()
        started = time.perf_counter()
        with _span(tracer, "sparql.query", cat="query",
                   query=query[:120]) as query_span:
            cached = _MISS
            with self._lock:
                key = (query, self._refresh_default_locked())
                if self.cache_size:
                    cached = self._result_cache.get(key, _MISS)
                    if cached is not _MISS:
                        self._result_cache.move_to_end(key)
                        self._cache_hits += 1
                        query_span.set(cache="hit")
                    else:
                        self._cache_misses += 1
                        query_span.set(cache="miss")
            looked_up = time.perf_counter()
            if cached is not _MISS:
                result, root = cached
                if record is not None:
                    # a cached answer keeps its miss's tree for the digest,
                    # not the snapshot that tree ran on
                    plan = QueryPlan(root, None)
                    record.cache_ms = (looked_up - started) * 1000.0
                    self._fill_record(record, key, "hit", plan, None, query_span)
                return result
            plan, source, parse_s = self._prepare(query)
            prepared_at = time.perf_counter()
            query_span.set(plan=source)
            _QUERY_SECONDS.labels("parse").observe(parse_s)
            with _span(tracer, "sparql.execute", cat="query"):
                # A profiling request runs every miss with statistics on:
                # collection is batch-level (per operator call, not per
                # row), so the record gets operator rows without a
                # re-execution.
                profile = (plan.profile()
                           if record is not None and record.profile else None)
                result = plan.execute() if profile is None else profile.result
            executed_at = time.perf_counter()
            _QUERY_SECONDS.labels("execute").observe(executed_at - looked_up - parse_s)
            if self.cache_size:
                with self._lock:
                    self._result_cache[key] = (result, plan.root)
                    while len(self._result_cache) > self.cache_size:
                        self._result_cache.popitem(last=False)
                        self._cache_evictions += 1
            if record is not None:
                stored_at = time.perf_counter()
                record.cache_ms = ((looked_up - started)
                                   + (stored_at - executed_at)) * 1000.0
                record.parse_ms = parse_s * 1000.0
                record.plan_ms = (prepared_at - looked_up - parse_s) * 1000.0
                record.execute_ms = (executed_at - prepared_at) * 1000.0
                record.plan = source
                self._fill_record(record, key, "miss", plan, profile, query_span)
            return result

    def _fill_record(self, record, key, cache: str, plan: QueryPlan,
                     profile: Optional[QueryProfile], query_span) -> None:
        """Write what the engine knows about this query onto the request
        record.  *plan* is the plan that computed the answer
        (its digest is rendered only if the record is kept); *profile*
        is the profiled execution, if any."""
        record.query, record.generation = key  # (text, version)
        record.cache = cache
        # the span's W3C id: args.span_id of the same span in a --trace file
        record.span_id = query_span.span_id
        record.query_plan = plan
        if profile is not None:
            record.operators = profile.report["operators"]
            record.misestimates = profile.report["misestimates"]

    def _prepare(self, text: str):
        """(the plan of *text*, ``"hit"`` or ``"miss"``, seconds spent
        tokenizing and parsing) — from the plan cache when a query of
        the same shape was compiled at this version.

        The key is the token texts with every IRIREF blanked, the texts
        of the IRIREFs the plan depends on (*pinned*: predicates, GRAPH
        names, VALUES data, PREFIX and BASE) and the source version.
        The parser says which IRIREFs are pinned; every other one is the
        subject or object of a triple pattern, and a hit resolves it
        (the miss's own :func:`resolve_iriref`, same errors) and swaps
        it into the cached tree."""
        started = time.perf_counter()
        scanned = scan(text)
        # None where an IRIREF stands: no other token starts with "<" and ends with ">"
        shape = tuple([None if raw[0] == "<" and raw[-1] == ">" else raw
                       for _, raw in scanned])
        scanned_at = time.perf_counter()
        with self._lock:
            version = self._refresh_default_locked()
            graph = self._default
            if version != self._plans_version:
                # older keys are unreachable, and each plan holds its snapshot
                self._plan_evictions += len(self._plans)
                self._plans.clear()
                self._plans_version = version
            pinned = self._pinned.get(shape)
            cached = None
            if pinned is not None:
                self._pinned.move_to_end(shape)
                key = (shape, tuple([scanned[index][1] for index in pinned]), version)
                cached = self._plans.get(key)
            if cached is None:
                self._plan_misses += 1
            else:
                self._plans.move_to_end(key)
                self._plan_hits += 1
        if cached is not None:
            template, base = cached
            terms = []
            for index in template.slots:
                try:
                    terms.append(resolve_iriref(scanned[index][1], base))
                except ValueError as exc:
                    tokens = Tokenizer(text, scanned)
                    raise tokens.error(str(exc), tokens.tokens[index]) from None
            return template.instantiate(terms), "hit", scanned_at - started
        looked_up = time.perf_counter()
        parser = QueryParser(text, self.namespaces, scanned)
        parsed = parser.parse()
        parse_s = (scanned_at - started) + (time.perf_counter() - looked_up)
        plan = QueryPlan(_Compiler(graph, self.dataset, self.namespaces).query(parsed), graph)
        template = PlanTemplate(plan, parser.lifted)
        lifted = set(template.slots)
        pinned = tuple([index for index, part in enumerate(shape)
                        if part is None and index not in lifted])
        with self._lock:
            self._pinned[shape] = pinned
            self._pinned.move_to_end(shape)
            if len(self._pinned) > _PLAN_CACHE_SIZE:
                self._pinned.popitem(last=False)
            if version == self._plans_version:
                self._plans[(shape, tuple([scanned[index][1] for index in pinned]), version)] = (
                    template, parser.base)
            while len(self._plans) > _PLAN_CACHE_SIZE:
                self._plans.popitem(last=False)
                self._plan_evictions += 1
        return plan, "miss", parse_s

    def _compile(self, query) -> QueryPlan:
        """The operator tree of a parsed *query* over the current snapshot."""
        with self._lock:
            self._refresh_default_locked()
            graph = self._default
        root = _Compiler(graph, self.dataset, self.namespaces).query(query)
        return QueryPlan(root, graph)

    # -- introspection -------------------------------------------------------

    def explain(self, query: TyUnion[str, SelectQuery, AskQuery]) -> QueryPlan:
        """EXPLAIN: the plan this engine would execute right now.

        Static — nothing is evaluated.  A text takes the route
        :meth:`query` takes (the plan cache included).  The returned
        :class:`~repro.sparql.plan.QueryPlan` renders as text, JSON, or
        Chrome-trace args; its ``digest`` is deterministic for a given
        query + source contents, so plan regressions diff cleanly.
        """
        if isinstance(query, str):
            return self._prepare(query)[0]
        return self._compile(query)

    def profile(self, query: TyUnion[str, SelectQuery, AskQuery]) -> QueryProfile:
        """PROFILE: execute with per-operator statistics collection.

        Bypasses the result cache in both directions (a cached answer
        would produce an empty profile; a profiled run should not
        poison timings either), not the plan cache.  Returns a
        :class:`~repro.sparql.plan.QueryProfile` carrying the result,
        the plan, and the merged stats report.
        """
        plan = self._prepare(query)[0] if isinstance(query, str) else self._compile(query)
        with _span(self.tracer, "sparql.execute", cat="query"):
            return plan.profile()

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


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class _Compiler:
    """Folds a parsed query into its operator tree.

    Each pattern is compiled against the graph it will run on — the
    default graph, a constant ``GRAPH``'s named graph, or for
    ``GRAPH ?g`` :class:`_AnyNamedGraph` — with the variables certainly
    bound before it.
    """

    def __init__(self, graph, dataset: Optional[Dataset], namespaces):
        self.graph = graph  # the default graph (a dataset's union snapshot)
        self.dataset = dataset
        self.namespaces = namespaces

    def query(self, query) -> Operator:
        graph = self.graph
        if isinstance(query, SelectQuery):
            _check_grouping(query)
            where, bound, scope = self.pattern(query.where, set(), graph)
            for projection in query.projections:
                if projection.expression is not None and projection.var.name in scope:
                    raise SparqlSyntaxError(
                        f"?{projection.var.name} is already in scope in WHERE")
            expressions = [*(p.expression for p in query.projections), *query.group_by,
                           query.having, *(c.expression for c in query.order_by)]
            return SelectOp(query, where, tests=self.tests(expressions, bound, graph))
        if isinstance(query, AskQuery):
            return AskOp(query, self.pattern(query.where, set(), graph)[0])
        if isinstance(query, (ConstructQuery, DescribeQuery)):
            op_class = ConstructOp if isinstance(query, ConstructQuery) else DescribeOp
            where = () if query.where is None else (self.pattern(query.where, set(), graph)[0],)
            op = op_class(query, *where)
            op.namespaces = self.namespaces
            return op
        raise TypeError(f"unsupported query type {type(query).__name__}")

    def pattern(self, pattern, bound: set, graph):
        """(operator, variables certainly bound after it, variables in
        scope after it — SPARQL 1.1 §18.2.1: a MINUS keeps its left
        side's, a FILTER adds none)."""
        if isinstance(pattern, BGP):
            scope = set().union(*(tp.variables() for tp in pattern.triples))
            steps = plan_bgp_steps(pattern.triples, bound, graph)
            return BgpOp(pattern, steps), bound | scope, scope
        if isinstance(pattern, Join):
            left, bound, left_scope = self.pattern(pattern.left, bound, graph)
            right, bound, right_scope = self.pattern(pattern.right, bound, graph)
            return JoinOp(pattern, left, right), bound, left_scope | right_scope
        if isinstance(pattern, LeftJoin):
            left, bound, left_scope = self.pattern(pattern.left, bound, graph)
            right, extended, right_scope = self.pattern(pattern.right, bound, graph)
            tests = self.tests([pattern.condition], extended, graph, "OPTIONAL")
            return (OptionalOp(pattern, left, right, tests=tests), bound,
                    left_scope | right_scope)
        if isinstance(pattern, Union):
            left, left_bound, left_scope = self.pattern(pattern.left, bound, graph)
            right, right_bound, right_scope = self.pattern(pattern.right, bound, graph)
            return (UnionOp(pattern, left, right), left_bound & right_bound,
                    left_scope | right_scope)
        if isinstance(pattern, Minus):
            left, bound, scope = self.pattern(pattern.left, bound, graph)
            # the right side runs from scratch: it shares no bindings
            right = self.pattern(pattern.right, set(), graph)[0]
            return MinusOp(pattern, left, right), bound, scope
        if isinstance(pattern, Filter):
            child, bound, scope = self.pattern(pattern.pattern, bound, graph)
            tests = self.tests([pattern.condition], bound, graph, "FILTER")
            return FilterOp(pattern, child, tests=tests), bound, scope
        if isinstance(pattern, Bind):
            name = pattern.var.name
            child, bound, scope = self.pattern(pattern.pattern, bound, graph)
            if name in scope:
                raise SparqlSyntaxError(f"BIND target ?{name} is already in scope")
            tests = self.tests([pattern.expression], bound, graph, "BIND")
            return ExtendOp(pattern, child, tests=tests), bound | {name}, scope | {name}
        if isinstance(pattern, GraphPattern):
            name, dataset, target, named = pattern.name, self.dataset, None, set()
            if isinstance(name, Var):
                named = {name.name}
                bound = bound | named
                if dataset is not None:
                    graph = _AnyNamedGraph(self.graph, dataset.default)
            elif dataset is not None and dataset.has_graph(name):
                graph = target = dataset.graph(name)
            body, bound, scope = self.pattern(pattern.pattern, bound, graph)
            op = GraphOp(pattern, body)
            op.dataset, op.target = dataset, target
            return op, bound, scope | named
        if isinstance(pattern, Values):
            inner = pattern.pattern if pattern.pattern is not None else BGP()
            child, bound, scope = self.pattern(inner, bound, graph)
            certain = {var.name for column, var in enumerate(pattern.variables)
                       if all(row[column] is not None for row in pattern.rows)}
            return (ValuesOp(pattern, child), bound | certain,
                    scope | {var.name for var in pattern.variables})
        raise TypeError(f"unknown pattern type {type(pattern).__name__}")

    def tests(self, expressions, bound: set, graph, clause=None) -> List["ExistsOp"]:
        """One :class:`ExistsOp` per EXISTS inside *expressions*.  Those
        of a graph-pattern *clause* (FILTER, BIND, OPTIONAL) may hold no
        aggregate: aggregates belong to SELECT, HAVING and ORDER BY."""
        aggregates: list = []
        found = _exists_in(expressions, [], aggregates)
        if aggregates and clause is not None:
            raise SparqlSyntaxError(f"aggregate inside {clause}")
        return [ExistsOp(exists, self.pattern(exists.pattern, bound, graph)[0])
                for exists in found]


class _AnyNamedGraph:
    """What a ``GRAPH ?g`` body is planned against: one plan serves every
    named graph, so estimates come from the union graph, while access
    paths are a single graph's — any single-graph view has them, and the
    dataset's default graph is one at hand."""

    def __init__(self, union, single):
        self.statistics = union.statistics
        self._single = single

    def __getattr__(self, name):
        # encoded_scope / access_path: presence is the capability
        return getattr(self._single, name)


def _exists_in(values, found: list, aggregates: list, within=None) -> list:
    """*found* extended by the EXISTS sub-expressions among *values* (a
    list of expressions, or the fields of one), in written order, and
    *aggregates* by its aggregates; an aggregate *within* another is a
    malformed query."""
    for item in values:
        if isinstance(item, list):  # FunctionCall args, IN choices
            _exists_in(item, found, aggregates, within)
        elif isinstance(item, ExistsExpr):
            found.append(item)
        elif isinstance(item, Aggregate):
            if within is not None:
                raise SparqlSyntaxError(f"{within.name} holds an aggregate")
            aggregates.append(item)
            _exists_in(vars(item).values(), found, aggregates, item)
        elif isinstance(item, (And, Or, Not, Compare, Arithmetic, FunctionCall, InExpr)):
            _exists_in(vars(item).values(), found, aggregates, within)
    return found


def _check_grouping(query: SelectQuery) -> None:
    """SPARQL 1.1 §11.4: a variable an aggregate query projects must be
    a GROUP BY key.  A malformed query, whatever the data."""
    if not query.has_aggregates():
        return
    keys = {expr.var.name for expr in query.group_by if isinstance(expr, VarExpr)}
    for projection in query.projections:
        if projection.expression is None and projection.var.name not in keys:
            raise SparqlSyntaxError(
                f"?{projection.var.name} must appear in GROUP BY or inside an aggregate"
            )


# ---------------------------------------------------------------------------
# Pattern operators
# ---------------------------------------------------------------------------


class _Op(Operator):
    """An operator over the algebra *node* it was compiled from; *tests*
    are the compiled EXISTS patterns of that node's expressions (the
    trailing children)."""

    def __init__(self, node, *children: Operator, tests=()):
        super().__init__(*children, *tests)
        self.node = node
        self.first_test = len(self.children) - len(tests)

    @property
    def tests(self) -> List["ExistsOp"]:
        return self.children[self.first_test:]

    def exists(self, graph, rows: List[Binding]):
        """The ``(pattern, binding) -> bool`` EXISTS evaluator of this
        node's expressions over *graph*, or None when they hold none.

        Each test runs up front, once per domain, over the distinct keys
        of *rows* — the batch this node is about to test — into one memo
        per test.  A binding outside the batch (an aggregate's group row)
        fills the same memo as a batch of its own."""
        tests = self.tests
        if not tests:
            return None
        memos = {}
        for test in tests:
            memo = memos[id(test.node.pattern)] = (test, {})
            test.fill(rows, graph, memo[1])

        def exists(pattern, binding: Binding) -> bool:
            test, memo = memos[id(pattern)]
            found = memo.get(test.key(binding))
            if found is None:
                test.fill([binding], graph, memo)
                found = memo[test.key(binding)]
            return found

        return exists


class _Keyed(_Op):
    """An operator whose right side runs once per batch: each row it is
    handed is keyed by its bindings of *names*, every variable that side
    mentions (compiled once), and the side runs once per domain — the
    set of those variables a row binds — over that domain's distinct
    keys.  Its answer for a row is then exactly the answer for the row's
    key: the side reads no other variable of the row."""

    def __init__(self, node, *children: Operator, side, tests=()):
        super().__init__(node, *children, tests=tests)
        self.names = tuple(sorted(_mentioned(side, set())))

    def key(self, row: Binding) -> tuple:
        return tuple([(name, row[name]) for name in self.names if name in row])

    def run_keyed(self, side: Operator, rows: List[Binding], graph):
        """(each row's key, each distinct key's extensions in the order
        a run of that key alone gives): *side* run once per domain."""
        keys = [self.key(row) for row in rows]
        found: Dict[tuple, List[Binding]] = {}
        domains: Dict[tuple, List[tuple]] = {}
        for key in keys:
            if key not in found:
                found[key] = []
                domains.setdefault(tuple([name for name, _ in key]), []).append(key)
        for domain, group in domains.items():
            # every operator keeps each input's extensions in order, and
            # an extension still binds its input's key
            for row in side.run([dict(key) for key in group], graph):
                found[tuple([(name, row[name]) for name in domain])].append(row)
        return keys, found


def _mentioned(item, names: set) -> set:
    """*names* extended by every variable *item* mentions — a pattern or
    an expression, its sub-patterns, sub-expressions and EXISTS patterns
    included."""
    if isinstance(item, TriplePattern):
        names.update(term.name for term in (item.subject, item.predicate, item.object)
                     if isinstance(term, Var))
    elif isinstance(item, Var):
        names.add(item.name)
    elif isinstance(item, _HOLDERS):  # walk what can hold a variable
        for value in (item if isinstance(item, list) else vars(item).values()):
            if isinstance(value, _HOLDERS):
                _mentioned(value, names)
    return names


_HOLDERS = (Var, TriplePattern, Pattern, Expression, list)


def _holds(condition: Expression, solution: Binding, exists) -> bool:
    """FILTER semantics: the effective boolean value, an error is false."""
    try:
        return effective_boolean_value(evaluate_expression(condition, solution, exists))
    except ExprError:
        return False


class BgpOp(_Op):
    op = "bgp"

    def __init__(self, node: BGP, steps):
        super().__init__(node, *(Scan(index, step) for index, step in enumerate(steps)))
        # the plain steps before the first property path
        self.split = len(steps)
        for position, step in enumerate(steps):
            if isinstance(step.pattern.predicate, Path):
                self.split = position
                break

    def describe(self):
        return {"patterns": len(self.children)}

    def execute(self, inputs: List[Binding], graph) -> List[Binding]:
        # The plain steps before the first property path run in id space
        # (encode once, merge/bisect/hash scans over batches of encoded
        # bindings, decode once at that prefix's egress) when a step can
        # see more than one binding — a multi-pattern prefix (the batch
        # grows step to step) or a multi-solution input.  A single
        # pattern over a single solution (a batch of one: one OPTIONAL
        # or EXISTS key, one GRAPH ?g binding) has exactly one scan range
        # either way, so the leaner per-binding path wins.  The path step
        # and every step after it extend decoded solutions.
        scans = self.children
        split = self.split
        executor = None
        if split > 1 or (split and len(inputs) > 1):
            executor = encoded_executor(graph, [scan.step.pattern for scan in scans[:split]])
        if executor is not None:
            solutions = executor.encode_inputs(inputs)
            for position in range(split):
                # PROFILE bills the one decode to the step whose egress
                # it is, so the step after the switch counts only itself.
                extend = (executor.extend if position < split - 1
                          else executor.extend_and_decode)
                scan = scans[position]
                solutions = scan.run(solutions, graph, extend)
                stats = profiled_stats(scan)
                if stats is not None and "hash" in executor.ran:
                    stats["hash"] = True  # PROFILE's join: what ran
                if not solutions:
                    return []
            scans = scans[split:]
        else:
            solutions = [dict(sol) for sol in inputs]
        for scan in scans:
            solutions = scan.run(solutions, graph, _extend_step)
            if not solutions:
                return []
        return solutions


def _extend_step(step, solutions: List[Binding], graph) -> List[Binding]:
    """One step of the per-binding pipeline."""
    tp = step.pattern
    if isinstance(tp.predicate, Path):
        return _extend_with_path(tp, solutions, graph)
    return _extend_with_pattern(tp, solutions, graph)


def _extend_with_path(tp: TriplePattern, solutions: List[Binding], graph) -> List[Binding]:
    """Extend every solution through a property path: the step's whole
    endpoint column goes to :func:`eval_path_batch` in one call, so
    solutions that reach shared ancestors share their lookups."""
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


def _extend_with_pattern(tp: TriplePattern, solutions: List[Binding], graph) -> List[Binding]:
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
            if (_bind(extended, s, triple.subject) and _bind(extended, p, triple.predicate)
                    and _bind(extended, o, triple.object)):
                out.append(extended)
    return out


class JoinOp(_Op):
    op = "join"

    def execute(self, inputs, graph):
        left, right = self.children
        return right.run(left.run(inputs, graph), graph)


class OptionalOp(_Keyed):
    """Each left solution, extended by the right side where it matches
    and the condition holds on the merged solution, else kept as it is.
    The right side runs once per batch of left solutions."""

    op = "optional"

    def __init__(self, node: LeftJoin, left: Operator, right: Operator, tests=()):
        super().__init__(node, left, right, side=node.right, tests=tests)

    def describe(self):
        condition = self.node.condition
        return {} if condition is None else {"condition": render_expression(condition)}

    def execute(self, inputs, graph):
        left, right = self.children[:2]
        lefts = left.run(inputs, graph)
        keys, found = self.run_keyed(right, lefts, graph)
        # a fresh dict per merge: duplicate left rows share no solution
        merged = [[{**sol, **ext} for ext in found[key]] for sol, key in zip(lefts, keys)]
        condition = self.node.condition
        if condition is not None:
            exists = self.exists(graph, [row for rows in merged for row in rows])
            merged = [[row for row in rows if _holds(condition, row, exists)]
                      for rows in merged]
        out: List[Binding] = []
        for sol, rows in zip(lefts, merged):
            if rows:
                out.extend(rows)
            else:
                out.append(sol)
        return out


class UnionOp(_Op):
    op = "union"

    def execute(self, inputs, graph):
        left, right = self.children
        return left.run(inputs, graph) + right.run(inputs, graph)


class MinusOp(_Op):
    """Each left solution, unless compatible with a right solution it
    shares a variable with.  The right rows are indexed by domain, and a
    left row looks its values up on the variables it shares with each
    domain; left order is kept."""

    op = "minus"

    def execute(self, inputs, graph):
        left, right = self.children
        lefts = left.run(inputs, graph)
        domains: Dict[frozenset, List[Binding]] = {}
        for row in right.run([{}], graph):
            domains.setdefault(frozenset(row), []).append(row)
        keys: Dict[tuple, set] = {}  # (domain, shared variables) → value tuples
        out = []
        for sol in lefts:
            for domain, rows in domains.items():
                shared = tuple(sorted(domain.intersection(sol)))
                if not shared:
                    continue
                index = keys.get((domain, shared))
                if index is None:
                    index = keys[(domain, shared)] = {
                        tuple(row[name] for name in shared) for row in rows}
                if tuple(sol[name] for name in shared) in index:
                    break
            else:
                out.append(sol)
        return out


class FilterOp(_Op):
    op = "filter"

    def describe(self):
        return {"condition": render_expression(self.node.condition)}

    def execute(self, inputs, graph):
        condition = self.node.condition
        rows = self.children[0].run(inputs, graph)
        exists = self.exists(graph, rows)
        return [sol for sol in rows if _holds(condition, sol, exists)]


class ExtendOp(_Op):
    """BIND: an expression error leaves the variable unbound; a clash with
    an existing binding drops the solution."""

    op = "extend"

    def describe(self):
        return {"var": f"?{self.node.var.name}",
                "expression": render_expression(self.node.expression)}

    def execute(self, inputs, graph):
        name, expression = self.node.var.name, self.node.expression
        rows = self.children[0].run(inputs, graph)
        exists = self.exists(graph, rows)
        out = []
        for sol in rows:
            extended = dict(sol)
            try:
                value = evaluate_expression(expression, sol, exists)
                if name in extended and extended[name] != value:
                    continue
                extended[name] = value
            except ExprError:
                pass
            out.append(extended)
        return out


class GraphOp(_Op):
    """The body, with a named graph as the active graph: the constant
    one (*target*, resolved at compile time; ``None`` when the dataset
    has no such graph), or each one the variable is (or can be) bound
    to."""

    op = "graph"
    dataset: Optional[Dataset] = None
    target = None

    def describe(self):
        return {"name": render_term(self.node.name)}

    def execute(self, inputs, graph):
        dataset, name, body = self.dataset, self.node.name, self.children[0]
        if not isinstance(name, Var):
            return [] if self.target is None else body.run(inputs, self.target)
        if dataset is None:
            return []  # a bare graph has no named graphs
        out: List[Binding] = []
        for sol in inputs:
            pre_bound = sol.get(name.name)
            for graph_name in ([pre_bound] if pre_bound is not None
                               else dataset.graph_names()):
                if dataset.has_graph(graph_name):
                    out.extend(body.run([{**sol, name.name: graph_name}],
                                        dataset.graph(graph_name)))
        return out


class ValuesOp(_Op):
    """Its group's solutions joined with the inline rows (UNDEF leaves a
    variable as it is)."""

    op = "values"

    def describe(self):
        return {"variables": [f"?{v.name}" for v in self.node.variables],
                "rows": len(self.node.rows)}

    def execute(self, inputs, graph):
        out: List[Binding] = []
        for sol in self.children[0].run(inputs, graph):
            for row in self.node.rows:
                merged = dict(sol)
                if all(value is None or _bind(merged, var, value)
                       for var, value in zip(self.node.variables, row)):
                    out.append(merged)
        return out


class ExistsOp(_Keyed):
    """An EXISTS pattern of its parent's expressions, run by the parent
    once per batch of the solutions it tests (see :meth:`_Op.exists`)."""

    op = "exists"

    def __init__(self, node: ExistsExpr, pattern: Operator):
        super().__init__(node, pattern, side=node.pattern)

    def execute(self, inputs, graph):
        return self.children[0].run(inputs, graph)

    def fill(self, rows: List[Binding], graph, memo: Dict[tuple, bool]) -> None:
        """*memo* given whether the pattern matches each key of *rows*."""
        keys, found = self.run_keyed(self, rows, graph)
        for key in keys:
            memo[key] = bool(found[key])


# ---------------------------------------------------------------------------
# Query forms
# ---------------------------------------------------------------------------


class SelectOp(_Op):
    """Projection or aggregation, ORDER BY, DISTINCT, slicing."""

    op = "select"

    def describe(self):
        query = self.node
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
        return detail

    def execute(self, inputs, graph) -> ResultTable:
        query = self.node
        solutions = self.children[0].run(inputs, graph)
        exists = self.exists(graph, solutions)
        if query.has_aggregates():
            rows, variables = _aggregate(query, solutions, exists)
            scopes = rows  # ORDER BY sees group keys and aggregate aliases
        else:
            rows, variables = _project(query, solutions, exists)
            # ORDER BY is evaluated over the pre-projection solution
            # extended with any computed projection aliases.
            scopes = [dict(sol) | row for sol, row in zip(solutions, rows)]
        if query.order_by:
            paired = list(zip(scopes, rows))
            for condition in reversed(query.order_by):
                paired.sort(
                    key=lambda pair: order_key(_value(condition.expression, pair[0], exists)),
                    reverse=condition.descending,
                )
            rows = [row for _, row in paired]
        if query.distinct:  # in first-occurrence order
            rows = list({tuple(sorted(row.items())): row for row in rows}.values())
        if query.offset:
            rows = rows[query.offset :]
        if query.limit is not None:
            rows = rows[: query.limit]
        return ResultTable(variables, rows)


class AskOp(_Op):
    op = "ask"

    def execute(self, inputs, graph) -> bool:
        return bool(self.children[0].run(inputs, graph))


class ConstructOp(_Op):
    """The template instantiated once per solution; ill-formed
    instantiations (unbound positions, literal subjects) are skipped per
    the SPARQL spec."""

    op = "construct"

    def patterns(self):
        return self.node.template

    def rebound(self, children, patterns):
        new = super().rebound(children, patterns)
        if patterns is not None:
            new.node = replace(self.node, template=patterns)
        return new

    def describe(self):
        query = self.node
        detail: Dict[str, object] = {"template_triples": len(query.template)}
        if query.limit is not None:
            detail["limit"] = query.limit
        if query.offset:
            detail["offset"] = query.offset
        return detail

    def execute(self, inputs, graph) -> Graph:
        query = self.node
        solutions = self.children[0].run(inputs, graph)
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


class DescribeOp(_Op):
    """The concise bounded description: every triple whose subject is a
    described resource, expanded through blank-node objects."""

    op = "describe"

    def describe(self):
        return {"targets": [render_term(t) for t in self.node.targets]}

    def execute(self, inputs, graph) -> Graph:
        targets = self.node.targets
        resources: List[Term] = [t for t in targets if not isinstance(t, Var)]
        variables = [t for t in targets if isinstance(t, Var)]
        if variables and self.children:
            for sol in self.children[0].run(inputs, graph):
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
            for t in graph.triples(resource, None, None):
                out.add(t)
                if isinstance(t.object, BlankNode) and t.object not in seen:
                    frontier.append(t.object)
        return out


# ---------------------------------------------------------------------------
# SELECT helpers
# ---------------------------------------------------------------------------


def _project(query: SelectQuery, solutions: List[Binding], exists):
    if query.select_all:
        variables = sorted({name for sol in solutions for name in sol})
        return [dict(sol) for sol in solutions], variables
    variables = [p.var.name for p in query.projections]
    rows = []
    for sol in solutions:
        row: Binding = {}
        for proj in query.projections:
            value = (sol.get(proj.var.name) if proj.expression is None
                     else _value(proj.expression, sol, exists))
            if value is not None:
                row[proj.var.name] = value
        rows.append(row)
    return rows, variables


def _value(expression: Expression, solution: Binding, exists):
    """The expression's value, or None (unbound) on an expression error."""
    try:
        return evaluate_expression(expression, solution, exists)
    except ExprError:
        return None


def _aggregate(query: SelectQuery, solutions: List[Binding], exists):
    groups: Dict[tuple, List[Binding]] = {}
    for sol in solutions:
        key = tuple(_value(expr, sol, exists) for expr in query.group_by)
        groups.setdefault(key, []).append(sol)
    if not groups and not query.group_by:
        groups[()] = []  # aggregates over an empty solution set yield one row
    variables = [p.var.name for p in query.projections]
    rows: List[Binding] = []
    for key, members in sorted(groups.items(), key=lambda kv: tuple(order_key(k) for k in kv[0])):
        group_binding: Binding = {}
        for expr, value in zip(query.group_by, key):
            if isinstance(expr, VarExpr) and value is not None:
                group_binding[expr.var.name] = value
        if query.having is not None:
            try:
                ok = effective_boolean_value(
                    _group_value(query.having, group_binding, members, exists))
            except ExprError:
                ok = False
            if not ok:
                continue
        row: Binding = {}
        for proj in query.projections:
            if proj.expression is None:
                # a GROUP BY key: the compiler refused any other variable
                value = group_binding.get(proj.var.name)
            else:
                try:
                    value = _group_value(proj.expression, group_binding, members, exists)
                except ExprError:
                    value = None
            if value is not None:
                row[proj.var.name] = value
        rows.append(row)
    return rows, variables


def _group_value(expr: Expression, group_binding: Binding, members: List[Binding], exists):
    if isinstance(expr, Aggregate):
        return _aggregate_value(expr, members, exists)
    if isinstance(expr, VarExpr):
        value = group_binding.get(expr.var.name)
        if value is None:
            raise ExprError(f"?{expr.var.name} not bound at group level")
        return value
    # Rebuild composite expressions bottom-up over the group context.
    if isinstance(expr, TermExpr):
        return expr.term
    if isinstance(expr, Compare):
        left = _group_value(expr.left, group_binding, members, exists)
        right = _group_value(expr.right, group_binding, members, exists)
        return Literal(
            "true" if compare_terms(expr.op, left, right) else "false",
            datatype="http://www.w3.org/2001/XMLSchema#boolean",
        )
    if isinstance(expr, (And, Or, Not, Arithmetic, FunctionCall)):
        # Aggregate-free subtrees evaluate under the group binding alone.
        return evaluate_expression(expr, group_binding, exists)
    raise ExprError(f"unsupported group-level expression {type(expr).__name__}")


def _aggregate_value(agg: Aggregate, members: List[Binding], exists):
    if agg.expression is None:  # COUNT(*)
        count = len(members)
        if agg.distinct:
            count = len({tuple(sorted((k, v) for k, v in m.items())) for m in members})
        return from_python(count)
    values = [value for value in (_value(agg.expression, member, exists)
                                  for member in members) if value is not None]
    if agg.distinct:
        values = list(dict.fromkeys(values))
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
    if not all(isinstance(value, Literal) and value.is_numeric for value in values):
        raise ExprError(f"{agg.name} over non-numeric value")
    numbers = [float(value.lexical) for value in values]
    if agg.name == "SUM":
        total = sum(numbers)
        return from_python(int(total) if total == int(total) else total)
    if agg.name == "AVG":
        return from_python(sum(numbers) / len(numbers))
    raise ExprError(f"unknown aggregate {agg.name}")


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
