"""Encoded-ID execution: planner seeding, parity with the in-memory path.

The planner-seeding test guards against a latent bug: seeding
`plan_bgp_steps` with the variables of the first input solution, so that
after an OPTIONAL (or UNION) a variable bound in only *some* solutions
was planned as bound for all of them.  The seed is the set of variables
*certainly* bound there, which the compiler propagates: an OPTIONAL's
right side binds nothing certainly.
"""

import dataclasses
import inspect
import os

import pytest

from repro.rdf import Dataset, Literal, Namespace, PROV, RDF, XSD
from repro.sparql import QueryEngine, parse_query
from repro.sparql.algebra import BGP, Pattern

EX = Namespace("http://example.org/")

PARITY_TTL = """\
@prefix ex: <http://example.org/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:run0 a prov:Activity ;
    prov:used ex:data0, ex:data1 ;
    prov:endedAtTime "2013-01-01T11:00:00"^^xsd:dateTime .
ex:run1 a prov:Activity ;
    prov:used ex:data1 ;
    prov:endedAtTime "2013-01-01T12:00:00"^^xsd:dateTime .
ex:run2 a prov:Activity .
ex:data0 a prov:Entity ; ex:size 10 .
ex:data1 a prov:Entity ; ex:size 20 .
ex:loop ex:self ex:loop .
ex:a1 prov:used ex:d1 .
ex:d2 prov:wasGeneratedBy ex:a1 .
ex:a2 prov:used ex:d2 .
ex:d3 prov:wasGeneratedBy ex:a2 .
"""

PARITY_TRIG = """\
@prefix ex: <http://example.org/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
ex:bundle1 {
    ex:run0 a prov:Activity .
    ex:run0 prov:wasAssociatedWith ex:alice .
    ex:alice a prov:Agent .
}
"""

PARITY_QUERIES = {
    "join": """
        SELECT ?run ?data WHERE {
          ?run a prov:Activity .
          ?run prov:used ?data .
          ?data a prov:Entity .
        } ORDER BY ?run ?data
    """,
    "optional": """
        PREFIX ex: <http://example.org/>
        SELECT ?run ?end ?data WHERE {
          ?run a prov:Activity .
          OPTIONAL { ?run prov:endedAtTime ?end }
          ?run prov:used ?data .
        } ORDER BY ?run ?data
    """,
    "heterogeneous-join-var": """
        SELECT ?run ?end ?other WHERE {
          ?run a prov:Activity .
          OPTIONAL { ?run prov:endedAtTime ?end }
          ?other prov:endedAtTime ?end .
        } ORDER BY ?run ?other
    """,
    "union": """
        SELECT ?x WHERE {
          { ?x a prov:Activity } UNION { ?x a prov:Entity }
        } ORDER BY ?x
    """,
    "named-graph": """
        PREFIX ex: <http://example.org/>
        SELECT ?s ?p ?o WHERE { GRAPH ex:bundle1 { ?s ?p ?o } } ORDER BY ?s ?p ?o
    """,
    "graph-var": """
        SELECT ?g ?s WHERE { GRAPH ?g { ?s a prov:Activity } } ORDER BY ?g ?s
    """,
    "repeated-var": """
        SELECT ?x ?p WHERE { ?x ?p ?x } ORDER BY ?x ?p
    """,
    "filter-not-exists": """
        SELECT ?run WHERE {
          ?run a prov:Activity .
          FILTER NOT EXISTS { ?run prov:endedAtTime ?end }
        } ORDER BY ?run
    """,
    "unknown-constant": """
        PREFIX ex: <http://example.org/>
        SELECT ?p ?o WHERE { ex:never-seen ?p ?o }
    """,
    "values-unknown-binding": """
        PREFIX ex: <http://example.org/>
        SELECT ?s ?o WHERE {
          VALUES ?s { ex:never-seen ex:run1 }
          ?s prov:used ?o .
        } ORDER BY ?s ?o
    """,
    "full-scan": """
        SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o
    """,
}


def _build_parity_corpus(root):
    corpus = root / "corpus"
    corpus.mkdir()
    (corpus / "data.prov.ttl").write_text(PARITY_TTL)
    (corpus / "named.prov.trig").write_text(PARITY_TRIG)
    return corpus


@pytest.fixture(scope="module")
def parity_pair(tmp_path_factory):
    """(StoreDataset, in-memory Dataset) over the same parity corpus."""
    from repro.rdf.trig import parse_trig
    from repro.rdf.turtle import parse_turtle
    from repro.store import QuadStore, StoreDataset, ingest_corpus

    root = tmp_path_factory.mktemp("encoded-parity")
    corpus = _build_parity_corpus(root)
    store = QuadStore(root / "store")
    ingest_corpus(store, corpus)
    memory = Dataset()
    parse_turtle(PARITY_TTL, graph=memory.default)
    trig = parse_trig(PARITY_TRIG)
    for name in trig.graph_names():
        memory.graph(name).add_all(trig.graph(name))
    yield StoreDataset(store), memory
    store.close()


def _rows(engine, query):
    return [row.asdict() for row in engine.query(query)]


def _reversed_bgps(engine, text):
    """*text* parsed, with every BGP's patterns in reverse written order.

    The planner owes the same answer whatever order the patterns were
    written in; feeding it the reversal is the independent check on its
    choice (it breaks ties by written position, so the plan does move).
    """
    parsed = parse_query(text, namespaces=engine.namespaces)

    def visit(node):
        if isinstance(node, BGP):
            node.triples.reverse()
        elif isinstance(node, Pattern):
            for field in dataclasses.fields(node):
                visit(getattr(node, field.name))

    visit(parsed.where)
    return parsed


#: A query as written, and with every BGP reversed.  The ids are the
#: recorded ones of the optimizer on/off axis this replaced; the test
#: floor tracks tests by id, so they stay.
WRITTEN_ORDERS = pytest.mark.parametrize(
    "reverse", [False, True], ids=["opt", "literal"])

HETEROGENEOUS_QUERY = """
PREFIX prov: <http://www.w3.org/ns/prov#>
SELECT ?run ?end ?data WHERE {
  ?run a prov:Activity .
  OPTIONAL { ?run prov:endedAtTime ?end }
  ?run prov:used ?data .
}
ORDER BY ?run
"""


class TestPlannerSeeding:
    def _captured_seeds(self, monkeypatch, graph):
        from repro.sparql import evaluator as evaluator_mod
        from repro.sparql.plan import plan_bgp_steps as real_plan

        captured = []

        def spy(patterns, bound_vars=(), graph=None):
            captured.append((list(patterns), set(bound_vars)))
            return real_plan(patterns, bound_vars, graph)

        monkeypatch.setattr(evaluator_mod, "plan_bgp_steps", spy)
        QueryEngine(graph).query(HETEROGENEOUS_QUERY)
        return captured

    def test_seed_is_intersection_after_optional(self, monkeypatch, sample_graph):
        captured = self._captured_seeds(monkeypatch, sample_graph)
        trailing = [
            bound for patterns, bound in captured
            if len(patterns) == 1 and patterns[0].predicate == PROV.used
        ]
        assert trailing, "trailing BGP never reached the planner"
        # ?end is bound for run0/run1 but not run2, so it must not be
        # part of the planner seed for the trailing pattern.
        assert trailing == [{"run"}]

    def test_results_unchanged_by_seeding(self, sample_graph):
        rows = QueryEngine(sample_graph).query(HETEROGENEOUS_QUERY)
        runs = [row["run"] for row in rows]
        assert runs == [EX.run0, EX.run1, EX.run2]
        assert rows[2].get("end") is None


def _scoped_graph(tmp_path, graph_id):
    """A store-backed graph over an empty store: the access-path
    capability reads no file, only the graph's scope."""
    from repro.store import QuadStore, StoreGraph

    return StoreGraph(QuadStore(tmp_path / "store"), graph_id=graph_id)


class TestOrderingLockstep:
    def test_plan_orderings_match_segment_orderings(self, tmp_path):
        """Every ordering the planner can annotate (8 bound masks × 2
        scopes) is one the store keeps, and the planner states no
        permutation of its own — it asks the graph."""
        import repro.sparql.plan as plan
        from repro.store.segments import ORDERINGS

        annotated = set()
        for graph_id in (None, 7):
            graph = _scoped_graph(tmp_path, graph_id)
            for index in range(8):
                mask = "".join("b" if index >> bit & 1 else "?" for bit in range(3))
                annotated.add(plan.choose_access(mask, graph)[1].ordering)
            graph._store.close()
        assert annotated == set(ORDERINGS)
        import repro.sparql.encoded as encoded

        for module in (plan, encoded):
            source = inspect.getsource(module)
            for name in ORDERINGS:
                assert f'"{name}"' not in source and f"'{name}'" not in source

    def test_sparql_imports_neither_store_nor_pathindex(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.sparql\n"
            "print([m for m in sys.modules"
            " if m.startswith(('repro.store', 'repro.pathindex'))])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.stdout.strip() == "[]"


class TestChooseAccess:
    """The published contract of the access dispatch: the ordering comes
    from the store's table (through ``graph.access_path``), the operator
    from the planner's reading of that path's prefix."""

    @staticmethod
    def _chosen(tmp_path, mask, graph_id):
        from repro.sparql.plan import choose_access

        graph = _scoped_graph(tmp_path, graph_id)
        try:
            operator, path = choose_access(mask, graph)
        finally:
            graph._store.close()
        return operator, path.ordering

    @pytest.mark.parametrize(
        "mask,expected",
        [
            ("???", ("bisect", "spog")),
            ("b??", ("bisect", "spog")),
            ("j??", ("merge", "spog")),
            ("?b?", ("bisect", "posg")),
            ("??b", ("bisect", "ospg")),
            ("??j", ("merge", "ospg")),
            ("bb?", ("bisect", "spog")),
            ("bj?", ("merge", "spog")),
            ("b?b", ("bisect", "ospg")),
            ("j?b", ("merge", "ospg")),
            ("?bb", ("bisect", "posg")),
            ("bbb", ("bisect", "spog")),
            ("bbj", ("merge", "spog")),
        ],
    )
    def test_union_scope(self, tmp_path, mask, expected):
        assert self._chosen(tmp_path, mask, None) == expected

    @pytest.mark.parametrize(
        "mask,expected",
        [
            # (s), (s, p), (s, p, o) chains ride gspo's (g, s, p, o) prefix.
            ("???", ("bisect", "gspo")),
            ("b??", ("bisect", "gspo")),
            ("j??", ("merge", "gspo")),
            ("bb?", ("bisect", "gspo")),
            ("bj?", ("merge", "gspo")),
            ("bbb", ("bisect", "gspo")),
            # Non-chain bound sets fall back to a union ordering with a
            # per-record graph filter.
            ("?b?", ("bisect", "posg")),
            ("??b", ("bisect", "ospg")),
            ("??j", ("merge", "ospg")),
            ("?bb", ("bisect", "posg")),
            ("b?b", ("bisect", "ospg")),
        ],
    )
    def test_single_graph_scope(self, tmp_path, mask, expected):
        assert self._chosen(tmp_path, mask, 7) == expected


class TestQueryParity:
    """The store-backed engine (id-space pipeline wherever a step can
    batch) must agree with the in-memory evaluator on every query shape
    the executor dispatches on, whatever order the patterns are written
    in."""

    @WRITTEN_ORDERS
    @pytest.mark.parametrize("name", sorted(PARITY_QUERIES))
    def test_three_way_parity(self, parity_pair, name, reverse):
        """Store == memory == the query as written (all ORDER BY total,
        so the comparison is on row lists, not just multisets)."""
        store_ds, mem_ds = parity_pair
        text = PARITY_QUERIES[name]
        stored, memory = QueryEngine(store_ds), QueryEngine(mem_ds)
        as_written = _rows(memory, text)
        query = _reversed_bgps(stored, text) if reverse else text
        assert _rows(stored, query) == as_written
        assert _rows(memory, query) == as_written

    NO_ORDER_QUERY = """
        SELECT ?run ?end ?data WHERE {
          ?run a prov:Activity .
          OPTIONAL { ?run prov:endedAtTime ?end }
          ?run prov:used ?data .
          ?data a prov:Entity .
        }
    """

    @WRITTEN_ORDERS
    def test_row_order_byte_identity_without_order_by(self, parity_pair, reverse):
        """Without ORDER BY the batch pipeline must still emit rows in
        scan order, binding by binding — the heterogeneous batch (?end
        bound for run0/run1 only) exercises per-group dispatch with
        outputs re-flattened in input order.  The expected list is the
        order the per-binding pipeline walks this store in."""
        store_ds, _ = parity_pair
        engine = QueryEngine(store_ds)
        query = self.NO_ORDER_QUERY
        if reverse:
            query = _reversed_bgps(engine, query)
        end = {run: Literal(f"2013-01-01T{hour}:00:00", datatype=XSD.DATETIME)
               for run, hour in ((EX.run0, 11), (EX.run1, 12))}
        assert _rows(engine, query) == [
            {"run": EX.run0, "end": end[EX.run0], "data": EX.data0},
            {"run": EX.run0, "end": end[EX.run0], "data": EX.data1},
            {"run": EX.run1, "end": end[EX.run1], "data": EX.data1},
        ]

    def test_ask_parity(self, parity_pair):
        store_ds, mem_ds = parity_pair
        query = """
            PREFIX ex: <http://example.org/>
            ASK { ex:run1 prov:used ?d . ?d a prov:Entity }
        """
        assert QueryEngine(store_ds).ask(query) is True
        assert QueryEngine(mem_ds).ask(query) is True
        assert QueryEngine(store_ds).ask(
            "PREFIX ex: <http://example.org/> ASK { ex:never-seen ?p ?o }"
        ) is False


PATH_QUERIES = {
    "sequence": """
        SELECT ?a ?b WHERE { ?a prov:wasGeneratedBy/prov:used ?b } ORDER BY ?a ?b
    """,
    "alternative": """
        SELECT ?a ?b WHERE { ?a (prov:used|prov:wasGeneratedBy) ?b } ORDER BY ?a ?b
    """,
    "inverse": """
        SELECT ?a ?b WHERE { ?a ^prov:used ?b } ORDER BY ?a ?b
    """,
    "plus-both-free": """
        SELECT ?a ?b WHERE { ?a (prov:wasGeneratedBy/prov:used)+ ?b } ORDER BY ?a ?b
    """,
    "star-subject-bound": """
        PREFIX ex: <http://example.org/>
        SELECT ?b WHERE { ex:d3 (prov:wasGeneratedBy/prov:used)* ?b } ORDER BY ?b
    """,
    "plus-object-bound": """
        PREFIX ex: <http://example.org/>
        SELECT ?a WHERE { ?a (prov:wasGeneratedBy/prov:used)+ ex:d1 } ORDER BY ?a
    """,
    "star-ghost-subject": """
        PREFIX ex: <http://example.org/>
        SELECT ?x WHERE { ex:ghost prov:used* ?x }
    """,
}


class TestPathParity:
    """Property paths run on the per-binding pipeline; store-backed and
    in-memory evaluation must still agree for every endpoint mask."""

    @pytest.mark.parametrize("name", sorted(PATH_QUERIES))
    def test_store_matches_memory(self, parity_pair, name):
        store_ds, mem_ds = parity_pair
        query = PATH_QUERIES[name]
        assert _rows(QueryEngine(store_ds), query) == _rows(QueryEngine(mem_ds), query)

    def test_ghost_zero_length_closure(self, parity_pair):
        """p* must yield the zero-length match (t, t) even for a subject
        the store dictionary has never seen — the reason path BGPs
        cannot run in id space."""
        store_ds, _ = parity_pair
        rows = _rows(QueryEngine(store_ds), PATH_QUERIES["star-ghost-subject"])
        assert rows == [{"x": EX.ghost}]

    def test_both_endpoints_bound_ask(self, parity_pair):
        store_ds, mem_ds = parity_pair
        query = """
            PREFIX ex: <http://example.org/>
            ASK { ex:d3 (prov:wasGeneratedBy/prov:used)+ ex:d1 }
        """
        assert QueryEngine(store_ds).ask(query) is True
        assert QueryEngine(mem_ds).ask(query) is True


#: Two join keys against the 200 ``prov:used`` records of ``big_pair``:
#: sparse in the constant range, so the join gallops (``merge``).
SPARSE_JOIN = """
    PREFIX ex: <http://example.org/>
    SELECT ?run ?data WHERE { VALUES ?run { ex:run3 ex:run7 } ?run prov:used ?data }
"""


class TestScanStrategyMetrics:
    def test_merge_counter_increments_on_join(self, big_pair):
        from repro.sparql.encoded import _SCAN_STRATEGY

        store_ds, _ = big_pair
        before = _SCAN_STRATEGY.labels("merge").value
        rows = _rows(QueryEngine(store_ds), SPARSE_JOIN)
        assert [row["data"] for row in rows] == [EX.data3, EX.data7]
        assert _SCAN_STRATEGY.labels("merge").value > before

    def test_hash_counter_increments_on_dense_join(self, parity_pair):
        """Three ``?run`` keys against the six ``rdf:type`` records: the
        constants-only range is read once and bucketed by key."""
        from repro.sparql.encoded import _SCAN_STRATEGY

        store_ds, mem_ds = parity_pair
        before = _SCAN_STRATEGY.labels("hash").value
        merge = _SCAN_STRATEGY.labels("merge").value
        query = PARITY_QUERIES["join"]
        assert _rows(QueryEngine(store_ds), query) == _rows(QueryEngine(mem_ds), query)
        assert _SCAN_STRATEGY.labels("hash").value > before
        assert _SCAN_STRATEGY.labels("merge").value == merge

    def test_bisect_counter_increments_on_constant_scan(self, parity_pair):
        from repro.sparql.encoded import _SCAN_STRATEGY

        store_ds, _ = parity_pair
        before = _SCAN_STRATEGY.labels("bisect").value
        # The first step's mask has no join-bound position, so its
        # (single-key) scan is a bisect batch.
        QueryEngine(store_ds).select(
            "SELECT ?run ?data WHERE { ?run a prov:Activity . ?run prov:used ?data }"
            " ORDER BY ?run ?data"
        )
        assert _SCAN_STRATEGY.labels("bisect").value > before

    def test_single_pattern_singleton_input_skips_encoded(self, parity_pair):
        """A one-pattern BGP over one input solution has exactly one
        scan range — the executor must not engage (no batch to win on)."""
        from repro.sparql.encoded import _SCAN_STRATEGY

        store_ds, _ = parity_pair
        merge = _SCAN_STRATEGY.labels("merge").value
        bisect = _SCAN_STRATEGY.labels("bisect").value
        rows = _rows(
            QueryEngine(store_ds),
            "SELECT ?run WHERE { ?run a prov:Activity } ORDER BY ?run",
        )
        assert rows == [{"run": EX.run0}, {"run": EX.run1}, {"run": EX.run2}]
        assert _SCAN_STRATEGY.labels("merge").value == merge
        assert _SCAN_STRATEGY.labels("bisect").value == bisect


class TestPlanRendering:
    def test_store_plan_annotates_join_and_ordering(self, parity_pair):
        store_ds, _ = parity_pair
        text = QueryEngine(store_ds).explain(PARITY_QUERIES["join"]).to_text()
        assert "join=merge" in text
        assert "ordering=" in text

    def test_memory_plan_is_unannotated(self, sample_graph):
        text = QueryEngine(sample_graph).explain(PARITY_QUERIES["join"]).to_text()
        assert "join=" not in text
        assert "ordering=" not in text

    def test_path_bgp_scans_never_claim_batch_operators(self, parity_pair):
        """Path-containing BGPs decline the encoded executor, so their
        scans must not advertise merge/bisect; a path step advertises
        ``path`` and the ordering its walk reads first instead."""
        store_ds, _ = parity_pair
        text = QueryEngine(store_ds).explain(PATH_QUERIES["sequence"]).to_text()
        assert "join=merge" not in text
        assert "join=bisect" not in text
        assert "join=path " in text and "ordering=posg " in text

    def test_profile_reports_operator(self, big_pair):
        store_ds, _ = big_pair
        profile = QueryEngine(store_ds).profile(SPARSE_JOIN)
        assert "merge" in profile.to_text()

    def test_profile_reports_the_operator_that_ran(self, parity_pair):
        """EXPLAIN keeps the static plan (``merge``); PROFILE's join
        column says what the batches ran (``hash``)."""
        store_ds, _ = parity_pair
        engine = QueryEngine(store_ds)
        query = PARITY_QUERIES["join"]
        explained = [node.detail["join"] for node in engine.explain(query).root.walk()
                     if node.op == "scan"]
        ran = [row["join"] for row in engine.profile(query).report["operators"]
               if row["op"] == "scan"]
        assert explained == ["bisect", "merge", "merge"]
        assert ran == ["bisect", "hash", "hash"]


@pytest.fixture(scope="module")
def big_pair(tmp_path_factory):
    """A ~200-run synthetic store (and the store itself, for counters):
    large enough that merge-join galloping measurably beats per-binding
    bisect."""
    from repro.store import QuadStore, StoreDataset

    store = QuadStore(tmp_path_factory.mktemp("encoded-big") / "store")
    store.begin_file("big.prov.ttl", "0" * 64)
    rdf_type = store.add_term(RDF.type)
    activity = store.add_term(PROV.Activity)
    entity = store.add_term(PROV.Entity)
    used = store.add_term(PROV.used)
    for i in range(200):
        run = store.add_term(EX[f"run{i}"])
        data = store.add_term(EX[f"data{i}"])
        store.add_quad(run, rdf_type, activity)
        store.add_quad(run, used, data)
        store.add_quad(data, rdf_type, entity)
    store.commit_file()
    store.compact()
    yield StoreDataset(store), store
    store.close()


class TestProbeReduction:
    JOIN_QUERY = """
        SELECT ?run ?data WHERE {
          ?run a prov:Activity .
          ?run prov:used ?data .
          ?data a prov:Entity .
        }
    """

    def test_join_probe_count_is_bounded(self, big_pair):
        """Segment probes are deterministic, so the batch operators' win
        is pinned as a number: the per-binding pipeline spent 7,500
        probes on this join, merge/bisect batches spend 2,057."""
        store_ds, store = big_pair
        before = store.runtime_counters()[0]
        rows = _rows(QueryEngine(store_ds), self.JOIN_QUERY)
        probes = store.runtime_counters()[0] - before
        assert len(rows) == 200
        assert probes <= 2057
