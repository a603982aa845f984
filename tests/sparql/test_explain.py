"""EXPLAIN/PROFILE: plan stability, digests, operator statistics."""

import json

import pytest

from repro.queries import CorpusQueries, Q1_WORKFLOW_RUNS, exemplar_queries
from repro.rdf import Graph, Namespace, PROV, RDF, from_python
from repro.sparql import QueryEngine
from repro.sparql.plan import _MISESTIMATES

EX = Namespace("http://example.org/")

RUNS_QUERY = """
PREFIX prov: <http://www.w3.org/ns/prov#>
SELECT ?run ?data WHERE {
  ?run a prov:Activity .
  ?run prov:used ?data .
  ?data a prov:Entity .
}
ORDER BY ?run
"""


class TestPlanStability:
    def test_same_query_same_digest(self, sample_graph):
        engine = QueryEngine(sample_graph)
        first = engine.explain(RUNS_QUERY)
        second = engine.explain(RUNS_QUERY)
        assert first.digest == second.digest
        assert first.to_text() == second.to_text()
        assert first.to_json() == second.to_json()

    def test_digest_survives_engine_rebuild(self, sample_graph):
        digests = {QueryEngine(sample_graph).explain(RUNS_QUERY).digest
                   for _ in range(3)}
        assert len(digests) == 1

    def test_different_queries_different_digests(self, sample_graph):
        engine = QueryEngine(sample_graph)
        other = "SELECT ?s WHERE { ?s a <http://www.w3.org/ns/prov#Entity> }"
        assert engine.explain(RUNS_QUERY).digest != engine.explain(other).digest

    def test_text_render_structure(self, sample_graph):
        text = QueryEngine(sample_graph).explain(RUNS_QUERY).to_text()
        assert text.startswith("plan digest=")
        assert "select" in text
        assert "bgp" in text
        assert text.count("scan") == 3
        # every scan carries a bound mask and a tiebreak reason
        for line in text.splitlines():
            if "scan" in line:
                assert "mask=" in line and "reason=" in line

    def test_json_round_trip_carries_estimates(self, sample_graph):
        payload = json.loads(QueryEngine(sample_graph).explain(RUNS_QUERY).to_json())
        assert set(payload) == {"digest", "plan"}
        bgp = payload["plan"]["children"][0]
        assert bgp["op"] == "bgp"
        scans = bgp["children"]
        assert [s["detail"]["index"] for s in scans] != []
        assert all("estimate" in s["detail"] for s in scans)
        assert all(len(s["detail"]["mask"]) == 3 for s in scans)

    def test_trace_args_compact(self, sample_graph):
        plan = QueryEngine(sample_graph).explain(RUNS_QUERY)
        args = plan.trace_args()
        assert args["plan_digest"] == plan.digest
        assert args["plan_operators"] >= 5


class TestExemplarQueryPlans:
    def test_q1_to_q6_digests_stable(self, corpus, corpus_dataset):
        queries = exemplar_queries(corpus)
        assert sorted(queries) == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
        first = {name: CorpusQueries(corpus_dataset).engine.explain(q).digest
                 for name, q in queries.items()}
        second = {name: CorpusQueries(corpus_dataset).engine.explain(q).digest
                  for name, q in queries.items()}
        assert first == second
        # the six plans are genuinely distinct
        assert len(set(first.values())) == 6

    def test_q1_plan_shape(self, corpus_dataset):
        engine = CorpusQueries(corpus_dataset).engine
        plan = engine.explain(Q1_WORKFLOW_RUNS)
        ops = [node.op for node in plan.root.walk()]
        assert ops[0] == "select"
        assert "union" in ops and "optional" in ops and "filter" in ops


class TestProfile:
    def test_row_counts_match_result(self, sample_graph):
        engine = QueryEngine(sample_graph)
        profile = engine.profile(RUNS_QUERY)
        result = engine.query(RUNS_QUERY)
        assert len(profile.result) == len(result)
        report = profile.report
        assert report["digest"] == profile.plan.digest
        scans = [op for op in report["operators"] if op["op"] == "scan"]
        assert len(scans) == 3
        # the final scan's output rows == result rows (no later filtering)
        assert scans[-1]["rows_out"] == len(result)
        assert all(op["calls"] >= 1 for op in scans)

    def test_profile_does_not_touch_result_cache(self, sample_graph):
        engine = QueryEngine(sample_graph)
        engine.profile(RUNS_QUERY)
        assert engine.cache_info()["size"] == 0
        engine.query(RUNS_QUERY)
        assert engine.cache_info()["size"] == 1
        # and a profile after caching still executes for real
        profile = engine.profile(RUNS_QUERY)
        assert any(op.get("calls", 0) for op in profile.report["operators"])

    def test_estimate_vs_actual_error_reported(self, sample_graph):
        profile = QueryEngine(sample_graph).profile(RUNS_QUERY)
        scans = [op for op in profile.report["operators"] if op["op"] == "scan"]
        assert all("estimate" in op for op in scans)
        assert any(op.get("error_ratio") is not None for op in scans)

    def test_misestimate_increments_counter(self):
        g = Graph()
        for i in range(11):
            g.add((EX.subj, EX.fanout, EX[f"obj{i}"]))
        # ?s fanout ?x . ?s fanout ?y  → second scan emits 121 rows
        # against an estimate of 11: an 11x error, over the 10x gate.
        query = ("SELECT ?x ?y WHERE { ?s <http://example.org/fanout> ?x . "
                 "?s <http://example.org/fanout> ?y . }")
        before = _MISESTIMATES.value
        profile = QueryEngine(g).profile(query)
        assert profile.report["misestimates"] >= 1, "expected a flagged misestimate"
        assert _MISESTIMATES.value == before + profile.report["misestimates"]
        flagged = [op for op in profile.report["operators"] if op.get("misestimate")]
        assert flagged and all(op["error_ratio"] > 10 for op in flagged)

    def test_profile_text_table(self, sample_graph):
        text = QueryEngine(sample_graph).profile(RUNS_QUERY).to_text()
        assert "profile digest=" in text
        assert "rows_out" in text


@pytest.fixture
def prov_corpus_dir(tmp_path):
    (tmp_path / "Taverna" / "dom" / "t-1").mkdir(parents=True)
    (tmp_path / "Taverna" / "dom" / "t-1" / "run1.prov.ttl").write_text(
        "@prefix ex: <http://example.org/> .\n"
        "@prefix prov: <http://www.w3.org/ns/prov#> .\n"
        "ex:run1 a prov:Activity ; prov:used ex:data1 .\n"
        "ex:data1 a prov:Entity .\n"
    )
    (tmp_path / "Taverna" / "dom" / "t-2").mkdir(parents=True)
    (tmp_path / "Taverna" / "dom" / "t-2" / "run2.prov.ttl").write_text(
        "@prefix ex: <http://example.org/> .\n"
        "@prefix prov: <http://www.w3.org/ns/prov#> .\n"
        "ex:run2 a prov:Activity ; prov:used ex:data1 .\n"
        "ex:out1 a prov:Entity ; prov:wasGeneratedBy ex:run2 .\n"
    )
    return tmp_path


class TestStoreBackedPlans:
    def test_digest_identical_across_parallel_ingest(self, prov_corpus_dir, tmp_path):
        from repro.store import QuadStore, StoreDataset, ingest_corpus

        texts = []
        for jobs in (1, 2):
            with QuadStore(tmp_path / f"store-j{jobs}") as store:
                ingest_corpus(store, prov_corpus_dir, jobs=jobs)
                engine = QueryEngine(StoreDataset(store))
                texts.append(engine.explain(RUNS_QUERY).to_text())
        assert texts[0] == texts[1]

    def test_profile_attributes_store_probes(self, prov_corpus_dir, tmp_path):
        from repro.store import QuadStore, StoreDataset, ingest_corpus

        with QuadStore(tmp_path / "store") as store:
            ingest_corpus(store, prov_corpus_dir)
            profile = QueryEngine(StoreDataset(store)).profile(RUNS_QUERY)
            scans = [op for op in profile.report["operators"] if op["op"] == "scan"]
            assert sum(op.get("probes", 0) for op in scans) > 0
