"""One operator tree: the compiled tree is what runs, what EXPLAIN prints
and what PROFILE times — checked against the scans the executors were
actually handed, on memory and on the store."""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.queries import Q1_WORKFLOW_RUNS, CorpusQueries
from repro.rdf import Dataset, Graph, Namespace, from_python
from repro.sparql import QueryEngine, evaluator, parse_query
from repro.sparql.encoded import EncodedExecutor
from repro.sparql.plan import render_triple_pattern

EX = Namespace("http://example.org/")


@pytest.fixture(scope="module")
def golden_requests(pathindex_corpus_dir):
    """The 820 requests ``golden.json`` pins, from the corpus manifest."""
    from benchmarks.harness.schedule import all_requests

    manifest = json.loads((pathindex_corpus_dir / "manifest.json").read_text())
    return all_requests(manifest["traces"])


@pytest.fixture(scope="module")
def golden_texts(golden_requests):
    return [request.text for request in golden_requests]


def test_store_answers_every_golden_text(indexed_store, golden_requests):
    """The store's SELECT JSON for every golden text is its pinned answer
    (the pins are computed in memory, so this holds the store to the
    other backend)."""
    from benchmarks.harness import golden

    from repro.store import StoreDataset

    pins = golden.load()
    engine = CorpusQueries(StoreDataset(indexed_store)).engine
    mismatches = [
        mismatch for mismatch in (
            golden.check(pins, request.key,
                         engine.select(request.text).to_json().encode("utf-8"))
            for request in golden_requests)
        if mismatch]
    assert len(golden_requests) == len(pins["queries"]) == 820
    assert mismatches == []


@pytest.fixture(scope="module", params=["memory", "store"])
def corpus_engine(request, corpus_dataset, indexed_store):
    from repro.store import StoreDataset

    source = corpus_dataset if request.param == "memory" else StoreDataset(indexed_store)
    return CorpusQueries(source).engine


def _facts(step):
    return (render_triple_pattern(step.pattern), step.bound_mask, step.ordering)


class TestExplainTellsTheTruth:
    def test_profiled_scans_are_explained_scans(self, corpus_engine, golden_texts,
                                                monkeypatch):
        """For every golden text: the plan EXPLAIN prints — through the
        plan cache, most of them a cached shape with other IRIs swapped
        in — is the one a fresh compile of the text prints; each scan
        the executors were handed is one EXPLAIN printed (pattern, mask,
        ordering), and the scans PROFILE reports with calls > 0 are
        exactly those, in EXPLAIN's order."""
        handed = []
        real_extend = EncodedExecutor.extend
        real_step = evaluator._extend_step

        def spy_extend(self, step, batch, graph=None):
            handed.append(_facts(step))
            return real_extend(self, step, batch, graph)

        def spy_step(step, solutions, graph):
            handed.append(_facts(step))
            return real_step(step, solutions, graph)

        monkeypatch.setattr(EncodedExecutor, "extend", spy_extend)
        monkeypatch.setattr(evaluator, "_extend_step", spy_step)
        for text in golden_texts:
            plan = corpus_engine.explain(text)
            fresh = corpus_engine.explain(parse_query(text, namespaces=corpus_engine.namespaces))
            assert (plan.to_text(), plan.digest) == (fresh.to_text(), fresh.digest), text
            explained = [
                (node.detail["pattern"], node.detail["mask"], node.detail.get("ordering"))
                for node in plan.root.walk() if node.op == "scan"]
            del handed[:]
            profile = corpus_engine.profile(text)
            ran = [(row["label"], row.get("ordering"))
                   for row in profile.report["operators"]
                   if row["op"] == "scan" and row["calls"] > 0]
            handed_once = set(handed)
            assert handed_once <= set(explained), text
            assert ran == [(pattern, ordering) for pattern, mask, ordering in explained
                           if (pattern, mask, ordering) in handed_once], text

    def test_exists_and_graph_scopes_are_explained(self, corpus_engine):
        """Q1's NOT EXISTS scan shows in EXPLAIN and runs; a GRAPH ?g body
        is annotated with the named-graph ordering it runs on."""
        from repro.store import StoreDataset

        rows = corpus_engine.profile(Q1_WORKFLOW_RUNS).report["operators"]
        (exists,) = [row for row in rows
                     if row["op"] == "scan" and "wasPartOfWorkflowRun" in row["label"]]
        assert exists["calls"] > 0
        text = "SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o } }"
        (scan,) = [node.detail for node in corpus_engine.explain(text).root.walk()
                   if node.op == "scan"]
        on_store = isinstance(corpus_engine.dataset, StoreDataset)
        assert scan.get("ordering") == ("gspo" if on_store else None)

    def test_q1_runs_every_operator_once(self, corpus_engine):
        """OPTIONAL right sides and the NOT EXISTS pattern run once per
        batch (122 / 122 / 86 times when they ran per row), and the dense
        joins read their constant ranges instead of probing per key."""
        from repro.store import StoreDataset

        rows = corpus_engine.profile(Q1_WORKFLOW_RUNS).report["operators"]
        assert [row["calls"] for row in rows if row["op"] != "select"] == [1] * (len(rows) - 1)
        if isinstance(corpus_engine.dataset, StoreDataset):
            scans = [row for row in rows if row["op"] == "scan"]
            assert sum(row["probes"] for row in scans) <= 300
            assert [row["join"] for row in scans].count("hash") == 5

    def test_each_bgp_planned_once_per_execution(self, corpus_engine, monkeypatch):
        """Q1 plans each BGP once, when its shape is compiled: the planner
        call count is the tree's BGP count, and a repeat execution of the
        same shape at the same version (or its EXPLAIN) plans nothing."""
        calls = []
        real = evaluator.plan_bgp_steps

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluator, "plan_bgp_steps", counting)
        engine = QueryEngine(corpus_engine.dataset, namespaces=corpus_engine.namespaces)
        assert len(engine.query(Q1_WORKFLOW_RUNS)) == 198
        bgps = sum(1 for node in engine.explain(Q1_WORKFLOW_RUNS).root.walk()
                   if node.op == "bgp")
        assert len(calls) == bgps
        engine.clear_cache()
        assert len(engine.query(Q1_WORKFLOW_RUNS)) == 198
        assert len(calls) == bgps


EXISTS_IN_GRAPH = """
PREFIX ex: <http://example.org/>
SELECT ?x { GRAPH ex:g1 { ?x ex:p ?y FILTER NOT EXISTS { ?y ex:q ?z } } }
"""
EXISTS_TRIG = """
@prefix ex: <http://example.org/> .
ex:g1 { ex:x ex:p ex:y . }
ex:g2 { ex:y ex:q ex:z . }
"""


class TestExistsReadsTheActiveGraph:
    """SPARQL 1.1 §18.6: an EXISTS pattern is evaluated against the active
    graph — inside ``GRAPH ex:g1`` that is g1, not the union."""

    def test_memory(self):
        dataset = Dataset()
        dataset.graph(EX.g1).add((EX.x, EX.p, EX.y))
        dataset.graph(EX.g2).add((EX.y, EX.q, EX.z))
        rows = QueryEngine(dataset).query(EXISTS_IN_GRAPH)
        assert [row["x"] for row in rows] == [EX.x]

    def test_store(self, tmp_path):
        from repro.store import QuadStore, StoreDataset, ingest_corpus

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "named.prov.trig").write_text(EXISTS_TRIG)
        with QuadStore(tmp_path / "store") as store:
            ingest_corpus(store, corpus)
            rows = QueryEngine(StoreDataset(store)).query(EXISTS_IN_GRAPH)
            assert [row["x"] for row in rows] == [EX.x]


# -- MINUS ---------------------------------------------------------------------

_VARS = ("a", "b", "c")


def _minus_reference(lefts, rights):
    """SPARQL 1.1 §18.5 Minus, by definition: keep μ unless some μ' has a
    shared variable and agrees with μ on every shared variable."""
    out = []
    for mu in lefts:
        if not any(set(mu) & set(other)
                   and all(mu[v] == other[v] for v in set(mu) & set(other))
                   for other in rights):
            out.append(mu)
    return out


def _values_text(rows):
    body = " ".join(
        "(" + " ".join(str(row[v]) if v in row else "UNDEF" for v in _VARS) + ")"
        for row in rows)
    return f"VALUES (?a ?b ?c) {{ {body} }}"


_rows = st.lists(
    st.dictionaries(st.sampled_from(_VARS), st.integers(0, 2), max_size=3),
    max_size=8)


class TestHashMinus:
    @settings(max_examples=150, deadline=None)
    @given(lefts=_rows, rights=_rows)
    def test_matches_nested_loop_definition(self, lefts, rights):
        engine = QueryEngine(Graph(), cache_size=0)
        text = (f"SELECT ?a ?b ?c {{ {_values_text(lefts)} "
                f"MINUS {{ {_values_text(rights)} }} }}")
        got = [{name: int(term.lexical) for name, term in row.asdict().items()}
               for row in engine.query(text)]
        assert got == _minus_reference(lefts, rights)

    def test_values_optional_minus_answers_under_a_second(self, indexed_store):
        """190 left rows against every quad of the seed-2013 store: the
        nested loop took ~13 s; a hash lookup per row and domain does not."""
        from repro.store import StoreDataset

        engine = QueryEngine(StoreDataset(indexed_store), cache_size=0)
        text = ("SELECT * { VALUES ?x {1 2} BIND(?x + 1 AS ?y) "
                "OPTIONAL {?z ?p ?x} MINUS {?x ?q ?w} }")
        timings = []
        for _ in range(3):
            started = time.perf_counter()
            rows = engine.query(text)
            timings.append(time.perf_counter() - started)
        assert len(rows) == 190
        assert min(timings) < 1.0, timings
        assert rows[0]["x"] == from_python(1)
