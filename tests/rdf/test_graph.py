"""Unit tests for Graph and Dataset: indexes, pattern matching, set ops."""

import pytest

from repro.rdf import Dataset, Graph, Namespace, PROV, RDF
from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Quad, Triple

EX = Namespace("http://example.org/")


def small_graph():
    g = Graph()
    g.add((EX.a, RDF.type, PROV.Activity))
    g.add((EX.a, PROV.used, EX.e1))
    g.add((EX.a, PROV.used, EX.e2))
    g.add((EX.e1, RDF.type, PROV.Entity))
    g.add((EX.e2, RDF.type, PROV.Entity))
    return g


class TestGraphMutation:
    def test_add_returns_true_once(self):
        g = Graph()
        assert g.add((EX.a, PROV.used, EX.b)) is True
        assert g.add((EX.a, PROV.used, EX.b)) is False
        assert len(g) == 1

    def test_add_coerces_python_objects(self):
        g = Graph()
        g.add((EX.a, EX.size, 42))
        obj = next(iter(g)).object
        assert isinstance(obj, Literal) and obj.to_python() == 42

    def test_add_all_counts_inserted(self):
        g = Graph()
        n = g.add_all([(EX.a, PROV.used, EX.b), (EX.a, PROV.used, EX.b)])
        assert n == 1

    def test_remove_present(self):
        g = small_graph()
        assert g.remove((EX.a, PROV.used, EX.e1)) is True
        assert len(g) == 4
        assert (EX.a, PROV.used, EX.e1) not in g

    def test_remove_absent(self):
        g = small_graph()
        assert g.remove((EX.zz, PROV.used, EX.e1)) is False

    def test_remove_cleans_all_indexes(self):
        g = Graph()
        g.add((EX.a, PROV.used, EX.b))
        g.remove((EX.a, PROV.used, EX.b))
        assert not list(g.triples(EX.a, None, None))
        assert not list(g.triples(None, PROV.used, None))
        assert not list(g.triples(None, None, EX.b))

    def test_remove_pattern(self):
        g = small_graph()
        removed = g.remove_pattern(EX.a, PROV.used, None)
        assert removed == 2
        assert g.count(EX.a, PROV.used, None) == 0

    @pytest.mark.parametrize(
        "pattern,expected",
        [
            ((None, None, None), 5),
            ((EX.a, None, None), 3),
            ((None, PROV.used, None), 2),
            ((None, None, PROV.Entity), 2),
            ((EX.a, PROV.used, None), 2),
            ((EX.a, None, EX.e1), 1),
            ((None, RDF.type, PROV.Entity), 2),
            ((EX.a, PROV.used, EX.e1), 1),
            ((EX.zz, None, None), 0),
        ],
    )
    def test_remove_pattern_all_cursor_paths(self, pattern, expected):
        g = small_graph()
        before = len(g)
        assert g.remove_pattern(*pattern) == expected
        assert len(g) == before - expected
        for t in g.triples(*pattern):
            raise AssertionError(f"pattern survivor {t}")
        g.check_invariants()

    def test_remove_pattern_wildcard_clears(self):
        g = small_graph()
        assert g.remove_pattern() == 5
        assert len(g) == 0
        g.check_invariants()

    def test_clear(self):
        g = small_graph()
        g.clear()
        assert len(g) == 0 and not g

    def test_remove_keeps_indexes_symmetric(self):
        g = small_graph()
        g.remove((EX.a, PROV.used, EX.e1))
        g.remove((EX.e1, RDF.type, PROV.Entity))
        g.check_invariants()
        assert g.remove((EX.a, PROV.used, EX.e1)) is False  # already gone
        g.check_invariants()

    def test_size_invariant_under_mixed_mutations(self):
        g = Graph()
        for i in range(20):
            g.add((EX[f"s{i % 5}"], EX[f"p{i % 3}"], EX[f"o{i}"]))
        g.remove_pattern(None, EX.p0, None)
        g.remove((EX.s1, EX.p1, EX.o1))
        g.add((EX.s1, EX.p1, EX.o1))
        g.remove_pattern(EX.s2, None, None)
        g.check_invariants()
        assert len(g) == len(list(g.triples()))


class TestVersioning:
    def test_add_bumps_version_once(self):
        g = Graph()
        v0 = g.version
        g.add((EX.a, PROV.used, EX.b))
        assert g.version == v0 + 1
        g.add((EX.a, PROV.used, EX.b))  # duplicate: no effective change
        assert g.version == v0 + 1

    def test_remove_bumps_only_when_present(self):
        g = small_graph()
        v = g.version
        assert g.remove((EX.zz, PROV.used, EX.e1)) is False
        assert g.version == v
        g.remove((EX.a, PROV.used, EX.e1))
        assert g.version > v

    def test_remove_pattern_and_clear_bump(self):
        g = small_graph()
        v = g.version
        assert g.remove_pattern(EX.zz, None, None) == 0
        assert g.version == v  # no-op pattern: version unchanged
        g.remove_pattern(EX.a, PROV.used, None)
        assert g.version > v
        v = g.version
        g.clear()
        assert g.version > v
        v = g.version
        g.clear()  # clearing an empty graph is a no-op
        assert g.version == v

    def test_dataset_version_tracks_member_graphs(self):
        ds = Dataset()
        v0 = ds.version
        ds.default.add((EX.a, PROV.used, EX.b))
        assert ds.version > v0
        v1 = ds.version
        ds.graph(EX.g1).add((EX.c, PROV.used, EX.d))
        assert ds.version > v1

    def test_every_member_graph_mutation_moves_dataset_version(self):
        ds = Dataset()
        member = ds.graph(EX.g1)
        mutations = [
            lambda: ds.graph(EX.g1).add((EX.a, PROV.used, EX.b)),
            lambda: member.add((EX.c, PROV.used, EX.d)),
            lambda: ds.default.add((EX.e, PROV.used, EX.f)),
            lambda: member.remove((EX.a, PROV.used, EX.b)),
            lambda: member.remove_pattern(EX.c, None, None),
            lambda: ds.default.clear(),
        ]
        for mutate in mutations:
            before = ds.version
            mutate()
            assert ds.version > before
        before = ds.version
        member.add((EX.c, PROV.used, EX.d))  # already absent → effective
        member.add((EX.c, PROV.used, EX.d))  # duplicate → no change
        assert ds.version == before + 1

    def test_removed_graph_no_longer_moves_dataset_version(self):
        ds = Dataset()
        member = ds.graph(EX.g1)
        ds.remove_graph(EX.g1)
        before = ds.version
        member.add((EX.a, PROV.used, EX.b))
        assert ds.version == before

    def test_dataset_version_monotonic_across_graph_removal(self):
        ds = Dataset()
        ds.graph(EX.g1).add_all(
            [(EX.a, PROV.used, EX.b), (EX.c, PROV.used, EX.d)]
        )
        v = ds.version
        ds.remove_graph(EX.g1)
        assert ds.version > v  # dropping triples must not rewind the clock


class TestPatternMatching:
    @pytest.mark.parametrize(
        "pattern,count",
        [
            ((None, None, None), 5),
            ((EX.a, None, None), 3),
            ((None, PROV.used, None), 2),
            ((None, None, PROV.Entity), 2),
            ((EX.a, PROV.used, None), 2),
            ((EX.a, None, EX.e1), 1),
            ((None, RDF.type, PROV.Entity), 2),
            ((EX.a, PROV.used, EX.e1), 1),
            ((EX.zz, None, None), 0),
        ],
    )
    def test_all_index_paths(self, pattern, count):
        g = small_graph()
        assert len(list(g.triples(*pattern))) == count

    def test_scan_agrees_with_indexes(self):
        g = small_graph()
        for pattern in [(None, None, None), (EX.a, None, None), (None, PROV.used, None),
                        (None, None, PROV.Entity), (EX.a, PROV.used, EX.e1)]:
            assert set(g.triples(*pattern)) == set(g.triples_scan(*pattern))

    def test_contains(self):
        g = small_graph()
        assert (EX.a, PROV.used, EX.e1) in g
        assert Triple(EX.a, PROV.used, EX.e1) in g
        assert (EX.a, PROV.used, EX.zz) not in g

    def test_value_single_unbound(self):
        g = small_graph()
        assert g.value(subject=EX.e1, predicate=RDF.type) == PROV.Entity

    def test_value_default(self):
        g = small_graph()
        assert g.value(subject=EX.zz, predicate=RDF.type, default="n/a") == "n/a"

    def test_value_requires_one_unbound(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.value(subject=EX.a)

    def test_objects_subjects_iterators(self):
        g = small_graph()
        assert set(g.objects(EX.a, PROV.used)) == {EX.e1, EX.e2}
        assert set(g.subjects(RDF.type, PROV.Entity)) == {EX.e1, EX.e2}

    def test_subjects_of_type(self):
        g = small_graph()
        assert set(g.subjects_of_type(PROV.Activity)) == {EX.a}

    def test_predicate_histogram(self):
        g = small_graph()
        hist = g.predicate_histogram()
        assert hist[PROV.used] == 2
        assert hist[RDF.type] == 3


class TestSetOperations:
    def test_union(self):
        g1 = Graph([(EX.a, PROV.used, EX.b)])
        g2 = Graph([(EX.c, PROV.used, EX.d)])
        assert len(g1.union(g2)) == 2

    def test_union_operator_is_nonmutating(self):
        g1 = Graph([(EX.a, PROV.used, EX.b)])
        g2 = Graph([(EX.c, PROV.used, EX.d)])
        _ = g1 + g2
        assert len(g1) == 1

    def test_intersection(self):
        shared = (EX.a, PROV.used, EX.b)
        g1 = Graph([shared, (EX.x, PROV.used, EX.y)])
        g2 = Graph([shared])
        assert set(g1 & g2) == {Triple(*shared)}

    def test_difference(self):
        g1 = Graph([(EX.a, PROV.used, EX.b), (EX.x, PROV.used, EX.y)])
        g2 = Graph([(EX.a, PROV.used, EX.b)])
        assert len(g1 - g2) == 1

    def test_equality(self):
        g1 = small_graph()
        g2 = small_graph()
        assert g1 == g2
        g2.add((EX.new, RDF.type, PROV.Entity))
        assert g1 != g2

    def test_copy_independent(self):
        g1 = small_graph()
        g2 = g1.copy()
        g2.add((EX.new, RDF.type, PROV.Entity))
        assert len(g1) == 5 and len(g2) == 6

    def test_sorted_triples_deterministic(self):
        g = small_graph()
        assert g.sorted_triples() == g.copy().sorted_triples()


class TestDataset:
    def test_default_and_named(self):
        ds = Dataset()
        ds.default.add((EX.a, RDF.type, PROV.Entity))
        ds.graph(EX.g1).add((EX.b, RDF.type, PROV.Entity))
        assert len(ds) == 2
        assert ds.has_graph(EX.g1)
        assert not ds.has_graph(EX.g2)

    def test_graph_names_sorted(self):
        ds = Dataset()
        ds.graph(EX.zz)
        ds.graph(EX.aa)
        assert ds.graph_names() == [EX.aa, EX.zz]

    def test_add_quad(self):
        ds = Dataset()
        ds.add(Quad(EX.a, PROV.used, EX.b, EX.g1))
        assert (EX.a, PROV.used, EX.b) in ds.graph(EX.g1)

    def test_add_triple_goes_to_default(self):
        ds = Dataset()
        ds.add((EX.a, PROV.used, EX.b))
        assert (EX.a, PROV.used, EX.b) in ds.default

    def test_quads_across_graphs(self):
        ds = Dataset()
        ds.default.add((EX.a, PROV.used, EX.b))
        ds.graph(EX.g1).add((EX.c, PROV.used, EX.d))
        quads = list(ds.quads())
        assert len(quads) == 2
        assert {q.graph for q in quads} == {None, EX.g1}

    def test_quads_restricted_to_named(self):
        ds = Dataset()
        ds.default.add((EX.a, PROV.used, EX.b))
        ds.graph(EX.g1).add((EX.c, PROV.used, EX.d))
        assert len(list(ds.quads(graph=EX.g1))) == 1
        assert len(list(ds.quads(graph=False))) == 1

    def test_union_graph(self):
        ds = Dataset()
        ds.default.add((EX.a, PROV.used, EX.b))
        ds.graph(EX.g1).add((EX.c, PROV.used, EX.d))
        merged = ds.union_graph()
        assert len(merged) == 2

    def test_remove_graph(self):
        ds = Dataset()
        ds.graph(EX.g1).add((EX.a, PROV.used, EX.b))
        assert ds.remove_graph(EX.g1) is True
        assert ds.remove_graph(EX.g1) is False
        assert len(ds) == 0
