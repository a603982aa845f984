"""Tests for the term dictionary (encode/decode, persistence, LRU)."""

import pytest

from repro.rdf import Namespace
from repro.rdf.terms import BlankNode, IRI, Literal, XSD
from repro.store import TermDictionary, decode_term, dictionary, encode_term

EX = Namespace("http://example.org/")

TERMS = [
    IRI("http://example.org/thing"),
    BlankNode("b42"),
    Literal("plain string"),
    Literal("42", datatype=XSD.INTEGER),
    Literal("2013-01-01T00:00:00Z", datatype=XSD.DATETIME),
    Literal("hola", language="es"),
    Literal("", datatype=XSD.STRING),
]


class TestEncoding:
    @pytest.mark.parametrize(
        "term", TERMS, ids=[f"{type(t).__name__}{i}" for i, t in enumerate(TERMS)]
    )
    def test_roundtrip(self, term):
        assert decode_term(encode_term(term)) == term

    def test_distinct_kinds_never_collide(self):
        # "x" as IRI, bnode, plain literal and lang literal must encode
        # to distinct byte strings.
        variants = [IRI("x"), BlankNode("x"), Literal("x"), Literal("x", language="en")]
        assert len({encode_term(t) for t in variants}) == len(variants)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            decode_term(b"\xff???")


class TestDictionary:
    def test_ids_dense_from_one(self, tmp_path):
        d = TermDictionary(tmp_path)
        ids = [d.add(t) for t in TERMS]
        assert ids == list(range(1, len(TERMS) + 1))
        # adding again returns the same ids
        assert [d.add(t) for t in TERMS] == ids
        d.close()

    def test_lookup_unknown_is_none(self, tmp_path):
        d = TermDictionary(tmp_path)
        assert d.lookup(EX.nope) is None
        d.add(EX.yes)
        assert d.lookup(EX.yes) == 1
        assert d.lookup(EX.nope) is None
        d.close()

    def test_persistence_across_reopen(self, tmp_path):
        d = TermDictionary(tmp_path)
        ids = {t: d.add(t) for t in TERMS}
        d.compact()
        d.close()
        reopened = TermDictionary(tmp_path)
        assert len(reopened) == len(TERMS)
        for term, term_id in ids.items():
            assert reopened.lookup(term) == term_id, term
            assert reopened.decode(term_id) == term
        reopened.close()

    def test_compact_then_more_terms(self, tmp_path):
        d = TermDictionary(tmp_path)
        a = d.add(EX.a)
        d.compact()
        b = d.add(EX.b)
        assert (a, b) == (1, 2)
        d.compact()
        d.close()
        reopened = TermDictionary(tmp_path)
        assert reopened.lookup(EX.a) == 1
        assert reopened.lookup(EX.b) == 2
        reopened.close()

    def test_decode_cache_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dictionary, "DEFAULT_DECODE_CACHE_SIZE", 4)
        d = TermDictionary(tmp_path)
        for i in range(20):
            d.add(EX.term(f"t{i}"))
        d.compact()
        for i in range(1, 21):
            d.decode(i)
        info = d.cache_info()
        assert info["size"] <= 4
        assert info["maxsize"] == 4
        assert info["misses"] >= 20
        d.close()

    def test_decode_cache_hit_counter(self, tmp_path):
        d = TermDictionary(tmp_path)
        term_id = d.add(EX.hot)
        d.decode(term_id)
        d.decode(term_id)
        info = d.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        d.close()

    def test_rollback_discards_delta(self, tmp_path):
        d = TermDictionary(tmp_path)
        d.add(EX.keep)
        d.compact()
        watermark = len(d)
        d.add(EX.drop1)
        d.add(EX.drop2)
        d.rollback_to(watermark)
        assert len(d) == watermark
        assert d.lookup(EX.drop1) is None
        # the freed ids are reused
        assert d.add(EX.other) == watermark + 1
        d.close()

    def test_rollback_below_persisted_rejected(self, tmp_path):
        d = TermDictionary(tmp_path)
        d.add(EX.a)
        d.compact()
        with pytest.raises(ValueError):
            d.rollback_to(0)
        d.close()

    def test_hash_index_survives_many_terms(self, tmp_path):
        # enough terms to force several hash-table sizes and probe chains
        d = TermDictionary(tmp_path)
        terms = [EX.term(f"n{i}") for i in range(500)]
        ids = [d.add(t) for t in terms]
        d.compact()
        d.close()
        reopened = TermDictionary(tmp_path)
        assert [reopened.lookup(t) for t in terms] == ids
        reopened.close()
