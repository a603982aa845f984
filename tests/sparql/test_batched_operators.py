"""OPTIONAL and EXISTS run once per batch: checked against a per-row
reference defined here.

The engine runs an OPTIONAL right side, and each EXISTS pattern, once
per batch of the solutions it extends or tests, over their distinct
keys.  The reference below is the definition those operators must keep:
for each left solution *on its own*, run the right side (a query seeded
with that one solution through VALUES), merge each extension into it,
keep the ones the condition holds on, and fall back to the solution
itself; EXISTS is whether that one-solution run has a row.  Rows and
their order must agree, on memory and on the store, over small random
datasets.  A last case checks the ``hash`` range read against the
``merge`` probe path it replaces.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.rdf import Dataset, Literal, Namespace, XSD
from repro.sparql import QueryEngine, encoded

EX = Namespace("http://example.org/")
PREFIX = "PREFIX ex: <http://example.org/>\n"

_NODES = [EX[f"n{i}"] for i in range(5)]
_GRAPHS = [None, EX.g1, EX.g2]  # None: the default graph
_quads = st.lists(
    st.tuples(st.sampled_from(_NODES), st.sampled_from([EX.p, EX.q]),
              st.sampled_from(_NODES), st.sampled_from(_GRAPHS)),
    max_size=24)

#: Left sides: mixed domains after a UNION or an OPTIONAL, duplicate rows.
LEFTS = [
    "?a ex:p ?b",
    "{ ?a ex:p ?b } UNION { ?a ex:q ?c }",
    "?a ex:p ?b OPTIONAL { ?b ex:q ?c }",
    "{ ?a ex:p ?b } UNION { ?a ex:p ?b }",
]
_VARS = ("a", "b", "c")
_values_rows = st.lists(
    st.tuples(*(st.sampled_from([None, *_NODES[:3]]) for _ in _VARS)),
    min_size=1, max_size=6)

#: Right sides (an OPTIONAL's, an EXISTS pattern): plain, joined, and
#: holding a nested OPTIONAL, a MINUS or a GRAPH ?g.
RIGHTS = [
    "?a ex:p ?o1",
    "?b ex:q ?o1",
    "?c ex:p ?o1",
    "?o1 ex:p ?a",
    "?a ex:p ?o1 . ?o1 ex:q ?o2",
    "?a ex:q ?o1 OPTIONAL { ?o1 ex:p ?o2 }",
    "?a ex:p ?o1 MINUS { ?o1 ex:q ?b }",
    "GRAPH ?g { ?a ex:p ?o1 }",
]

#: LeftJoin conditions: (text, predicate on the merged row).  The first
#: reads ?b, a left variable most right sides never mention.
CONDITIONS = [
    (None, None),
    ("?o1 != ?b", lambda row: "o1" in row and "b" in row and row["o1"] != row["b"]),
    ("!BOUND(?c)", lambda row: "c" not in row),
]


def _values(rows) -> str:
    body = " ".join("(" + " ".join("UNDEF" if term is None else term.n3()
                                   for term in row) + ")" for row in rows)
    return f"VALUES (?a ?b ?c) {{ {body} }}"


def _select(engine, where: str):
    return [row.asdict() for row in engine.query(f"{PREFIX}SELECT * WHERE {{ {where} }}")]


def _alone(engine, row: dict, right: str):
    """The right side run for one solution alone."""
    seed = _values([tuple(row.get(name) for name in _VARS)])
    return _select(engine, f"{seed} {right}")


def _ref_optional(engine, left, right, condition):
    out = []
    for row in _select(engine, left):
        merged = [{**row, **ext} for ext in _alone(engine, row, right)]
        if condition is not None:
            merged = [candidate for candidate in merged if condition(candidate)]
        out.extend(merged or [row])
    return out


def _ref_exists(engine, row, right) -> bool:
    return bool(_alone(engine, row, right))


def _true(value: bool) -> Literal:
    return Literal("true" if value else "false", datatype=XSD.BOOLEAN)


def _memory(quads) -> Dataset:
    dataset = Dataset()
    for s, p, o, g in quads:
        (dataset.default if g is None else dataset.graph(g)).add((s, p, o))
    return dataset


def _store(quads, directory: Path):
    from repro.store import QuadStore, StoreDataset

    store = QuadStore(directory / "store")
    store.begin_file("random.prov.trig", "0" * 64)
    for s, p, o, g in quads:
        store.add_quad(store.add_term(s), store.add_term(p), store.add_term(o),
                       0 if g is None else store.add_term(g))
    store.commit_file()
    store.compact()
    return store, StoreDataset(store)


def _both(quads, check) -> None:
    """*check(engine)* on memory and on the store of the same quads."""
    check(QueryEngine(_memory(quads), cache_size=0))
    with tempfile.TemporaryDirectory() as directory:
        store, dataset = _store(quads, Path(directory))
        try:
            check(QueryEngine(dataset, cache_size=0))
        finally:
            store.close()


_lefts = st.one_of(st.sampled_from(LEFTS), _values_rows.map(_values))
_rights = st.sampled_from(RIGHTS)


class TestAgainstPerRowReference:
    @settings(max_examples=60, deadline=None)
    @given(quads=_quads, left=_lefts, right=_rights,
           condition=st.sampled_from(CONDITIONS))
    def test_optional(self, quads, left, right, condition):
        text, holds = condition
        where = right if text is None else f"{right} FILTER({text})"

        def check(engine):
            got = _select(engine, f"{left} OPTIONAL {{ {where} }}")
            assert got == _ref_optional(engine, left, right, holds)

        _both(quads, check)

    @settings(max_examples=60, deadline=None)
    @given(quads=_quads, left=_lefts, right=_rights, negated=st.booleans())
    def test_filter_exists(self, quads, left, right, negated):
        keyword = "NOT EXISTS" if negated else "EXISTS"

        def check(engine):
            got = _select(engine, f"{left} FILTER {keyword} {{ {right} }}")
            assert got == [row for row in _select(engine, left)
                           if _ref_exists(engine, row, right) != negated]

        _both(quads, check)

    @settings(max_examples=40, deadline=None)
    @given(quads=_quads, left=_lefts, right=_rights)
    def test_exists_inside_or(self, quads, left, right):
        """``?a = ex:n0`` errors where ?a is unbound: the OR is then
        the EXISTS alone."""
        def check(engine):
            got = _select(engine, f"{left} FILTER(?a = ex:n0 || EXISTS {{ {right} }})")
            assert got == [row for row in _select(engine, left)
                           if row.get("a") == EX.n0 or _ref_exists(engine, row, right)]

        _both(quads, check)

    @settings(max_examples=40, deadline=None)
    @given(quads=_quads, left=_lefts, right=_rights)
    def test_exists_inside_bind(self, quads, left, right):
        def check(engine):
            got = _select(engine, f"{left} BIND(EXISTS {{ {right} }} AS ?e)")
            assert got == [{**row, "e": _true(_ref_exists(engine, row, right))}
                           for row in _select(engine, left)]

        _both(quads, check)

    def test_duplicate_left_rows_get_their_own_solutions(self):
        """Two equal left rows share one key, and one right-side run, but
        not one solution dict."""
        dataset = _memory([(EX.n0, EX.p, EX.n1, None)])
        plan = QueryEngine(dataset).explain(
            f"{PREFIX}SELECT * WHERE {{ {_values([(EX.n0, None, None)] * 2)} "
            "OPTIONAL { ?a ex:p ?o1 } }")
        first, second = plan.root.children[0].run([{}], plan.graph)
        assert first == second == {"a": EX.n0, "o1": EX.n1}
        assert first is not second


class TestHashMatchesMerge:
    """The ``hash`` operator reads a constants-only range once; with the
    threshold at zero every multi-key join gallops instead (``merge``).
    The two give the same rows in the same order."""

    QUERIES = [
        "?a ex:p ?b OPTIONAL { ?b ex:q ?o1 } FILTER NOT EXISTS { ?a ex:q ?o2 }",
        "{ ?a ex:p ?b } UNION { ?a ex:q ?c } OPTIONAL { ?a ex:p ?o1 . ?o1 ex:q ?o2 }",
        "?a ex:p ?b OPTIONAL { GRAPH ?g { ?b ex:p ?o1 } }",
        "?a ex:p ?b . ?b ex:q ?c . ?c ex:p ?d",
        # two free positions: their order differs between orderings, so
        # this join must gallop whatever its density
        "?a ?pr ?b . ?c ?pr ?d",
    ]

    @settings(max_examples=40, deadline=None)
    @given(quads=_quads, where=st.sampled_from(QUERIES))
    def test_same_rows_same_order(self, quads, where):
        with tempfile.TemporaryDirectory() as directory:
            store, dataset = _store(quads, Path(directory))
            try:
                hashed = _select(QueryEngine(dataset, cache_size=0), where)
                threshold = encoded.HASH_RECORDS_PER_KEY
                encoded.HASH_RECORDS_PER_KEY = 0
                try:
                    merged = _select(QueryEngine(dataset, cache_size=0), where)
                finally:
                    encoded.HASH_RECORDS_PER_KEY = threshold
            finally:
                store.close()
        assert hashed == merged
