"""Encoded-ID BGP execution over store-backed graphs.

The per-binding pipeline (``evaluator._extend_step``, what in-memory
graphs and property-path steps run) resolves every pattern against a
solution's *terms*; over a store that means re-encoding them per binding
inside ``StoreGraph.triples()`` — a dictionary lookup, a fresh binary
search, and a per-record decode for every partial solution.  This module
keeps a BGP's plain steps in u32 term ids instead — all of them, or in a
BGP with property paths those planned before the first path step:

* constants are resolved to ids once per pattern (an unknown constant
  empties the batch immediately);
* each input solution carries a parallel ``{var: id}`` dict, extended
  batch-at-a-time as patterns execute;
* ids are decoded back to terms only once, when the batch leaves id
  space: at the end of the BGP, or before its first path step.

Patterns are read through the access path the graph hands out
(``graph.access_path``: ordering, sort prefix, and how a record range
becomes (s, p, o) ids) — the one ``triples()`` itself reads through, so
row order cannot depend on which pipeline ran — but batch execution
unlocks three operators the per-binding path cannot express:

* **bisect** — when no join-bound variable sits in the ordering's sort
  prefix, every solution in the group shares one probe key, so the
  range is located and materialized *once* for the whole batch;
* **merge** — when a join-bound variable is in the prefix, the group's
  keys are sorted and a monotone cursor advances with galloping search
  (:meth:`SegmentReader.gallop_left`), making a batch of k probes cost
  O(k · log(gap)) instead of O(k · log n);
* **hash** — a merge whose keys are dense in the range of the pattern's
  constants (at most :data:`HASH_RECORDS_PER_KEY` records per key) reads
  that range once and buckets it by key instead of probing per key.

Which one runs is decided per batch, at run time; the plan (EXPLAIN)
states only the static merge/bisect choice.  Batches are large because
the evaluator hands an OPTIONAL right side or an EXISTS pattern all the
solutions it extends or tests at once.

The executor is created per BGP via :func:`encoded_executor`, which
duck-types on ``graph.encoded_scope()`` — in-memory graphs (no encoded
surface) take the per-binding pipeline.  The path step itself, and every
step after it, extend decoded solutions: a zero-length closure (``p*``)
yields ``(t, t)`` even for a term the dictionary has never seen, which
this executor's id space cannot represent.  (The path step still
batches, and its walk reads the segments in id space: its whole
endpoint column goes to ``paths.eval_path_batch`` in one call.)
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ..obs import metrics as _metrics
from ..rdf.terms import Term
from .algebra import TriplePattern, Var
from .plan import PlanStep, choose_access

__all__ = ["encoded_executor", "EncodedExecutor"]

_SCAN_STRATEGY = _metrics.counter(
    "repro_query_scan_strategy_total",
    "Encoded BGP scan batches by chosen operator",
    labels=("strategy",),
)
for _strategy in ("merge", "bisect", "hash"):
    _SCAN_STRATEGY.labels(_strategy)
del _strategy

#: (orig solution, encoded bindings). ``enc`` maps a variable to its
#: term id, or None when the bound term is unknown to the dictionary —
#: such a solution dies at the first step that uses the variable.
EncodedSolution = Tuple[Dict[str, Term], Dict[str, Optional[int]]]

_ABSENT = object()

#: ``hash`` replaces a ``merge`` when the constants-only range holds at
#: most this many records per distinct key.  Measured on the seed-2013
#: store's ``?run prov:startedAtTime ?start`` join (937 records, 8–900
#: keys, CPython 3.11, 2-core x86 VM): a galloping merge costs ~11 µs
#: per key — two gallops of ~10 probes, Q1's 122 keys did 2,350 — and
#: the range read ~0.45 µs per record, so the two break even near 20
#: records per key; 16 keeps ``hash`` to where it clearly wins.
HASH_RECORDS_PER_KEY = 16


def encoded_executor(graph, patterns: List[TriplePattern]):
    """An :class:`EncodedExecutor` for *graph* over *patterns* — plain
    patterns only, a BGP's steps before its first property path — or
    ``None`` when the graph has no encoded surface."""
    scope_of = getattr(graph, "encoded_scope", None)
    if scope_of is None:
        return None
    return EncodedExecutor(graph, scope_of(), patterns)


class EncodedExecutor:
    """Executes one BGP's steps batch-at-a-time in id space."""

    __slots__ = ("graph", "scope", "_bgp_vars", "ran")

    def __init__(self, graph, scope: Optional[int], patterns: List[TriplePattern]):
        self.graph = graph
        self.scope = scope
        #: The operators the last :meth:`extend` ran (PROFILE's ``join``).
        self.ran: set = set()
        self._bgp_vars = set()
        for tp in patterns:
            self._bgp_vars |= tp.variables()

    # -- batch lifecycle -----------------------------------------------------

    def encode_inputs(self, inputs: List[Dict[str, Term]]) -> List[EncodedSolution]:
        """Encode only the variables this BGP's patterns touch."""
        graph = self.graph
        needed = self._bgp_vars
        batch: List[EncodedSolution] = []
        for sol in inputs:
            enc: Dict[str, Optional[int]] = {}
            for name, value in sol.items():
                if name in needed:
                    enc[name] = graph.term_to_id(value)
            batch.append((sol, enc))
        return batch

    def decode(self, batch: List[EncodedSolution]) -> List[Dict[str, Term]]:
        """Materialize terms for variables bound during the BGP."""
        graph = self.graph
        out = []
        for orig, enc in batch:
            sol = dict(orig)
            for name, term_id in enc.items():
                if name not in sol and term_id is not None:
                    sol[name] = graph.id_to_term(term_id)
            out.append(sol)
        return out

    # -- one pattern step ----------------------------------------------------

    def extend_and_decode(self, step: PlanStep, batch: List[EncodedSolution],
                          graph=None) -> List[Dict[str, Term]]:
        """:meth:`extend` through the last id-space step, then
        :meth:`decode` at its egress."""
        return self.decode(self.extend(step, batch, graph))

    def extend(self, step: PlanStep, batch: List[EncodedSolution], graph=None):
        """Extend every solution in *batch* through *step*'s pattern.

        Outputs preserve input order (each solution's extensions are
        emitted in segment-record order, matching the decoded path
        byte for byte); an empty return short-circuits the BGP.
        """
        self.ran = set()
        tp = step.pattern
        terms = (tp.subject, tp.predicate, tp.object)
        names = [t.name if isinstance(t, Var) else None for t in terms]
        const_ids: List[Optional[int]] = [None, None, None]
        for position, term in enumerate(terms):
            if names[position] is None:
                const_id = self.graph.term_to_id(term)
                if const_id is None:
                    return []  # unknown constant: nothing can match
                const_ids[position] = const_id

        # Group solutions by their *actual* bound signature — after
        # OPTIONAL/UNION the batch is heterogeneous and each group may
        # need a different access path.
        groups: Dict[str, List[int]] = {}
        for index, (_, enc) in enumerate(batch):
            mask_chars = []
            dead = False
            for position in (0, 1, 2):
                name = names[position]
                if name is None:
                    mask_chars.append("b")
                    continue
                value = enc.get(name, _ABSENT)
                if value is _ABSENT:
                    mask_chars.append("?")
                elif value is None:
                    dead = True  # bound to a term the store never saw
                    break
                else:
                    mask_chars.append("j")
            if not dead:
                groups.setdefault("".join(mask_chars), []).append(index)

        extensions: List[List[EncodedSolution]] = [[] for _ in batch]
        for mask, indices in groups.items():
            self._run_group(mask, indices, batch, names, const_ids, extensions)
        out: List[EncodedSolution] = []
        for per_input in extensions:
            out.extend(per_input)
        return out

    def _run_group(self, mask, indices, batch, names, const_ids, extensions):
        graph, scope = self.graph, self.scope
        operator, path = choose_access(mask, graph)
        free_positions = [p for p in (0, 1, 2) if mask[p] == "?"]
        # The probe key, in the path's prefix order: constants (the
        # scope's graph id included) are fixed for the group, join-bound
        # positions come from each solution.
        fixed = const_ids + [scope]
        key_names = [
            names[position] if (mask + "b")[position] == "j" else None
            for position in path.prefix
        ]

        def key_of(enc) -> Tuple[int, ...]:
            return tuple(
                fixed[position] if name is None else enc[name]
                for position, name in zip(path.prefix, key_names)
            )

        solution_keys = [(index, key_of(batch[index][1])) for index in indices]
        unique_keys = {key for _, key in solution_keys}
        matches: Dict[Tuple[int, ...], List[Tuple[int, int, int]]] = {}
        if operator == "merge":
            if len(unique_keys) < 2:
                # A merge over one key *is* a bisect probe — and
                # galloping to it from record 0 would cost ~2x the
                # comparisons.  A batch of one (a one-row OPTIONAL or
                # EXISTS batch, an aggregate group's EXISTS key) lands
                # here, so dispatch on the runtime key count, not just
                # the static mask.
                operator = "bisect"
            elif len(free_positions) < 2:
                operator = self._hash(mask, path, fixed, unique_keys, matches)
        _SCAN_STRATEGY.labels(operator).inc()
        self.ran.add(operator)
        reader = graph.segment_reader(path.ordering)
        if operator == "merge":
            # Sorted keys + a monotone galloping cursor: each range
            # starts at or after the previous one's end.  The first has
            # no cursor to gallop from, and bisects.
            cursor = 0
            for key in sorted(unique_keys):
                lo = reader.gallop_left(key, cursor) if cursor else reader.bisect_left(key)
                hi = reader.gallop_left(key[:-1] + (key[-1] + 1,), lo)
                matches[key] = list(path.triples(reader, lo, hi, scope))
                cursor = hi
        elif operator == "bisect":
            # Either no join-bound prefix position (every solution in
            # the group shares the constants-only key) or a single-key
            # merge demoted above: one bisect per distinct key.
            for key in unique_keys:
                lo, hi = reader.range_for_prefix(key)
                matches[key] = list(path.triples(reader, lo, hi, scope))

        for index, key in solution_keys:
            orig, enc = batch[index]
            slot = extensions[index]
            for triple in matches[key]:
                new_enc = enc
                compatible = True
                for position in free_positions:
                    name = names[position]
                    value = triple[position]
                    current = new_enc.get(name, _ABSENT)
                    if current is _ABSENT:
                        if new_enc is enc:
                            new_enc = dict(enc)
                        new_enc[name] = value
                    elif current != value:
                        compatible = False  # repeated variable mismatch
                        break
                if compatible:
                    slot.append((orig, new_enc))

    def _hash(self, mask, path, fixed, unique_keys, matches) -> str:
        """``"hash"``, with *matches* filled by one read of the
        constants-only range bucketed by join key, when that range holds
        at most :data:`HASH_RECORDS_PER_KEY` records per distinct key;
        else ``"merge"`` (*matches* untouched).

        With at most one free position, a key's records arrive in the
        free value's order (the graph id last) from either ordering, so
        each solution's extensions keep the order ``merge`` gives them.
        """
        graph, scope = self.graph, self.scope
        const_path = graph.access_path(*(state == "b" for state in mask))
        reader = graph.segment_reader(const_path.ordering)
        lo, hi = reader.constant_range(
            tuple(fixed[position] for position in const_path.prefix))
        if hi - lo > HASH_RECORDS_PER_KEY * len(unique_keys):
            return "merge"
        for key in unique_keys:
            matches[key] = []
        triples = const_path.triples(reader, lo, hi, scope)
        if 3 in path.prefix:  # a single graph's gspo key leads with its id
            triples = (triple + (scope,) for triple in triples)
        # two or more bound positions: the key is a tuple, not a bare id
        key_of = itemgetter(*path.prefix)
        for triple in triples:
            bucket = matches.get(key_of(triple))
            if bucket is not None:
                bucket.append(triple[:3])
        return "hash"
