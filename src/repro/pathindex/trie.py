"""Generalized trie over per-run activity sequences.

Each workflow run contributes one *sequence*: the run's process
activities in canonical order (start time, then template-step IRI),
labeled by the **template step** they instantiate (``wfprov:
describedByProcess`` / ``opmw:correspondsToTemplateProcess``).  Labeling
by template step rather than by the run-unique activity IRI is what
makes patterns comparable across runs: every run of a template walks the
same label alphabet, so a frequent execution pattern is simply a trie
node with many distinct runs in its postings.

The trie is *generalized*: every suffix of every sequence is inserted,
so any **contiguous** sub-pattern of any run is the path to some node —
frequent-pattern queries and "which runs contain this step chain"
lookups are prefix walks, not scans.

On-disk layout (``paths.trie``)::

    header   magic b"RPVTRIE1", u32 node_count, u32 posting_count,
             u32 sequence_count, u32 reserved
    nodes    node_count × (parent u32, label u32, postings_off u32,
             postings_len u32)
    postings posting_count × u32 run-term-ids, each node's slice sorted

Node ids are assigned breadth-first with children visited in ascending
label order, so the node array is sorted by ``(parent, label)`` and a
child lookup is a binary search over the array itself — no pointer
blocks.  Node 0 is the root; its postings list every indexed run.  The
whole encoding is a pure function of the sequences, which the builder
derives from sorted segment scans: serial and parallel ingests produce
byte-identical tries.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..store.segments import atomic_write

__all__ = ["build_trie_bytes", "TrieReader", "TRIE_MAGIC"]

TRIE_MAGIC = b"RPVTRIE1"
_HEADER = struct.Struct("<8s4I")
_NODE = struct.Struct("<4I")
_POSTING = struct.Struct("<I")


class _Node:
    __slots__ = ("children", "runs")

    def __init__(self):
        self.children: Dict[int, "_Node"] = {}
        self.runs: set = set()


def build_trie_bytes(sequences: Dict[int, Sequence[int]]) -> bytes:
    """Serialize the generalized trie of *sequences* (run id → labels)."""
    root = _Node()
    for run_id in sorted(sequences):
        labels = list(sequences[run_id])
        root.runs.add(run_id)
        for start in range(len(labels)):
            node = root
            for label in labels[start:]:
                child = node.children.get(label)
                if child is None:
                    child = node.children[label] = _Node()
                node = child
                node.runs.add(run_id)

    # Breadth-first id assignment, children in label order: the node
    # array comes out sorted by (parent, label), which is what makes the
    # reader's child lookup a binary search over the array itself.
    nodes: List[Tuple[int, int, _Node]] = [(0, 0, root)]
    queue: List[Tuple[int, _Node]] = [(0, root)]
    while queue:
        parent_id, node = queue.pop(0)
        for label in sorted(node.children):
            child = node.children[label]
            child_id = len(nodes)
            nodes.append((parent_id, label, child))
            queue.append((child_id, child))

    postings: List[int] = []
    records = bytearray()
    for parent_id, label, node in nodes:
        runs = sorted(node.runs)
        records += _NODE.pack(parent_id, label, len(postings), len(runs))
        postings.extend(runs)

    out = bytearray()
    out += _HEADER.pack(TRIE_MAGIC, len(nodes), len(postings), len(sequences), 0)
    out += records
    for run_id in postings:
        out += _POSTING.pack(run_id)
    return bytes(out)


def write_trie(path: Path, sequences: Dict[int, Sequence[int]]) -> bytes:
    """Build and atomically write the trie; returns the serialized bytes."""
    data = build_trie_bytes(sequences)
    with atomic_write(path) as handle:
        handle.write(data)
    return data


class TrieReader:
    """mmap read access to a serialized pattern trie."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._map: Optional[mmap.mmap] = None
        self.node_count = 0
        self.posting_count = 0
        self.sequence_count = 0
        self._nodes_off = _HEADER.size
        self._postings_off = _HEADER.size
        if self.path.exists() and self.path.stat().st_size >= _HEADER.size:
            with open(self.path, "rb") as handle:
                self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            magic, nodes, postings, sequences, _ = _HEADER.unpack_from(self._map, 0)
            if magic != TRIE_MAGIC:
                self._map.close()
                self._map = None
                return
            self.node_count = nodes
            self.posting_count = postings
            self.sequence_count = sequences
            self._postings_off = self._nodes_off + nodes * _NODE.size

    @property
    def ok(self) -> bool:
        return self._map is not None

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None

    def _node(self, index: int) -> Tuple[int, int, int, int]:
        return _NODE.unpack_from(self._map, self._nodes_off + index * _NODE.size)

    def _runs(self, index: int) -> List[int]:
        _, _, off, length = self._node(index)
        base = self._postings_off + off * _POSTING.size
        return [
            _POSTING.unpack_from(self._map, base + i * _POSTING.size)[0]
            for i in range(length)
        ]

    def _child(self, node: int, label: int) -> Optional[int]:
        """Binary search the (parent, label)-sorted node array; skips the
        root record at index 0 (parent 0, label 0 — never a real key)."""
        key = (node, label)
        lo, hi = 1, self.node_count
        while lo < hi:
            mid = (lo + hi) // 2
            if self._node(mid)[:2] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.node_count and self._node(lo)[:2] == key:
            return lo
        return None

    def _children(self, node: int) -> Iterator[int]:
        lo, hi = 1, self.node_count
        while lo < hi:
            mid = (lo + hi) // 2
            if self._node(mid)[0] < node:
                lo = mid + 1
            else:
                hi = mid
        index = lo
        while index < self.node_count and self._node(index)[0] == node:
            yield index
            index += 1

    # -- queries ------------------------------------------------------------

    def runs_matching(self, labels: Sequence[int]) -> List[int]:
        """Sorted run ids whose sequence contains *labels* contiguously
        (the empty pattern matches every indexed run)."""
        if not self.ok:
            return []
        node = 0
        for label in labels:
            child = self._child(node, label)
            if child is None:
                return []
            node = child
        return self._runs(node)

    def support(self, labels: Sequence[int]) -> int:
        return len(self.runs_matching(labels))

    def frequent_patterns(
        self,
        min_support: int = 2,
        min_length: int = 2,
        max_patterns: Optional[int] = None,
    ) -> List[Tuple[Tuple[int, ...], int]]:
        """(label pattern, run support) pairs with support ≥ *min_support*
        and length ≥ *min_length*, most frequent first (ties: pattern
        order).  Support counts distinct runs, not occurrences."""
        if not self.ok:
            return []
        found: List[Tuple[Tuple[int, ...], int]] = []
        stack: List[Tuple[int, Tuple[int, ...]]] = [(0, ())]
        while stack:
            node, prefix = stack.pop()
            for child in self._children(node):
                _, label, _, length = self._node(child)
                if length < min_support:
                    continue  # postings only shrink downward; prune
                pattern = prefix + (label,)
                if len(pattern) >= min_length:
                    found.append((pattern, length))
                stack.append((child, pattern))
        found.sort(key=lambda item: (-item[1], item[0]))
        if max_patterns is not None:
            found = found[:max_patterns]
        return found
