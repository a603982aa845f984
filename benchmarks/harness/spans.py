"""The harness's own spans: recorded around calls into public functions.

A span has a name, the layer (``src/repro`` package) it is booked to, a
start, an end, the span that caused it and the id of the operation
(request or round) it belongs to.  Spans stay in memory; the run writes them
out once, when it ends.  A span's *self time* is its duration minus
the part its children cover; what no span covers inside an operation is
the explicit ``unattributed`` remainder.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: str
    name: str
    layer: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._op = ""

    @contextmanager
    def operation(self, op: str, name: str = "operation") -> Iterator[Span]:
        """The root span of one request or round; its own layer is the remainder."""
        self._op = op
        with self.span(name, UNATTRIBUTED) as root:
            yield root

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), parent, self._op, name, layer, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, seconds: float, parent: Span) -> Span:
        """Book a duration measured elsewhere (a replay, a header) under *parent*."""
        record = Span(len(self.spans), parent.id, parent.op, name, layer,
                      parent.start, parent.start + seconds)
        self.spans.append(record)
        return record

    def add_operation(self, op: str, name: str, seconds: float) -> Span:
        """Book a root span of a given duration (e.g. a class's median latency)."""
        record = Span(len(self.spans), None, op, name, UNATTRIBUTED, 0.0, seconds)
        self.spans.append(record)
        return record


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id → duration minus the durations of its direct children.

    Children booked by :meth:`Recorder.add` may, through measurement
    noise, add up to more than their parent; the parent's self time is
    then clamped at zero rather than going negative.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: max(0.0, span.duration - covered.get(span.id, 0.0)) for span in spans}


def layer_table(spans: List[Span]) -> Dict[str, float]:
    """Seconds of self time per layer; the root spans' self time is the remainder."""
    own = self_times(spans)
    table: Dict[str, float] = {}
    for span in spans:
        table[span.layer] = table.get(span.layer, 0.0) + own[span.id]
    return table


def format_table(table: Dict[str, float], total: float, unit_scale: float = 1e3,
                 unit: str = "ms") -> str:
    lines = [f"{'layer':<14}{unit:>12}{'share':>9}"]
    for layer, seconds in sorted(table.items(), key=lambda item: -item[1]):
        share = seconds / total if total else 0.0
        lines.append(f"{layer:<14}{seconds * unit_scale:>12.3f}{share:>9.1%}")
    lines.append(f"{'total':<14}{total * unit_scale:>12.3f}{1:>9.1%}")
    return "\n".join(lines)
