"""Streaming quantile sketches (CKMS targeted quantiles).

Fixed-bucket histograms answer "how many requests were under 25 ms",
but the saturation benchmarks need true tail percentiles — p99 at
1.2 ms and p99 at 24 ms land in the same bucket.  This module
implements the Cormode–Korn–Muthukrishnan–Srivastava *targeted
quantile* sketch ("Effective Computation of Biased Quantiles over Data
Streams", ICDE 2005): a compressed sample list that answers a fixed
set of quantiles with per-quantile rank-error guarantees in O(1/ε ·
log εn) space, independent of the stream length.

Error bound (documented contract, pinned by the test suite): for each
target ``(φ, ε)`` and a stream of *n* observations, ``query(φ)``
returns a stream value whose rank *r* satisfies ``|r − φ·n| ≤ ε·n``.
With the default targets that means p50 ±1 %, p95 ±0.5 %, and p99
±0.1 % of *n* in rank — on a 10 000-observation stream the reported
p99 is between the 9 880th and 9 920th order statistic.

:class:`QuantileSketch` is the single-series primitive;
:class:`QuantileFamily` is the labelled, thread-safe fan-out the
endpoint uses (one sketch per route / per plan digest) with Prometheus
``summary`` exposition — the ``repro_endpoint_request_seconds`` p99
gauge the CI smoke greps comes from here.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import _escape_label, _format_value

__all__ = ["DEFAULT_TARGETS", "QuantileFamily", "QuantileSketch"]

#: (quantile, allowed rank error as a fraction of n) — the tails are
#: tracked tighter than the median, which is the whole point of the
#: *biased/targeted* variant.
DEFAULT_TARGETS: Tuple[Tuple[float, float], ...] = (
    (0.5, 0.01),
    (0.95, 0.005),
    (0.99, 0.001),
)

_BUFFER_SIZE = 128


class QuantileSketch:
    """CKMS sketch for a fixed set of targeted quantiles.

    Samples are ``[value, g, delta]`` triples in value order: ``g`` is
    the gap in rank to the previous sample, ``delta`` the permissible
    rank slack.  New observations buffer and fold in sorted batches;
    :meth:`_compress` merges adjacent samples while the CKMS invariant
    ``g_i + g_{i+1} + Δ_{i+1} ≤ f(r_i, n)`` holds.
    """

    __slots__ = ("targets", "_samples", "_buffer", "_count", "_sum")

    def __init__(self, targets: Sequence[Tuple[float, float]] = DEFAULT_TARGETS):
        for quantile, epsilon in targets:
            if not 0.0 < quantile < 1.0:
                raise ValueError(f"target quantile {quantile} outside (0, 1)")
            if not 0.0 < epsilon < 1.0:
                raise ValueError(f"target error {epsilon} outside (0, 1)")
        self.targets = tuple(sorted(targets))
        self._samples: List[List[float]] = []  # [value, g, delta], sorted by value
        self._buffer: List[float] = []
        self._count = 0
        self._sum = 0.0

    # -- ingest --------------------------------------------------------

    def observe(self, value: float) -> None:
        self._buffer.append(float(value))
        self._sum += value
        if len(self._buffer) >= _BUFFER_SIZE:
            self._flush()

    def _invariant(self, rank: float, n: int) -> float:
        """f(r, n): the width the sketch may be off by around rank r."""
        slack = math.inf
        for quantile, epsilon in self.targets:
            if quantile * n <= rank:
                f = 2.0 * epsilon * rank / quantile
            else:
                f = 2.0 * epsilon * (n - rank) / (1.0 - quantile)
            if f < slack:
                slack = f
        return max(slack, 1.0)

    def _flush(self) -> None:
        if not self._buffer:
            return
        self._buffer.sort()
        samples = self._samples
        index = 0
        rank = 0.0  # rank mass strictly before samples[index]
        for value in self._buffer:
            while index < len(samples) and samples[index][0] < value:
                rank += samples[index][1]
                index += 1
            if index == 0 or index == len(samples):
                delta = 0.0  # new min/max is exact by construction
            else:
                delta = math.floor(self._invariant(rank, self._count)) - 1.0
                if delta < 0.0:
                    delta = 0.0
            samples.insert(index, [value, 1.0, delta])
            index += 1
            rank += 1.0
            self._count += 1
        self._buffer = []
        self._compress()

    def _compress(self) -> None:
        samples = self._samples
        if len(samples) < 3:
            return
        n = self._count
        # Walk from the tail; ranks accumulate from the head, so keep a
        # prefix-rank array in one pass rather than re-summing per merge.
        ranks = [0.0] * len(samples)
        running = 0.0
        for i, sample in enumerate(samples):
            running += sample[1]
            ranks[i] = running
        for i in range(len(samples) - 2, 0, -1):
            # Merging i into its right neighbour keeps the invariant when
            # the combined gap still fits f at the *merged* sample's rank
            # (prefix ranks below i are stable under tail-first merges;
            # using the left neighbour's rank instead over-merges where f
            # decreases with rank, i.e. below a target quantile).
            right = samples[i + 1]
            merged = samples[i][1] + right[1]
            if merged + right[2] <= self._invariant(ranks[i - 1] + merged, n):
                right[1] = merged
                del samples[i]

    # -- queries -------------------------------------------------------

    def query(self, quantile: float) -> Optional[float]:
        """The stream value at *quantile* (rank error per the targets);
        ``None`` on an empty sketch."""
        self._flush()
        samples = self._samples
        if not samples:
            return None
        n = self._count
        target_rank = quantile * n
        allowed = self._invariant(target_rank, n) / 2.0
        rank = 0.0
        for i in range(1, len(samples)):
            rank += samples[i - 1][1]
            if rank + samples[i][1] + samples[i][2] > target_rank + allowed:
                return samples[i - 1][0]
        return samples[-1][0]

    @property
    def count(self) -> int:
        return self._count + len(self._buffer)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        """The largest value observed (exact: the tail sample is never
        merged away); ``0.0`` on an empty sketch."""
        self._flush()
        return self._samples[-1][0] if self._samples else 0.0

    def __len__(self) -> int:
        return self.count

    @property
    def sample_count(self) -> int:
        """Compressed samples held (space check, not the stream length)."""
        self._flush()
        return len(self._samples)

    def snapshot(self) -> Dict:
        return {
            "count": self.count,
            "sum": round(self._sum, 9),
            "max": self.max,
            "samples": self.sample_count,
            "quantiles": {
                _format_value(q): self.query(q) for q, _ in self.targets
            },
        }


class QuantileFamily:
    """A labelled family of sketches with Prometheus summary exposition.

    One label dimension (``route``, ``plan_digest``), bounded series
    count: past *max_series* distinct label values, new observations
    fold into the ``"other"`` series instead of growing without bound
    (an endpoint fed adversarial query shapes must not leak sketches).
    """

    OVERFLOW_LABEL = "other"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label: str = "route",
        targets: Sequence[Tuple[float, float]] = DEFAULT_TARGETS,
        max_series: int = 64,
    ):
        self.name = name
        self.help = help_text
        self.label = label
        self.targets = tuple(sorted(targets))
        self.max_series = max_series
        self._lock = threading.Lock()
        self._sketches: Dict[str, QuantileSketch] = {}

    def _sketch_for(self, label_value: str) -> QuantileSketch:
        sketch = self._sketches.get(label_value)
        if sketch is None:
            if len(self._sketches) >= self.max_series:
                label_value = self.OVERFLOW_LABEL
                sketch = self._sketches.get(label_value)
                if sketch is None:
                    sketch = self._sketches[label_value] = QuantileSketch(self.targets)
            else:
                sketch = self._sketches[label_value] = QuantileSketch(self.targets)
        return sketch

    def observe(self, label_value: str, value: float) -> None:
        with self._lock:
            self._sketch_for(str(label_value)).observe(value)

    def quantile(self, label_value: str, quantile: float) -> Optional[float]:
        with self._lock:
            sketch = self._sketches.get(str(label_value))
            return sketch.query(quantile) if sketch is not None else None

    def labels(self) -> List[str]:
        with self._lock:
            return sorted(self._sketches)

    def render(self) -> str:
        """Prometheus ``summary`` exposition for every series."""
        with self._lock:
            if not self._sketches:
                return ""
            lines = []
            if self.help:
                lines.append(f"# HELP {self.name} {self.help}")
            lines.append(f"# TYPE {self.name} summary")
            for label_value in sorted(self._sketches):
                sketch = self._sketches[label_value]
                escaped = _escape_label(label_value)
                for quantile, _ in self.targets:
                    value = sketch.query(quantile)
                    if value is None:
                        continue
                    lines.append(
                        f'{self.name}{{{self.label}="{escaped}",'
                        f'quantile="{_format_value(quantile)}"}} '
                        f"{_format_value(value)}"
                    )
                lines.append(
                    f'{self.name}_sum{{{self.label}="{escaped}"}} '
                    f"{_format_value(sketch.sum)}"
                )
                lines.append(
                    f'{self.name}_count{{{self.label}="{escaped}"}} '
                    f"{sketch.count}"
                )
            return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                label_value: sketch.snapshot()
                for label_value, sketch in sorted(self._sketches.items())
            }
