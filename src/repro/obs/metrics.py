"""Process-wide metrics registry with Prometheus text exposition.

A deliberately small re-implementation of the Prometheus client data
model — counters, gauges, and fixed-bucket histograms, each optionally
labelled — with no third-party dependencies.  One module-level registry
(:func:`get_registry`) serves the whole process; instrumented modules
declare their metrics at import time so every series renders (at zero)
even before the first event.

Design constraints, in order:

* **Cheap when disabled.**  Every mutation starts with a single
  attribute check (``registry._enabled``); when metrics are switched
  off the call returns before touching the lock.
* **Exact under threads.**  All mutations take the owning metric's
  lock, so concurrent increments never lose updates (the endpoint's
  handler threads and the query engine share series).
* **Pull-friendly.**  Components that already keep cheap plain-int
  counters (segment probes, dictionary hits) don't pay per-op registry
  locking; instead a *collector* callback mirrors those ints into the
  registry right before each render/snapshot.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DURATION_BUCKETS",
    "MetricsError",
    "MetricsRegistry",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "render",
    "set_enabled",
    "snapshot",
    "value",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for wall-time observations in seconds.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricsError(ValueError):
    """Invalid metric declaration or use (bad name, kind clash, labels)."""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Child:
    """One concrete time series: a metric narrowed to one label vector."""

    __slots__ = ("_metric", "_label_values")

    def __init__(self, metric: "Metric", label_values: Tuple[str, ...]):
        self._metric = metric
        self._label_values = label_values

    @property
    def label_values(self) -> Tuple[str, ...]:
        return self._label_values


class CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, metric: "Metric", label_values: Tuple[str, ...]):
        super().__init__(metric, label_values)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        metric = self._metric
        if not metric._registry._enabled:
            return
        if amount < 0:
            raise MetricsError("counters can only increase")
        with metric._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Set the absolute total.  Collector use only — mirrors a plain
        int counter kept outside the registry into this series."""
        metric = self._metric
        if not metric._registry._enabled:
            return
        with metric._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._metric._lock:
            return self._value

    def _vector(self) -> Tuple[float, ...]:
        return (self.value,)

    def _absorb(self, vector: Sequence[float]) -> None:
        with self._metric._lock:
            self._value += vector[0]


class GaugeChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, metric: "Metric", label_values: Tuple[str, ...]):
        super().__init__(metric, label_values)
        self._value = 0.0

    def set(self, value: float) -> None:
        metric = self._metric
        if not metric._registry._enabled:
            return
        with metric._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        metric = self._metric
        if not metric._registry._enabled:
            return
        with metric._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._metric._lock:
            return self._value


class HistogramChild(_Child):
    __slots__ = ("_bucket_counts", "_sum", "_count")

    def __init__(self, metric: "Metric", label_values: Tuple[str, ...]):
        super().__init__(metric, label_values)
        self._bucket_counts = [0] * len(metric._buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        metric = self._metric
        if not metric._registry._enabled:
            return
        with metric._lock:
            self._sum += value
            self._count += 1
            for i, edge in enumerate(metric._buckets):
                if value <= edge:
                    self._bucket_counts[i] += 1
                    break

    def snapshot(self) -> dict:
        metric = self._metric
        with metric._lock:
            cumulative = 0
            buckets = {}
            for edge, count in zip(metric._buckets, self._bucket_counts):
                cumulative += count
                buckets[_format_value(edge)] = cumulative
            return {"sum": self._sum, "count": self._count, "buckets": buckets}

    def _vector(self) -> Tuple[float, ...]:
        with self._metric._lock:
            return (*self._bucket_counts, self._sum, self._count)

    def _absorb(self, vector: Sequence[float]) -> None:
        *buckets, value_sum, count = vector
        if len(buckets) != len(self._bucket_counts):
            raise MetricsError(f"{self._metric.name}: absorbed histogram's "
                               "bucket edges differ from this registry's")
        with self._metric._lock:
            for i, n in enumerate(buckets):
                self._bucket_counts[i] += n
            self._sum += value_sum
            self._count += count


_KIND_CHILD = {
    "counter": CounterChild,
    "gauge": GaugeChild,
    "histogram": HistogramChild,
}


class Metric:
    """A named family of series sharing a kind, help string and labels."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        kind: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        self._registry = registry
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = label_names
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if kind == "histogram":
            edges = tuple(sorted(float(b) for b in (buckets or DURATION_BUCKETS)))
            if not edges:
                raise MetricsError(f"histogram {name!r} needs at least one bucket")
            if edges[-1] != math.inf:
                edges = edges + (math.inf,)
            self._buckets = edges
        else:
            self._buckets = ()
        if not label_names:
            # Materialise the unlabeled series eagerly so declared metrics
            # render (at zero) before the first event.
            self.labels()

    def labels(self, *values: object) -> _Child:
        if len(values) != len(self.label_names):
            raise MetricsError(
                f"{self.name} takes {len(self.label_names)} label value(s), "
                f"got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _KIND_CHILD[self.kind](self, key)
                    self._children[key] = child
        return child

    # Convenience pass-throughs so unlabeled metrics read naturally
    # (``METRIC.inc()`` instead of ``METRIC.labels().inc()``).
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def set_total(self, value: float) -> None:
        self.labels().set_total(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def snapshot(self) -> dict:
        return self.labels().snapshot()

    @property
    def value(self) -> float:
        return self.labels().value

    def _sorted_children(self) -> List[_Child]:
        with self._lock:
            return [self._children[k] for k in sorted(self._children)]


class MetricsRegistry:
    """Holds every metric family for one process."""

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- configuration ------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, flag: bool) -> None:
        self._enabled = bool(flag)

    # -- declaration --------------------------------------------------
    def _get_or_create(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> Metric:
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricsError(f"invalid label name {label!r} on {name!r}")
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if metric.kind != kind or metric.label_names != label_names:
                    raise MetricsError(
                        f"metric {name!r} already registered as {metric.kind} "
                        f"with labels {metric.label_names!r}"
                    )
                return metric
            metric = Metric(
                self, name, help_text, kind, label_names,
                tuple(buckets) if buckets is not None else None,
            )
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Metric:
        return self._get_or_create(name, help_text, "counter", labels)

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Metric:
        return self._get_or_create(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Metric:
        return self._get_or_create(name, help_text, "histogram", labels, buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def _families(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # -- collectors ---------------------------------------------------
    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> Callable:
        """Register ``fn`` to run before each render/snapshot; used to
        mirror plain-int counters kept outside the registry."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)
        return fn

    def unregister_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn(self)

    # -- cross-process fold -------------------------------------------
    def additive(self) -> Dict[str, tuple]:
        """Every series whose values add up across processes, as one
        self-describing map ``{name: (kind, help, label names, bucket
        edges, {label values: vector})}`` where a counter's vector is
        ``(value,)`` and a histogram's ``(*bucket counts, sum, count)``.

        Gauges are levels, not sums, and stay process-local.  No
        collector pass: collectors mirror some other component's ints,
        which are not this process's increments.
        """
        return {
            metric.name: (
                metric.kind, metric.help, metric.label_names, metric._buckets,
                {c.label_values: c._vector() for c in metric._sorted_children()},
            )
            for metric in self._families()
            if metric.kind != "gauge"
        }

    def delta(self, base: Dict[str, tuple]) -> Dict[str, tuple]:
        """The series that moved since *base* (an earlier
        :meth:`additive`), in the same shape, each with its whole vector
        — a touched histogram keeps every bucket.  *base* is advanced to
        now, so consecutive calls partition the increments."""
        now = self.additive()
        moved: Dict[str, tuple] = {}
        for name, (*described, series) in now.items():
            before = base[name][-1] if name in base else {}
            changed = {}
            for label_values, vector in series.items():
                old = before.get(label_values)
                if old is not None:
                    vector = tuple(a - b for a, b in zip(vector, old))
                if any(vector):
                    changed[label_values] = vector
            if changed:
                moved[name] = (*described, changed)
        base.clear()
        base.update(now)
        return moved

    def absorb(self, deltas: Dict[str, tuple]) -> None:
        """Add another process's :meth:`delta` into this registry,
        declaring any family only that process had imported."""
        if not self._enabled:
            return
        for name, (kind, help_text, label_names, edges, series) in deltas.items():
            metric = self._get_or_create(name, help_text, kind, label_names, edges or None)
            for label_values, vector in series.items():
                metric.labels(*label_values)._absorb(vector)

    def counters_since(self, base: Dict[str, tuple]) -> Dict[str, float]:
        """The counters that moved since *base*, flat and JSON-ready —
        ``{'name{label="value"}': increment}`` — as the ``build.done`` /
        ``ingest.done`` event lines carry them."""
        out: Dict[str, float] = {}
        for name, (kind, _, label_names, _, series) in self.delta(base).items():
            if kind != "counter":
                continue
            for label_values, (value,) in series.items():
                key = name + self._label_str(label_names, label_values)
                out[key] = int(value) if float(value).is_integer() else value
        return out

    # -- exposition ---------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        self.collect()
        lines: List[str] = []
        for metric in self._families():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for child in metric._sorted_children():
                label_str = self._label_str(metric.label_names, child.label_values)
                if metric.kind == "histogram":
                    snap = child.snapshot()
                    for edge, cumulative in snap["buckets"].items():
                        le = self._label_str(
                            metric.label_names + ("le",),
                            child.label_values + (edge,),
                        )
                        lines.append(f"{metric.name}_bucket{le} {cumulative}")
                    lines.append(
                        f"{metric.name}_sum{label_str} {_format_value(snap['sum'])}"
                    )
                    lines.append(f"{metric.name}_count{label_str} {snap['count']}")
                else:
                    lines.append(
                        f"{metric.name}{label_str} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _label_str(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
        if not names:
            return ""
        pairs = ",".join(
            f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
        )
        return "{" + pairs + "}"

    def snapshot(self) -> dict:
        """JSON-friendly dump of every series; runs collectors first."""
        self.collect()
        out: dict = {}
        for metric in self._families():
            samples = []
            for child in metric._sorted_children():
                labels = dict(zip(metric.label_names, child.label_values))
                if metric.kind == "histogram":
                    samples.append({"labels": labels, "value": child.snapshot()})
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": samples,
            }
        return out

    def value(self, name: str, labels: Optional[dict] = None) -> Optional[float]:
        """Current value of a counter/gauge series, or ``None`` if the
        metric or series doesn't exist.  Runs collectors first."""
        self.collect()
        metric = self.get(name)
        if metric is None or metric.kind == "histogram":
            return None
        key = tuple(str((labels or {}).get(n, "")) for n in metric.label_names)
        with metric._lock:
            child = metric._children.get(key)
            return child._value if child is not None else None


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_enabled(flag: bool) -> None:
    _REGISTRY.set_enabled(flag)


def counter(name: str, help_text: str = "", labels: Sequence[str] = ()) -> Metric:
    return _REGISTRY.counter(name, help_text, labels)


def gauge(name: str, help_text: str = "", labels: Sequence[str] = ()) -> Metric:
    return _REGISTRY.gauge(name, help_text, labels)


def histogram(
    name: str,
    help_text: str = "",
    labels: Sequence[str] = (),
    buckets: Optional[Sequence[float]] = None,
) -> Metric:
    return _REGISTRY.histogram(name, help_text, labels, buckets)


def render() -> str:
    return _REGISTRY.render_prometheus()


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def value(name: str, labels: Optional[dict] = None) -> Optional[float]:
    return _REGISTRY.value(name, labels)
