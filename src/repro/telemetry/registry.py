"""The metric registry: counters, gauges and streaming histograms.

A :class:`MetricRegistry` rides on the simulation
:class:`~repro.simulation.core.Environment` (``env.telemetry``) the same
way the tracer rides on ``env.trace``: the default is
:data:`NULL_REGISTRY`, whose ``enabled`` flag is False and whose factory
methods hand back a shared no-op metric — instrumented hot loops pay a
single attribute check when telemetry is off, and emission sites never
need ``if`` pyramids just to construct a metric handle.

Metrics are identified by ``(name, labels)``; labels are sorted
``(key, value)`` pairs so the identity (and every exported form) is
canonical.  Values are simulation-derived only, which makes the JSON
snapshot byte-identical across same-seed runs (the determinism contract
shared with :mod:`repro.observability`).

Naming convention (every name is declared in :data:`METRICS`): ``ms_<subsystem>_<what>``
with a ``_total`` suffix for counters and a ``_seconds`` / ``_bytes``
unit suffix where applicable — directly exportable as Prometheus text.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.telemetry.quantile import P2Quantile

LabelPairs = tuple[tuple[str, str], ...]

DEFAULT_PERCENTILES = (0.5, 0.95, 0.99)

# The metric vocabulary: name -> (kind, labels, emitted by).  ``kind`` is
# the registry factory a call site uses; ``labels`` and ``emitted by`` are
# the text of DESIGN.md's metric-schema table, which is rendered from
# this mapping by ``python -m repro.analysis.doctables``.
# ``tests/test_vocabularies.py`` checks that every ``counter``/``gauge``/
# ``histogram`` call site names a declared metric of that kind and that
# every declared metric has a call site.
METRICS: dict[str, tuple[str, str, str]] = {
    "ms_hau_tuples_total": ("counter", "hau", "`dsps/hau.py` per processed tuple"),
    "ms_hau_busy_seconds_total": (
        "counter",
        "hau",
        "`dsps/hau.py` service time per processed tuple",
    ),
    "ms_hau_tuple_latency_seconds": ("histogram", "hau", "creation→completion latency per tuple"),
    "ms_hau_tokens_sent_total": ("counter", "hau", "token emission"),
    "ms_hau_tokens_received_total": ("counter", "hau", "token arrival"),
    "ms_control_messages_total": (
        "counter",
        "direction=down|up",
        "`dsps/runtime.py` control plane",
    ),
    "ms_checkpoint_rounds_total": ("counter", "scheme", "round start"),
    "ms_checkpoint_rounds_completed_total": ("counter", "scheme", "all HAUs of a round committed"),
    "ms_checkpoint_write_seconds": ("histogram", "scheme", "per-HAU checkpoint write duration"),
    "ms_hau_ckpt_write_seconds": (
        "gauge",
        "hau",
        "last checkpoint-write duration, per HAU (`core/base.py`, `core/baseline.py`); "
        "also a sampler series",
    ),
    "ms_checkpoint_bytes_total": ("counter", "scheme", "checkpointed state volume"),
    "ms_recoveries_total": ("counter", "scheme", "`core/base.py` failure watcher"),
    "ms_recovery_seconds": ("histogram", "scheme", "`core/base.py` global-rollback duration"),
    "ms_baseline_recovered_total": ("counter", "", "1-safe single-HAU restarts"),
    "ms_baseline_unrecoverable_total": (
        "counter",
        "cause",
        "1-safe restarts that lost a retained buffer",
    ),
    "ms_holdback_drained_total": ("counter", "hau", "holdback queue drains (src / ap)"),
    "ms_async_checkpoints_total": ("counter", "scheme", "ms-…+ap asynchronous forks"),
    "ms_fork_seconds": ("histogram", "scheme", "ms-…+ap fork duration"),
    "ms_aa_smax_bytes": ("gauge", "", "adaptive-adjustment profiling"),
    "ms_aa_dynamic_haus": ("gauge", "", "adaptive-adjustment profiling"),
    "ms_aa_turning_points_total": ("counter", "hau", "AA controller turning-point reports"),
    "ms_aa_decisions_total": (
        "counter",
        "reason=icr|deadline",
        "AA controller checkpoint decisions",
    ),
    "ms_storage_bytes_written_total": ("counter", "namespace", "`storage/shared.py`"),
    "ms_storage_bytes_read_total": ("counter", "namespace", "`storage/shared.py`"),
    "ms_failures_injected_total": ("counter", "kind", "`failures/injector.py`"),
    "ms_kernel_events_popped_total": (
        "counter",
        "",
        "heap pops in `Environment.step()` (`publish_kernel_metrics`)",
    ),
    "ms_kernel_pool_hits_total": ("counter", "", "event free-list reuse"),
    "ms_kernel_pool_misses_total": ("counter", "", "event free-list misses (fresh allocation)"),
    "ms_sweep_cache_hits_total": ("counter", "", "sweep result-cache hits (`harness/sweep.py`)"),
    "ms_sweep_cache_misses_total": (
        "counter",
        "",
        "sweep result-cache misses (`harness/sweep.py`)",
    ),
    "ms_batch_envelopes_total": (
        "counter",
        "",
        "envelopes flushed by batched channels (`cluster/channel.py`)",
    ),
    "ms_batch_tuples_total": ("counter", "", "tuples carried inside flushed envelopes"),
    "ms_alerts_fired_total": ("counter", "slo", "SLO burn-rate alerts fired (`monitor/plane.py`)"),
    "ms_alerts_resolved_total": (
        "counter",
        "slo",
        "SLO burn-rate alerts resolved (`monitor/plane.py`)",
    ),
    "ms_alerts_active": ("gauge", "", "currently-firing SLO alerts"),
    "ms_monitor_ticks_total": ("counter", "", "monitoring-plane window evaluations"),
    "ms_monitor_samples_total": ("counter", "slo", "SLO samples folded into burn-rate windows"),
    "ms_hau_inbox_depth": ("gauge", "hau", "sampler series: input-queue depth"),
    "ms_hau_state_bytes": ("gauge", "hau", "sampler series: `state_size()`"),
    "ms_hau_inflight_tuples": ("gauge", "hau", "sampler series: tuples in flight on out-channels"),
    "ms_hau_holdback_tuples": ("gauge", "hau", "sampler series: tuples held back behind tokens"),
    "ms_hau_preserve_bytes": ("gauge", "hau", "sampler series: preservation-buffer bytes"),
}


class Counter:
    """A monotonically increasing value (counts, bytes, seconds-of-work)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount!r})")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            "value": self.value,
        }


class Gauge:
    """A value that can go up and down (queue depth, state bytes)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            "value": self.value,
        }


class Histogram:
    """A streaming distribution: count/sum/min/max plus P² percentiles.

    Keeps no sample buffer — each tracked percentile costs five markers
    (see :class:`~repro.telemetry.quantile.P2Quantile`), so per-tuple
    latency observation stays O(1) in both time and memory.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max", "_estimators")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
    ):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0
        self._estimators = {p: P2Quantile(p) for p in percentiles}

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.sum += value
        for est in self._estimators.values():
            est.observe(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        est = self._estimators.get(p)
        if est is None:
            raise KeyError(f"histogram {self.name} does not track p={p!r}")
        return est.value()

    def quantiles(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` (tracked set)."""
        return {
            f"p{round(p * 100):d}": est.value()
            for p, est in sorted(self._estimators.items())
        }

    def as_dict(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        out.update(self.quantiles())
        return out


Metric = Counter | Gauge | Histogram


class _NullMetric:
    """Accepts every mutation and does nothing; reads as empty."""

    __slots__ = ()

    name = ""
    labels: LabelPairs = ()
    value = 0.0
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def percentile(self, p: float) -> float:
        return 0.0

    def quantiles(self) -> dict[str, float]:
        return {}


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The default no-op registry: ``enabled`` is False, and every
    factory returns the shared do-nothing metric, so instrumentation can
    be installed unconditionally and guarded by one attribute check in
    the loops that matter."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str, **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def metrics(self) -> list[Metric]:
        return []

    def __iter__(self) -> Iterator[Metric]:
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()


def _label_pairs(labels: dict[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricRegistry:
    """Holds every metric of one run, keyed by (name, sorted labels).

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same identity return the same object, so call sites do not
    need to cache handles for correctness (they may for speed).
    """

    enabled = True

    def __init__(self):
        self._metrics: dict[tuple[str, LabelPairs], Metric] = {}

    def _get(self, cls, name: str, labels: dict[str, str], **kwargs) -> Metric:
        key = (name, _label_pairs(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])!r} already registered "
                f"as {metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        percentiles: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        if percentiles is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, percentiles=percentiles)

    # -- queries -----------------------------------------------------------
    def metrics(self) -> list[Metric]:
        """All metrics, sorted by (name, labels) for stable export."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str, **labels: str) -> Metric | None:
        """The metric if it exists — never creates (for tooling/tests)."""
        return self._metrics.get((name, _label_pairs(labels)))

    def select(self, prefix: str) -> list[Metric]:
        return [m for m in self.metrics() if m.name.startswith(prefix)]

    def __iter__(self) -> Iterator[Metric]:
        return iter(self.metrics())

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricRegistry {len(self._metrics)} metrics>"


RegistryLike = Any  # MetricRegistry | NullRegistry — same factory surface


def ensure_registry(registry: RegistryLike | None) -> RegistryLike:
    """Coerce ``None`` to the shared no-op registry."""
    return NULL_REGISTRY if registry is None else registry
