"""Bounded streaming metrics: log-bucketed histograms + Prometheus text.

The serving telemetry used to keep every per-job latency in a Python list —
exactly the unbounded growth a server targeting sustained traffic cannot
afford.  This module replaces those lists with :class:`StreamingHistogram`:
a fixed array of log-spaced buckets (constant memory, any number of
observations) plus a small uniform **reservoir** so that percentiles over
few observations — which is what every deterministic test asserts on — are
*exact*, not bucket-quantized.  Once the observation count exceeds the
reservoir, percentiles come from geometric interpolation inside the log
buckets, whose relative error is bounded by the bucket ratio (~26% per
bucket at the default 10 buckets/decade, i.e. percentiles are within one
bucket edge of the truth).

The same buckets serialize directly into the Prometheus text exposition
format (cumulative ``le`` buckets, ``_sum``, ``_count``), which is what
``GET /v1/metrics`` serves; :func:`render_prometheus` assembles a full
scrape page from plain counter/gauge/histogram primitives so the server and
the HTTP edge can each contribute their families without duplicating the
escaping rules.

Counters and gauges are **declared once**, on the stats dataclass field
that carries them: :func:`counter` and :func:`gauge` attach the family's
name, type and help text as field metadata, and :func:`metric_families`
turns every declared field of a snapshot into its family.  A field's
``/v1/stats`` key, its BENCH key and its ``/v1/metrics`` family therefore
come from the same line.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "StreamingHistogram",
    "counter",
    "gauge",
    "metric_families",
    "prometheus_counter",
    "prometheus_gauge",
    "prometheus_histogram",
    "render_prometheus",
    "PROMETHEUS_CONTENT_TYPE",
]

#: The content type Prometheus scrapers negotiate for the text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _log_bounds(min_value: float, max_value: float, buckets_per_decade: int) -> np.ndarray:
    """Log-spaced bucket *upper* bounds spanning ``[min_value, max_value]``."""
    decades = math.log10(max_value / min_value)
    count = max(1, int(math.ceil(decades * buckets_per_decade)))
    exponents = np.arange(1, count + 1, dtype=np.float64) / buckets_per_decade
    return min_value * np.power(10.0, exponents)


class StreamingHistogram:
    """A bounded histogram of non-negative observations (seconds, bytes, ...).

    Parameters
    ----------
    min_value, max_value:
        The bucketed range.  Observations at or below ``min_value`` land in
        the first bucket; observations above ``max_value`` land in the
        overflow (``+Inf``) bucket.  The defaults (0.1 ms .. 1000 s) cover
        every latency this server can plausibly produce.
    buckets_per_decade:
        Bucket density; 10 gives a ~1.26x ratio between adjacent bounds,
        bounding the relative quantization error of bucket-interpolated
        percentiles.
    reservoir_size:
        Size of the uniform sample kept alongside the buckets.  While the
        total observation count fits the reservoir, percentiles are computed
        exactly from it (``numpy.percentile`` linear interpolation — the
        same estimator the old unbounded lists used, so existing assertions
        keep holding); beyond it, Vitter's algorithm R keeps the sample
        uniform and the estimate statistical.
    seed:
        Seed of the reservoir's replacement RNG (deterministic by default so
        snapshots are reproducible in tests).
    """

    def __init__(
        self,
        min_value: float = 1e-4,
        max_value: float = 1e3,
        buckets_per_decade: int = 10,
        reservoir_size: int = 512,
        seed: int = 0,
    ) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError(
                f"need 0 < min_value < max_value, got ({min_value}, {max_value})"
            )
        if buckets_per_decade < 1:
            raise ValueError(f"buckets_per_decade must be at least 1, got {buckets_per_decade}")
        if reservoir_size < 2:
            raise ValueError(f"reservoir_size must be at least 2, got {reservoir_size}")
        self.bounds = _log_bounds(min_value, max_value, buckets_per_decade)
        #: Per-bucket counts; the final slot is the ``+Inf`` overflow bucket.
        self.counts = np.zeros(len(self.bounds) + 1, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.reservoir_size = reservoir_size
        self._reservoir: List[float] = []
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Fold one observation in (constant time, constant memory)."""
        value = float(value)
        if math.isnan(value):
            return  # NaN observations would poison sums and percentiles
        value = max(value, 0.0)
        index = int(np.searchsorted(self.bounds, value, side="left"))
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(value)
        else:  # algorithm R: keep the sample uniform over all observations
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir_size:
                self._reservoir[slot] = value

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``nan`` when empty).

        Exact (reservoir) while the histogram holds at most
        ``reservoir_size`` observations, bucket-interpolated beyond.
        """
        if self.count == 0:
            return float("nan")
        if self.count <= self.reservoir_size:
            return float(np.percentile(np.asarray(self._reservoir, dtype=np.float64), q))
        return self._bucket_percentile(q)

    def _bucket_percentile(self, q: float) -> float:
        rank = (q / 100.0) * self.count
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, max(rank, 1), side="left"))
        if index >= len(self.bounds):
            # Overflow bucket: the best bounded answer is the observed max.
            return float(self.max if self.max is not None else self.bounds[-1])
        upper = float(self.bounds[index])
        lower = float(self.bounds[index - 1]) if index > 0 else upper / (
            float(self.bounds[1]) / float(self.bounds[0])
        )
        below = float(cumulative[index - 1]) if index > 0 else 0.0
        inside = float(self.counts[index])
        fraction = min(max((rank - below) / inside, 0.0), 1.0) if inside > 0 else 1.0
        # Geometric interpolation matches the log spacing of the buckets.
        estimate = lower * (upper / lower) ** fraction
        if self.max is not None:
            estimate = min(estimate, self.max)
        if self.min is not None:
            estimate = max(estimate, self.min)
        return estimate

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """The JSON-ready digest the stage breakdown and benchmarks record."""
        return {
            "count": int(self.count),
            "total_s": self.sum,
            "mean_s": self.mean,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
        }

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending with ``+Inf``."""
        cumulative = np.cumsum(self.counts)
        pairs = [
            (float(bound), int(total))
            for bound, total in zip(self.bounds, cumulative[:-1])
        ]
        pairs.append((math.inf, int(cumulative[-1])))
        return pairs

    def memory_slots(self) -> int:
        """Bounded-memory witness: total retained samples + bucket slots."""
        return len(self._reservoir) + len(self.counts)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(int(value))


def prometheus_family(
    name: str,
    kind: str,
    help_text: str,
    samples: Sequence[Tuple[Optional[Dict[str, str]], float]],
) -> List[str]:
    """One counter or gauge family with one line per ``(labels, value)`` sample."""
    lines = [
        f"# HELP {name} {_escape_help(help_text)}",
        f"# TYPE {name} {kind}",
    ]
    for labels, value in samples:
        lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    return lines


def prometheus_counter(
    name: str,
    help_text: str,
    value: float,
    labels: Optional[Dict[str, str]] = None,
) -> List[str]:
    """One counter family as exposition lines (``# HELP``/``# TYPE`` + sample)."""
    return prometheus_family(name, "counter", help_text, [(labels, value)])


def prometheus_gauge(
    name: str,
    help_text: str,
    samples: Sequence[Tuple[Optional[Dict[str, str]], float]],
) -> List[str]:
    """One gauge family with one line per ``(labels, value)`` sample."""
    return prometheus_family(name, "gauge", help_text, samples)


def prometheus_histogram(
    name: str,
    help_text: str,
    histogram: StreamingHistogram,
    labels: Optional[Dict[str, str]] = None,
) -> List[str]:
    """One histogram family: cumulative ``le`` buckets, ``_sum``, ``_count``."""
    base = dict(labels or {})
    lines = [
        f"# HELP {name} {_escape_help(help_text)}",
        f"# TYPE {name} histogram",
    ]
    for bound, cumulative in histogram.cumulative_buckets():
        le = "+Inf" if math.isinf(bound) else repr(bound)
        lines.append(f'{name}_bucket{_format_labels({**base, "le": le})} {cumulative}')
    lines.append(f"{name}_sum{_format_labels(base or None)} {_format_value(histogram.sum)}")
    lines.append(f"{name}_count{_format_labels(base or None)} {histogram.count}")
    return lines


def render_prometheus(families: Iterable[List[str]]) -> str:
    """Join families into one scrape page (trailing newline per the spec)."""
    lines: List[str] = []
    for family in families:
        lines.extend(family)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Declared metrics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    """How one stats field is exported on ``/v1/metrics``.

    ``label`` marks a list- or dict-valued field: it exports one sample per
    element, labelled with the element's index or key.
    """

    name: str
    kind: str
    help: str
    label: Optional[str] = None


def _declare(kind, name, help_text, label, source, field_options):
    if "default_factory" not in field_options:
        field_options.setdefault("default", 0)
    metadata = {"metric": Metric(name, kind, help_text, label), "source": source}
    return field(metadata=metadata, **field_options)


def counter(name: str, help_text: str, *, label=None, source=None, **field_options):
    """A dataclass field exported as the counter family ``name``.

    ``source`` names the live ``"object.attribute"`` a snapshot reads the
    value from, for values owned outside the accumulator (see
    :meth:`repro.serve.telemetry.Telemetry.snapshot`).  ``field_options``
    go to :func:`dataclasses.field` (``default`` is 0 unless given).
    """
    return _declare("counter", name, help_text, label, source, field_options)


def gauge(name: str, help_text: str, *, label=None, source=None, **field_options):
    """A dataclass field exported as the gauge family ``name`` (see :func:`counter`)."""
    return _declare("gauge", name, help_text, label, source, field_options)


def metric_families(stats) -> List[List[str]]:
    """One family per :func:`counter`/:func:`gauge` field of ``stats``, in field order."""
    families = []
    for spec in fields(stats):
        metric = spec.metadata.get("metric")
        if metric is None:
            continue
        value = getattr(stats, spec.name)
        if metric.label is None:
            samples = [(None, value)]
        else:
            items = sorted(value.items()) if isinstance(value, dict) else enumerate(value)
            samples = [({metric.label: str(key)}, item) for key, item in items]
        families.append(prometheus_family(metric.name, metric.kind, metric.help, samples))
    return families
