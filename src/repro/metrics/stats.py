"""Summary statistics, latency recording, and throughput metering."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.clock import SECOND
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    stdev: float

    def render(self, unit: str = "") -> str:
        """Render as human-readable text."""
        suffix = f" {unit}" if unit else ""
        return (
            f"n={self.count} mean={self.mean:.3f}{suffix} "
            f"min={self.minimum:.3f} p50={self.p50:.3f} p90={self.p90:.3f} "
            f"p99={self.p99:.3f} max={self.maximum:.3f}"
        )


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = fraction * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(sorted_values[low])
    weight = position - low
    lower = float(sorted_values[low])
    upper = float(sorted_values[high])
    # lerp as lower + (upper - lower) * weight, not the two-product
    # form: a*(1-w) + b*w underflows to 0.0 when a == b is denormal,
    # returning a value outside [lower, upper].
    return lower + (upper - lower) * weight


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary`; raises on an empty sample."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(float(v) for v in values)
    count = len(ordered)
    mean = sum(ordered) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in ordered) / (count - 1)
    else:
        variance = 0.0
    return Summary(
        count=count,
        mean=mean,
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        p99=percentile(ordered, 0.99),
        stdev=math.sqrt(variance),
    )


#: Two-sided 95% Student-t critical values by degrees of freedom.  The
#: experiment harness aggregates 2..30 seeded runs; beyond that the
#: normal approximation is within a percent.
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical_95(degrees_of_freedom: int) -> float:
    """Two-sided 95% Student-t critical value (normal beyond df=30)."""
    if degrees_of_freedom < 1:
        raise ValueError("need at least one degree of freedom")
    return _T_CRITICAL_95.get(degrees_of_freedom, 1.960)


@dataclass(frozen=True)
class Aggregate:
    """Cross-run aggregate of one metric over repeated seeded trials."""

    count: int
    mean: float
    stdev: float
    ci95: float          #: half-width of the 95% confidence interval
    minimum: float
    maximum: float

    def render(self) -> str:
        """Render as ``mean ± ci`` text."""
        return f"{self.mean:.4g} ± {self.ci95:.3g} (n={self.count})"

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for JSON results files."""
        return {
            "n": self.count, "mean": self.mean, "stdev": self.stdev,
            "ci95": self.ci95, "min": self.minimum, "max": self.maximum,
        }


def aggregate(values: Sequence[float]) -> Aggregate:
    """Mean/stddev/95%-CI of repeated trials (the harness's aggregator).

    A single trial yields a zero-width interval rather than an error, so
    one-seed smoke sweeps still produce a well-formed results file.
    """
    if not values:
        raise ValueError("cannot aggregate an empty sample")
    data = [float(v) for v in values]
    count = len(data)
    mean = sum(data) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in data) / (count - 1)
        stdev = math.sqrt(variance)
        ci95 = t_critical_95(count - 1) * stdev / math.sqrt(count)
    else:
        stdev = 0.0
        ci95 = 0.0
    return Aggregate(count=count, mean=mean, stdev=stdev, ci95=ci95,
                     minimum=min(data), maximum=max(data))


#: Every mean a metric dict reports, as ``mean: (total, count, unit)``.
#: Producers report the integer total beside its count; collectors sum
#: totals and counts, and the mean is derived once, after the last sum,
#: so a merged mean is weighted by its samples, never a mean of means.
MEANS: Dict[str, Tuple[str, str, float]] = {
    "ping_mean_rtt_s": ("ping_rtt_total_us", "pings_received", SECOND),
    "tcp_transfer_mean_latency_s": (
        "tcp_transfer_latency_total_us", "transfers_completed", SECOND),
    "channel_utilisation": ("channel_busy_us", "channel_elapsed_us", 1),
}


def with_means(metrics: Dict[str, float]) -> Dict[str, float]:
    """Add every :data:`MEANS` entry whose count is non-zero; returns
    ``metrics``."""
    for mean, (total, count, unit) in MEANS.items():
        if metrics.get(count):
            metrics[mean] = metrics[total] / metrics[count] / unit
    return metrics


def sum_metrics(parts: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Sum flat metric dicts key by key, then derive the means.

    Means in the parts are skipped: they are re-derived from the summed
    totals and counts.
    """
    out: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key not in MEANS:
                out[key] = out.get(key, 0.0) + float(value)
    return with_means(out)


def world_metrics(sim: Simulator, channel, flow=None, injector=None,
                  recorder=None) -> Dict[str, float]:
    """The blocks every simulated world reports: its channel, flow-level
    stations, fault injector, flight recorder (``obs_*``) and event
    count.  Totals only; :func:`sum_metrics` derives the means."""
    out: Dict[str, float] = {} if flow is None else flow.metrics()
    out["channel_transmissions"] = float(channel.total_transmissions)
    out["channel_collisions"] = float(channel.total_collisions)
    out["channel_busy_us"] = float(channel.busy_time())
    out["channel_elapsed_us"] = float(sim.now)
    if injector is not None:
        out["faults_injected"] = float(injector.faults_injected)
        out["faults_cleared"] = float(injector.faults_cleared)
        out["fault_bytes_corrupted"] = float(injector.bytes_corrupted)
        out["fault_bytes_dropped"] = float(injector.bytes_dropped)
        out["fault_garbage_bytes"] = float(injector.garbage_bytes)
        out["channel_frames_faded"] = float(channel.frames_faded)
    if recorder is not None:
        for key, value in recorder.finalize_metrics().items():
            out[f"obs_{key}"] = float(value)
    out["events_executed"] = float(sim.events_executed)
    return out


class LatencyRecorder:
    """Start/stop latency measurement keyed by an opaque token."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._starts: Dict[object, int] = {}
        self.samples_us: List[int] = []

    def start(self, token: object) -> None:
        """Begin the measurement/operation."""
        self._starts[token] = self.sim.now

    def stop(self, token: object) -> Optional[int]:
        """Record and return the elapsed time; None for unknown tokens."""
        started = self._starts.pop(token, None)
        if started is None:
            return None
        elapsed = self.sim.now - started
        self.samples_us.append(elapsed)
        return elapsed

    @property
    def outstanding(self) -> int:
        """Number of started-but-unfinished items."""
        return len(self._starts)

    def summary_seconds(self) -> Summary:
        """Summary statistics of the samples, in seconds."""
        return summarize([value / SECOND for value in self.samples_us])


class ThroughputMeter:
    """Byte counter with a measurement window."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.bytes = 0
        self._window_start = sim.now
        self._window_bytes = 0

    def add(self, count: int) -> None:
        """Add one item."""
        self.bytes += count
        self._window_bytes += count

    def reset_window(self) -> None:
        """Restart the measurement window at the current time."""
        self._window_start = self.sim.now
        self._window_bytes = 0

    def bytes_per_second(self) -> float:
        """Throughput over the current window, bytes/second."""
        elapsed = self.sim.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._window_bytes * SECOND / elapsed

    def bits_per_second(self) -> float:
        """Throughput over the current window, bits/second."""
        return 8 * self.bytes_per_second()
