"""Measurement primitives: counters, latency recorders, time series.

All experiment outputs in :mod:`repro.bench` are produced from these.
They are deliberately simple containers over numpy so that an experiment
can record hundreds of thousands of samples cheaply and summarize at
the end (percentiles, means, windowed throughput).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A last-value-wins instrument (e.g. current WAL bytes on disk)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value


@dataclass
class ThroughputMeter:
    """Records (time, bytes) completion events; reports Mbps.

    The paper reports client-payload megabits per second, so
    :meth:`mbps` converts completed payload bytes over a time window.
    """

    name: str = "throughput"
    times: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)

    def record(self, time: float, nbytes: int) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("throughput samples must be time-ordered")
        self.times.append(time)
        self.sizes.append(nbytes)

    @property
    def total_bytes(self) -> int:
        return int(sum(self.sizes))

    @property
    def count(self) -> int:
        return len(self.times)

    def mbps(self, start: float, end: float) -> float:
        """Average goodput in megabits/s over [start, end]."""
        if end <= start:
            return 0.0
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        nbytes = sum(self.sizes[lo:hi])
        return nbytes * 8 / 1e6 / (end - start)

    def timeseries(self, start: float, end: float, step: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Per-window Mbps samples — the Fig. 8 failover timelines.

        Returns (window_end_times, mbps_per_window).
        """
        if step <= 0:
            raise ValueError("step must be positive")
        edges = np.arange(start, end + step / 2, step)
        if len(edges) < 2:
            return np.array([]), np.array([])
        times = np.asarray(self.times)
        sizes = np.asarray(self.sizes, dtype=np.float64)
        idx = np.searchsorted(times, edges)
        out = np.zeros(len(edges) - 1)
        for i in range(len(edges) - 1):
            out[i] = sizes[idx[i]: idx[i + 1]].sum() * 8 / 1e6 / step
        return edges[1:], out


class Histogram:
    """A value-distribution instrument (e.g. commands per batch).

    Accepts arbitrary non-negative magnitudes and summarizes in the
    recorded unit.
    """

    #: summary() reports the samples times ``scale``, under keys
    #: suffixed with ``unit``; ``with_min`` adds the minimum.
    scale = 1.0
    unit = ""
    with_min = False

    def __init__(self, name: str = "histogram"):
        self.name = name
        self._samples: list[float] = []

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative sample for {self.name!r}")
        self._samples.append(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> np.ndarray:
        return np.asarray(self._samples, dtype=np.float64)

    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        return float(np.mean(self.samples))

    def percentile(self, q: float) -> float:
        if not self._samples:
            return float("nan")
        return float(np.percentile(self.samples, q))

    def summary(self) -> dict[str, float]:
        if not self._samples:
            return {"count": 0}
        s = self.samples * self.scale
        u = self.unit
        out = {
            "count": len(s),
            "mean" + u: float(np.mean(s)),
            "p50" + u: float(np.percentile(s, 50)),
            "p99" + u: float(np.percentile(s, 99)),
            "p999" + u: float(np.percentile(s, 99.9)),
        }
        if self.with_min:
            out["min" + u] = float(np.min(s))
        out["max" + u] = float(np.max(s))
        return out


class LatencyRecorder(Histogram):
    """Latency samples in seconds, summarized in **milliseconds** (the
    paper's unit). p999 is the SLO-gate quantile: a tenant's tail as its
    own clients experience it."""

    scale = 1e3
    unit = "_ms"
    with_min = True

    def __init__(self, name: str = "latency"):
        super().__init__(name)


class MetricSet:
    """A named bag of metrics shared by one experiment run."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.latencies: dict[str, LatencyRecorder] = {}
        self.throughputs: dict[str, ThroughputMeter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def latency(self, name: str) -> LatencyRecorder:
        r = self.latencies.get(name)
        if r is None:
            r = self.latencies[name] = LatencyRecorder(name)
        return r

    def throughput(self, name: str) -> ThroughputMeter:
        t = self.throughputs.get(name)
        if t is None:
            t = self.throughputs[name] = ThroughputMeter(name)
        return t

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h
