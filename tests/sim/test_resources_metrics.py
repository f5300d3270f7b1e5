"""Unit tests for FifoResource, metrics, RNG registry and tracer."""

import numpy as np
import pytest

from repro.sim import (
    Counter,
    FifoResource,
    LatencyRecorder,
    MetricSet,
    RngRegistry,
    Simulator,
    ThroughputMeter,
    Tracer,
)


class TestFifoResource:
    def test_serializes_jobs(self):
        sim = Simulator()
        res = FifoResource(sim)
        done = []
        sim.call_at(0.0, lambda: res.submit(2.0, lambda: done.append(sim.now)))
        sim.call_at(0.0, lambda: res.submit(3.0, lambda: done.append(sim.now)))
        sim.run()
        assert done == [2.0, 5.0]

    def test_idle_then_busy(self):
        sim = Simulator()
        res = FifoResource(sim)
        done = []
        sim.call_at(0.0, lambda: res.submit(1.0, lambda: done.append(sim.now)))
        # Second job submitted after first completes -> no queueing.
        sim.call_at(5.0, lambda: res.submit(1.0, lambda: done.append(sim.now)))
        sim.run()
        assert done == [1.0, 6.0]

    def test_completion_time_returned(self):
        sim = Simulator()
        res = FifoResource(sim)
        times = []
        sim.call_at(0.0, lambda: times.append(res.submit(2.0, lambda: None)))
        sim.call_at(0.0, lambda: times.append(res.submit(2.0, lambda: None)))
        sim.run()
        assert times == [2.0, 4.0]

    def test_zero_time_jobs_keep_fifo_order(self):
        sim = Simulator()
        res = FifoResource(sim)
        order = []
        sim.call_at(0.0, lambda: res.submit(0.0, lambda: order.append("a")))
        sim.call_at(0.0, lambda: res.submit(0.0, lambda: order.append("b")))
        sim.run()
        assert order == ["a", "b"]

    def test_negative_service_time_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FifoResource(sim).submit(-1.0, lambda: None)

    def test_reserve_matches_submit(self):
        # The same job sequence, booked with reserve on one resource and
        # submitted on another, yields the same completion times and the
        # same busy-time integral.
        jobs = [(0.0, 2.0), (0.0, 3.0), (1.0, 0.0), (9.0, 1.5), (9.5, 0.25)]
        sim = Simulator()
        booked, queued = FifoResource(sim), FifoResource(sim)
        reserved, submitted, fired = [], [], []
        for at, service in jobs:
            sim.call_at(at, lambda s=service: reserved.append(booked.reserve(s)))
            sim.call_at(at, lambda s=service: submitted.append(
                queued.submit(s, lambda: fired.append(sim.now))))
        sim.run()
        assert reserved == submitted == fired == [2.0, 5.0, 5.0, 10.5, 10.75]
        assert booked._busy_time == queued._busy_time == 6.75
        assert booked.jobs_served == queued.jobs_served == len(jobs)

    def test_reserve_schedules_nothing(self):
        sim = Simulator()
        res = FifoResource(sim)
        assert res.reserve(1.0) == 1.0
        assert sim._seq == 0
        assert res.backlog == 1.0

    def test_reserve_rejects_negative_service_time(self):
        with pytest.raises(ValueError):
            FifoResource(Simulator()).reserve(-1.0)

    def test_backlog_and_utilization(self):
        sim = Simulator()
        res = FifoResource(sim)
        sim.call_at(0.0, lambda: res.submit(4.0, lambda: None))
        sim.run(until=2.0)
        assert res.backlog == pytest.approx(2.0)
        sim.run(until=8.0)
        assert res.backlog == 0.0
        assert res.utilization() == pytest.approx(0.5)
        assert res.jobs_served == 1


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestLatencyRecorder:
    def test_summary(self):
        r = LatencyRecorder()
        for v in (0.010, 0.020, 0.030):
            r.record(v)
        s = r.summary()
        assert s["count"] == 3
        assert s["mean_ms"] == pytest.approx(20.0)
        assert s["p50_ms"] == pytest.approx(20.0)
        assert s["min_ms"] == pytest.approx(10.0)
        assert s["max_ms"] == pytest.approx(30.0)

    def test_empty_summary(self):
        assert LatencyRecorder().summary() == {"count": 0}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.1)

    def test_percentile_and_mean(self):
        r = LatencyRecorder()
        for v in range(1, 101):
            r.record(v / 1000)
        assert r.mean() == pytest.approx(0.0505)
        assert r.percentile(50) == pytest.approx(0.0505, rel=0.02)

    def test_empty_percentile_is_nan(self):
        r = LatencyRecorder()
        assert r.mean() != r.mean()          # NaN
        assert r.percentile(99) != r.percentile(99)

    def test_single_sample_all_quantiles_collapse(self):
        r = LatencyRecorder()
        r.record(0.042)
        s = r.summary()
        assert s["count"] == 1
        for k in ("mean_ms", "p50_ms", "p99_ms", "p999_ms",
                  "min_ms", "max_ms"):
            assert s[k] == pytest.approx(42.0)

    def test_quantiles_are_ordered(self):
        import numpy as np

        r = LatencyRecorder()
        rng = np.random.default_rng(0)
        for v in rng.exponential(0.01, size=2000):
            r.record(float(v))
        s = r.summary()
        assert s["min_ms"] <= s["p50_ms"] <= s["p99_ms"] \
            <= s["p999_ms"] <= s["max_ms"]

    def test_summary_includes_p999(self):
        r = LatencyRecorder()
        for v in range(1, 2001):
            r.record(v / 1000)
        s = r.summary()
        # p999 sits between p99 and max, near the top of the range.
        assert s["p99_ms"] < s["p999_ms"] < s["max_ms"]
        assert s["p999_ms"] == pytest.approx(1998.0, rel=0.01)


class TestHistogram:
    def make(self):
        from repro.sim.metrics import Histogram

        return Histogram("h")

    def test_empty_summary(self):
        assert self.make().summary() == {"count": 0}

    def test_single_sample_collapses(self):
        h = self.make()
        h.record(7.0)
        s = h.summary()
        assert s["count"] == 1
        for k in ("mean", "p50", "p99", "p999", "max"):
            assert s[k] == pytest.approx(7.0)

    def test_quantiles_ordered_and_in_native_unit(self):
        h = self.make()
        for v in range(1000):
            h.record(float(v))
        s = h.summary()
        assert s["p50"] <= s["p99"] <= s["p999"] <= s["max"]
        assert s["max"] == 999.0  # not milliseconds

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self.make().record(-1.0)


class TestThroughputMeter:
    def test_mbps(self):
        t = ThroughputMeter()
        # 10 MB over 8 seconds = 10 Mbps... 10e6*8/8/1e6 = 10.
        for i in range(8):
            t.record(float(i + 1), 1_250_000)
        assert t.mbps(0.0, 8.0) == pytest.approx(10.0)
        assert t.total_bytes == 10_000_000
        assert t.count == 8

    def test_window_selects_samples(self):
        t = ThroughputMeter()
        t.record(1.0, 1000)
        t.record(5.0, 1000)
        # Only the second sample falls in [4, 6].
        assert t.mbps(4.0, 6.0) == pytest.approx(1000 * 8 / 1e6 / 2)

    def test_out_of_order_rejected(self):
        t = ThroughputMeter()
        t.record(5.0, 1)
        with pytest.raises(ValueError):
            t.record(4.0, 1)

    def test_timeseries(self):
        t = ThroughputMeter()
        t.record(0.5, 125_000)  # 1 Mbit in window [0,1)
        t.record(1.5, 250_000)  # 2 Mbit in window [1,2)
        times, mbps = t.timeseries(0.0, 2.0, step=1.0)
        assert list(times) == [1.0, 2.0]
        assert mbps[0] == pytest.approx(1.0)
        assert mbps[1] == pytest.approx(2.0)

    def test_empty_timeseries(self):
        times, mbps = ThroughputMeter().timeseries(0.0, 0.0)
        assert len(times) == 0 and len(mbps) == 0


class TestMetricSet:
    def test_get_or_create(self):
        m = MetricSet()
        assert m.counter("a") is m.counter("a")
        assert m.latency("b") is m.latency("b")
        assert m.throughput("c") is m.throughput("c")


class TestRngRegistry:
    def test_deterministic_across_instances(self):
        a = RngRegistry(42).stream("link").random(5)
        b = RngRegistry(42).stream("link").random(5)
        assert np.array_equal(a, b)

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(7)
        r1.stream("a")
        x = r1.stream("b").random()
        r2 = RngRegistry(7)
        y = r2.stream("b").random()  # "a" never created
        assert x == y

    def test_different_names_differ(self):
        r = RngRegistry(1)
        assert r.stream("x").random() != r.stream("y").random()

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("s").random() != RngRegistry(2).stream("s").random()

    def test_choice_prob_extremes(self):
        r = RngRegistry(0)
        assert r.choice_prob("p", 0.0) is False
        assert r.choice_prob("p", 1.0) is True

    def test_uniform_range(self):
        r = RngRegistry(0)
        for _ in range(100):
            v = r.uniform("u", 2.0, 3.0)
            assert 2.0 <= v < 3.0


class TestTracer:
    def test_emit_and_filter(self):
        t = Tracer()
        t.emit(1.0, "net", "send a->b")
        t.emit(2.0, "disk", "flush")
        assert len(t) == 2
        assert len(t.filter("net")) == 1

    def test_disabled(self):
        t = Tracer(enabled=False)
        t.emit(1.0, "net", "x")
        assert len(t) == 0

    def test_category_filtering(self):
        t = Tracer(categories={"net"})
        t.emit(1.0, "net", "x")
        t.emit(1.0, "disk", "y")
        assert len(t) == 1

    def test_fingerprint_equality(self):
        t1, t2 = Tracer(), Tracer()
        for t in (t1, t2):
            t.emit(1.0, "a", "b")
        assert t1.fingerprint() == t2.fingerprint()

    def test_dump(self):
        t = Tracer()
        t.emit(1.0, "net", "hello")
        assert "hello" in t.dump()
        assert t.dump(categories=["disk"]) == ""
