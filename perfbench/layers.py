"""Per-layer measurement from outside the program.

Two sources, both read by the benchmark rather than built into the
store:

- the public counters of ``repro.sim``, ``repro.net``, ``repro.rpc``,
  ``repro.storage`` and the shared ``repro.sim.MetricSet``, snapshotted
  before and after each measured phase (:func:`counters`);
- a ``cProfile`` profile of the measured phase, whose self time is
  charged to the ``repro`` package that owns each function. Builtins,
  standard-library and generated code (``heapq``, ``repr``,
  ``zlib.crc32``, dataclass ``__lt__``) are charged to the package that
  called them, following the profile's caller edges
  (:func:`self_time_by_layer`).

Spans inside the program are a separate, later change.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import re

from repro.rpc.endpoint import Reply

from clock import Clock

#: The layers, named after the ``repro`` packages that implement them.
LAYERS = ("sim", "net", "rpc", "core", "kvstore", "storage", "erasure",
          "workload")

UNATTRIBUTED = "unattributed"

_PKG = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")
HERE = os.path.dirname(os.path.abspath(__file__))


def _metric(metrics, kind: str, name: str):
    """A MetricSet instrument if it exists (never creates one)."""
    return getattr(metrics, kind).get(name)


def _busy_time(resource) -> float:
    """Integral of a FifoResource's service time granted so far."""
    return resource._busy_time


def counters(cluster, leader: str) -> dict[str, float]:
    """Snapshot of every counter the metrics are computed from.

    ``leader`` names the server whose egress NIC and received bytes are
    reported apart from the followers'.
    """
    sim, net, m = cluster.sim, cluster.net, cluster.metrics
    servers = cluster.servers
    endpoints = [s.endpoint for s in servers] + [
        c.endpoint for c in cluster.clients
    ]
    batches = _metric(m, "histograms", "batch.commands")
    snap = {
        "sim.events": sim.events_processed,
        # Every call_at takes one sequence number.
        "sim.scheduled": sim._seq,
        "net.sent": net.messages_sent,
        "net.delivered": net.messages_delivered,
        "net.dropped": net.messages_dropped,
        "net.bytes": net.total_bytes_sent(),
        "net.follower_rx": sum(
            net.hosts[s.name].bytes_received for s in servers
            if s.name != leader
        ),
        "net.leader_egress_busy": _busy_time(net.hosts[leader].egress),
        "rpc.requests": sum(e.requests_sent for e in endpoints),
        "rpc.timeouts": sum(e.requests_timed_out for e in endpoints),
        "kvstore.shed": sum(s.requests_shed for s in servers),
        "kvstore.batches": len(batches) if batches else 0,
        "kvstore.batched": float(batches.samples.sum()) if batches else 0.0,
        "storage.flushes": sum(s.disk.flushes for s in servers),
        "storage.disk_bytes": sum(s.disk.bytes_written for s in servers),
        "storage.wal_bytes": sum(s.wal.bytes_appended for s in servers),
    }
    for key, name in (("core.elections", "election.started"),
                      ("core.won", "election.won"),
                      ("core.pre_vote_failed", "election.pre_vote_failed"),
                      ("erasure.encodes", "rs.encode_calls")):
        c = _metric(m, "counters", name)
        snap[key] = c.value if c else 0
    for s in servers:
        snap[f"storage.busy.{s.name}"] = _busy_time(s.disk._queue)
    return snap


def delta(before: dict, after: dict) -> dict[str, float]:
    return {k: after[k] - before[k] for k in after}


class ReplyCounter:
    """Counts RPC requests answered: replies that reach a request still
    waiting for one (not a duplicate, not after its final timeout).

    Installed on the endpoints of a traced round by shadowing each
    endpoint's ``_dispatch`` with a counting wrapper.
    """

    def __init__(self) -> None:
        self.answered = 0

    def install(self, cluster) -> None:
        for ep in [s.endpoint for s in cluster.servers] + [
            c.endpoint for c in cluster.clients
        ]:
            ep._dispatch = self._wrap(ep, ep._dispatch)

    def _wrap(self, ep, dispatch):
        def counting(payload, src):
            if isinstance(payload, Reply):
                pending = ep._pending.get(payload.req_id)
                if pending is not None and not pending.done:
                    self.answered += 1
            dispatch(payload, src)

        return counting


class Tracer:
    """What a traced run adds: a profile of every measured phase and
    the RPC reply counter."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.replies = ReplyCounter()

    def clock(self) -> Clock:
        return Clock(self.profile)

    def on_round(self, rnd) -> None:
        self.replies.install(rnd.cluster)

    def stats(self) -> pstats.Stats:
        return pstats.Stats(self.profile)


def package_of(func: tuple) -> str | None:
    """The ``repro`` package that defines a profiled function,
    :data:`UNATTRIBUTED` for the benchmark's own code, or None for
    builtins, the standard library, numpy and generated code."""
    path = func[0]
    if path.endswith(".py") and os.path.dirname(os.path.abspath(path)) == HERE:
        return UNATTRIBUTED
    m = _PKG.search(func[0])
    return m.group(1) if m else None


def self_time_by_layer(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per package, with foreign code charged to callers.

    A foreign function's self time is split over its callers by the
    self time the profile records on each caller edge; a foreign caller
    is resolved in turn, weighted by cumulative time on its own caller
    edges. Time that reaches no ``repro`` package — the benchmark's own
    code and the profiler — is :data:`UNATTRIBUTED`.
    """
    table = stats.stats
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func, seen: frozenset) -> dict[str, float]:
        pkg = package_of(func)
        if pkg is not None:
            return {pkg: 1.0}
        if func in memo:
            return memo[func]
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        total = sum(edge[3] for edge in callers.values())
        if not callers or total <= 0 or func in seen:
            return {UNATTRIBUTED: 1.0}
        out: dict[str, float] = {}
        for caller, edge in callers.items():
            for p, share in owners(caller, seen | {func}).items():
                out[p] = out.get(p, 0.0) + share * edge[3] / total
        memo[func] = out
        return out

    layers: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        if package_of(func) is not None:
            parts = {package_of(func): tt}
        elif callers:
            parts = {}
            for caller, edge in callers.items():
                for p, share in owners(caller, frozenset({func})).items():
                    parts[p] = parts.get(p, 0.0) + share * edge[2]
        else:
            parts = {UNATTRIBUTED: tt}
        for p, sec in parts.items():
            layers[p] = layers.get(p, 0.0) + sec
    return layers


def call_count(stats: pstats.Stats, path_suffix: str, name: str) -> int:
    """How many times the profiled phase called one function."""
    return sum(
        v[1] for f, v in stats.stats.items()
        if f[2] == name and f[0].replace("\\", "/").endswith(path_suffix)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run, tracer: Tracer, untraced_s: float) -> dict:
    """The per-layer metrics of a traced run; ``untraced_s`` is the
    untraced run's measured time for the same work."""
    d = run.delta()
    ops, writes = run.completed, run.writes
    window = sum(r.end - r.start for r in run.rounds)
    stats = tracer.stats()
    # Profiled seconds are raw wall seconds of the measured phases.
    scale = sum(run.measure_s) / sum(
        v for k, v in run.clock.raw.items() if k[0] == "measure")
    self_s = {k: v * scale for k, v in self_time_by_layer(stats).items()}
    offered = call_count(stats, "kvstore/server.py", "_admit")
    disk_busy = max(v for k, v in d.items() if k.startswith("storage.busy."))
    out = {
        "sim.events_per_op": _ratio(d["sim.events"], ops),
        "sim.useful_frac": _ratio(d["sim.events"], d["sim.scheduled"]),
        "net.messages_per_op": _ratio(d["net.sent"], ops),
        "net.delivered_frac": _ratio(d["net.delivered"], d["net.sent"]),
        "net.dropped_frac": _ratio(d["net.dropped"], d["net.sent"]),
        "net.leader_egress_util": _ratio(d["net.leader_egress_busy"], window),
        "rpc.requests_per_op": _ratio(d["rpc.requests"], ops),
        "rpc.answered_frac": _ratio(tracer.replies.answered,
                                    d["rpc.requests"]),
        "rpc.timeouts_per_kop": _ratio(1000 * d["rpc.timeouts"], ops),
        "core.elections_started": d["core.elections"],
        "core.election_win_frac": _ratio(d["core.won"], d["core.elections"]),
        "core.pre_vote_failed": d["core.pre_vote_failed"],
        "kvstore.batch_cmds_mean": (
            _ratio(d["kvstore.batched"], d["kvstore.batches"])
            if d["kvstore.batches"] else 1.0
        ),
        "kvstore.admitted_frac": _ratio(offered - d["kvstore.shed"], offered),
        "kvstore.shed_frac": _ratio(d["kvstore.shed"], offered),
        "storage.flushes_per_write": _ratio(d["storage.flushes"], writes),
        "storage.wal_bytes_per_write": _ratio(d["storage.wal_bytes"], writes),
        "storage.disk_util_max": _ratio(disk_busy, window),
        "erasure.encode_calls_per_write": _ratio(d["erasure.encodes"], writes),
        "trace.overhead_ratio": _ratio(sum(run.measure_s), untraced_s),
        "trace.unattributed_us_per_op": _ratio(
            1e6 * self_s.get(UNATTRIBUTED, 0.0), ops),
    }
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = _ratio(
            1e6 * self_s.get(layer, 0.0), ops)
    return out


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_us_per_op"):
        return "us"
    if name.endswith(("_frac", "_ratio")) or "_util" in name:
        return "ratio"
    if name.endswith("bytes_per_write"):
        return "B"
    return "count"
