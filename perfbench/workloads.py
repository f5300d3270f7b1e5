"""The four benchmark workloads and the code that runs one of them.

Every workload shares one deployment: RS-Paxos(5, 1), i.e. θ(3, 5) with
read/write quorums of 4, two Paxos groups, the LAN link preset (0.1 ms
± 0.05 ms one-way at 1 Gb/s) and SSD disks (4000 IOPS). A run is one
process and one thread.

A workload runs in *rounds*. Each round builds a fresh cluster (timed as
set-up), drives clients for a fixed amount of simulated work (timed as
the measured phase), drains the clients, and then checks the round's
outputs (untimed). The simulated work of a run is a pure function of
``(seed, seconds)``; ``seconds`` scales it through each workload's
calibrated rate of simulated work per wall-clock second, so a run
measures about ``seconds`` wall seconds on a 2-core x86 host running
Python 3.11 and every simulated metric repeats exactly for a given
seed.
"""

from __future__ import annotations

import gc
import hashlib
import resource
from dataclasses import dataclass, field

import numpy as np

from repro.check import HistoryRecorder
from repro.core import rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.messages import GetOk, NotFound
from repro.net import LAN
from repro.storage import SSD
from repro.workload import (
    ClosedLoopDriver,
    OpenLoopDriver,
    PoissonArrivals,
    small_write,
    ycsb_a,
)

from checks import check_round
from clock import Clock
from layers import counters, delta

#: Set-up is timed this many times per run (extra throwaway set-ups
#: top up workloads with fewer rounds), and ``setup_s`` is the median.
SETUP_REPS = 9

#: Simulated seconds between the end of the issue window and giving up
#: on ops still in flight (those count as failed).
DRAIN_LIMIT_S = 30.0

CONFIG = rs_paxos(5, 1)
NUM_GROUPS = 2


class OpLog:
    """Benchmark-owned ``KVClient.history`` hook.

    Counts, times and classifies every client op of the measured phase,
    and checks every concrete-bytes read byte for byte against the last
    acknowledged put of its key (the read-back check). When ``inner`` is
    a :class:`~repro.check.HistoryRecorder` it also forwards each op to
    it, for the linearizability check.

    An op *completes* when a put is acknowledged or a get observes the
    register (``GetOk`` or ``NotFound``); anything else — retries
    exhausted — is a failure, and ops still open at the end are pending.
    """

    def __init__(self, clients, inner: HistoryRecorder | None = None):
        self.clients = {c.name: c for c in clients}
        self.inner = inner
        self.open: dict[int, tuple] = {}
        self.latencies: dict[str, list[float]] = {"put": [], "get": []}
        self.completed = 0
        self.failed = 0
        self.last_t = 0.0
        self.write_commits: list[tuple[float, str]] = []
        self.acked: dict[str, bytes] = {}
        self.readback_checked = 0
        self.readback_errors: list[str] = []
        self._next = 0

    # -- KVClient hook protocol -----------------------------------------

    def invoke(self, client: str, op: str, msg, t: float) -> int:
        hid = self._next
        self._next += 1
        inner = self.inner.invoke(client, op, msg, t) if self.inner else None
        self.open[hid] = (client, op, msg, t, inner)
        return hid

    def complete(self, hid: int, ok: bool, reply, t: float) -> None:
        client, op, msg, t0, inner = self.open.pop(hid)
        self.last_t = t
        if self.inner is not None:
            self.inner.complete(inner, ok, reply, t)
        if op == "get":
            ok = isinstance(reply, (GetOk, NotFound))
            if isinstance(reply, GetOk) and msg.key in self.acked:
                self.check_read(msg.key, reply.data)
        elif ok and op == "put":
            # The client caches the server that acknowledged the put.
            self.write_commits.append((t, self.clients[client].leader_cache))
            if msg.data is not None:
                self.acked[msg.key] = msg.data
        if not ok:
            self.failed += 1
            return
        self.completed += 1
        self.latencies.setdefault(op, []).append(t - t0)

    # -- read-back --------------------------------------------------------

    def check_read(self, key: str, data: bytes | None) -> None:
        """Compare one read's bytes with the last acknowledged put."""
        self.readback_checked += 1
        want = self.acked[key]
        if data != want:
            got = "no bytes" if data is None else f"{len(data)} B"
            self.readback_errors.append(
                f"get {key!r} returned {got} differing from the last "
                f"acknowledged put ({len(want)} B)"
            )


@dataclass
class Round:
    """One set-up + measured phase on a fresh cluster."""

    cluster: object
    log: OpLog
    leader: str
    history: HistoryRecorder | None = None
    drivers: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    crash_t: float | None = None
    crashed: str | None = None
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    extra_digest: str = ""
    op_digests: list[str] = field(default_factory=list)
    dropped: int = 0
    store_digest: str = ""
    problems: list[str] = field(default_factory=list)

    def delta(self) -> dict[str, float]:
        """Counter changes over the measured phase."""
        return delta(self.before, self.after)

    def finish(self) -> None:
        """Keep what the metrics need and drop the cluster, whose WAL
        holds every share the round wrote."""
        self.store_digest = store_digest(self.cluster)
        self.op_digests = [d.op_digest for d in self.drivers]
        self.dropped = sum(getattr(d, "ops_dropped", 0) for d in self.drivers)
        self.cluster = None
        self.drivers = []
        self.log.clients = {}


class Workload:
    """Base class: subclasses build the cluster and start the clients."""

    name = ""
    num_clients = 1
    batch_max_commands = 1
    linearizable = False
    concrete = False
    #: The fixed simulated latency limit behind ``slo_met_frac``.
    slo_s = 0.010

    def rounds(self, seconds: float) -> int:
        return 1

    def sim_seconds(self, seconds: float) -> float:
        raise NotImplementedError

    def build(self, seed: int):
        return build_cluster(
            CONFIG, num_clients=self.num_clients, num_groups=NUM_GROUPS,
            link=LAN, disk=SSD, seed=seed,
            batch_max_commands=self.batch_max_commands,
        )

    def prepopulate(self, cluster) -> None:
        """Write the keys the measured phase reads (default: none)."""

    def start_clients(self, rnd: Round, seconds: float) -> None:
        raise NotImplementedError

    def done(self, rnd: Round) -> bool:
        """True once every op the clients issued has an answer."""
        return not rnd.log.open


def _await_service(cluster, limit: float = 10.0) -> None:
    """Run until a leader exists and answers a read (NotFound counts)."""
    deadline = cluster.sim.now + limit

    def run_until(cond) -> None:
        while not cond():
            if cluster.sim.now >= deadline:
                raise RuntimeError(f"no leader served within {limit} s")
            cluster.run(until=cluster.sim.now + 0.005)

    run_until(lambda: cluster.leader() is not None)
    served = []
    cluster.clients[0].get("perfbench/probe",
                           on_done=lambda ok, size: served.append(ok))
    run_until(lambda: served)


def _prepopulate_spec(cluster, spec, window: int = 8) -> None:
    """Write keys [0, spec.prepopulate) from every client, ``window``
    puts in flight per client; raises if any put fails."""
    rng = cluster.sim.rng.stream("workload.prepopulate")
    state = {"next": 0, "ok": 0, "failed": 0}

    def issue(client) -> None:
        if state["next"] >= spec.prepopulate:
            return
        idx = state["next"]
        state["next"] += 1

        def done(ok: bool) -> None:
            state["ok" if ok else "failed"] += 1
            issue(client)

        client.put(spec.key_name(idx), spec.sizes.sample(rng), on_done=done)

    for client in cluster.clients:
        for _ in range(window):
            issue(client)
    while state["ok"] + state["failed"] < spec.prepopulate:
        cluster.run(until=cluster.sim.now + 0.005)
    if state["failed"]:
        raise RuntimeError(f"{state['failed']} prepopulation puts failed")


def _open_loop(rnd: Round, spec, rate: float, stop: float) -> None:
    """One Poisson open-loop driver per client. The outstanding budget
    is far above what any workload here reaches, so no arrival is
    dropped: ops due while the store cannot serve wait and count."""
    for i, client in enumerate(rnd.cluster.clients):
        d = OpenLoopDriver(rnd.cluster.sim, client, spec,
                           PoissonArrivals(rate), max_outstanding=1 << 16,
                           stream=f"d{i}", stop_at=stop)
        rnd.drivers.append(d)
        d.start()


class WriteSmallClosed(Workload):
    """The reference run, lengthened: 4 closed-loop clients running
    ``small_write(num_keys=10)`` (90% writes of 1-100 KB modeled
    values), unbatched."""

    name = "write-small-closed"
    num_clients = 4
    spec = small_write(num_keys=10)

    def sim_seconds(self, seconds: float) -> float:
        return max(0.5, 0.7 * seconds)

    def prepopulate(self, cluster) -> None:
        _prepopulate_spec(cluster, self.spec)

    def start_clients(self, rnd: Round, seconds: float) -> None:
        stop = rnd.start + self.sim_seconds(seconds)
        for i, client in enumerate(rnd.cluster.clients):
            d = ClosedLoopDriver(rnd.cluster.sim, client, self.spec,
                                 stream=f"d{i}", stop_at=stop)
            rnd.drivers.append(d)
            d.start()


class MixedBatchedOpen(Workload):
    """YCSB-A (50% lease reads, 50% updates of 1 KB records, Zipfian
    over 200 keys) from 2 open-loop Poisson clients at 2000 ops/s each,
    with leader batching of up to 32 commands."""

    name = "mixed-batched-open"
    num_clients = 2
    batch_max_commands = 32
    rate_per_client = 2000.0
    spec = ycsb_a(num_keys=200)

    def sim_seconds(self, seconds: float) -> float:
        return max(0.5, 0.55 * seconds)

    def prepopulate(self, cluster) -> None:
        _prepopulate_spec(cluster, self.spec)

    def start_clients(self, rnd: Round, seconds: float) -> None:
        _open_loop(rnd, self.spec, self.rate_per_client,
                   rnd.start + self.sim_seconds(seconds))


class BytesRwConcrete(Workload):
    """One closed-loop client alternating a put of a random 1 MiB value
    (concrete bytes, so the RS codec and WAL checksums run) with a get
    of the same key. Rounds of ``pairs`` pairs on fresh clusters keep
    memory bounded: the WAL never compacts and holds every share."""

    name = "bytes-rw-concrete"
    num_clients = 1
    concrete = True
    # Moving 1 MiB through a 1 Gb/s NIC takes 8.4 ms before any share
    # leaves the leader, so these ops get a wider limit than 10 ms.
    slo_s = 0.050
    size = 1 << 20
    keys = 4
    pairs = 40

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / 2))

    def sim_seconds(self, seconds: float) -> float:
        return 0.0  # no issue window: the pair count bounds the work

    def start_clients(self, rnd: Round, seconds: float) -> None:
        sim = rnd.cluster.sim
        client = rnd.cluster.clients[0]
        rng = sim.rng.stream("perfbench.bytes")
        digest = hashlib.blake2b(digest_size=16)
        state = {"pairs": 0}

        def put_next() -> None:
            if state["pairs"] >= self.pairs:
                rnd.extra_digest = digest.hexdigest()
                return
            key = f"obj{state['pairs'] % self.keys}"
            data = rng.bytes(self.size)
            digest.update(f"{key}:{len(data)};".encode())

            def after_put(ok: bool) -> None:
                if ok:
                    client.get(key, on_done=after_get)

            def after_get(ok: bool, size: int) -> None:
                state["pairs"] += 1
                put_next()

            client.put(key, len(data), data=data, on_done=after_put)

        put_next()

    def done(self, rnd: Round) -> bool:
        return not rnd.log.open and (
            bool(rnd.extra_digest) or rnd.log.failed > 0
        )


class LeaderCrashOpen(Workload):
    """Open-loop ``small_write`` traffic (90% writes) at 1000 ops/s from
    2 Poisson clients over 1000 initially absent keys; the leader host
    is killed 1 simulated second into each 7.5 s round and stays down."""

    name = "leader-crash-open"
    num_clients = 2
    rate_per_client = 500.0
    crash_after = 1.0
    linearizable = True
    spec = small_write(num_keys=1000)

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / 8))

    def sim_seconds(self, seconds: float) -> float:
        # Fixed, so that every round has the same share of ops caught
        # by the ~4 s outage (about 70%): at a share near half, the
        # latency medians would flip between ~1 ms and ~2 s by seed.
        return 7.5

    def start_clients(self, rnd: Round, seconds: float) -> None:
        _open_loop(rnd, self.spec, self.rate_per_client,
                   rnd.start + self.sim_seconds(seconds))
        cluster = rnd.cluster
        idx = [s.name for s in cluster.servers].index(rnd.leader)
        rnd.crash_t = rnd.start + self.crash_after
        rnd.crashed = rnd.leader
        cluster.sim.call_at(rnd.crash_t, lambda: cluster.crash_server(idx))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (WriteSmallClosed(), MixedBatchedOpen(), BytesRwConcrete(),
              LeaderCrashOpen())
}


def setup(workload: Workload, seed: int) -> Round:
    """Build, start and settle a cluster and write the keys the
    workload reads; returns a round ready to measure."""
    cluster = workload.build(seed)
    cluster.start()
    _await_service(cluster)
    workload.prepopulate(cluster)
    history = HistoryRecorder() if workload.linearizable else None
    log = OpLog(cluster.clients, inner=history)
    for c in cluster.clients:
        c.history = log
    return Round(cluster=cluster, log=log, leader=cluster.leader().name,
                 history=history)


#: Simulated seconds per timed stretch of the measured phase.
STEP_S = 0.01


def drive(workload: Workload, rnd: Round, seconds: float, clock: Clock,
          bucket) -> None:
    """The measured phase: start the clients, run the issue window, then
    drain what is still in flight. Timed (and, in a traced run,
    profiled) into ``bucket`` of ``clock``."""
    cluster = rnd.cluster
    sim = cluster.sim
    rnd.start = sim.now
    rnd.before = counters(cluster, rnd.leader)
    clock.timed(bucket, workload.start_clients, rnd, seconds, profiled=True)
    stop = rnd.start + workload.sim_seconds(seconds)
    limit = stop + DRAIN_LIMIT_S
    while sim.now < limit and (sim.now < stop or not workload.done(rnd)):
        until = sim.now + STEP_S
        clock.timed(bucket, cluster.run, min(until, stop) if sim.now < stop
                    else until, profiled=True)
    rnd.end = sim.now
    rnd.after = counters(cluster, rnd.leader)


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


@dataclass
class Run:
    """What a run measured, before it becomes metrics. Times are in
    reference seconds (see :mod:`clock`)."""

    workload: Workload
    rounds: list[Round]
    setup_s: list[float]
    measure_s: list[float]
    peak_rss_mb: float
    clock: Clock

    @property
    def problems(self) -> list[str]:
        return [p for r in self.rounds for p in r.problems]

    @property
    def completed(self) -> int:
        return sum(r.log.completed for r in self.rounds)

    @property
    def writes(self) -> int:
        """Puts acknowledged in the measured phases."""
        return sum(len(r.log.write_commits) for r in self.rounds)

    def delta(self) -> dict[str, float]:
        """Counter changes summed over every measured phase."""
        out: dict[str, float] = {}
        for r in self.rounds:
            for k, v in r.delta().items():
                out[k] = out.get(k, 0) + v
        return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload: Workload, seed: int, seconds: float,
                 clock: Clock | None = None, on_round=None) -> Run:
    """Set up, measure and check every round of ``workload``.

    Every set-up is timed between calibration passes of its own, since
    it lasts only milliseconds. ``on_round(rnd)`` (optional) runs after
    each set-up, before the measured phase. Every timed phase starts
    from a collected heap, so garbage from earlier rounds is not
    collected on its clock. The peak RSS is read after each measured
    phase, before the checks, which are not part of the store. Checks
    run outside every timing.
    """
    clock = clock or Clock()
    n = workload.rounds(seconds)
    reps = max(0, SETUP_REPS - n)
    rounds, peak = [], 0.0
    box: list[Round] = []
    for i in range(reps + n):
        r = max(0, i - reps)
        gc.collect()
        clock.calibrate(passes=3)
        clock.timed(("setup", i),
                    lambda: box.append(setup(workload, round_seed(seed, r))))
        clock.calibrate(passes=3)
        rnd = box.pop()
        if i < reps:
            continue
        if on_round is not None:
            on_round(rnd)
        gc.collect()
        drive(workload, rnd, seconds, clock, ("measure", r))
        peak = max(peak, _peak_rss_mb())
        rnd.problems = check_round(workload, rnd, CONFIG)
        rnd.finish()
        rounds.append(rnd)
    clock.close()
    return Run(
        workload, rounds,
        [clock.seconds[("setup", i)] for i in range(reps + n)],
        [clock.seconds[("measure", r)] for r in range(n)],
        peak, clock,
    )


def store_digest(cluster) -> str:
    """Digest of every server's final store contents."""
    h = hashlib.blake2b(digest_size=16)
    for srv in cluster.servers:
        h.update(srv.name.encode())
        for key in srv.store.keys():
            e = srv.store.get_entry(key)
            h.update(f"{key}|{e.size}|{e.complete}|{e.version}|"
                     f"{e.tombstone}|{e.group}|".encode())
            data = getattr(e.value, "data", e.value)
            if isinstance(data, (bytes, bytearray, np.ndarray)):
                h.update(bytes(data))
    return h.hexdigest()
