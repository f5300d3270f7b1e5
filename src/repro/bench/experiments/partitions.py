"""Partition-recovery (MTTR) gate: messy links, bounded churn.

Not a paper figure — the liveness gate for partial-partition
tolerance. Two phases, both against the paper's headline RS-Paxos
setup (N=5, F=1) and classic Paxos at N=5:

1. **Deaf-follower hold**: sever the leader -> one-follower direction
   only (the follower stops hearing heartbeats; everyone else is
   fine). Without pre-vote that follower out-ballots the healthy
   leader on every vacancy timeout; with it the hold must produce
   **zero** elections, an unchanged leader, and committed writes
   throughout.

2. **MTTR seed ladder**: each seed draws a partition-only chaos
   schedule (symmetric / partial / asymmetric / flapping cuts, scoped
   heals) against a closed-loop write workload, then measures

   - *elections per heal*: real ballot-bump elections (bootstrap
     excluded) divided by heal events — churn must stay bounded
     (median <= 2);
   - *time to first committed write after the final heal* — recovery
     must be prompt (median <= 5 heartbeat intervals);

   while the single-lease probe samples the whole episode and the
   history must stay linearizable.

Any violated bound exits non-zero::

    python -m repro.bench partitions [--full]
"""

from __future__ import annotations

import statistics

from ...check import (
    HistoryRecorder, check_cluster, check_history, check_single_lease,
)
from ...chaos import ScheduleSpec, arm_schedule, generate_schedule
from ...core import classic_paxos, rs_paxos
from ...kvstore import build_cluster
from ...net import LAN

#: MTTR bound: first committed write within this many heartbeat
#: intervals of the final heal (median across the seed ladder).
TTFW_HEARTBEATS = 5.0
#: Churn bound: median elections per heal event across the ladder.
MAX_ELECTIONS_PER_HEAL = 2.0

HOLD_START = 3.0
HOLD_END = 13.0


def _partition_only_spec(fault_window: float) -> ScheduleSpec:
    """A schedule of nothing but network cuts and their scoped heals."""
    return ScheduleSpec(
        fault_window=fault_window,
        mean_gap=1.5,
        weights=(0.0, 2.0, 0.0, 0.0),
        storage_weights=(0.0, 0.0, 0.0),
        wipe_weight=0.0,
        overload_weight=0.0,
        slow_node_weight=0.0,
        partition_mix_weights=(3.0, 3.0, 2.0),
    )


def _elections(cluster) -> int:
    return sum(s.elections_started for s in cluster.servers)


def put_get_workload(
    cluster, recorder, stop_at: float, write_times: list, stream: str,
) -> None:
    """Closed-loop put/get clients; successful put completion times
    land in ``write_times`` (the raw material for TTFW). Each client
    draws from RNG stream ``<stream>.workload.<client>``."""
    sim = cluster.sim
    seq = {"n": 0}

    def one_op(client, rng, on_done) -> None:
        key = f"k{int(rng.integers(6))}"
        if float(rng.random()) < 0.6:
            seq["n"] += 1

            def done(ok: bool) -> None:
                if ok:
                    write_times.append(sim.now)
                on_done()

            client.put(key, 64 + seq["n"], on_done=done)
        else:
            client.get(key, mode="fast", on_done=lambda ok, size: on_done())

    for client in cluster.clients:
        client.history = recorder
        rng = sim.rng.stream(f"{stream}.workload.{client.name}")

        def loop(client=client, rng=rng) -> None:
            if sim.now >= stop_at:
                return
            one_op(client, rng, lambda: sim.call_after(0.02, loop))

        sim.call_soon(loop)


def _sample_single_lease(cluster, horizon: float, out: list) -> None:
    sim = cluster.sim

    def probe() -> None:
        for v in check_single_lease(cluster.servers):
            out.append((round(sim.now, 4), v.detail))
        if sim.now < horizon:
            sim.call_after(0.25, probe)

    sim.call_soon(probe)


def _deaf_follower_hold(config, protocol: str) -> list[str]:
    """Phase 1: one-way-deaf follower must not depose the leader."""
    problems: list[str] = []
    cluster = build_cluster(
        config, num_clients=2, num_groups=2, link=LAN, seed=17,
        client_timeout=0.25,
    )
    sim = cluster.sim
    recorder = HistoryRecorder()
    write_times: list[float] = []
    horizon = HOLD_END + 4.0
    put_get_workload(cluster, recorder, stop_at=horizon - 1.0,
                     write_times=write_times, stream="partitions")
    lease_hits: list = []
    _sample_single_lease(cluster, horizon, lease_hits)

    leader_name = cluster.servers[0].name  # initial leader
    deaf = cluster.servers[1].name
    # Sever leader -> follower only: the follower stops hearing
    # heartbeats while its own messages still arrive everywhere.
    cluster.faults.sever_at(HOLD_START, [leader_name], [deaf], token="deaf")
    cluster.faults.heal_at(HOLD_END, token="deaf")

    cluster.start()
    sim.run(until=HOLD_START)
    elections_before = _elections(cluster)
    leader_before = cluster.leader()
    sim.run(until=horizon)

    held_elections = _elections(cluster) - elections_before
    if held_elections != 0:
        problems.append(
            f"{protocol}: {held_elections} election(s) during the "
            f"deaf-follower hold (expected 0 — pre-vote must refuse)")
    if cluster.leader() is not leader_before:
        problems.append(
            f"{protocol}: leadership moved during the deaf-follower hold")
    in_hold = [t for t in write_times if HOLD_START <= t <= HOLD_END]
    if not in_hold:
        problems.append(
            f"{protocol}: no writes committed during the deaf-follower "
            f"hold (leader must keep serving)")
    for t, detail in lease_hits:
        problems.append(f"{protocol}: single-lease violation at t={t}: "
                        f"{detail}")
    for r in check_history(recorder):
        problems.append(
            f"{protocol}: non-linearizable history for key {r.key!r}")
    committed = len(in_hold)
    print(f"   {protocol}: hold [{HOLD_START:.0f}s, {HOLD_END:.0f}s] -> "
          f"{held_elections} elections, leader "
          f"{'kept' if cluster.leader() is leader_before else 'LOST'}, "
          f"{committed} writes committed while deaf")
    return problems


def _mttr_episode(config, seed: int, fault_window: float):
    """Phase 2, one seed: partition-only chaos + recovery timing."""
    cluster = build_cluster(
        config, num_clients=3, num_groups=2, link=LAN, seed=seed,
        client_timeout=0.25,
    )
    sim = cluster.sim
    spec = _partition_only_spec(fault_window)
    schedule = generate_schedule(
        sim.rng.stream("chaos.schedule"), spec,
        [s.name for s in cluster.servers], max_crashed=1,
    )
    arm_schedule(cluster.faults, schedule)

    heals = sum(
        1 for e in schedule
        if e.kind == "heal" or e.kind == "flap")
    final_heal = 0.0
    for e in schedule:
        if e.kind == "heal":
            final_heal = max(final_heal, e.t)
        elif e.kind == "flap":
            final_heal = max(final_heal, e.t + e.arg[2])

    horizon = max(final_heal, spec.end) + 6.0
    recorder = HistoryRecorder()
    write_times: list[float] = []
    put_get_workload(cluster, recorder, stop_at=horizon - 1.0,
                     write_times=write_times, stream="partitions")
    lease_hits: list = []
    _sample_single_lease(cluster, horizon, lease_hits)

    cluster.start()
    sim.run(until=horizon)

    # Bootstrap election (the configured initial leader elects itself
    # at t=0) is setup, not churn.
    elections = max(0, _elections(cluster) - 1)
    ttfw = next(
        (t - final_heal for t in write_times if t >= final_heal), None)
    problems = [
        f"seed {seed}: single-lease violation at t={t}: {d}"
        for t, d in lease_hits
    ]
    problems += [
        f"seed {seed}: non-linearizable history for key {r.key!r}"
        for r in check_history(recorder)
    ]
    problems += [
        f"seed {seed}: invariant violation: {v.kind}: {v.detail}"
        for v in check_cluster(cluster.servers, config)
    ]
    return elections, heals, final_heal, ttfw, problems


def main(quick: bool = True) -> int:
    hb = 0.5  # LeaseConfig default heartbeat interval
    ttfw_bound = TTFW_HEARTBEATS * hb
    failures: list[str] = []

    print("-- phase 1: one-way-deaf follower hold "
          "(leader->follower sever, pre-vote stickiness)")
    for protocol, config in (
        ("rs-paxos", rs_paxos(5, 1)),
        ("classic", classic_paxos(5)),
    ):
        failures += _deaf_follower_hold(config, protocol)

    seeds = range(5) if quick else range(15)
    fault_window = 8.0 if quick else 12.0
    config = rs_paxos(5, 1)
    print(f"-- phase 2: MTTR ladder, {len(seeds)} seeds of "
          f"partition-only chaos (rs-paxos, window {fault_window:.0f}s)")
    eph_samples: list[float] = []
    ttfw_samples: list[float] = []
    for seed in seeds:
        elections, heals, final_heal, ttfw, problems = _mttr_episode(
            config, seed, fault_window)
        failures += problems
        eph = elections / max(1, heals)
        eph_samples.append(eph)
        if ttfw is None:
            failures.append(
                f"seed {seed}: no committed write after the final heal "
                f"at t={final_heal:.2f}s")
            ttfw_txt = "never"
        else:
            ttfw_samples.append(ttfw)
            ttfw_txt = f"{ttfw * 1000:.0f} ms"
        print(f"  seed {seed:3d}: {elections:2d} elections / {heals} "
              f"heals = {eph:.2f} per heal; first write "
              f"{ttfw_txt} after final heal (t={final_heal:.2f}s)")

    med_eph = statistics.median(eph_samples)
    med_ttfw = statistics.median(ttfw_samples) if ttfw_samples else None
    print(f"   median elections/heal = {med_eph:.2f} "
          f"(bound {MAX_ELECTIONS_PER_HEAL}), median time-to-first-write "
          f"= {med_ttfw * 1000:.0f} ms (bound {ttfw_bound * 1000:.0f} ms)"
          if med_ttfw is not None else
          f"   median elections/heal = {med_eph:.2f}; no TTFW samples")
    if med_eph > MAX_ELECTIONS_PER_HEAL:
        failures.append(
            f"median elections/heal {med_eph:.2f} exceeds "
            f"{MAX_ELECTIONS_PER_HEAL}")
    if med_ttfw is None or med_ttfw > ttfw_bound:
        failures.append(
            f"median time-to-first-write "
            f"{'unavailable' if med_ttfw is None else f'{med_ttfw:.3f}s'} "
            f"exceeds {ttfw_bound:.2f}s")

    if failures:
        print(f"FAIL: {len(failures)} partition-tolerance violation(s)")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("partition gate: deaf-follower hold stable, churn and MTTR "
          "within bounds, single-lease + linearizability hold")
    return 0
