"""Output checks, run after each measured phase and outside its timing.

- ``check_cluster`` (every replicated-state invariant probe) on the
  final state of every round;
- the byte-exact read-back of concrete values, done as ops complete by
  :class:`workloads.OpLog` and reported here;
- the paper's θ(X, N) cost model on ``bytes-rw-concrete``;
- linearizability of the recorded history on ``leader-crash-open``.

A failed check makes the run incorrect; its numbers are not reported.
"""

from __future__ import annotations

from repro.check import check_cluster, check_history

#: Allowed control overhead on top of the cost model's share bytes,
#: as a share of the model (heartbeats, commits and message headers).
COST_TOLERANCE = 0.02


def cost_model(
    follower_rx_per_put: float, disk_per_put: float, size: int, n: int, x: int,
) -> list[str]:
    """Problems with one round's network and disk cost per put.

    RS-Paxos sends each of the N-1 followers one share of ⌈size/X⌉
    bytes and every one of the N servers stores one share, so per
    committed put the followers receive (N-1)·⌈size/X⌉ bytes and the
    disks take N·⌈size/X⌉ bytes, plus small control overhead. Full
    copies would cost (N-1)·size and N·size.
    """
    share = -(-size // x)
    problems = []
    for what, got, model, full in (
        ("bytes received by followers", follower_rx_per_put,
         (n - 1) * share, (n - 1) * size),
        ("bytes written to disk", disk_per_put, n * share, n * size),
    ):
        if not model <= got <= model * (1 + COST_TOLERANCE):
            problems.append(
                f"cost model: {what} per put = {got:.0f} B, expected "
                f"{model} B (+{COST_TOLERANCE:.0%} overhead) for θ({x},{n}); "
                f"full copies would be {full} B"
            )
    return problems


def check_round(workload, rnd, config) -> list[str]:
    """Every check that applies to one finished round."""
    problems = [
        f"{v.kind}: {v.detail}"
        for v in check_cluster(rnd.cluster.servers, config)
    ]
    problems += rnd.log.readback_errors
    if workload.concrete:
        puts = len(rnd.log.write_commits)
        if rnd.log.readback_checked < puts or puts == 0:
            problems.append(
                f"read-back compared {rnd.log.readback_checked} gets "
                f"for {puts} acknowledged puts"
            )
        d = rnd.delta()
        problems += cost_model(
            d["net.follower_rx"] / max(1, puts),
            d["storage.disk_bytes"] / max(1, puts),
            workload.size, config.n, config.x,
        )
    if rnd.history is not None:
        for res in check_history(rnd.history):
            problems.append(
                f"linearizability: key {res.key!r} has no legal order "
                f"over its {res.checked_ops} ops"
            )
    if rnd.crash_t is not None and not any(
        t > rnd.crash_t and srv != rnd.crashed
        for t, srv in rnd.log.write_commits
    ):
        problems.append("no write committed after the leader crash")
    return problems
