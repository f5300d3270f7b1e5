"""Benchmark of the RS-Paxos key-value store: one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload write-small-closed --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the same work twice, untraced and then under
``cProfile`` with counter snapshots, and prints the per-layer metrics
and the tracing overhead instead. Either way every round's outputs are
checked after its measured phase. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
the lines above it print every metric with its unit, the latency
sample counts, and a result digest. The exit code is 0 when every
check passed, 1 when one failed and 2 when the store cannot be loaded.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys

import numpy as np

from clock import REFERENCE_PASSES_PER_S

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "sim_ops_per_wall_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "put_p50_ms": "ms",
    "put_p99_ms": "ms",
    "get_p50_ms": "ms",
    "get_p99_ms": "ms",
    "goodput_ops_per_sim_s": "1/s",
    "ok_frac": "ratio",
    "slo_met_frac": "ratio",
    "net_bytes_per_op": "B",
    "disk_bytes_per_write": "B",
    "unavailable_s": "s",
}


def _percentile_ms(samples: list[float], q: float) -> float:
    if not samples:
        raise ValueError("no latency samples")
    return float(np.percentile(np.asarray(samples), q)) * 1e3


#: Without a fault, ``unavailable_s`` averages this many longest stalls.
STALLS = 100


def unavailable_s(rnd) -> float:
    """Simulated time without write service.

    With a crash: from the crash to the first write a surviving server
    acknowledged. Without one, the store never stops serving, so this is
    the mean of the :data:`STALLS` longest intervals of the measured
    phase without an acknowledged write (a single maximum varies too
    much from seed to seed to bound).
    """
    if rnd.crash_t is not None:
        return min(
            (t for t, srv in rnd.log.write_commits
             if t > rnd.crash_t and srv != rnd.crashed),
            default=rnd.end,
        ) - rnd.crash_t
    times = [rnd.start] + [t for t, _ in rnd.log.write_commits]
    gaps = sorted((b - a for a, b in zip(times, times[1:])), reverse=True)
    return statistics.fmean(gaps[:STALLS])


def counts(run) -> tuple[int, int]:
    """``(attempted, failed)``: failed ops ran out of retries, were
    dropped by an open-loop outstanding budget, or were still pending
    when the drain limit passed."""
    failed = sum(r.log.failed + len(r.log.open) + r.dropped
                 for r in run.rounds)
    return run.completed + failed, failed


def e2e_metrics(run) -> dict[str, float]:
    rounds = run.rounds
    ops = run.completed
    attempted, _ = counts(run)
    puts = [x for r in rounds for x in r.log.latencies["put"]]
    gets = [x for r in rounds for x in r.log.latencies["get"]]
    in_slo = sum(1 for x in puts + gets if x <= run.workload.slo_s)
    d = run.delta()
    return {
        "sim_ops_per_wall_s": ops / sum(run.measure_s),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": run.peak_rss_mb,
        "put_p50_ms": _percentile_ms(puts, 50),
        "put_p99_ms": _percentile_ms(puts, 99),
        "get_p50_ms": _percentile_ms(gets, 50),
        "get_p99_ms": _percentile_ms(gets, 99),
        "goodput_ops_per_sim_s": ops / sum(
            r.log.last_t - r.start for r in rounds),
        "ok_frac": ops / attempted,
        "slo_met_frac": in_slo / attempted,
        "net_bytes_per_op": d["net.bytes"] / ops,
        "disk_bytes_per_write": d["storage.disk_bytes"] / run.writes,
        "unavailable_s": max(unavailable_s(r) for r in rounds),
    }


def result_digest(run) -> str:
    """Digest of what the run computed, not how fast: completed-op
    count, every latency sample, every server's final store contents
    and every driver's op stream. Equal digests mean only speed
    changed."""
    h = hashlib.blake2b(digest_size=16)
    for rnd in run.rounds:
        h.update(f"ops={rnd.log.completed};".encode())
        for op in sorted(rnd.log.latencies):
            h.update(op.encode())
            h.update(repr(rnd.log.latencies[op]).encode())
        h.update(rnd.store_digest.encode())
        for d in rnd.op_digests:
            h.update(d.encode())
        h.update(rnd.extra_digest.encode())
    return h.hexdigest()


def report(run, metrics: dict, units: dict, problems: list[str],
           out=sys.stdout) -> None:
    """Human-readable lines: every metric with its unit, the latency
    sample counts, the raw timing behind the rescaled one, the result
    digest and any failed check."""
    n_put = sum(len(r.log.latencies["put"]) for r in run.rounds)
    n_get = sum(len(r.log.latencies["get"]) for r in run.rounds)
    for name, value in metrics.items():
        note = ""
        if name.startswith("put_p"):
            note = f"  (n={n_put})"
        elif name.startswith("get_p"):
            note = f"  (n={n_get})"
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}", file=out)
    raw = sum(v for k, v in run.clock.raw.items() if k[0] == "measure")
    print(f"  raw measured wall {raw:.3f} s at "
          f"{run.clock.speed:.0f} calibration passes/s (reference "
          f"{REFERENCE_PASSES_PER_S:.0f})", file=out)
    print(f"  digest {result_digest(run)}", file=out)
    for p in problems:
        print(f"  CHECK FAILED: {p}", file=out)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, SRC)
    try:
        import layers
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load the store from {SRC}: {exc}",
              file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    run = workloads.run_workload(wl, args.seed, args.seconds)
    problems = run.problems
    if args.trace:
        untraced_s = sum(run.measure_s)
        tracer = layers.Tracer()
        run = workloads.run_workload(wl, args.seed, args.seconds,
                                     clock=tracer.clock(),
                                     on_round=tracer.on_round)
        problems = problems + run.problems
        metrics = layers.layer_metrics(run, tracer, untraced_s)
        units = {k: layers.layer_unit(k) for k in metrics}
    else:
        metrics = e2e_metrics(run)
        units = E2E_UNITS
    report(run, metrics, units, problems)
    attempted, failed = counts(run)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
