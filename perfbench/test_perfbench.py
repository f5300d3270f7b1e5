"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.kvstore.messages import (  # noqa: E402
    ClientGet,
    ClientPut,
    GetOk,
    PutOk,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed_metrics(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def assert_metrics(proc, declared: list[dict]) -> None:
    metrics = printed_metrics(proc)
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # ... and a human-readable line above reads "name value unit".
        assert [m["name"], m["unit"]] in [
            line.split()[0:3:2] for line in proc.stdout.splitlines()[:-1]
        ], m["name"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", "0")
    assert_metrics(proc, SPEC["end_to_end"])
    assert "digest " in proc.stdout


def test_tiny_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "mixed-batched-open", "--seed", "3",
                 "--seconds", "0.5", "--trace", "1")
    assert_metrics(proc, SPEC["per_layer"])


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_digest_and_simulated_metrics():
    a = bench("--workload", "write-small-closed", "--seed", "7",
              "--seconds", "0.5", "--trace", "0")
    b = bench("--workload", "write-small-closed", "--seed", "7",
              "--seconds", "0.5", "--trace", "0")
    digest = [line for line in a.stdout.splitlines() if "digest" in line]
    assert digest == [line for line in b.stdout.splitlines()
                      if "digest" in line]
    ma, mb = printed_metrics(a), printed_metrics(b)
    for name in ("put_p99_ms", "get_p50_ms", "net_bytes_per_op",
                 "goodput_ops_per_sim_s"):
        assert ma[name] == mb[name]


def test_without_the_store_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "write-small-closed", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the read-back check --------------------------------------------------


class _Client:
    def __init__(self, name: str):
        self.name = name
        self.leader_cache = "P1"


def _put_then_get(log: workloads.OpLog, stored: bytes, read: bytes | None):
    put = ClientPut("k", len(stored), stored, client="C1", op_id=1)
    log.complete(log.invoke("C1", "put", put, 0.0), True, PutOk("k"), 0.1)
    hid = log.invoke("C1", "get", ClientGet("k"), 0.2)
    size = len(read) if read is not None else len(stored)
    log.complete(hid, False, GetOk("k", size, read), 0.3)


def test_read_back_accepts_the_acknowledged_bytes():
    log = workloads.OpLog([_Client("C1")])
    _put_then_get(log, b"abc" * 1000, b"abc" * 1000)
    assert log.readback_checked == 1 and not log.readback_errors
    assert log.completed == 2 and log.failed == 0


@pytest.mark.parametrize("read", [b"abd" + b"abc" * 999, b"abc" * 999, None])
def test_read_back_flags_corrupted_bytes(read):
    log = workloads.OpLog([_Client("C1")])
    _put_then_get(log, b"abc" * 1000, read)
    assert len(log.readback_errors) == 1


# -- the cost-model check -------------------------------------------------

MIB = 1 << 20
SHARE = -(-MIB // 3)


def test_cost_model_accepts_shares_plus_overhead():
    rx, disk = 4 * SHARE + 1400, 5 * SHARE + 400
    assert checks.cost_model(rx, disk, MIB, 5, 3) == []


@pytest.mark.parametrize("rx, disk", [
    (4 * MIB, 5 * SHARE),            # followers got full copies
    (4 * SHARE, 5 * MIB),            # disks stored full copies
    (4 * SHARE * 1.05, 5 * SHARE),   # more than the allowed overhead
    (3 * SHARE, 5 * SHARE),          # a follower missed its share
])
def test_cost_model_flags_corrupted_costs(rx, disk):
    assert checks.cost_model(rx, disk, MIB, 5, 3)


# -- per-layer attribution ------------------------------------------------


class _Stats:
    """A pstats-shaped table: func -> (cc, nc, tt, ct, callers)."""

    def __init__(self, table):
        self.stats = table


def test_builtins_are_charged_to_their_callers():
    sim = ("/x/src/repro/sim/loop.py", 1, "call_at")
    net = ("/x/src/repro/net/network.py", 1, "send")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    lt = ("<string>", 2, "__lt__")
    table = {
        sim: (10, 10, 1.0, 4.0, {net: (10, 10, 1.0, 4.0)}),
        net: (10, 10, 2.0, 6.0, {}),
        push: (10, 10, 1.0, 3.0, {sim: (10, 10, 1.0, 3.0)}),
        lt: (50, 50, 2.0, 2.0, {push: (50, 50, 2.0, 2.0)}),
    }
    by_layer = layers.self_time_by_layer(_Stats(table))
    assert by_layer == pytest.approx({"sim": 4.0, "net": 2.0})


def test_layer_self_time_accounts_for_the_traced_wall_time():
    wl = workloads.WORKLOADS["write-small-closed"]
    tracer = layers.Tracer()
    run = workloads.run_workload(wl, 5, 0.5, clock=tracer.clock(),
                                 on_round=tracer.on_round)
    profiled = sum(layers.self_time_by_layer(tracer.stats()).values())
    wall = sum(v for k, v in run.clock.raw.items() if k[0] == "measure")
    assert 0.8 * wall <= profiled <= 1.02 * wall
    by_layer = layers.self_time_by_layer(tracer.stats())
    assert by_layer[layers.UNATTRIBUTED] < 0.2 * profiled
    for layer in ("sim", "net", "rpc", "core", "kvstore", "storage"):
        assert by_layer[layer] > 0
