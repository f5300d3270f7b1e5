"""Integration tests for runtime view change (§4.6 / §6.1).

The paper's operational strategy: an N=5, Q=4, θ(3,5) RS-Paxos group
tolerates one crash outright; after that crash the system reconfigures
to N=4, Q=3, θ(2,4) so it can survive a *second* uncorrelated failure.
"""

import pytest

from repro.core import classic_paxos, rs_paxos
from repro.kvstore import ClientPut, NotReady, PutOk, build_cluster


def make(seed=1, **kw):
    cluster = build_cluster(rs_paxos(5, 1), seed=seed, num_groups=2, **kw)
    cluster.start()
    cluster.run(until=1.0)
    return cluster


class TestExplicitViewChange:
    def test_shrink_after_crash(self):
        c = make()
        c.clients[0].put("k0", 3000, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(4)
        c.run(until=4.0)
        leader = c.leader()
        leader.reconfigure_remove(4)
        c.run(until=8.0)
        assert leader.view_changes_completed == 1
        # All live servers switched to N=4, Q=3, θ(2,4).
        for s in c.servers[:4]:
            assert s.view_epoch == 1
            assert s.member_ids == {0, 1, 2, 3}
            assert s.config.n == 4
            assert (s.config.q_r, s.config.q_w, s.config.x) == (3, 3, 2)

    def test_writes_resume_with_new_coding(self):
        c = make()
        c.crash_server(4)
        c.run(until=4.0)
        c.leader().reconfigure_remove(4)
        c.run(until=8.0)
        done = []
        c.clients[0].put("new-era", 3000, on_done=lambda ok: done.append(ok))
        c.run(until=12.0)
        assert done == [True]
        # New writes are coded θ(2,4): follower share = half the value.
        follower = next(
            s for s in c.servers[:4] if not s.is_leader_server
        )
        entry = follower.store.get_entry("new-era")
        assert entry is not None and entry.size == 1500

    def test_old_data_readable_without_recode(self):
        """Data coded θ(3,5) before the change stays readable after it
        (optimization 2: confirmation only, no re-spread)."""
        c = make()
        c.clients[0].put("old-data", 3000, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(4)
        c.run(until=4.0)
        c.leader().reconfigure_remove(4)
        c.run(until=8.0)
        got = []
        c.clients[0].get("old-data", on_done=lambda ok, size: got.append((ok, size)))
        c.run(until=12.0)
        assert got == [(True, 3000)]

    def test_survives_second_crash_after_view_change(self):
        """§6.1: 'This strategy allows the system tolerates two
        uncorrelated failures, given enough time for view change.'"""
        c = make()
        c.clients[0].put("a", 1000, on_done=lambda ok: None)
        c.run(until=3.0)
        # First failure + view change.
        c.crash_server(4)
        c.run(until=4.0)
        c.leader().reconfigure_remove(4)
        c.run(until=8.0)
        # Second failure: a follower of the new 4-member view.
        c.crash_server(3)
        done = []
        c.clients[0].put("b", 1000, on_done=lambda ok: done.append(ok))
        c.run(until=15.0)
        assert done == [True]

    def test_second_leader_crash_after_view_change(self):
        """The Fig. 8 schedule for RS-Paxos: leader killed, view change,
        new leader killed, a third leader still serves."""
        c = make()
        c.clients[0].put("x", 500, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(0)  # first leader dies
        c.run(until=10.0)
        leader2 = c.leader()
        assert leader2 is not None
        leader2.reconfigure_remove(0)
        c.run(until=15.0)
        assert leader2.view_changes_completed == 1
        idx2 = c.servers.index(leader2)
        c.crash_server(idx2)  # second leader dies
        c.run(until=30.0)
        leader3 = c.leader()
        assert leader3 is not None and leader3.up
        done = []
        c.clients[0].put("y", 500, on_done=lambda ok: done.append(ok))
        c.run(until=40.0)
        assert done == [True]

    def test_queued_write_is_fenced_during_the_drain(self):
        """A write still in the admission queue when the change starts
        is answered NotReady once a slot frees, never proposed while
        the drain waits for the pipeline to empty."""
        c = make(max_inflight_proposals=1, batch_max_commands=1)
        leader = c.leader()
        replies = {}
        for op_id, key in enumerate(("a", "b"), start=1):
            leader._on_write(
                ClientPut(key, 100, client="probe", op_id=op_id), "probe",
                lambda r, nbytes=0, key=key: replies.setdefault(key, r),
            )
        assert replies == {}  # "a" in flight, "b" queued behind it
        leader.reconfigure_remove(4)
        c.run(until=3.0)
        assert isinstance(replies["a"], PutOk)
        assert isinstance(replies["b"], NotReady)
        assert leader.view_changes_completed == 1

    def test_non_leader_cannot_reconfigure(self):
        c = make()
        follower = next(s for s in c.servers if not s.is_leader_server)
        follower.reconfigure_remove(4)
        c.run(until=3.0)
        assert all(s.view_epoch == 0 for s in c.servers)

    def test_cannot_drop_below_three(self):
        c = build_cluster(classic_paxos(3), seed=2, num_groups=1)
        c.start()
        c.run(until=1.0)
        c.leader().reconfigure_remove(2)
        c.run(until=3.0)
        assert c.leader().view_epoch == 0


class TestReconfigureAdd:
    """The inverse of the shrink rule: a rebuilt node is re-admitted
    and the view grows back to N=5, Q=4, θ(3,5)."""

    def test_full_remove_rejoin_add_lifecycle(self):
        c = make(seed=5, checkpoint_interval=0.5)
        done0 = []
        c.clients[0].put("era0", 3000, on_done=lambda ok: done0.append(ok))
        c.run(until=3.0)
        assert done0 == [True]
        # Crash + remove: cluster shrinks to N=4, Q=3, θ(2,4).
        c.crash_server(4)
        c.run(until=4.0)
        c.leader().reconfigure_remove(4)
        c.run(until=8.0)
        done1 = []
        c.clients[0].put("era1", 3000, on_done=lambda ok: done1.append(ok))
        c.run(until=10.0)
        assert done1 == [True]
        # The node comes back with a wiped disk, rebuilds via snapshot
        # transfer, and is re-admitted by the leader.
        c.servers[4].wal.wipe()
        c.servers[4].checkpoint_store.wipe()
        c.recover_server(4)
        c.run(until=14.0)
        c.leader().reconfigure_add(4)
        c.run(until=20.0)
        for s in c.servers:
            assert s.view_epoch == 2
            assert s.member_ids == {0, 1, 2, 3, 4}
            assert s.config.n == 5
            assert (s.config.q_r, s.config.q_w, s.config.x) == (4, 4, 3)
        # Writes work under the restored coding, and the whole history
        # — both eras — stays readable.
        done2 = []
        c.clients[0].put("era2", 3000, on_done=lambda ok: done2.append(ok))
        c.run(until=24.0)
        assert done2 == [True]
        got = []
        for key in ("era0", "era1", "era2"):
            c.clients[0].get(key, on_done=lambda ok, size: got.append((ok, size)))
        c.run(until=28.0)
        assert got == [(True, 3000)] * 3

    def test_add_requires_leader(self):
        c = make(seed=6)
        follower = next(s for s in c.servers if not s.is_leader_server)
        follower.reconfigure_add(0)
        c.run(until=3.0)
        assert all(s.view_epoch == 0 for s in c.servers)

    def test_add_existing_member_is_noop(self):
        c = make(seed=7)
        c.leader().reconfigure_add(2)
        c.run(until=3.0)
        assert all(s.view_epoch == 0 for s in c.servers)

    def test_add_unknown_peer_is_noop(self):
        c = make(seed=8)
        c.leader().reconfigure_add(9)
        c.run(until=3.0)
        assert all(s.view_epoch == 0 for s in c.servers)


class TestAutoReconfigure:
    def test_silent_member_dropped_automatically(self):
        c = build_cluster(
            rs_paxos(5, 1), seed=3, num_groups=2, auto_reconfigure=True
        )
        c.start()
        c.run(until=1.0)
        c.crash_server(4)
        # suspicion threshold (~3 s of silence) + evict grace (2 s) +
        # heartbeat cadence + change execution.
        c.run(until=12.0)
        leader = c.leader()
        assert leader.view_epoch == 1
        assert leader.member_ids == {0, 1, 2, 3}

    def test_healthy_members_not_dropped(self):
        c = build_cluster(
            rs_paxos(5, 1), seed=4, num_groups=2, auto_reconfigure=True
        )
        c.start()
        c.run(until=12.0)
        assert all(s.view_epoch == 0 for s in c.servers)
