"""Server lifecycle: every loss of leadership goes through one demotion.

A leader can lose its leadership three ways besides a crash: its own
check-quorum, a rival's Prepare preempting one of its groups, and a
higher-ballot rival's heartbeat. Each must leave the server in the same
follower state — in particular, a migration copy driver the deposed
leader was running must be dropped, or the server, once re-elected,
believes a driver is still running and never finishes the migration.
The retry tests pin the one exactly-once check shared by the write
handler and the admission queue.
"""

from repro.core import Ballot, rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.messages import ClientPut, Heartbeat, PutOk


def make(**kw):
    cluster = build_cluster(
        rs_paxos(5, 1), seed=1, dynamic_shards=True, **kw,
    )
    cluster.start()
    cluster.run(until=1.0)  # settle election
    return cluster


def split_until_driver_runs(cluster, t):
    """Start a split at "m" and step until the leader's copy driver
    has picked it up; returns (leader, now)."""
    ldr = cluster.leader()
    for i in range(4):
        cluster.clients[0].put(f"{'az'[i % 2]}{i}", 100)
    t += 0.5
    cluster.run(until=t)
    assert ldr.force_split("m")
    while ldr._migration_task is None:
        t += 0.005
        cluster.run(until=t)
        assert t < 5.0, "migration driver never started"
    return ldr, t


def assert_migration_finishes(cluster, ldr, t):
    assert ldr.is_leader_server
    cluster.run(until=t + 6.0)
    assert ldr.shard_map.migrating is None
    assert ldr.migrations_completed == 1


class TestDemotionDropsMigrationDriver:
    def test_preempted_leader_resumes_migration_when_reelected(self):
        c = make(num_groups=3)
        ldr, t = split_until_driver_runs(c, 1.0)
        downs = ldr.step_downs
        ldr._on_preempted(0)
        assert not ldr.is_leader_server
        assert ldr._migration_task is None
        assert ldr.step_downs == downs + 1
        ldr._start_election()
        t += 0.5
        c.run(until=t)
        assert_migration_finishes(c, ldr, t)

    def test_leader_deposed_by_heartbeat_resumes_migration(self):
        c = make(num_groups=3)
        ldr, t = split_until_driver_runs(c, 1.0)
        rival = next(n for n in ldr.peers if n != ldr.node_id)
        ours = ldr._leadership_ballot()
        hb = Heartbeat(leader_id=rival, seq=1,
                       ballot=Ballot(ours.round + 1, rival),
                       view_epoch=ldr.view_epoch)
        downs = ldr.step_downs
        ldr._on_heartbeat(hb, ldr.peers[rival])
        assert not ldr.is_leader_server
        assert ldr.current_leader == rival
        assert ldr._migration_task is None
        assert ldr.step_downs == downs + 1
        ldr._start_election()
        t += 0.5
        c.run(until=t)
        assert_migration_finishes(c, ldr, t)

    def test_demoting_a_follower_counts_no_step_down(self):
        c = make(num_groups=3)
        follower = next(s for s in c.servers if not s.is_leader_server)
        downs = follower.step_downs
        follower._on_preempted(0)
        assert follower.step_downs == downs
        assert follower.current_leader is None


class TestOneDedupCheck:
    def test_admitted_retry_committed_in_another_group_is_not_reproposed(self):
        """A retry can reach a different group than its first commit:
        the key migrated in between. Once admitted it must be answered
        from the group-agnostic identity set, not proposed again."""
        c = make(num_groups=3, shard_ranges=("m",))
        ldr = c.leader()
        first = ClientPut("a1", 100, client="probe", op_id=1)
        retry = ClientPut("z1", 100, client="probe", op_id=1)
        src, dst = (ldr.shard_map.group_of(m.key) for m in (first, retry))
        assert src != dst
        replies = []

        def respond(reply, nbytes=0):
            replies.append(reply)

        ldr._on_write(first, "probe", respond)
        c.run(until=2.0)
        assert isinstance(replies[-1], PutOk)
        before = ldr.groups[dst].next_instance
        ldr._write_admitted(retry, respond)
        c.run(until=3.0)
        assert isinstance(replies[-1], PutOk)
        assert ldr.groups[dst].next_instance == before

    def test_static_shards_keep_no_group_agnostic_identities(self):
        c = build_cluster(rs_paxos(5, 1), seed=1, num_groups=2)
        c.start()
        c.run(until=1.0)
        done = []
        c.clients[0].put("k", 100, on_done=done.append)
        c.run(until=2.0)
        assert done == [True]
        assert all(not s._applied_ids for s in c.servers)
        assert any(s._applied_ops for s in c.servers)
