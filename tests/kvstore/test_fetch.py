"""Tests for the share-gather engine (kvstore/fetch.py): a gather with a
deadline stops fetching once it gives up, and scrub repair fans out
like the read path."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core import rs_paxos
from repro.kvstore import FetchShare, build_cluster
from repro.kvstore.server import GATHER_DEADLINE
from repro.rpc.endpoint import Request


def make(seed=7, **kw):
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_groups=2,
                      client_timeout=1.0, scrub_interval=0.0, **kw)
    c.start()
    c.run(until=1.0)
    return c


def put(c, key, size):
    done = []
    c.clients[0].put(key, size, on_done=done.append)
    c.run(until=c.sim.now + 2.0)
    assert done == [True]


def spy_fetches(c, src):
    """Log every FetchShare transmission from host ``src``, retransmits
    included, as ``(sim time, request body)``."""
    sent = []
    send = c.net.send

    def spy(s, dst, payload, size):
        if (
            s == src
            and isinstance(payload, Request)
            and isinstance(payload.body, FetchShare)
        ):
            sent.append((c.sim.now, payload.body))
        send(s, dst, payload, size)

    c.net.send = spy
    return sent


def ghost_entry(srv):
    """A store entry holding a fragment of a value no peer can supply:
    one of ``srv``'s real shares, relabelled to an instance and value id
    no other server knows."""
    group, inst, st = next(
        (g, inst, st)
        for g, node in enumerate(srv.groups)
        for inst, st in node.acceptor.state.instances.items()
        if st.accepted_share is not None
    )
    ghost_inst = inst + 10_000
    ghost = dataclasses.replace(st.accepted_share, value_id="ghost")
    srv.groups[group].acceptor.state.instances[ghost_inst] = (
        dataclasses.replace(st, accepted_share=ghost)
    )
    entry = SimpleNamespace(version=ghost_inst, complete=False, value=ghost,
                            size=ghost.size, group=group)
    return group, entry


def ask(srv, path, group, entry, out):
    def record(*args):
        out.append((srv.sim.now, args))

    if path == "copy":
        srv._materialize_for_copy(group, "k", entry, record)
    else:
        srv._share_for_peer(group, entry, 0, record)


class TestDeadline:
    @pytest.mark.parametrize("path", ["copy", "snapshot"])
    def test_unreconstructible_gather_stops_at_deadline(self, path):
        c = make()
        put(c, "k", 100)
        follower = c.servers[1]
        group, entry = ghost_entry(follower)
        sent = spy_fetches(c, follower.name)
        out = []
        start = c.sim.now
        ask(follower, path, group, entry, out)
        c.run(until=start + GATHER_DEADLINE + 5.0)

        assert len(out) == 1
        gave_up, args = out[0]
        assert gave_up == pytest.approx(start + GATHER_DEADLINE)
        assert args[0] is None  # reported as unreconstructible
        assert sent, "the gather asked peers before giving up"
        assert [t for t, _ in sent if t > gave_up] == []
        assert follower.fetcher.load == {}


class TestRepairFanout:
    def test_repair_contacts_only_x_sources_when_all_answer(self):
        # Each source that answers with a usable share brings the
        # repair one share closer; none of them needs replacing, so the
        # repair asks exactly X peers — as the read path does.
        c = make()
        put(c, "k", 100)
        srv = c.servers[2]
        assert not srv.is_leader_server
        assert srv.inject_bit_rot(c.sim.rng.stream("test.fetch.rot"))
        sent = spy_fetches(c, srv.name)
        srv.scrub_now()
        c.run(until=c.sim.now + 2.0)
        assert c.metrics.counter("scrub.repaired").value == 1
        scrub = [body for _, body in sent if body.reason == "scrub"]
        assert len(scrub) == srv.config.coding.x
        assert srv.fetcher.load == {}
