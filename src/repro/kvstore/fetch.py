"""Share fetching: the one loop that gathers coded shares from peers.

Degraded reads, placement fill, snapshot re-coding, migration copies
and scrub repair all do the recovery read's job (§4.4) — collect any X
shares of a chosen value — so they all run :meth:`ShareFetcher.gather`.
Which X sources a recovery contacts sets its cost (Rashmi et al.), so
source ranking lives here too, and catch-up ranks its sources with it.
"""

from __future__ import annotations

from typing import Callable

from ..core import CodedShare
from ..erasure import CodingConfig
from .messages import FetchShare, ShareReply

#: Per-fetch timeout until the RTT estimator has a sample for the peer.
FETCH_TIMEOUT = 0.5
#: Pause between passes over the ranked peers while a value is not
#: reconstructible. A chosen value's shares reappear as crashed peers
#: recover (§3.1), so a gather keeps cycling — but paced: a value that
#: is *never* reconstructible would otherwise re-fan out every RTT.
PASS_INTERVAL = 0.25


class ShareFetcher:
    """One server's share fetching. ``server`` supplies the simulator,
    RPC endpoint, peers, groups, config and metrics; the fetcher owns
    the per-peer count of fetches in flight and the hedge counters."""

    def __init__(self, server) -> None:
        self._srv = server
        self.load: dict[str, int] = {}  # host -> fetches in flight
        self.hedges_issued = 0
        self.hedge_wins = 0
        self._select_rng = server.sim.rng.stream(f"{server.name}.select")

    def ranked_peers(self) -> list[str]:
        """Peer hosts fastest-first: repair-optimal source selection.

        Rank = Jacobson RTT estimate scaled by the fetches this server
        already has in flight toward the peer — each outstanding fetch
        is roughly one more service time of queueing the estimator has
        not observed yet, so a fast-but-busy peer yields to an idle
        slightly-slower one (Rashmi et al.: recovery traffic is
        network-bound; *which* X sources you pick is the cost). Peers
        with no unambiguous sample yet sort after measured ones
        (unknown is not the same as fast); ties break by name so the
        order — and everything hedging derives from it — is
        deterministic.

        With ``rtt_select=False`` (the readpath gate's measured
        baseline) sources come back in seeded-random order instead —
        no RTT, no load signal.
        """
        srv = self._srv
        hosts = [
            h for nid, h in sorted(srv.peers.items()) if nid != srv.node_id
        ]
        if not srv.cfg.rtt_select:
            order = list(hosts)
            self._select_rng.shuffle(order)
            return order

        def rank(h: str):
            st = srv.endpoint.peer_stats(h)
            load = self.load.get(h, 0)
            if not st.samples:
                return (1, float(load), 0.0, h)
            return (0, st.ewma * (1.0 + load), st.ewma, h)

        return sorted(hosts, key=rank)

    def started(self, host: str) -> None:
        self.load[host] = self.load.get(host, 0) + 1

    def finished(self, host: str) -> None:
        n = self.load.get(host, 0) - 1
        if n <= 0:
            self.load.pop(host, None)
        else:
            self.load[host] = n

    def gather_value(
        self, group: int, instance: int, value_id: str, on_value, **kw
    ) -> None:
        """:meth:`gather`, then decode: ``on_value(value)``."""
        node = self._srv.groups[group]
        self.gather(
            group, instance, value_id,
            lambda shares: on_value(node.decode_from_shares(shares)), **kw,
        )

    def gather(
        self,
        group: int,
        instance: int,
        value_id: str,
        on_shares: Callable[[list[CodedShare]], None],
        *,
        seed: CodedShare | None = None,
        coding: CodingConfig | None = None,
        target: int | None = None,
        retries: int = 8,
        reason: str = "read",
        deadline: float | None = None,
        on_fail: Callable[[], None] | None = None,
    ) -> None:
        """Collect shares of a decided value, then ``on_shares(shares)``.

        Finishes once X shares are in hand (X of ``coding``, else of
        the shares' own coding — a value keeps the θ(X, N) it was
        written under — else of the group's), or once a share with
        index ``target`` arrives. A reply counts only if its share is
        of ``value_id``, not corrupt, and of that coding; a corrupt
        ``seed`` is ignored.

        Each missing share gets one fetch to the best-ranked unasked
        peer; a timeout (after ``retries`` retransmits) or an unusable
        reply widens to the next. With ``hedge_fetches`` on, a hedge
        goes to the next peer too once the slowest outstanding fetch
        overruns its adaptive RTO. When every peer was tried in vain,
        ``on_fail()`` runs if there is no ``deadline``, else a new pass
        starts after :data:`PASS_INTERVAL`. A ``deadline`` (seconds)
        ends the gather with ``on_fail()``. Ending cancels all fetches.
        """
        srv = self._srv
        node = srv.groups[group]
        req = FetchShare(
            group=group, instance=instance, value_id=value_id, reason=reason,
        )
        shares: dict[int, CodedShare] = {}
        if seed is not None and not seed.corrupt:
            shares[seed.index] = seed
        hosts = self.ranked_peers()
        nxt = 0  # index of the next ranked peer to ask
        outstanding: dict[int, str] = {}  # req_id -> host
        hedged: set[str] = set()
        hedge_timer = deadline_timer = None
        pass_pending = done = False

        def coding_of_gather() -> CodingConfig | None:
            if coding is not None or not shares:
                return coding
            return next(iter(shares.values())).config

        def missing() -> int:
            x = (coding_of_gather() or node.config.coding).x
            return max(0, x - len(shares))

        def usable(reply) -> CodedShare | None:
            share = reply.share if isinstance(reply, ShareReply) else None
            if share is None or share.corrupt or share.value_id != value_id:
                return None
            wanted = coding_of_gather()
            if wanted is not None and share.config != wanted:
                return None
            return share

        def stop() -> None:
            nonlocal done, hedge_timer, deadline_timer
            done = True
            for timer in (hedge_timer, deadline_timer):
                if timer is not None:
                    timer.cancel()
            hedge_timer = deadline_timer = None
            for rid, host in outstanding.items():
                srv.endpoint.cancel_request(rid)
                self.finished(host)
            outstanding.clear()

        def finish() -> None:
            stop()
            on_shares(list(shares.values()))

        def fail() -> None:
            stop()
            on_fail()

        def issue_next(hedge: bool) -> None:
            nonlocal nxt
            host = hosts[nxt]
            nxt += 1
            self.started(host)
            rid = srv.endpoint.request(
                host, req, req.wire_bytes,
                on_reply=lambda reply: answered(rid, host, reply),
                timeout=FETCH_TIMEOUT, retries=retries, adaptive=True,
                on_timeout=lambda: answered(rid, host, None),
            )
            outstanding[rid] = host
            if hedge:
                hedged.add(host)
                self.hedges_issued += 1
                srv.metrics.counter("hedge.issued").inc(1)

        def answered(rid: int, host: str, reply) -> None:
            # ``reply`` is None when the fetch ran out of retries.
            outstanding.pop(rid, None)
            self.finished(host)
            if done or not srv.up:
                return
            share = usable(reply)
            if share is not None:
                if host in hedged:
                    self.hedge_wins += 1
                    srv.metrics.counter("hedge.wins").inc(1)
                shares[share.index] = share
                if not missing() or target in shares:
                    finish()
                    return
            fan_out()

        def fan_out() -> None:
            # Keep (at least) one fetch in flight per still-missing
            # share; replenish from the ranked list as fetches fail.
            nonlocal pass_pending
            if done:
                return
            if not outstanding and nxt >= len(hosts) and missing():
                # Every ranked peer was tried; the value is still short.
                if on_fail is not None and deadline is None:
                    fail()
                elif not pass_pending:
                    pass_pending = True
                    srv.sim.call_after(PASS_INTERVAL, next_pass)
                return
            while (not done and len(outstanding) < missing()
                   and nxt < len(hosts)):
                issue_next(hedge=False)
            if srv.cfg.hedge_fetches:
                arm_hedge()

        def next_pass() -> None:
            nonlocal nxt, pass_pending
            pass_pending = False
            if done or not srv.up:
                return
            nxt = 0
            hedged.clear()
            fan_out()

        def arm_hedge() -> None:
            nonlocal hedge_timer
            if (done or hedge_timer is not None or not outstanding
                    or nxt >= len(hosts)):
                return
            # Expected completion of the *slowest* outstanding fetch: if
            # it overruns this, a hedge is cheaper than waiting.
            delay = max(srv.endpoint.rto(h, FETCH_TIMEOUT)
                        for h in outstanding.values())
            hedge_timer = srv.sim.call_after(delay, fire_hedge)

        def fire_hedge() -> None:
            nonlocal hedge_timer
            hedge_timer = None
            if done or not srv.up:
                return
            if nxt < len(hosts) and missing():
                issue_next(hedge=True)
            arm_hedge()

        if shares and (not missing() or target in shares):
            finish()
            return
        if deadline is not None:
            deadline_timer = srv.sim.call_after(deadline, fail)
        fan_out()
