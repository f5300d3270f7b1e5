"""The simulated network: hosts, NIC queues, delivery, fault injection.

Semantics follow the paper's partial-asynchrony model (§3.1): messages
may be delayed, duplicated, or lost; a message between two live,
unpartitioned hosts that is retransmitted repeatedly eventually gets
through (the RPC layer owns retransmission).

Crashes are modeled at the host level: a crashed host neither sends nor
receives, and messages in flight toward it are discarded on arrival.
Recovery restores connectivity but **not volatile state** — that is the
job of the durable-storage layer (:mod:`repro.storage`).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterator

from ..sim import FifoResource, Simulator, Tracer, NULL_TRACER
from .link import LOOPBACK, LinkSpec
from .message import Envelope

Handler = Callable[[Envelope], None]

#: Raw ``random()`` doubles drawn at once into a directed pair's jitter
#: buffer. Larger blocks barely cut the per-draw cost further but waste
#: more read-ahead on pairs that carry few messages (set-up traffic).
JITTER_BLOCK = 64


class Host:
    """A network endpoint with egress/ingress NIC queues."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.egress = FifoResource(sim, f"{name}.egress")
        self.ingress = FifoResource(sim, f"{name}.ingress")
        self.handler: Handler | None = None
        self.up = True
        # Byte accounting for the cost analyses.
        self.bytes_sent = 0
        self.bytes_received = 0

    def crash(self) -> None:
        self.up = False

    def recover(self) -> None:
        self.up = True


class Network:
    """Registry of hosts + pairwise link specs + fault switches."""

    def __init__(
        self,
        sim: Simulator,
        default_link: LinkSpec,
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.default_link = default_link
        self.tracer = tracer
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], LinkSpec] = {}
        # Directed pair -> set of episode tokens that currently claim
        # the cut. A pair is blocked while *any* token claims it; a
        # scoped heal removes one token's claims without resurrecting
        # links severed by a different, still-active episode.
        self._blocked: dict[tuple[str, str], set[str]] = {}
        # Global impairment knobs, added on top of each link's own
        # loss/dup probabilities (chaos "loss-burst" episodes).
        self.extra_loss_prob = 0.0
        self.extra_dup_prob = 0.0
        # Per-host NIC degradation (chaos "slow-node" episodes): the
        # gray-failure half of a slow-but-alive node. A factor > 1
        # multiplies the host's egress AND ingress serialization time —
        # the node stays reachable, it just drains its NIC queues
        # slowly. Factor 1.0 removes the entry.
        self._nic_slowdown: dict[str, float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._msg_seq = 0
        # Directed pair -> its (loss, dup, jitter) RNG stream names.
        self._stream_names: dict[tuple[str, str], tuple[str, str, str]] = {}
        # Directed pair -> the unused rest of its last block of raw
        # jitter draws (see :meth:`_jitter`).
        self._jitter_draws: dict[tuple[str, str], Iterator[float]] = {}

    # -- topology -------------------------------------------------------

    def add_host(self, name: str, handler: Handler | None = None) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(self.sim, name)
        host.handler = handler
        self.hosts[name] = host
        return host

    def set_handler(self, name: str, handler: Handler) -> None:
        self.hosts[name].handler = handler

    def set_link(self, src: str, dst: str, spec: LinkSpec) -> None:
        """Override the link spec for the directed pair (src, dst)."""
        self._links[(src, dst)] = spec

    def link(self, src: str, dst: str) -> LinkSpec:
        if src == dst:
            return LOOPBACK
        return self._links.get((src, dst), self.default_link)

    # -- fault injection --------------------------------------------------

    def block(self, src: str, dst: str, token: str = "") -> None:
        """Partition the directed pair: messages are dropped.

        ``token`` names the partition episode installing the cut, so
        :meth:`heal` can later remove exactly this episode's cuts. The
        default anonymous token keeps the legacy block/unblock API
        working unchanged.
        """
        self._blocked.setdefault((src, dst), set()).add(token)

    def unblock(self, src: str, dst: str, token: str | None = None) -> None:
        """Remove the directed cut (entirely, or one episode's claim)."""
        claims = self._blocked.get((src, dst))
        if claims is None:
            return
        if token is None:
            del self._blocked[(src, dst)]
            return
        claims.discard(token)
        if not claims:
            del self._blocked[(src, dst)]

    def is_blocked(self, src: str, dst: str) -> bool:
        """True while any active episode severs the directed pair."""
        return (src, dst) in self._blocked

    def partition(
        self, group_a: list[str], group_b: list[str], token: str = ""
    ) -> None:
        """Symmetric partition between two host groups."""
        for a in group_a:
            for b in group_b:
                self.block(a, b, token)
                self.block(b, a, token)

    def sever(self, src: str, dst: str, token: str = "") -> None:
        """Asymmetric one-way cut: ``src``'s messages to ``dst`` drop,
        the reverse direction stays healthy."""
        self.block(src, dst, token)

    def sever_group(
        self, src_group: list[str], dst_group: list[str], token: str = ""
    ) -> None:
        """One-way group cut: every ``src_group`` -> ``dst_group``
        message drops; replies still flow."""
        for a in src_group:
            for b in dst_group:
                self.block(a, b, token)

    def heal(self, token: str | None = None) -> None:
        """Remove partitions.

        With no argument this is the explicit heal-all: every cut from
        every episode is lifted. With a ``token`` only the cuts claimed
        by that episode are removed; pairs also severed by another
        still-active episode stay blocked.
        """
        if token is None:
            self._blocked.clear()
            return
        for pair in list(self._blocked):
            self.unblock(*pair, token=token)

    def crash_host(self, name: str) -> None:
        self.hosts[name].crash()
        self.tracer.emit(self.sim.now, "net", f"crash {name}")

    def recover_host(self, name: str) -> None:
        self.hosts[name].recover()
        self.tracer.emit(self.sim.now, "net", f"recover {name}")

    def set_nic_slowdown(self, name: str, factor: float) -> None:
        """Degrade (factor > 1) or restore (factor == 1) one host's NIC.

        Models a gray failure: serialization through ``name``'s egress
        and ingress queues takes ``factor`` times longer, so the host
        falls behind under load while still answering every probe.
        """
        if factor < 1.0:
            raise ValueError("NIC slowdown factor must be >= 1")
        if name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        if factor == 1.0:
            self._nic_slowdown.pop(name, None)
        else:
            self._nic_slowdown[name] = factor
        self.tracer.emit(self.sim.now, "net", f"nic-slowdown {name} x{factor}")

    def set_impairment(self, loss_prob: float, dup_prob: float = 0.0) -> None:
        """Degrade (or restore, with zeros) every link at once.

        The probabilities are *added* to each link's own ``loss_prob`` /
        ``dup_prob`` and clamped to 1. Retransmission still guarantees
        eventual delivery as long as the combined loss stays below 1.
        """
        if not (0.0 <= loss_prob <= 1.0 and 0.0 <= dup_prob <= 1.0):
            raise ValueError("impairment probabilities must be in [0, 1]")
        self.extra_loss_prob = loss_prob
        self.extra_dup_prob = dup_prob
        self.tracer.emit(
            self.sim.now, "net", f"impairment loss={loss_prob} dup={dup_prob}"
        )

    # -- data path --------------------------------------------------------
    #
    # A wire message costs two kernel events: arrival at the receiver's
    # ingress queue, and ingress done (delivery). The egress queue is
    # FIFO per host, so a message's egress completion time is known at
    # send: :meth:`send` books it with ``FifoResource.reserve`` and
    # schedules the arrival directly. The ingress hop stays an event
    # because its queue order depends on arrival order across senders.
    #
    # The loss, dup and jitter draws therefore happen at send time, not
    # at egress completion. Each directed pair's stream sees its draws
    # in the same order either way, because every message of the pair
    # leaves through the same FIFO egress queue. The one difference: an
    # impairment toggled (``set_impairment``) while a message waits in
    # an egress queue no longer applies to that message; the
    # probabilities in force when it was sent do.

    def send(self, src: str, dst: str, payload: Any, size: int) -> float:
        """Transmit one message; delivery (if any) is asynchronous.

        ``size`` is the modeled payload size in bytes; the fixed header
        overhead is added internally. Returns the time the message
        leaves the sender's NIC: after everything already queued on its
        egress, and now for a loopback message or a crashed sender.
        """
        if size < 0:
            raise ValueError("negative message size")
        sender = self.hosts[src]
        if not sender.up:
            return self.sim.now  # a crashed host sends nothing
        self._msg_seq += 1
        env = Envelope(src=src, dst=dst, payload=payload, size=size,
                       msg_id=self._msg_seq)

        if src == dst:
            # Loopback: deliver at the current instant, preserving FIFO.
            # Never touches the NIC, so it does not count as wire traffic
            # (the paper's leader keeps its own share locally).
            self.sim.call_soon(partial(self._deliver, env))
            return self.sim.now

        self.messages_sent += 1
        wire = env.wire_size
        sender.bytes_sent += wire
        spec = self.link(src, dst)

        # Egress serialization (shared per-host queue), booked now; the
        # message leaves the NIC at ``done``.
        ser = spec.serialization_time(wire)
        ser *= self._nic_slowdown.get(src, 1.0)
        done = sender.egress.reserve(ser)
        self._propagate(env, spec, done)
        return done

    def _streams(self, src: str, dst: str) -> tuple[str, str, str]:
        """The loss, dup and jitter RNG stream names of a directed pair."""
        names = self._stream_names.get((src, dst))
        if names is None:
            pair = f"{src}->{dst}"
            names = self._stream_names[(src, dst)] = (
                f"net.loss.{pair}", f"net.dup.{pair}", f"net.jitter.{pair}"
            )
        return names

    def _propagate(self, env: Envelope, spec: LinkSpec, done: float) -> None:
        """Draw loss, dup and jitter for a message leaving its sender's
        NIC at ``done``, and schedule each surviving copy's arrival."""
        rng = self.sim.rng
        loss_stream, dup_stream, jitter_stream = self._streams(env.src, env.dst)
        loss_prob = min(1.0, spec.loss_prob + self.extra_loss_prob)
        if rng.choice_prob(loss_stream, loss_prob):
            self.messages_dropped += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, "net", f"lost {env.src}->{env.dst} #{env.msg_id}"
                )
            return
        copies = 1
        dup_prob = min(1.0, spec.dup_prob + self.extra_dup_prob)
        if rng.choice_prob(dup_stream, dup_prob):
            copies = 2
        for c in range(copies):
            delay = spec.delay_s
            if spec.jitter_s > 0:
                delay += self._jitter(env.src, env.dst, jitter_stream, spec.jitter_s)
            copy = env if c == 0 else Envelope(
                src=env.src, dst=env.dst, payload=env.payload,
                size=env.size, msg_id=env.msg_id, dup=True,
            )
            self.sim.call_at(done + delay, partial(self._arrive, copy, spec))

    def _jitter(self, src: str, dst: str, stream: str, jitter_s: float) -> float:
        """One jitter draw in ``[-jitter_s, jitter_s)`` for the pair.

        The pair's stream is read :data:`JITTER_BLOCK` raw doubles at a
        time, and each is scaled at use exactly as
        ``Generator.uniform(low, high)`` scales it (``low + (high - low)
        * u``), so the result equals a scalar ``uniform`` draw on the
        same stream bit for bit, whatever ``jitter_s`` is by then. The
        network is the stream's only reader, so reading ahead does not
        change which draw each message gets.
        """
        draws = self._jitter_draws.get((src, dst))
        u = None if draws is None else next(draws, None)
        if u is None:
            draws = iter(self.sim.rng.stream(stream).random(JITTER_BLOCK).tolist())
            self._jitter_draws[(src, dst)] = draws
            u = next(draws)
        low = -jitter_s
        return low + (jitter_s - low) * u

    def _arrive(self, env: Envelope, spec: LinkSpec) -> None:
        receiver = self.hosts[env.dst]
        ser = spec.serialization_time(env.wire_size)
        ser *= self._nic_slowdown.get(env.dst, 1.0)
        receiver.ingress.submit(ser, partial(self._deliver, env))

    def _deliver(self, env: Envelope) -> None:
        receiver = self.hosts[env.dst]
        if not receiver.up or (env.src, env.dst) in self._blocked:
            self.messages_dropped += 1
            return
        if env.src != env.dst:
            self.messages_delivered += 1
            receiver.bytes_received += env.wire_size
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "net",
                f"deliver {env.src}->{env.dst} #{env.msg_id} "
                f"{type(env.payload).__name__} {env.size}B",
            )
        if receiver.handler is not None:
            receiver.handler(env)

    # -- accounting -------------------------------------------------------

    def total_bytes_sent(self) -> int:
        return sum(h.bytes_sent for h in self.hosts.values())
