"""Server settings: every knob a :class:`~repro.kvstore.KVServer` reads.

Each setting is declared once, here, with its default. A cluster's
servers share one frozen :class:`ServerConfig`; :func:`build_cluster`
accepts its fields as keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import LeaseConfig


@dataclass(frozen=True)
class ServerConfig:
    """One deployment's server settings. Defaults reproduce §6.1."""

    # Leader lease timing: Δ, the drift bound δ, the heartbeat period.
    lease_config: LeaseConfig = LeaseConfig()
    # WAL group-commit flush window (seconds).
    group_commit_window: float = 0.002
    # Fallback retransmit timeout for Paxos rounds, pre-votes and
    # fetches, until the adaptive per-peer RTT estimate has a sample.
    rpc_timeout: float = 0.25
    # Self-healing membership: the leader evicts members the accrual
    # detector holds suspect past the grace ...
    auto_reconfigure: bool = False
    # ... and, with this on too, re-admits a rebuilt spare in the slot.
    auto_heal: bool = False
    # Background share-scrub cadence (seconds; 0 = off).
    scrub_interval: float = 0.0
    # Checkpoint + WAL-compaction cadence (seconds; 0 = off).
    checkpoint_interval: float = 0.0
    # Admission control: bound the leader's proposal pipeline and shed
    # past it with Busy(retry_after); False admits everything.
    admission_control: bool = True
    # Pipeline depth in Paxos instances (the command budget is this
    # times ``batch_max_commands``).
    max_inflight_proposals: int = 32
    # Per-tenant admission queue bound; beyond it requests are shed.
    max_queued_requests: int = 128
    # Weighted-DRR admission weight per tenant tag; unlisted tenants
    # get 1.0. Copied on construction, so the config stays frozen.
    tenant_weights: dict[str, float] = field(default_factory=dict)
    # Hedge a slow share fetch with a request to the next-fastest peer.
    hedge_fetches: bool = True
    # Rank fetch sources by RTT estimate plus outstanding fetches;
    # False draws them in seeded random order (the readpath baseline).
    rtt_select: bool = True
    # Leader-side batching: commands per Paxos value (1 = off, the
    # unbatched pipeline bit for bit), framed-bytes cap, and the most
    # a partial batch waits for company (sim seconds).
    batch_max_commands: int = 1
    batch_max_bytes: int = 256 * 1024
    batch_linger: float = 0.001
    # Range-mode sharding through a replicated config group; False
    # keeps the paper's static crc32 hash map.
    dynamic_shards: bool = False
    # Per-group in-flight proposal cap (0 = uncapped).
    max_group_pipeline: int = 0
    # Leader's load-driven split/merge tick (seconds; 0 = off).
    rebalance_interval: float = 0.0

    def __post_init__(self) -> None:
        weights = dict(self.tenant_weights)
        for t, w in weights.items():
            if w <= 0:
                raise ValueError(f"tenant weight must be > 0: {t!r}={w}")
        object.__setattr__(self, "tenant_weights", weights)
        object.__setattr__(
            self, "batch_max_commands", max(1, self.batch_max_commands))
