"""Randomized fault exploration (Jepsen-style, fully deterministic).

``repro.chaos`` turns the deterministic simulator into a property-based
whole-system stress tool: every episode derives its fault schedule,
workload and network behaviour from a single seed, runs them against a
live KV cluster, and hands the observed history plus the final
replicated state to :mod:`repro.check`. A failing seed replays exactly
and ships as a JSON repro bundle.
"""

from .runner import (
    CHAOS_SERVER, SHORT_SPEC, ChaosRunner, ChaosSpec, EpisodeResult,
)
from .schedule import ChaosEvent, ScheduleSpec, arm_schedule, generate_schedule

__all__ = [
    "CHAOS_SERVER",
    "SHORT_SPEC",
    "ChaosEvent",
    "ChaosRunner",
    "ChaosSpec",
    "EpisodeResult",
    "ScheduleSpec",
    "arm_schedule",
    "generate_schedule",
]
