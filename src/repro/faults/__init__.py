"""Fault injection, chaos campaigns, and Monte-Carlo reliability."""

from repro.faults.chaos import (
    ChaosProfile,
    ChaosResult,
    run_campaign,
)
from repro.faults.domain import SectorScrubber, degraded_service_fraction
from repro.faults.injector import (
    FaultAction,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.markov import (
    exact_mttf_clustered_hours,
    exact_mttf_improved_hours,
    exact_time_to_k_concurrent_hours,
)
from repro.faults.reliability import (
    RebuildWindow,
    ReliabilityEstimate,
    catastrophic_condition,
    k_concurrent_condition,
    measure_rebuild_window,
    simulate_mean_time_to,
    simulate_mttds_with_measured_window,
)

__all__ = [
    "ChaosProfile",
    "ChaosResult",
    "FaultAction",
    "FaultEvent",
    "FaultSchedule",
    "RebuildWindow",
    "ReliabilityEstimate",
    "SectorScrubber",
    "catastrophic_condition",
    "degraded_service_fraction",
    "exact_mttf_clustered_hours",
    "exact_mttf_improved_hours",
    "exact_time_to_k_concurrent_hours",
    "k_concurrent_condition",
    "measure_rebuild_window",
    "run_campaign",
    "simulate_mean_time_to",
    "simulate_mttds_with_measured_window",
]
