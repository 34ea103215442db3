"""Measurement substrate: synthetic campaign + Section 3 aggregation."""

from .aggregation import (
    DurationVolumeCurve,
    ServiceDayStats,
    aggregate_per_bs_day,
    minute_arrival_counts,
    pooled_duration_volume,
    pooled_volume_pdf,
    service_shares,
    share_variability,
)
from .averaging import average_duration_volume, average_volume_pdf, filter_stats
from .mobility import MobilityModel, truncate_sessions
from .network import RAT, BaseStation, Network, NetworkConfig, Region
from .profiles import PROFILES, GroundTruthProfile, get_profile
from .records import SERVICE_NAMES, SessionRecord, SessionTable
from .services import SERVICES, ServiceInfo, get_service
from .simulator import SimulationConfig, simulate
from .streaming import CampaignAccumulator, simulate_aggregated

__all__ = [
    "PROFILES",
    "RAT",
    "SERVICES",
    "SERVICE_NAMES",
    "BaseStation",
    "CampaignAccumulator",
    "DurationVolumeCurve",
    "GroundTruthProfile",
    "MobilityModel",
    "Network",
    "NetworkConfig",
    "Region",
    "ServiceDayStats",
    "ServiceInfo",
    "SessionRecord",
    "SessionTable",
    "SimulationConfig",
    "aggregate_per_bs_day",
    "average_duration_volume",
    "average_volume_pdf",
    "filter_stats",
    "get_profile",
    "get_service",
    "minute_arrival_counts",
    "pooled_duration_volume",
    "pooled_volume_pdf",
    "service_shares",
    "share_variability",
    "simulate",
    "simulate_aggregated",
    "truncate_sessions",
]
