"""The paper's contribution: session-level traffic models (Section 5)."""

from .arrivals import (
    ArrivalModel,
    arrival_count_pmf,
    arrival_fit_error,
    fit_arrival_model,
    fit_arrival_model_from_days,
    fit_decile_arrival_models,
)
from .distributions import Gaussian, LogNormal10, LogNormalMixture, Pareto
from .drift import DriftReport, ServiceDrift, compare_banks
from .duration_model import FitFamily, PowerLawModel, fit_family, fit_power_law
from .generator import (
    BatchSampler,
    CampaignChunk,
    GenerationResult,
    TrafficGenerator,
    generate_campaign_reference,
)
from .model_bank import ModelBank
from .residuals import ResidualPeak, find_residual_peaks
from .service_mix import ServiceMix
from .service_model import SessionLevelModel, fit_service_model
from .volume_model import VolumeModel, decompose_volume_pdf, fit_volume_model

__all__ = [
    "ArrivalModel",
    "BatchSampler",
    "CampaignChunk",
    "FitFamily",
    "DriftReport",
    "GenerationResult",
    "Gaussian",
    "LogNormal10",
    "LogNormalMixture",
    "ModelBank",
    "Pareto",
    "PowerLawModel",
    "ResidualPeak",
    "ServiceDrift",
    "ServiceMix",
    "SessionLevelModel",
    "TrafficGenerator",
    "VolumeModel",
    "arrival_count_pmf",
    "arrival_fit_error",
    "compare_banks",
    "decompose_volume_pdf",
    "find_residual_peaks",
    "fit_arrival_model",
    "fit_arrival_model_from_days",
    "fit_decile_arrival_models",
    "fit_family",
    "fit_power_law",
    "fit_service_model",
    "fit_volume_model",
    "generate_campaign_reference",
]
