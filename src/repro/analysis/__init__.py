"""Characterization toolkit: PDFs, distances, clustering, ranking (Sec. 4).

The low-level pieces (histograms, distances, clustering, metrics) are
imported eagerly.  :mod:`~repro.analysis.comparisons` and
:mod:`~repro.analysis.ranking` consume the dataset layer (which itself
builds on the histograms here), so they are exposed lazily to keep the
import graph acyclic.
"""

from .clustering import (
    CentroidHierarchicalClustering,
    silhouette_profile,
    silhouette_score,
)
from .emd import emd, emd_matrix
from .histogram import LOG_CENTERS, LOG_GRID, LogHistogram
from .metrics import (
    BoxplotStats,
    absolute_percentage_error,
    coefficient_of_variation,
    r_squared,
)
from .normalization import zero_mean, zero_mean_all
from .replication import MetricSummary, ReplicationSummary, replicate
from .sed import sed

_LAZY = {
    "InvarianceReport": ("comparisons", "InvarianceReport"),
    "invariance_report": ("comparisons", "invariance_report"),
    "ExponentialLawFit": ("ranking", "ExponentialLawFit"),
    "RankedService": ("ranking", "RankedService"),
    "fit_exponential_law": ("ranking", "fit_exponential_law"),
    "rank_services": ("ranking", "rank_services"),
    "top_k_session_fraction": ("ranking", "top_k_session_fraction"),
    "CampaignReport": ("validation", "CampaignReport"),
    "Finding": ("validation", "Finding"),
    "Severity": ("validation", "Severity"),
    "ks_distance": ("validation", "ks_distance"),
    "qq_max_deviation": ("validation", "qq_max_deviation"),
    "qq_points": ("validation", "qq_points"),
    "validate_campaign": ("validation", "validate_campaign"),
}


def __getattr__(name: str):
    """Lazily resolve the dataset-dependent members (PEP 562)."""
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoxplotStats",
    "CampaignReport",
    "CentroidHierarchicalClustering",
    "ExponentialLawFit",
    "InvarianceReport",
    "LOG_CENTERS",
    "LOG_GRID",
    "LogHistogram",
    "MetricSummary",
    "RankedService",
    "ReplicationSummary",
    "absolute_percentage_error",
    "coefficient_of_variation",
    "emd",
    "emd_matrix",
    "fit_exponential_law",
    "invariance_report",
    "r_squared",
    "replicate",
    "rank_services",
    "ks_distance",
    "qq_max_deviation",
    "qq_points",
    "sed",
    "silhouette_profile",
    "silhouette_score",
    "top_k_session_fraction",
    "validate_campaign",
    "zero_mean",
    "zero_mean_all",
]
