"""Bi-modal model of per-minute session arrivals at a BS (Section 5.1).

The measured PDF of the number of sessions established per minute at any BS
is bi-modal (Fig 3): the daytime mode is a Gaussian whose standard deviation
tracks the mean as ``sigma ~ mu/10``, and the nighttime mode is a Pareto
with shape fixed to ``b = 1.765`` and a per-BS scale.  This module fits that
model from per-minute count samples and samples synthetic days from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset.circadian import MINUTES_PER_DAY, peak_minute_mask
from ..dataset.network import PARETO_SHAPE, PEAK_SIGMA_RATIO
from .distributions import Gaussian, Pareto


class ArrivalFitError(ValueError):
    """Raised when arrival samples cannot support a fit."""


@dataclass(frozen=True)
class ArrivalModel:
    """Fitted bi-modal arrival-rate model of one BS (or BS class).

    Attributes
    ----------
    peak_mu:
        Mean of the daytime Gaussian (sessions/minute).
    peak_sigma:
        Std of the daytime Gaussian; the paper automates it as ``mu/10``.
    night_scale:
        Scale of the nighttime Pareto.
    night_shape:
        Shape of the nighttime Pareto, fixed at 1.765 in the paper.
    """

    peak_mu: float
    peak_sigma: float
    night_scale: float
    night_shape: float = PARETO_SHAPE

    def __post_init__(self) -> None:
        if self.peak_mu <= 0:
            raise ArrivalFitError("peak_mu must be positive")
        if self.peak_sigma <= 0:
            raise ArrivalFitError("peak_sigma must be positive")
        if self.night_scale <= 0:
            raise ArrivalFitError("night_scale must be positive")

    @property
    def peak(self) -> Gaussian:
        """The daytime Gaussian component."""
        return Gaussian(self.peak_mu, self.peak_sigma)

    @property
    def night(self) -> Pareto:
        """The nighttime Pareto component."""
        return Pareto(self.night_shape, self.night_scale)

    def mixture_pdf(self, rates) -> np.ndarray:
        """Density of the full bi-modal PDF, weighting the two phases by
        their share of the day (the Fig 3 curves)."""
        rates = np.asarray(rates, dtype=float)
        day_fraction = peak_minute_mask().mean()
        return day_fraction * self.peak.pdf(rates) + (
            1.0 - day_fraction
        ) * self.night.pdf(rates)

    def sample_minute_counts(
        self, rng: np.random.Generator, peak_phase: np.ndarray
    ) -> np.ndarray:
        """Integer arrival counts for minutes flagged peak/off-peak.

        Draws one standard normal per peak minute, then one uniform per
        off-peak minute, and maps them through :func:`arrival_counts`.
        """
        peak_phase = np.asarray(peak_phase, dtype=bool)
        n_peak = int(peak_phase.sum())
        peak_z = rng.standard_normal(n_peak)
        night_q = rng.random(peak_phase.size - n_peak)
        return arrival_counts(
            [self], peak_z[None], night_q[None], peak_phase
        )[0]

    def sample_day(self, rng: np.random.Generator) -> np.ndarray:
        """Arrival counts for the 1440 minutes of one synthetic day."""
        return self.sample_minute_counts(rng, peak_minute_mask())


#: Peak-phase minutes of one day; the rest are the night phase.
N_PEAK_MINUTES = int(peak_minute_mask().sum())


def arrival_counts(
    models: Sequence[ArrivalModel],
    peak_z: np.ndarray,
    night_q: np.ndarray,
    peak_phase: np.ndarray,
) -> np.ndarray:
    """Integer arrival counts of many models from their raw draws.

    Row ``i`` maps ``models[i]``'s standard normals ``peak_z[i]`` (one
    per peak minute, in minute order) to ``mu + sigma * z`` and its
    uniforms ``night_q[i]`` (one per off-peak minute) through the Pareto
    inverse CDF ``scale / (1 - q) ** (1 / shape)``, then rounds to the
    nearest integer and clips at zero.  ``mu + sigma * z`` is exactly
    what ``rng.normal(mu, sigma)`` returns for the same normal draw, so
    the block form equals per-model sampling bit for bit.  Returns an
    ``(n, peak_phase.size)`` int64 array.
    """
    peak_phase = np.asarray(peak_phase, dtype=bool)
    params = np.array([
        (m.peak_mu, m.peak_sigma, m.night_scale, 1.0 / m.night_shape)
        for m in models
    ]).reshape(len(models), 4)
    mu, sigma, scale, inv_shape = np.split(params, 4, axis=1)
    counts = np.empty((len(models), peak_phase.size))
    counts[:, peak_phase] = mu + sigma * peak_z
    counts[:, ~peak_phase] = scale / (1.0 - night_q) ** inv_shape
    np.rint(counts, out=counts)
    np.maximum(counts, 0.0, out=counts)
    return counts.astype(np.int64)



def fit_arrival_model(
    minute_counts: np.ndarray, peak_phase: np.ndarray
) -> ArrivalModel:
    """Fit the bi-modal model from labelled per-minute arrival counts.

    Parameters
    ----------
    minute_counts:
        Per-minute session counts (any number of BS-days, flattened).
    peak_phase:
        Boolean array marking which samples belong to the daytime phase.

    Notes
    -----
    The daytime Gaussian mean is the sample mean of the peak-phase counts
    and its sigma is tied to the mean as ``mu/10`` (the automation the paper
    derives from observing ``sigma ~ mu/10`` across all BS classes).  The
    nighttime Pareto keeps the fixed shape 1.765 and matches the scale to
    the off-peak sample mean: ``mean = shape * scale / (shape - 1)``.
    """
    minute_counts = np.asarray(minute_counts, dtype=float)
    peak_phase = np.asarray(peak_phase, dtype=bool)
    if minute_counts.shape != peak_phase.shape:
        raise ArrivalFitError("counts and phase labels must align")
    if not np.any(peak_phase) or not np.any(~peak_phase):
        raise ArrivalFitError("need samples from both phases")

    peak_mu = float(minute_counts[peak_phase].mean())
    if peak_mu <= 0:
        raise ArrivalFitError("daytime samples have non-positive mean")

    night_mean = float(minute_counts[~peak_phase].mean())
    night_scale = night_mean * (PARETO_SHAPE - 1.0) / PARETO_SHAPE
    night_scale = max(night_scale, 1e-6)

    return ArrivalModel(
        peak_mu=peak_mu,
        peak_sigma=peak_mu * PEAK_SIGMA_RATIO,
        night_scale=night_scale,
    )


def fit_arrival_model_from_days(day_count_matrix: np.ndarray) -> ArrivalModel:
    """Fit from a ``(n_days, 1440)`` matrix of per-minute counts."""
    day_count_matrix = np.atleast_2d(np.asarray(day_count_matrix, dtype=float))
    if day_count_matrix.shape[1] != MINUTES_PER_DAY:
        raise ArrivalFitError("each row must hold 1440 per-minute counts")
    mask = np.tile(peak_minute_mask(), day_count_matrix.shape[0])
    return fit_arrival_model(day_count_matrix.ravel(), mask)


def arrival_count_pmf(model: ArrivalModel, max_count: int) -> np.ndarray:
    """PMF of integer per-minute arrival counts implied by the model.

    The generative model draws a real-valued rate (daytime Gaussian or
    nighttime Pareto, weighted by their share of the day) and rounds it to
    an integer count; the PMF integrates each component's density over the
    rounding interval of every count.
    """
    if max_count < 1:
        raise ArrivalFitError("max_count must be >= 1")
    day_fraction = float(peak_minute_mask().mean())
    edges = np.arange(max_count + 2) - 0.5  # rounding intervals per count
    day_cdf = model.peak.cdf(edges)
    night_cdf = model.night.cdf(np.clip(edges, model.night.scale, None))
    pmf = day_fraction * np.diff(day_cdf) + (1 - day_fraction) * np.diff(
        night_cdf
    )
    # Counts clip at zero: fold the below-zero mass into count 0.
    pmf[0] += day_fraction * float(model.peak.cdf(-0.5)) + (
        1 - day_fraction
    ) * float(model.night.cdf(model.night.scale))
    return np.clip(pmf, 0.0, None)


def arrival_fit_error(
    minute_counts: np.ndarray, model: ArrivalModel
) -> float:
    """EMD (in sessions/minute) between measured counts and the model.

    The Fig 3 goodness-of-fit number: earth-mover distance between the
    empirical PMF of the per-minute counts and the model-implied PMF, on
    their common integer support.
    """
    minute_counts = np.asarray(minute_counts)
    if minute_counts.size == 0:
        raise ArrivalFitError("need at least one count sample")
    top = int(max(minute_counts.max(), model.peak_mu * 2)) + 5
    empirical = np.bincount(
        minute_counts.astype(np.int64), minlength=top + 1
    ).astype(float)
    empirical = empirical[: top + 1] / empirical.sum()
    modelled = arrival_count_pmf(model, top)
    modelled = modelled / modelled.sum()
    return float(np.abs(np.cumsum(empirical - modelled)).sum())


@dataclass(frozen=True)
class DecileArrivalFit:
    """One decile's fitted arrival model plus its fit diagnostics.

    Attributes
    ----------
    decile:
        BS load decile index (0..9).
    model:
        The fitted bi-modal :class:`ArrivalModel`.
    emd:
        Earth-mover distance (sessions/minute) between the pooled measured
        per-minute counts and the model-implied PMF — the Fig 3
        goodness-of-fit number.
    n_minutes:
        Number of pooled per-minute count samples backing the fit.
    """

    decile: int
    model: ArrivalModel
    emd: float
    n_minutes: int


def fit_decile_arrivals_diagnosed(
    table, network, n_days: int
) -> dict[int, DecileArrivalFit]:
    """Fit one arrival model per BS load decile, with fit diagnostics.

    This is the Fig 3 fitting loop as a reusable helper: per decile, the
    per-minute counts of all its BSs over all days are pooled and fitted,
    and the fit's EMD against the pooled counts is recorded alongside the
    model.  Returns a dict keyed by decile index (0..9).
    """
    from ..dataset.aggregation import minute_arrival_counts

    fits: dict[int, DecileArrivalFit] = {}
    for decile in range(10):
        bs_ids = network.bs_ids_in_decile(decile)
        if not bs_ids:
            continue
        counts = minute_arrival_counts(table, bs_ids, n_days)
        flat = counts.reshape(len(bs_ids) * n_days, MINUTES_PER_DAY)
        model = fit_arrival_model_from_days(flat)
        fits[decile] = DecileArrivalFit(
            decile=decile,
            model=model,
            emd=arrival_fit_error(flat.ravel().astype(np.int64), model),
            n_minutes=int(flat.size),
        )
    return fits


def fit_decile_arrival_models(table, network, n_days: int) -> dict[int, ArrivalModel]:
    """Fit one arrival model per BS load decile from a campaign.

    Bare-model view of :func:`fit_decile_arrivals_diagnosed`, kept for
    callers that only need the sampled-from models (e.g. the release file).
    """
    return {
        decile: fit.model
        for decile, fit in fit_decile_arrivals_diagnosed(
            table, network, n_days
        ).items()
    }
