"""In-house numerical fitting substrates (LM, Savitzky-Golay, Gaussian)."""

from .gaussian_fit import fit_main_lognormal, moment_gaussian
from .levenberg_marquardt import FitError, LMResult, fit_curve, levenberg_marquardt
from .savitzky_golay import savgol_coefficients, savgol_filter

__all__ = [
    "FitError",
    "LMResult",
    "fit_curve",
    "fit_main_lognormal",
    "levenberg_marquardt",
    "moment_gaussian",
    "savgol_coefficients",
    "savgol_filter",
]
