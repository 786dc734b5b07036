"""mlcp: exact, asymptotic, and Monte Carlo evaluation of the moment
generating function of the modulus characteristic polynomial of a
rotation-invariant two-dimensional determinantal ensemble."""

from .asymp import (
    AsymptoticCoeffs,
    GPair,
    ScanResult,
    compute_coeffs,
    eval_G,
    positivity_scan,
    predict,
)
from .errors import (
    AccuracyError,
    DomainError,
    MlcpError,
    RangeError,
    SingularPointError,
    UnsupportedOrderError,
)
from .exact_mgf import ExactResult, SplitDiagnostics, ln_mgf_exact, split_sums
from .params import Params
from .sampler import MCResult, mc_ln_mgf, mc_ln_mgf_sizes, sample_moduli

__all__ = [
    "AccuracyError",
    "AsymptoticCoeffs",
    "DomainError",
    "ExactResult",
    "GPair",
    "MCResult",
    "MlcpError",
    "Params",
    "RangeError",
    "ScanResult",
    "SingularPointError",
    "SplitDiagnostics",
    "UnsupportedOrderError",
    "compute_coeffs",
    "eval_G",
    "ln_mgf_exact",
    "mc_ln_mgf",
    "mc_ln_mgf_sizes",
    "positivity_scan",
    "predict",
    "sample_moduli",
    "split_sums",
]

__version__ = "0.1.0"
