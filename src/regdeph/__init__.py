"""Dephasing dynamics of qubit registers coupled to a common bosonic bath.

Subpackages cover register geometry, bath discretization, the exact
coherence-factor dynamics, decoherence-regime classification, pairing
encodings, a brute-force verification oracle, and a deterministic CLI.
"""
from .bath import (
    BathSpectrum,
    GaussianPeakCoupling,
    PowerLawCoupling,
    SpectralMoments,
    discretize_spectrum,
    gaussian_peak_modes,
    spectral_moments,
)
from .core import (
    BasisLabel,
    DecoherenceFactors,
    RegisterState,
    damping_exponent,
    damping_weight,
    evolve,
    fidelity,
    fidelity_curve,
    label_phase,
    lamb_phase,
    pair_factors,
    phase_weight,
)
from .codes import (
    PairingPlan,
    encode_adjacent,
    encode_modulated,
    find_pairing,
    subdecoherence_residual,
)
from .geometry import RegisterGeometry, apply_disorder, build_lattice
from .regimes import (
    RegimeReport,
    classify,
    disorder_average_weights,
    fourier_suppression,
    independent_limit_factors,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpectrum",
    "BasisLabel",
    "DecoherenceFactors",
    "GaussianPeakCoupling",
    "PairingPlan",
    "PowerLawCoupling",
    "RegimeReport",
    "RegisterGeometry",
    "RegisterState",
    "SpectralMoments",
    "apply_disorder",
    "build_lattice",
    "classify",
    "damping_exponent",
    "damping_weight",
    "discretize_spectrum",
    "disorder_average_weights",
    "encode_adjacent",
    "encode_modulated",
    "evolve",
    "fidelity",
    "fidelity_curve",
    "find_pairing",
    "fourier_suppression",
    "gaussian_peak_modes",
    "independent_limit_factors",
    "label_phase",
    "lamb_phase",
    "pair_factors",
    "phase_weight",
    "spectral_moments",
    "subdecoherence_residual",
    "__version__",
]
