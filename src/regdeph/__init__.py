"""Dephasing dynamics of qubit registers coupled to a common bosonic bath.

Subpackages cover register geometry, bath discretization, the exact
coherence-factor dynamics, decoherence-regime classification, pairing
encodings, a brute-force verification oracle, and a deterministic CLI.

The names below are imported from their modules on first use (PEP 562), so
``import regdeph`` loads neither numpy nor any of them; ``regdeph.X`` is the
very object ``regdeph.<module>.X``.
"""
import importlib

__version__ = "0.1.0"

# module -> the names this package re-exports from it
_HOMES = {
    "bath": ("BathSpectrum", "GaussianPeakCoupling", "PowerLawCoupling", "SpectralMoments",
             "discretize_spectrum", "gaussian_peak_modes", "spectral_moments"),
    "codes": ("PairingPlan", "encode_adjacent", "encode_modulated", "find_pairing",
              "subdecoherence_residual"),
    "core": ("DecoherenceFactors", "damping_exponent", "damping_weight", "evolve", "fidelity",
             "fidelity_curve", "label_phase", "lamb_phase", "pair_factors", "phase_weight"),
    "geometry": ("RegisterGeometry", "apply_disorder", "build_lattice"),
    "regimes": ("RegimeReport", "classify", "disorder_average_weights",
                "fourier_suppression", "independent_limit_factors"),
    "states": ("BasisLabel", "RegisterState"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

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


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
