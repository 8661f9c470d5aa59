"""Dephasing dynamics of qubit registers coupled to a common bosonic bath.

Subpackages cover register geometry, bath discretization, the exact
coherence-factor dynamics, decoherence-regime classification, pairing
encodings, a brute-force verification oracle, and a deterministic CLI.

The names of ``_HOMES`` are imported from their modules on first use
(PEP 562), so ``import regdeph`` loads neither numpy nor any of them;
``regdeph.X`` is the very object ``regdeph.<module>.X``.  ``cli`` and
``codes`` declare the few names they resolve the same way through
:func:`_resolver`.
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

__all__ = [*_HOME, "__version__"]


def _resolver(module: str, homes: dict[str, str]):
    """A PEP 562 ``__getattr__`` for ``module`` that resolves each name of ``homes``.

    ``homes`` maps a name to the package module it lives in; the name resolves
    to that module's current binding, imported on first use, so a tool that
    rebinds the home module's function is seen through ``module`` too.
    """
    def __getattr__(name: str):
        if name in homes:
            return getattr(importlib.import_module(f".{homes[name]}", __name__), name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


__getattr__ = _resolver(__name__, _HOME)


def __dir__():
    return sorted(set(globals()) | set(__all__))
