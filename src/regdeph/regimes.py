"""Decoherence-regime classification and disorder-averaging checks.

Whether a register dephases independently or collectively is controlled by
dimensionless combinations of the bath's spectral moments with the disorder
amplitude and the lattice constant.  This module computes those parameters,
applies explicit thresholds (the asymptotic conditions are concretized with a
factor-of-ten margin), and provides the Monte Carlo machinery that checks the
strong-disorder limits numerically.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bath import BathSpectrum, SpectralMoments
from . import core
from .core import BasisLabel, _pair_weights, _shell_freqs, _shell_kernels, _times
from .core import damping_weight  # noqa: F401  (callers reach it as regimes.damping_weight)
from .geometry import RegisterGeometry, apply_disorder

__all__ = [
    "RegimeReport",
    "MonteCarloEstimate",
    "FourierSuppression",
    "classify",
    "disorder_average_weights",
    "fourier_suppression",
    "independent_limit_factors",
    "damping_scale",
    "phase_scale",
]

_SHARP = np.pi          # threshold for "at least pi"
_MARGIN = 10.0          # concretization of "much larger / much smaller"


@dataclass(frozen=True)
class RegimeReport:
    """Raw regime parameters plus the threshold classification.

    ``p_ind1*`` compare the disorder amplitude to the effective wavelength,
    ``p_ind2*`` compare the spectral width to the lattice constant,
    ``p_coll1*`` compare the lattice constant to the effective wavelength, and
    ``p_coll2`` is the pairing-relaxed width condition at distance ``m``.
    All parameters are reported so callers may apply their own cutoffs.
    """

    p_ind1a: float
    p_ind1b: float
    p_ind2a: float
    p_ind2b: float
    p_coll1a: float
    p_coll1b: float
    p_coll2: float
    pairing_distance: int
    classification: str

    def as_dict(self) -> dict:
        return asdict(self)


def classify(geometry: RegisterGeometry, moments: SpectralMoments,
             m: int = 1, v: float = 1.0) -> RegimeReport:
    """Classify the register's decoherence regime from geometry and bath moments.

    The moments are divided by the propagation velocity ``v`` to form
    wavenumber-like parameters.  Thresholds: Independent-1 needs both
    mean-frequency/disorder parameters at least pi; Independent-2 needs both
    width/lattice parameters at least 10; the collective regimes need the
    independent-1 parameters below pi/10, plus (Collective-1) lattice
    parameters below pi/10 or (Collective-2) the m-relaxed width parameter
    below 0.1.  Anything else is Intermediate.
    """
    if m < 1:
        raise ValueError(f"pairing distance must be >= 1, got {m}")
    if v <= 0:
        raise ValueError(f"velocity must be positive, got {v}")
    delta, d = geometry.delta, geometry.d
    p_ind1a = moments.mean1 * delta / v
    p_ind1b = moments.mean2 * delta / v
    p_ind2a = moments.width1 * d / v
    p_ind2b = moments.width2 * d / v
    p_coll1a = moments.mean1 * d / v
    p_coll1b = moments.mean2 * d / v
    p_coll2 = max(moments.width1, moments.width2) * m * d / v
    independent1 = p_ind1a >= _SHARP and p_ind1b >= _SHARP
    independent2 = p_ind2a >= _MARGIN and p_ind2b >= _MARGIN
    small_disorder = p_ind1a <= _SHARP / _MARGIN and p_ind1b <= _SHARP / _MARGIN
    collective1 = small_disorder and p_coll1a <= _SHARP / _MARGIN and p_coll1b <= _SHARP / _MARGIN
    collective2 = small_disorder and p_coll2 <= 0.1
    if independent1:
        label = "Independent-1"
    elif independent2:
        label = "Independent-2"
    elif collective1:
        label = "Collective-1"
    elif collective2:
        label = "Collective-2"
    else:
        label = "Intermediate"
    return RegimeReport(p_ind1a=p_ind1a, p_ind1b=p_ind1b, p_ind2a=p_ind2a,
                        p_ind2b=p_ind2b, p_coll1a=p_coll1a, p_coll1b=p_coll1b,
                        p_coll2=p_coll2, pairing_distance=m, classification=label)


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    n_samples: int


def disorder_average_weights(i: BasisLabel, j: BasisLabel, k_magnitude: float,
                             geometry: RegisterGeometry,
                             n_samples: int) -> tuple[MonteCarloEstimate, MonteCarloEstimate]:
    """Monte Carlo means of the damping and phase weights over site disorder.

    The wave vector is held fixed along the first lattice axis with the given
    magnitude; each sample redraws the site offsets with a seed derived from
    ``(geometry.seed, sample_index)``, so the aggregate is deterministic and
    independent of evaluation order.

    The samples' positions are stacked in blocks of at most ``core.CHUNK`` sites,
    and each block's weights come from one batched call.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples for an error estimate, got {n_samples}")
    k_vec = np.array([k_magnitude, 0.0, 0.0])
    ideal = geometry.ideal_positions()
    lam1, lam2 = np.empty((2, n_samples))
    step = max(1, core.CHUNK // len(ideal))
    for lo in range(0, n_samples, step):
        hi = min(lo + step, n_samples)
        positions = np.stack([apply_disorder(ideal, geometry.delta, (geometry.seed, idx))
                              for idx in range(lo, hi)])
        lam1[lo:hi], lam2[lo:hi] = _pair_weights(i, j, k_vec, positions)

    def estimate(values):
        return MonteCarloEstimate(mean=float(np.mean(values)),
                                  stderr=float(np.std(values, ddof=1) / np.sqrt(n_samples)),
                                  n_samples=n_samples)

    return estimate(lam1), estimate(lam2)


@dataclass(frozen=True)
class FourierSuppression:
    """Gaussian suppression estimate, optionally next to the exact grid average."""

    estimate: float
    grid_value: float | None = None


def fourier_suppression(delta_omega: float, s: float = 1.0, d: float = 1.0,
                        v: float = 1.0,
                        bath: BathSpectrum | None = None) -> FourierSuppression:
    """Suppression of cross-site phase averages by spectral width.

    ``s`` is the order-one site-separation factor (default 1).  Returns
    ``exp(-(delta_omega*s*d/v)**2)``.  When a bath is supplied, the exact
    ``|<exp(i s d omega / v)>|`` under the normalized ``g2/omega^2`` weight of
    its mode grid is computed alongside for comparison.
    """
    if delta_omega < 0 or s <= 0 or d <= 0 or v <= 0:
        raise ValueError("inputs must be positive (delta_omega >= 0)")
    estimate = float(np.exp(-((delta_omega * s * d / v) ** 2)))
    grid_value = None
    if bath is not None:
        w = bath.g2 / bath.omega**2
        h = w / w.sum()
        grid_value = float(np.abs(np.sum(h * np.exp(1j * s * d * bath.omega / v))))
    return FourierSuppression(estimate=estimate, grid_value=grid_value)


def _mode_sums(bath: BathSpectrum, t: float) -> tuple[float, float]:
    """The damping and phase kernels at time ``t`` summed over all modes, shell by shell."""
    _, k_eta, k_phi = next(_shell_kernels(bath, _times(t), 1))
    w, _, g2 = bath.folded
    weight = (g2 / w**2).reshape(len(_shell_freqs(bath)), -1).sum(1)  # over each shell
    return float(k_eta[0] @ weight), float(k_phi[0] @ weight)


def damping_scale(bath: BathSpectrum, t: float) -> float:
    """Common damping sum shared by all coherences in the independent limit.

    A label pair differing on ``n`` qubits damps with exponent ``4n`` times
    this value; equivalently it is one quarter of the single-flip exponent.
    """
    return _mode_sums(bath, t)[0]


def phase_scale(bath: BathSpectrum, t: float) -> float:
    """Companion phase sum: per-unit-weight magnitude of the coherent phase."""
    return _mode_sums(bath, t)[1]


def independent_limit_factors(i: BasisLabel, j: BasisLabel, t: float,
                              bath: BathSpectrum) -> tuple[float, float]:
    """Damping exponent and phase in the fully independent limit.

    The exponent is the common damping sum times the squared spin difference;
    the coherent phase vanishes identically in this limit.
    """
    diff = i.as_array() - j.as_array()
    return damping_scale(bath, t) * float(np.sum(diff**2)), 0.0
