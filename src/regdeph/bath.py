"""Bosonic bath description: dispersion, coupling spectrum, thermal weights.

Units: hbar = k_B = 1 throughout.  Modes have linear dispersion
``omega = v * |k|`` and carry a coupling weight ``g2 = |g(omega)|^2`` times the
quadrature weight of the frequency grid.  Mode sets are always generated in
inversion-symmetric pairs (every stored wave vector appears together with its
negative, the weight split evenly): the closed-form coherence factors in
:mod:`regdeph.core` are exact only for inversion-symmetric mode sets.

Because a pair contributes to every coherence through ``omega``, ``g2`` and
``|S(k)| = |S(-k)|`` alone, :attr:`BathSpectrum.folded` keeps one mode of each
pair with the pair's summed weight, and :mod:`regdeph.core` sums over that
half.  The full set stays on ``omega``, ``k`` and ``g2`` for everything else:
mode counts, CSV export, spectral moments and the brute-force oracle.

The builders place ``J`` frequency shells on a uniform grid and split each
shell over one inversion-closed direction set, and they record that grid on
the bath (:class:`ShellGrid`): the folded modes are then shell-major,
``j*D + d`` over the ``J`` shells and the ``D`` kept half-directions.
:mod:`regdeph.core` uses the grid to evaluate structure factors as a
geometric ladder and the time kernels once per shell.  A hand-built bath
carries no grid and is summed mode by mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._checks import integer, real

__all__ = [
    "PowerLawCoupling",
    "GaussianPeakCoupling",
    "BathSpectrum",
    "ModeSet",
    "ShellGrid",
    "SpectralMoments",
    "coth_half",
    "discretize_spectrum",
    "gaussian_peak_modes",
    "spectral_moments",
]


def coth_half(omega, temperature: float):
    """coth(omega / 2T) elementwise, with the exact T = 0 limit of 1."""
    omega = np.asarray(omega, dtype=float)
    if real(temperature, "temperature", ">= 0") == 0:
        return np.ones_like(omega)
    return 1.0 / np.tanh(omega / (2.0 * temperature))


@dataclass(frozen=True)
class PowerLawCoupling:
    """Coupling weight ``|g(omega)|^2 = A * omega**p * exp(-omega/cutoff)``.

    The default exponent ``p = 1`` (ohmic) keeps the zero-frequency end of the
    damping sum integrable even at finite temperature.
    """

    amplitude: float = 1.0
    exponent: float = 1.0
    cutoff: float = 1.0

    def __post_init__(self):
        real(self.amplitude, "amplitude", ">= 0")
        real(self.exponent, "exponent")
        real(self.cutoff, "cutoff", "positive")

    def g2(self, omega):
        omega = np.asarray(omega, dtype=float)
        return self.amplitude * omega**self.exponent * np.exp(-omega / self.cutoff)


@dataclass(frozen=True)
class GaussianPeakCoupling:
    """Coupling whose dephasing weight ``g2/omega^2`` is a Gaussian peak.

    ``|g(omega)|^2 = A * omega^2 * exp(-(omega-center)^2 / (2 width^2))``, so the
    normalized weight entering phase-damping sums is the Gaussian itself.  Used
    for narrow-band (peaked-spectrum) registers.
    """

    center: float
    width: float
    amplitude: float = 1.0

    def __post_init__(self):
        real(self.center, "center", "positive")
        real(self.width, "width", "positive")
        real(self.amplitude, "amplitude", ">= 0")

    def g2(self, omega):
        omega = np.asarray(omega, dtype=float)
        return self.amplitude * omega**2 * np.exp(-((omega - self.center) ** 2) / (2.0 * self.width**2))


def _direction_set(dimensionality: int, n_directions: int) -> np.ndarray:
    """Unit propagation directions, always closed under inversion.

    1-D: the +x / -x pair.  3-D: a fixed Fibonacci-sphere set of
    ``n_directions/2`` points together with their antipodes, so
    ``n_directions`` must be even and at least 2.
    """
    if dimensionality == 1:
        return np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    if dimensionality != 3:
        raise ValueError(f"dimensionality must be 1 or 3, got {dimensionality}")
    if n_directions < 2 or n_directions % 2:
        raise ValueError(f"3-D direction count must be even and >= 2, got {n_directions}")
    half = n_directions // 2
    idx = np.arange(half)
    z = 1.0 - (2.0 * idx + 1.0) / (2.0 * half)
    r = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    theta = idx * np.pi * (3.0 - np.sqrt(5.0))
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    return np.vstack([pts, -pts])


class ModeSet(NamedTuple):
    """Read-only per-mode frequencies ``(M,)``, wave vectors ``(M, 3)`` and weights ``(M,)``."""

    omega: np.ndarray
    k: np.ndarray
    g2: np.ndarray


class ShellGrid(NamedTuple):
    """The builders' mode grid: shell frequencies ``(J,)``, uniformly spaced, and the
    kept half of the direction set ``(D, 3)``.  Folded mode ``j*D + d`` has frequency
    ``freqs[j]`` and wave vector ``(freqs[j] / v) * dirs[d]``."""

    freqs: np.ndarray
    dirs: np.ndarray


@dataclass(frozen=True)
class BathSpectrum:
    """Discretized bath: per-mode wave vectors, frequencies and coupling weights.

    Immutable after construction: ``omega``, ``k``, ``g2`` and the grid are
    read-only copies of what the caller passed, so a later write to the
    caller's arrays, or to the base of a view, leaves the bath as it was.
    ``omega``, ``k`` and ``g2`` always hold the full mode set; :attr:`folded`
    is the half that the closed form sums over when every mode has an
    inversion partner.  ``grid`` is the builders' shell grid, or None for a
    hand-built set.
    """

    omega: np.ndarray
    k: np.ndarray
    g2: np.ndarray
    v: float
    temperature: float = 0.0
    grid: ShellGrid | None = None

    def __post_init__(self):
        # copies: the caller's arrays, and the bases of views, stay the caller's to write
        omega, k, g2 = (np.array(arr, dtype=float, order="C")
                        for arr in (self.omega, self.k, self.g2))
        if omega.ndim != 1 or k.shape != (omega.size, 3) or g2.shape != omega.shape:
            raise ValueError("inconsistent mode array shapes")
        if omega.size == 0:
            raise ValueError("bath needs at least one mode")
        if not np.all(np.isfinite(omega) & (omega > 0)):
            raise ValueError("all mode frequencies omega must be finite and positive (k = 0 excluded)")
        if not np.all(np.isfinite(g2) & (g2 >= 0)):
            raise ValueError("coupling weights g2 must be finite and >= 0")
        real(self.v, "propagation velocity v", "positive")
        real(self.temperature, "temperature", ">= 0")
        knorm = self.v * np.linalg.norm(k, axis=1)
        if not np.allclose(knorm, omega, rtol=1e-10, atol=0.0):
            raise ValueError("dispersion violated: omega != v*|k| for some mode")
        for name, arr in (("omega", omega), ("k", k), ("g2", g2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.grid is not None:
            grid = ShellGrid(*(np.array(arr, dtype=float, order="C") for arr in self.grid))
            for arr in grid:
                arr.setflags(write=False)
            object.__setattr__(self, "grid", grid)

    @property
    def n_modes(self) -> int:
        return self.omega.size

    @property
    def inversion_closed(self) -> bool:
        """True when every mode has an exact partner: the same ``omega`` and the negated ``k``."""
        return self.folded.omega.size < self.n_modes

    @cached_property
    def folded(self) -> ModeSet:
        """The mode set with every ``+k/-k`` pair folded into one mode.

        Each pair keeps its first mode, weighted ``g2(k) + g2(-k)``.  A
        dephasing coherence depends on a mode only through ``omega``, ``g2``
        and ``|S(k)|``, and ``|S(-k)| = |S(k)|`` for real spins, so every mode
        sum of :mod:`regdeph.core` is the same over this half.  A set that is
        not inversion-closed is returned whole.

        Partners are found bit for bit: modes sorted by ``(omega, k)`` and by
        ``(omega, -k)`` line up exactly when every mode has one.  The sorts
        are stable, so repeated wave vectors pair off in order of appearance.
        A bath with a ``grid`` must fold to exactly its shell-major modes.
        """
        kx, ky, kz = self.k.T
        by_k = np.lexsort((kz, ky, kx, self.omega))
        by_minus_k = np.lexsort((-kz, -ky, -kx, self.omega))
        folded = ModeSet(self.omega, self.k, self.g2)
        if np.array_equal(self.k[by_k], -self.k[by_minus_k]):
            partner = np.empty_like(by_k)
            partner[by_k] = by_minus_k
            keep = np.flatnonzero(np.arange(self.n_modes) < partner)
            folded = ModeSet(self.omega[keep], self.k[keep], self.g2[keep] + self.g2[partner[keep]])
            for arr in folded:
                arr.setflags(write=False)
        if self.grid is not None:
            freqs, dirs = self.grid
            gaps = np.diff(freqs)
            if not (np.array_equal(folded.omega, np.repeat(freqs, len(dirs)))
                    and np.array_equal(folded.k, (freqs[:, None, None] / self.v * dirs).reshape(-1, 3))
                    and np.all(np.abs(gaps - gaps[:1]) <= 1e-12 * freqs[-1])):
                raise ValueError("grid: the folded modes are not its uniform shells, shell-major")
        return folded


def _assemble(freqs, weights, v, temperature, dimensionality, n_directions):
    real(v, "propagation velocity v", "positive")  # before the division by it
    dirs = _direction_set(dimensionality, n_directions)
    n_dir = len(dirs)
    omega = np.repeat(freqs, n_dir)
    g2 = np.repeat(weights / n_dir, n_dir)
    k = (np.repeat(freqs, n_dir)[:, None] / v) * np.tile(dirs, (len(freqs), 1))
    return BathSpectrum(omega=omega, k=k, g2=g2, v=v, temperature=temperature,
                        grid=ShellGrid(freqs, dirs[:n_dir // 2]))


def discretize_spectrum(
    coupling,
    v: float,
    dimensionality: int = 1,
    n_freq: int = 1024,
    omega_max: float = 10.0,
    temperature: float = 0.0,
    n_directions: int = 12,
) -> BathSpectrum:
    """Build a mode set from a coupling form on a uniform frequency grid.

    ``n_freq`` frequencies are placed at ``j * omega_max / n_freq`` for
    ``j = 1..n_freq`` (the zero-frequency point is excluded); each carries
    quadrature weight ``g2(omega) * omega_max / n_freq``, split evenly over the
    direction set of its shell.  Doubling ``n_freq`` refines the grid toward
    the continuum spectral sums.
    """
    n_freq = integer(n_freq, "n_freq", 1)
    step = real(omega_max, "omega_max", "positive") / n_freq
    freqs = step * np.arange(1, n_freq + 1)
    weights = coupling.g2(freqs) * step
    return _assemble(freqs, weights, v, temperature, dimensionality, n_directions)


def gaussian_peak_modes(
    center: float,
    width: float,
    v: float,
    dimensionality: int = 1,
    n_freq: int = 201,
    n_sigma: float = 6.0,
    amplitude: float = 1.0,
    temperature: float = 0.0,
    n_directions: int = 12,
) -> BathSpectrum:
    """Named preset: a narrow Gaussian dephasing weight centered at ``center``.

    The grid spans ``center +- n_sigma*width`` (clipped to positive
    frequencies) so the peak is fully resolved without wasting modes on the
    empty tails.  A single shell sits at ``center`` with weight ``g2(center) * width``.
    """
    n_freq = integer(n_freq, "n_freq", 1)
    real(n_sigma, "n_sigma", "positive")
    coupling = GaussianPeakCoupling(center=center, width=width, amplitude=amplitude)
    if n_freq == 1:
        freqs, step = np.array([center]), width
    else:
        lo = max(center - n_sigma * width, 1e-12 * center)
        hi = center + n_sigma * width
        freqs = np.linspace(lo, hi, n_freq)
        step = (hi - lo) / (n_freq - 1)
    weights = coupling.g2(freqs) * step
    return _assemble(freqs, weights, v, temperature, dimensionality, n_directions)


@dataclass(frozen=True)
class SpectralMoments:
    """Mean and width of the two normalized dephasing weights.

    Channel 1 weights each mode by ``g2 * coth(omega/2T) / omega^2`` (the
    damping channel); channel 2 by ``g2 / omega^2`` (the phase channel).
    """

    mean1: float
    width1: float
    mean2: float
    width2: float

    def __post_init__(self):
        for name in ("mean1", "mean2"):
            real(getattr(self, name), f"spectral mean {name}", "positive")
        for name in ("width1", "width2"):
            real(getattr(self, name), f"spectral width {name}", ">= 0")


def _normalized(weights):
    """``weights`` divided by their sum, which must be positive."""
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero: no normalizable distribution")
    return weights / total


def _weighted_mean_std(omega, weights):
    h = _normalized(weights)
    mean = float(np.sum(h * omega))
    var = float(np.sum(h * (omega - mean) ** 2))
    return mean, np.sqrt(max(var, 0.0))


def spectral_moments(bath: BathSpectrum) -> SpectralMoments:
    """Mean and standard deviation of the mode frequency under each weight.

    The time-dependent modulation of the damping channel is dropped, so the
    moments characterize the bath alone.
    """
    w1 = bath.g2 * coth_half(bath.omega, bath.temperature) / bath.omega**2
    w2 = bath.g2 / bath.omega**2
    mean1, width1 = _weighted_mean_std(bath.omega, w1)
    mean2, width2 = _weighted_mean_std(bath.omega, w2)
    return SpectralMoments(mean1=mean1, width1=width1, mean2=mean2, width2=width2)
