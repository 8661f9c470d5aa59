"""Brute-force verification of the closed-form dynamics on small systems.

The coupling is diagonal in the register basis and different modes commute
at equal times, so the joint propagator factorizes into independent blocks
per (register label, mode).  Each block is integrated by a second-order
midpoint split-step scheme built directly from the time-dependent interaction
Hamiltonian — no damping/phase formulas from :mod:`regdeph.core` enter
anywhere in the integration path.
:func:`analytic_blocks` gives the analytic propagators of the same blocks.
Each block exponential, a step's or a displacement's, is the exact one of
the truncated generator, taken from one real eigenbasis of ``a + a+`` per
truncation plus a diagonal phase per block (:func:`_drive_exp`).

:func:`reduced_density` is the one way the bath is traced out, for cold
and thermal baths alike.  A thermal mode is diagonal in the number basis,
with Bose populations ``p_n`` (the vacuum at ``T = 0``), so a reduced-density
entry is exactly ``c_a c_b* prod_m sum_n p_mn <B_bm e_n | B_am e_n>``: no
sampling, no random numbers and no standard errors.  Entries are products
over modes of per-mode overlaps, so memory grows linearly in the number of
modes.

Desk scale only: the label count is exponential in the register size.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import integer, real
from .bath import BathSpectrum
from .core import BasisLabel, RegisterState

__all__ = [
    "TruncationLeakageError",
    "ThermalDensity",
    "OracleInstance",
    "InstanceCheck",
    "register_basis",
    "coherent_vector",
    "integrated_blocks",
    "analytic_blocks",
    "reduced_density",
    "thermal_reduced_density",
    "default_truncation",
    "random_instances",
    "check_instance",
    "default_suite",
]

LEAKAGE_TOL = 1e-6


class TruncationLeakageError(RuntimeError):
    """Raised when probability piles up in the top retained number state."""

    def __init__(self, leakage: float):
        super().__init__(
            f"truncation insufficient: top-level occupation probability {leakage:.3e} "
            f"exceeds {LEAKAGE_TOL:.0e}")
        self.leakage = leakage


def register_basis(n_qubits: int) -> tuple[BasisLabel, ...]:
    """All 2^L basis labels, in a fixed lexicographic (+1 before -1) order.

    The tuple is built once for each of the last few sizes, cached on the
    checked integer, so ``4.0`` and ``4`` share one; an invalid size raises
    every time.
    """
    return _basis(integer(n_qubits, "n_qubits", 1))


@lru_cache(maxsize=8)
def _basis(n_qubits: int) -> tuple[BasisLabel, ...]:
    return tuple(BasisLabel(s) for s in itertools.product((1, -1), repeat=n_qubits))


def _sector_couplings(bath: BathSpectrum, positions, labels) -> np.ndarray:
    """Drive coefficient of every (register label, mode) block, shape (S, M).

    The per-mode coupling magnitude is ``sqrt(g2)`` with phase convention
    ``exp(-i k . r_l)`` at qubit ``l``; each label contributes its spin sum.
    """
    pos = np.asarray(positions, dtype=float)
    spins = np.array([lab.as_array() for lab in labels])
    phases = np.exp(-1j * (pos @ bath.k.T))  # (L, M)
    return np.sqrt(bath.g2)[None, :] * (spins @ phases)


def default_truncation(bath: BathSpectrum, positions) -> int:
    """Truncation dimension heuristic: mean scale plus a wide safety band.

    Uses the largest displacement any register label can induce, ``2|b|/omega``
    at any time; the leakage monitor remains the hard check.
    """
    labels = register_basis(np.asarray(positions).shape[0])
    b = _sector_couplings(bath, positions, labels)
    disp = 2.0 * np.abs(b) / bath.omega[None, :]
    a = float(np.max(disp))
    return int(np.ceil(a * a + 6.0 * a)) + 10


def coherent_vector(alpha, dim: int) -> np.ndarray:
    """Truncated coherent-state columns, renormalized on the retained levels.

    ``alpha`` is one amplitude or an array of them; the result has shape
    ``(dim,) + shape(alpha)``, one column per amplitude.  The column is the
    cumulative product ``c_n = c_{n-1} alpha / sqrt(n)``.  Its entries grow
    while ``n <= |alpha|^2``, so ``c_0`` is chosen to make the largest
    retained one, at ``n = min(floor(|alpha|^2), dim - 1)``, of magnitude 1,
    which the renormalization absorbs, so a column truncated far below
    ``n = |alpha|^2`` still has a nonzero, finite norm.
    ``c_0`` is held at or above ``exp(-700)``, so that it stays a normal
    double; the largest entry is then at most ``exp(|alpha|^2 / 2 - 700)``.
    Above ``|alpha|^2 = 2100`` the squared norm of such a column would
    overflow, so larger amplitudes raise ``ValueError``, as does a ``dim``
    that is not an integer >= 1.

    The oracle's own bath trace does not use it: a thermal mode is traced over
    number states.  It builds coherent bath columns for callers that start the
    bath in a coherent state.
    """
    dim = integer(dim, "dim", 1)
    alpha = np.asarray(alpha, dtype=complex)
    r2 = np.abs(alpha) ** 2
    if np.any(r2 > 2100.0):
        raise ValueError(f"coherent amplitude |alpha|^2 = {np.max(r2):.4g} "
                         f"exceeds 2100")
    half_log_fact = 0.5 * np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    peak = np.minimum(np.floor(r2), dim - 1).astype(int)
    log_peak = 0.5 * peak * np.log(np.where(peak > 0, r2, 1.0)) - half_log_fact[peak]
    terms = np.empty((dim,) + alpha.shape, dtype=complex)
    terms[0] = np.exp(-np.minimum(log_peak, 700.0))
    terms[1:] = alpha / np.sqrt(np.arange(1, dim)).reshape((-1,) + (1,) * alpha.ndim)
    vec = np.cumprod(terms, axis=0)
    return vec / np.linalg.norm(vec, axis=0)


def _drive_exp(beta: np.ndarray, dim: int) -> np.ndarray:
    """``exp(-i (beta a + beta* a+))`` for every entry of ``beta``, shape ``beta.shape + (dim, dim)``.

    On the retained levels the generator is ``|beta| P (a + a+) P*`` with the
    number-operator rotation ``P = diag(exp(-i arg(beta) n))``, so one real
    eigendecomposition ``a + a+ = V diag(lam) V^T`` serves every block:
    the exponential is ``P V diag(exp(-i |beta| lam)) V^T P*``, and ``P`` is
    applied in place as a row and a column scaling.
    """
    dim = integer(dim, "dim", 1)
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)  # a on the levels 0..dim-1
    lam, vecs = np.linalg.eigh(lower + lower.T)
    out = (vecs * np.exp(-1j * np.abs(beta)[..., None, None] * lam)) @ vecs.T
    rot = np.exp(-1j * np.angle(beta)[..., None] * np.arange(dim))
    out *= rot[..., :, None]
    out *= np.conj(rot)[..., None, :]
    return out


def integrated_blocks(bath: BathSpectrum, positions, labels, t: float,
                      steps: int, dim: int) -> np.ndarray:
    """Midpoint split-step propagators of every (label, mode) block, shape (S, M, dim, dim).

    Step ``n`` applies ``exp(-i dt H(t_n))`` at the midpoint ``t_n = (n + 1/2) dt``.
    The drive phase there is a number-operator rotation ``R_n = R_half R_dt^n``
    of the zero-phase step ``B``, so step ``n`` is ``R_n B R_n*`` and the
    product of all steps telescopes to ``R_half R_dt^steps (R_dt* B)^steps
    R_half*``.  ``B`` is the exact exponential of the truncated step
    generator, taken from one real eigenbasis of ``a + a+`` and a diagonal
    phase per block (:func:`_drive_exp`).  The power is taken by repeated
    squaring for all blocks at once; no closed-form expression enters.
    """
    steps = integer(steps, "steps", 1)
    dt = real(t, "time", ">= 0") / steps
    base = _drive_exp(dt * _sector_couplings(bath, positions, labels), dim)
    rate = 1j * np.outer(bath.omega, np.arange(dim))  # (M, dim): i * omega * n
    base *= np.exp(-rate * dt)[..., None]
    power = np.linalg.matrix_power(base, steps)
    power *= np.exp(rate * (t + 0.5 * dt))[..., None]
    power *= np.exp(-rate * (0.5 * dt))[..., None, :]
    return power


def analytic_blocks(bath: BathSpectrum, positions, labels, t: float, dim: int,
                    include_phase: bool = True) -> np.ndarray:
    """Analytic propagators of every (label, mode) block, shape (S, M, dim, dim).

    Each block is a displacement times the scalar phase
    ``exp(i |b|^2 (wt - sin wt) / w^2)``; over the modes of a label the phases
    multiply to that label's phase.  The displacement ``exp(z a+ - z* a)`` on
    the retained levels comes from the same real eigenbasis and diagonal
    phase per block as the integrator's steps (:func:`_drive_exp`).  With
    ``include_phase=False`` the phase is dropped; this ablation is expected
    to disagree with :func:`integrated_blocks` whenever the phase matters.
    """
    real(t, "time", ">= 0")
    b = _sector_couplings(bath, positions, labels)  # (S, M)
    w = bath.omega
    z = np.conj(b) * (1.0 - np.exp(1j * w * t)) / w
    # exp(z a+ - z* a) = exp(-i (beta a + beta* a+)) with beta = -i z*
    blocks = _drive_exp(-1j * np.conj(z), dim)
    if include_phase:
        phi = np.abs(b) ** 2 * (w * t - np.sin(w * t)) / w**2
        blocks *= np.exp(1j * phi)[..., None, None]
    return blocks


def _bose_populations(bath: BathSpectrum) -> np.ndarray:
    """Thermal number-state populations of every mode, shape (M, n_th).

    Mode ``m`` holds level ``n`` with probability proportional to ``x_m^n``,
    ``x_m = exp(-omega_m / T)``.  The series stops at the first level
    ``n_th`` whose dropped tail ``x_max^n_th`` is at most ``LEAKAGE_TOL``;
    each row is renormalized to sum to 1 on the retained levels.  At
    ``T = 0`` every row is ``[1.0]``, the vacuum.
    """
    if bath.temperature == 0:
        return np.ones((bath.n_modes, 1))
    n_th = max(1, int(np.ceil(-np.log(LEAKAGE_TOL) * bath.temperature / np.min(bath.omega))))
    weights = np.exp(-bath.omega / bath.temperature)[:, None] ** np.arange(n_th)
    return weights / weights.sum(axis=1, keepdims=True)


@dataclass
class ThermalDensity:
    """Reduced register density after the bath is traced out.

    ``dim`` is the truncation dimension of every bath block and ``leakage``
    the largest population-weighted top-level probability of any block.
    """

    entries: dict[tuple[BasisLabel, BasisLabel], complex]
    dim: int
    leakage: float


def reduced_density(state: RegisterState, blocks: np.ndarray, populations) -> ThermalDensity:
    """Trace out the bath exactly over the number states of each mode.

    ``blocks`` are the (S, M, dim, dim) propagators of ``state.labels()``;
    ``populations`` holds one row of number-state probabilities per mode,
    (M, n), for the levels ``0..n-1``.  Entry ``(a, b)`` is ``c_a c_b*``
    times the product over modes of ``sum_n p_n <B_b e_n | B_a e_n>``: the
    retained columns of every block are scaled by ``sqrt(p)`` and reduced by
    one einsum over every label pair.  Raises
    :class:`TruncationLeakageError` when a block holds more than
    ``LEAKAGE_TOL`` population-weighted probability in its top retained level.
    """
    populations = np.asarray(populations, dtype=float)
    columns = blocks[..., :populations.shape[1]] * np.sqrt(populations)[:, None, :]
    leakage = float(np.max(np.sum(np.abs(columns[..., -1, :]) ** 2, axis=-1)))
    if leakage > LEAKAGE_TOL:
        raise TruncationLeakageError(leakage)
    overlaps = np.einsum("amdn,bmdn->abm", columns, np.conj(columns)).prod(axis=-1)
    amps = np.array([amp for _, amp in state.items()])
    rho = amps[:, None] * np.conj(amps)[None, :] * overlaps
    keys = list(itertools.product(state.labels(), repeat=2))  # row-major (a, b), as in rho
    return ThermalDensity(entries=dict(zip(keys, rho.ravel().tolist())),
                          dim=blocks.shape[-1], leakage=leakage)


def thermal_reduced_density(state: RegisterState, t: float, bath: BathSpectrum,
                            positions, steps: int = 2048) -> ThermalDensity:
    """Reduced register density against a thermal bath, by the exact number-state trace.

    Each mode starts in its Bose mixture (:func:`_bose_populations`, the
    vacuum at ``T = 0``); :func:`reduced_density` traces out the bath.  The
    truncation is the cold band ``default_truncation + 1`` raised by the
    highest retained initial level.  No random numbers are drawn.
    """
    populations = _bose_populations(bath)
    dim = default_truncation(bath, positions) + populations.shape[1]
    blocks = integrated_blocks(bath, positions, state.labels(), t, steps, dim)
    return reduced_density(state, blocks, populations)


# ---------------------------------------------------------------------------
# validation suite: brute force against the closed-form module
# ---------------------------------------------------------------------------

@dataclass
class OracleInstance:
    """One small register+bath system for cross-validation.

    ``n_samples`` and ``seed`` are not used by the oracle, whose thermal trace
    is exact; they are kept, with the draws that make them, so that existing
    instance lists and the code that selects instances by them are unchanged.
    """

    name: str
    state: RegisterState
    bath: BathSpectrum
    positions: np.ndarray
    t: float
    steps: int = 3000
    n_samples: int = 10_000
    seed: int = 0


@dataclass
class InstanceCheck:
    """Outcome of one cross-validation: worst deviation against its tolerance.

    Every instance, cold or thermal, is compared per entry in absolute terms.
    ``dim``, ``steps`` and ``leakage`` describe the oracle run: truncation
    dimension, integration steps and the largest population-weighted
    top-level probability of any bath block.
    """

    name: str
    deviation: float
    tolerance: float
    dim: int
    steps: int
    leakage: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _paired_bath(freqs, shell_g2, temperature=0.0) -> BathSpectrum:
    """Bath with every frequency shell emitted as a +/-k pair along x, the register axis."""
    omega = np.repeat(freqs, 2)
    k = np.outer(omega * np.tile([1.0, -1.0], len(freqs)), [1.0, 0.0, 0.0])
    return BathSpectrum(omega=omega, k=k, g2=np.repeat(shell_g2 / 2.0, 2),
                        v=1.0, temperature=temperature)


def _random_state(rng, n_qubits: int) -> RegisterState:
    labels = list(register_basis(n_qubits))
    n_support = int(rng.integers(2, min(4, len(labels)) + 1))
    chosen = rng.choice(len(labels), size=n_support, replace=False)
    amps = {labels[idx]: complex(rng.normal(), rng.normal()) for idx in chosen}
    return RegisterState.from_unnormalized(amps)


def random_instances(n_instances: int, seed: int = 7,
                     temperature: float = 0.0,
                     n_samples: int = 10_000) -> list[OracleInstance]:
    """Random small instances whose mode sets keep the closed form exact.

    Multi-qubit baths use inversion-symmetric frequency shells; single-mode
    instances are restricted to one qubit or to a collective wave vector
    (perpendicular to the register axis), where no unpaired cross term exists.
    ``n_samples`` only fills :attr:`OracleInstance.n_samples`, which the
    oracle does not use.
    """
    rng = np.random.default_rng(seed)
    instances = []
    for idx in range(n_instances):
        n_qubits = int(rng.integers(1, 4))
        d = float(rng.uniform(0.6, 1.6))
        positions = np.zeros((n_qubits, 3))
        positions[:, 0] = d * np.arange(n_qubits)
        positions[:, 0] += rng.normal(0.0, 0.05 * d, size=n_qubits)
        t = float(rng.uniform(1.0, 5.0))
        style = idx % 3
        if style == 1 or style == 0 and n_qubits == 1:
            # one mode: k along x on one qubit (style 0), along y, off the register axis, on any
            w = float(rng.uniform(0.6, 1.8))
            bath = BathSpectrum(omega=np.array([w]), k=w * np.eye(3)[[style]],
                                g2=np.array([float(rng.uniform(0.02, 0.08))]),
                                v=1.0, temperature=temperature)
            name = f"collective-mode-{n_qubits}q-{idx}" if style else f"single-mode-1q-{idx}"
        else:
            n_shells = int(rng.integers(1, 3))
            freqs = rng.uniform(0.6, 1.8, size=n_shells)
            shell_g2 = rng.uniform(0.02, 0.08, size=n_shells)
            bath = _paired_bath(freqs, shell_g2, temperature=temperature)
            name = f"paired-{n_shells}shell-{n_qubits}q-{idx}"
        instances.append(OracleInstance(
            name=name, state=_random_state(rng, n_qubits), bath=bath,
            positions=positions, t=t, n_samples=n_samples, seed=int(rng.integers(2**31))))
    return instances


def check_instance(inst: OracleInstance, tolerance: float = 1e-4) -> InstanceCheck:
    """Compare the closed-form reduced density against the integrated oracle.

    The comparison is absolute per entry at every temperature: the oracle's
    thermal trace is exact, so its deviation is the integrator's step error
    plus the truncated Bose tail, itself at most ``LEAKAGE_TOL``.
    ``tolerance`` must be finite and >= 0.
    """
    real(tolerance, "tolerance", ">= 0")
    from .core import evolve  # deferred: the dynamics here never use it

    closed = evolve(inst.state, inst.t, inst.bath, inst.positions)
    result = thermal_reduced_density(inst.state, inst.t, inst.bath, inst.positions,
                                     steps=inst.steps)
    dev = max(abs(closed[key] - result.entries[key]) for key in closed)
    return InstanceCheck(name=inst.name, deviation=float(dev), tolerance=tolerance,
                         dim=result.dim, steps=inst.steps, leakage=result.leakage)


def default_suite(seed: int = 7, n_cold: int = 6, n_thermal: int = 1,
                  thermal_samples: int = 4000) -> list[OracleInstance]:
    """The named validation suite run by the command-line ``validate-oracle``.

    ``thermal_samples`` only fills :attr:`OracleInstance.n_samples` of the
    thermal instances, which the oracle does not use.
    """
    suite = random_instances(n_cold, seed=seed, temperature=0.0)
    suite += random_instances(n_thermal, seed=seed + 1, temperature=0.8,
                              n_samples=thermal_samples)
    return suite
