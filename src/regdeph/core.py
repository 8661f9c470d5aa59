"""Exact reduced dynamics of a dephasing register.

Every coherence element between two computational basis labels evolves by a
closed-form factor ``exp(-eta + i*phi)``: ``eta`` is a nonnegative damping
exponent and ``phi`` a bath-induced (Lamb) phase.  Populations are untouched —
this is pure dephasing.

One batched primitive computes both for any set of label pairs over any time
grid, from three pieces:

* the structure factors ``S_a(k) = sum_l s_l exp(i k . r_l)`` of every label;
* two time kernels per frequency shell, ``2 coth(omega/2T) sin^2(omega t/2)``
  (damping) and ``omega t - sin omega t`` (phase);
* the reductions over shells: the damping of each pair,
  ``eta_ab = K_eta @ W_ab`` with ``W_ab`` the pair's
  ``(g2 / omega^2) |S_a - S_b|^2`` summed over each shell's modes, and the
  phase of each label, ``phase_a = K_phi @ V_a`` with ``V_a`` its
  ``(g2 / omega^2) |S_a|^2`` summed likewise.
  Every basis label picks up its own phase, and the Lamb phase of a
  coherence is the difference of two of them, ``phi_ab = phase_a - phase_b``.

Every public function below that takes a bath and a time is a thin view over
this primitive, as are ``damping_scale`` and ``phase_scale`` in
:mod:`regdeph.regimes`.  The weights at one wave vector, :func:`damping_weight`
and :func:`phase_weight`, go through ``_pair_weights`` instead, as does the
disorder Monte Carlo.

The primitive sums over the bath's folded view
(:attr:`regdeph.bath.BathSpectrum.folded`): one mode of every ``+k/-k`` pair,
carrying the pair's summed weight.  Both kernels and ``|S(k)|`` are even under
``k -> -k``, so this equals the sum over all modes at half the cost.  The
phase formula assumes the bath's mode set is closed under ``k -> -k``
(guaranteed by the builders in :mod:`regdeph.bath`); for a lone unpaired wave
vector an additional cross term, odd in ``k``, would survive in multi-qubit
coherences.  A set that is not closed has no pairs to fold and is summed
whole.

The builders' baths carry their shell grid (:class:`regdeph.bath.ShellGrid`):
``J`` frequency shells ``f_j`` on a uniform grid times ``D`` kept
directions ``n_d``, folded shell-major.  The primitive uses it twice:

* **Structure factors as a geometric ladder.**  Along ``n_d`` the phases
  ``exp(i f_j p)``, ``p = (r . n_d) / v``, form a geometric sequence in ``j``.
  With ``B = ceil(sqrt(J))``, ``exp(i f_j p)`` is evaluated directly at an
  anchor every ``B`` shells and at the ``B`` offsets ``f_b - f_0``, and shell
  ``cB + b`` is the product of its anchor and its offset.  That is
  ``L*D*(J/B + B)`` complex exponentials instead of ``L*J*D``.  The full
  ``(L, J)`` phase array is never formed: the spins scaled by the anchor
  phases, an ``(n*C, L)`` block for ``C`` anchors, times the ``(L, B)``
  offset ladder is one complex GEMM per direction, whose ``(n*C, B)`` result
  is the labels' factors over those shells.  Each term is one product of
  two directly evaluated unit phases and a spin, so nothing accumulates:
  against one exponential per site and mode, ``S`` agrees to about 1e-15
  relative to ``max|S|`` (the tests hold it to 1e-13).
* **Kernels once per shell, by the same ladder.**  Both kernels depend on a
  mode only through ``omega``, so they live on the ``(T, J)`` shell grid,
  and the direction sum and the weight ``g2 / omega^2`` go into the
  time-independent ``W`` and ``V``, once per call.  Both kernels come from
  ``exp(i f_j t/2)``, which is the product of the unit phases at the
  shell's anchor and offset: ``T*(J/B + B)`` pairs of ``cos``/``sin``
  instead of ``T*J``.  Against mpmath the phase kernel holds 1e-13
  relative; the damping kernel is off by a few ulps plus the effect of an
  argument off by a few ulps of ``omega t``, as for a direct ``sin``.

A bath without a grid (hand-built, such as the oracle's paired sets) and an
explicit list of wave vectors take the dense path, one exponential per site
and mode, and count as ``J = M`` shells of one mode each, whose kernels take
``sin``/``cos`` directly.  Every unit phase is written as ``cos`` and
``sin`` into the real and imaginary parts of one complex array, which is
faster than ``np.exp(1j*x)``.

Memory is bounded by ``CHUNK``, read at call time: the phases, the scaled
spins and the GEMM output of the structure factors (blocks of sites, labels
and anchors of one direction, or whole mode columns on the dense path), the
``(T, J)`` kernels and half-angle phases of one block of times, and the
``(P, M)`` damping weights of one block of columns (below) each hold at most
``CHUNK`` elements, or one row when a row alone is larger; no ``(T, M)``
array is formed.  The differences are taken of factors scaled by
``sqrt(g2) / omega``, so the weight costs one pass over ``(n, M)`` and none
over ``(P, M)``.  Each column's weights are built at most once per call:
with one block of times each block of columns meets the kernels once; with
several, the ``(P, J)`` weights of a group of columns, at most ``4*CHUNK``
elements, are kept across all blocks of times, which are then built once per
group.  The label weights ``V`` are built at most once per call and the
label phases once per time point.

**Weights kept across calls.**  ``V`` and ``W`` do not depend on time.  A
set whose columns all fit one group builds its whole ``W``, and a
module-level list of at most ``_KEEP = 4`` entries keeps that ``W`` and its
``V`` after the call, keyed on the bath object, the positions' shape and
bytes, the label tuple and ``CHUNK``.  A later call with the same key, such
as the single-time calls of one register at many times, computes only the
kernels and the two GEMMs, over the same column slices, so its results are
bit-identical to a fresh build.  So registers on one bath can alternate,
independent against collective or encoded against bare, and each keeps its
weights.  The list is least recently used first out: a hit moves its entry
to the front, a new entry goes to the front, and the entry past the fourth
is dropped.  A larger set streams its groups and leaves the list and its
order as they are.  Each entry holds at most ``4*CHUNK`` elements of ``W``
and ``(4*CHUNK // J + 1) * J`` of ``V``, so at most ``8*(8*CHUNK + J)``
bytes of weights (4 MiB plus ``8*J`` bytes at the default ``CHUNK``), plus
its key's ``24*L`` bytes of positions and a few words per label, and per
pair of a grouped set.  Every entry holds a reference to its bath, whose
arrays are read-only copies.

**Pair columns.**  ``S_a - S_b`` is the structure factor of ``s_a - s_b``,
so the damping of a pair depends on its labels only through their spin
difference, and pairs whose differences agree up to sign share it.  A
complete basis of ``n`` qubits has ``4^n/2`` pairs but only ``(3^n - 1)/2``
such classes.  The weights and the damping reduction run over columns, each
one label pair ``a < b``: a set of at least 16 labels with at most half as
many classes as pairs takes one column per class, its first pair, and
copies the damping to the rest of the class; any other set takes every pair
as a column.  A block of columns is filled one run at a time, a run being
the columns of one label ``a``: ``S_b - S_a`` is broadcast against the rows
of its later labels, read in place as a slice when they are consecutive (as
in every run of an ungrouped set) and gathered into a reused buffer when
not, squared as ``re^2 + im^2`` with the imaginary part in a second buffer,
and summed over each shell's modes.  Both reads take the same arithmetic,
so a column's damping is bit-identical to its pair's in the ungrouped set.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

from ._checks import integer
from .bath import BathSpectrum, coth_half

__all__ = [
    "BasisLabel",
    "RegisterState",
    "DecoherenceFactors",
    "spin_structure_factor",
    "damping_weight",
    "phase_weight",
    "damping_exponent",
    "lamb_phase",
    "label_phase",
    "pair_factors",
    "evolve",
    "fidelity",
    "fidelity_curve",
    "factor_curves",
]

NORM_TOL = 1e-12
# elements of the largest temporary block over modes or over pairs
CHUNK = 1 << 16
# registers whose time-independent weights are kept across calls (_coherence)
_KEEP = 4
# (bath, key, weights) of the last _KEEP registers whose columns fit one kept group,
# the most recently used first; replaced whole on every change, never mutated
_kept = ()


@dataclass(frozen=True)
class BasisLabel:
    """A computational basis label: one +1/-1 eigenvalue per qubit."""

    spins: tuple[int, ...]

    def __post_init__(self):
        spins = tuple(self.spins)
        if len(spins) == 0:
            raise ValueError("label must have at least one qubit")
        # compare before converting, so 1.5 is rejected rather than truncated to 1
        if any(s not in (-1, 1) for s in spins):
            raise ValueError(f"label entries must be +1 or -1, got {spins}")
        object.__setattr__(self, "spins", tuple(int(s) for s in spins))

    @classmethod
    def from_string(cls, text: str) -> "BasisLabel":
        """Parse a label written as a string of '+' and '-' characters."""
        table = {"+": 1, "-": -1}
        try:
            return cls(tuple(table[ch] for ch in text.strip()))
        except KeyError:
            raise ValueError(f"label string may contain only '+' and '-': {text!r}") from None

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.spins)

    def __len__(self) -> int:
        return len(self.spins)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.spins, dtype=float)

    def flipped(self) -> "BasisLabel":
        return BasisLabel(tuple(-s for s in self.spins))


class RegisterState:
    """Pure register state: complex amplitudes over basis labels.

    Stored sparsely over the labels actually present.  The amplitudes must be
    finite and normalized; construction rejects states whose squared norm
    deviates from 1 by more than ``NORM_TOL``.
    """

    def __init__(self, amplitudes: Mapping[BasisLabel, complex]):
        amps = {k: complex(v) for k, v in amplitudes.items() if v != 0}
        if not np.isfinite(list(amps.values())).all():
            raise ValueError("amplitudes must be finite")
        if not amps:
            raise ValueError("state needs at least one nonzero amplitude")
        sizes = {len(label) for label in amps}
        if len(sizes) != 1:
            raise ValueError(f"labels of mixed lengths: {sorted(sizes)}")
        norm2 = sum(abs(c) ** 2 for c in amps.values())
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |c|^2 = {norm2!r}")
        self._amps = amps
        self._n = sizes.pop()

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def amplitudes(self) -> dict[BasisLabel, complex]:
        return dict(self._amps)

    def labels(self) -> list[BasisLabel]:
        return list(self._amps)

    def items(self):
        return self._amps.items()

    def __eq__(self, other):
        return isinstance(other, RegisterState) and self._amps == other._amps

    @classmethod
    def from_unnormalized(cls, amplitudes: Mapping[BasisLabel, complex]) -> "RegisterState":
        if not np.isfinite(list(amplitudes.values())).all():
            raise ValueError("amplitudes must be finite")
        norm = np.sqrt(sum(abs(c) ** 2 for c in amplitudes.values()))
        if norm == 0:
            raise ValueError("state needs at least one nonzero amplitude")
        return cls({k: v / norm for k, v in amplitudes.items()})

    @classmethod
    def basis_state(cls, label: BasisLabel) -> "RegisterState":
        return cls({label: 1.0})

    @classmethod
    def cat(cls, n_qubits: int) -> "RegisterState":
        """(|++..+> + |--..->)/sqrt(2)."""
        up = BasisLabel((1,) * integer(n_qubits, "n_qubits", 1))
        return cls.from_unnormalized({up: 1.0, up.flipped(): 1.0})

    @classmethod
    def single_flip(cls, n_qubits: int, site: int = 0) -> "RegisterState":
        """(|++..+> + |..-..>)/sqrt(2): one coherent flip at ``site``."""
        n_qubits = integer(n_qubits, "n_qubits", 1)
        if not (0 <= site < n_qubits and site % 1 == 0):  # a NaN fails too
            raise ValueError(f"site must be an integer in [0, {n_qubits}), got {site}")
        spins = [1] * n_qubits
        up = BasisLabel(tuple(spins))
        spins[int(site)] = -1
        return cls.from_unnormalized({up: 1.0, BasisLabel(tuple(spins)): 1.0})


def _structure_factors(labels, modes, positions) -> np.ndarray:
    """``S[a, m] = sum_l s_l exp(i k_m . r_l)`` for every label, shape (n, M).

    ``modes`` is a bath, summed over its folded modes, or an array of wave
    vectors.  A bath with a shell grid takes the ladder, anything else the
    dense path.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must have shape (L, 3), got {pos.shape}")
    for label in labels:
        if len(label) != len(pos):
            raise ValueError(f"label length {len(label)} does not match {len(pos)} positions")
    spins = np.array([label.spins for label in labels], dtype=float).reshape(len(labels), len(pos))
    if not isinstance(modes, BathSpectrum):
        return _dense_factors(spins, pos, np.atleast_2d(np.asarray(modes, dtype=float)))
    if modes.grid is None:
        return _dense_factors(spins, pos, modes.folded.k)
    return _ladder_factors(spins, pos, modes)


def _unit_phases(angle, out=None) -> np.ndarray:
    """``exp(i*angle)``: ``cos`` and ``sin`` written into the real and imaginary views of one array.

    ``angle`` may be ``out.imag`` itself.
    """
    if out is None:
        out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _rungs(freqs) -> tuple[int, np.ndarray, np.ndarray]:
    """The ladder split of a uniform shell grid: ``B = ceil(sqrt(J))``, the anchors
    ``f_{cB}`` and the offsets ``f_b - f_0``, so that shell ``cB + b`` sits at
    ``f_{cB} + (f_b - f_0)``."""
    rung = math.isqrt(len(freqs) - 1) + 1
    return rung, freqs[::rung], freqs[:rung] - freqs[0]


def _dense_factors(spins, pos, k) -> np.ndarray:
    """One phase ``exp(i k . r_l)`` per site and mode, in blocks of whole mode columns."""
    s = np.empty((len(spins), len(k)), dtype=complex)
    step = max(1, CHUNK // len(pos))
    for lo in range(0, len(k), step):
        s[:, lo:lo + step] = spins @ _unit_phases(pos @ k[lo:lo + step].T)
    return s


def _ladder_factors(spins, pos, bath: BathSpectrum) -> np.ndarray:
    """Structure factors over a shell grid, as a geometric ladder in the shell index.

    Shell ``j = c*B + b`` along ``n_d`` takes its phase as
    ``exp(i f_{cB} p) * exp(i (f_b - f_0) p)`` with ``p = (r . n_d) / v``, so
    ``S[a, cB + b] = sum_l (s_al exp(i f_{cB} p_l)) exp(i (f_b - f_0) p_l)``:
    the spins scaled by the anchor phases, an ``(n*C, L)`` block, times the
    ``(L, B)`` offset ladder, one complex GEMM per direction and block.  With
    ``s = +-1`` every product is the one of the full phase array; only the
    summation order is BLAS's.  Blocks of sites, labels and anchors keep the
    phases, the scaled spins and the GEMM output within ``CHUNK`` elements.
    """
    freqs, dirs = bath.grid
    n_label, n_shell = len(spins), len(freqs)
    rung, anchors, offsets = _rungs(freqs)
    s = np.zeros((n_label, n_shell, len(dirs)), dtype=complex)
    n_site = min(len(pos), max(1, CHUNK // rung))
    row = max(n_site, rung)  # elements of one (label, anchor) row of either block
    per_block = max(1, min(n_label, CHUNK // row))  # labels per block
    width = min(len(anchors), max(1, CHUNK // (per_block * row)))  # anchors per block
    scaled = np.empty(per_block * width * n_site, dtype=complex)
    product = np.empty(per_block * width * rung, dtype=complex)
    for lo in range(0, len(pos), n_site):
        sites = slice(lo, lo + n_site)
        for d, p in enumerate((pos[sites] @ dirs.T / bath.v).T):
            ladder = _unit_phases(np.outer(p, offsets))
            for c in range(0, len(anchors), width):
                shells = slice(c * rung, min((c + width) * rung, n_shell))
                rungs = _unit_phases(np.outer(anchors[c:c + width], p))
                for a in range(0, n_label, per_block):
                    part = spins[a:a + per_block, sites]
                    size = len(part) * len(rungs)
                    block = np.multiply(part[:, None], rungs,
                                        out=scaled[:size * len(p)].reshape(len(part), len(rungs), -1))
                    out = np.matmul(block.reshape(size, -1), ladder,
                                    out=product[:size * rung].reshape(size, rung))
                    s[a:a + per_block, shells, d] += out.reshape(len(part), -1)[:, :shells.stop - shells.start]
    return s.reshape(n_label, n_shell * len(dirs))


def _shell_freqs(bath: BathSpectrum) -> np.ndarray:
    """Shell frequencies ``(J,)``; the folded modes are shell-major, ``M = J*D``.

    A bath without a grid is ``J = M`` shells of one mode each.
    """
    return bath.folded.omega if bath.grid is None else bath.grid.freqs


def _times(times) -> np.ndarray:
    """A time grid as a 1-D float array; every time must be finite and >= 0."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {times.shape}")
    if times.size and not 0 <= times.min() <= times.max() < np.inf:  # a NaN fails too
        raise ValueError("times must be finite and >= 0")
    return times


def _half_turns(times, freqs, ladder: bool, out) -> np.ndarray:
    """``exp(i f_j t / 2)`` on the (T, J) grid, written into ``out``.

    Over a uniform grid it is the product of the unit phases at the anchor and
    the offset of each shell (:func:`_rungs`), as for the structure factors:
    ``T*(J/B + B)`` pairs of ``cos``/``sin`` instead of ``T*J``.
    """
    half = 0.5 * times
    if not ladder:
        return _unit_phases(np.multiply.outer(half, freqs, out=out.imag), out=out)
    rung, anchors, offsets = _rungs(freqs)
    a, b = _unit_phases(np.multiply.outer(half, anchors)), _unit_phases(np.multiply.outer(half, offsets))
    full = len(freqs) // rung * rung
    np.multiply(a[:, :full // rung, None], b[:, None], out=out[:, :full].reshape(len(times), -1, rung))
    np.multiply(a[:, full // rung:], b[:, :len(freqs) - full], out=out[:, full:])
    return out


def _shell_kernels(bath: BathSpectrum, times, rows: int):
    """Damping and phase kernels of every shell, in blocks of ``rows`` times.

    ``times`` is a checked grid (:func:`_times`).  Yields ``(times slice,
    damping, phase)``, each kernel of shape (rows, J) and written into
    buffers that the next block reuses.  With ``x = f_j t``:
    damping ``2 coth(f_j/2T) sin^2(x/2)`` and phase ``x - sin x``.  The
    per-mode weight ``g2 / omega^2`` is not in them; it scales the structure
    factors instead.  Both kernels come from ``h = exp(i x/2)``:
    ``sin(x/2) = Im h`` and ``sin x = 2 Re h Im h``.  Below ``x = 0.2`` the
    subtraction ``x - sin x`` cancels, so the phase kernel takes its Taylor
    series there (truncation error below 1e-16 relative).
    """
    w = _shell_freqs(bath)
    coth2 = 2.0 * coth_half(w, bath.temperature)
    size = min(rows, len(times))
    damping, phase = np.empty((2, size, len(w)))
    half = np.empty((size, len(w)), dtype=complex)
    for t0 in range(0, len(times), rows):
        t = times[t0:t0 + rows]
        d, x, h = damping[:len(t)], phase[:len(t)], half[:len(t)]
        _half_turns(t, w, bath.grid is not None, h)
        np.multiply.outer(t, w, out=x)
        small = x < 0.2
        xs = x[small]
        x2 = xs * xs
        np.multiply(h.real, h.imag, out=d)
        d *= 2.0
        x -= d
        x[small] = xs * x2 / 6.0 * (1 - x2 / 20 * (1 - x2 / 42 * (1 - x2 / 72 * (1 - x2 / 110))))
        np.square(h.imag, out=d)
        d *= coth2
        yield slice(t0, t0 + len(t)), d, x


def _coherence(labels, times, bath: BathSpectrum, positions) -> tuple[np.ndarray, np.ndarray]:
    """Damping of every upper-triangle label pair (T, n(n-1)/2) and phase of each label (T, n).

    ``eta_ab = K_eta @ W_ab`` over the pairs ``a < b`` in ``np.triu_indices``
    order, and ``phase_a = K_phi @ V_a``; the Lamb phase of a pair is the
    difference of its labels' phases.  ``W_ab`` is ``(g2 / omega^2)
    |S_a - S_b|^2`` and ``V_a`` is ``(g2 / omega^2) |S_a|^2``, each summed
    over a shell's modes, so both reductions run over the ``J`` shells.
    ``W`` is built and reduced for the columns of :func:`_pair_columns`,
    every pair or one per class of spin difference, and each pair takes its
    column's damping.  Times are taken in blocks that bound the (T, J)
    kernels; columns in groups whose (P, J) weights are kept across all time
    blocks, each column's weights built once per call.  Identical labels
    share one structure factor and one phase, so the eta and phi between
    them vanish exactly.

    The time-independent half, the label dedupe, the pair columns, ``V`` and
    ``W``, comes from the kept entry whose bath object, positions' shape and
    bytes, label tuple and ``CHUNK`` match, which then moves to the front of
    the list, and is built otherwise.  A set whose ``P <= 4*CHUNK // J``
    columns fit one group builds its whole ``W`` and puts it, its ``V`` and a
    reference to the bath at the front; past ``_KEEP`` entries the least
    recently used one is dropped.  An entry holds at most one group of ``W``
    plus its ``V``, ``8*(8*CHUNK + J)`` bytes.  A set that streams its groups
    leaves the list as it is.  The time half, the kernels and the two GEMMs,
    runs over the same column slices either way, so a hit is bit-identical
    to a build.
    """
    global _kept
    times = _times(times)
    labels = tuple(labels)
    pos = np.asarray(positions, dtype=float)
    key = (pos.shape, pos.tobytes(), labels, CHUNK)
    n_shell, n_mode = len(_shell_freqs(bath)), bath.folded.omega.size
    kept = _kept
    hit = next((entry for entry in kept if entry[0] is bath and entry[1] == key), None)
    if hit is not None:
        if hit is not kept[0]:
            _kept = (hit, *(entry for entry in kept if entry is not hit))
        mod2, row_of, of_pair, weights = hit[2]
        source, n_col = None, len(weights)
    else:
        index = {label: n for n, label in enumerate(dict.fromkeys(labels))}
        row_of = [index[label] for label in labels]
        s = _structure_factors(list(index), bath, pos)
        w, _, g2 = bath.folded
        s *= np.sqrt(g2) / w
        mod2 = np.abs(s)
        mod2 *= mod2
        mod2 = _shell_sums(mod2, n_shell)
        a, b, of_pair = _pair_columns(labels)
        source, n_col = (s.real[row_of], s.imag[row_of], a, b), len(a)
    eta = np.empty((len(times), n_col))
    phase = np.empty((len(times), len(labels)))
    step = max(1, CHUNK // n_shell)  # rows of a time block
    # one time block: its kernels serve every group of columns, and each block of
    # columns is used once; several: keep a group's weights across the time blocks
    kernels = list(_shell_kernels(bath, times, step)) if len(times) <= step else None
    per_block = max(1, min(n_col, CHUNK // n_mode))
    per_group = per_block if kernels else max(1, min(n_col, 4 * CHUNK // n_shell))
    # columns that fit one kept group are all built into one array, kept across calls
    keep = n_col <= 4 * CHUNK // n_shell
    if source is not None:
        weights = np.empty((n_col if keep else per_group, n_shell))
        weight = np.empty((per_block, n_mode)) if n_mode > n_shell else None
        # a run of one label's columns never outgrows its later labels
        im_diff = np.empty((min(per_block, max(len(labels) - 1, 0)), n_mode))
    for g0 in range(0, max(n_col, 1), per_group):
        group = weights[g0:g0 + per_group] if keep else weights[:min(per_group, n_col - g0)]
        if source is not None:
            re, im, a, b = source
            for r0 in range(0, len(group), per_block):
                r1 = min(r0 + per_block, len(group))
                block = group[r0:r1] if weight is None else weight[:r1 - r0]
                _damping_weights(re, im, a[g0 + r0:g0 + r1], b[g0 + r0:g0 + r1], block, im_diff)
                if weight is not None:
                    _shell_sums(block, n_shell, out=group[r0:r1])
        for rows, k_eta, k_phi in kernels or _shell_kernels(bath, times, step):
            if g0 == 0:
                phase[rows] = (k_phi @ mod2.T)[:, row_of]
            eta[rows, g0:g0 + len(group)] = k_eta @ group.T
    if source is not None and keep:
        for arr in (mod2, weights):
            arr.setflags(write=False)
        _kept = ((bath, key, (mod2, row_of, of_pair, weights)), *_kept[:_KEEP - 1])
    return (eta if of_pair is None else eta[:, of_pair]), phase


@lru_cache(maxsize=8)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, read-only, built once for each of the last few ``n``."""
    pairs = np.triu_indices(n, 1)
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


def _pair_columns(labels) -> tuple[list[int], list[int], np.ndarray | None]:
    """The pairs ``(a[c], b[c])`` whose weights fill the columns ``c``, and each pair's column.

    The columns are every upper-triangle pair in ``np.triu_indices`` order,
    with ``of_pair`` None, or one representative per class of pairs whose
    half spin differences ``(s_b - s_a)/2`` agree up to sign: the class's
    first pair, with the classes in the order of their representatives, and
    ``of_pair`` the class of every pair.  The damping of a pair depends on
    its labels only through this difference, since ``S_a - S_b`` is the
    structure factor of ``s_a - s_b``.  Grouping pays only when it saves more
    than finding the classes costs, and a gathered representative costs more
    than a pair read in place, so the pairs are grouped only from 16 labels
    on, and only into at most half as many classes as pairs.  The keys are
    the exact bytes of the ``int8`` differences, each row's sign set by its
    first nonzero entry.
    """
    n = len(labels)
    if n < 16:
        return ([x for x in range(n) for _ in range(x + 1, n)],
                [y for x in range(n) for y in range(x + 1, n)], None)
    a, b = _triu(n)
    spins = np.array([label.spins for label in labels], dtype=np.int8)
    half = (spins[b] - spins[a]) // 2
    half *= half[np.arange(len(half)), (half != 0).argmax(1)][:, None]
    keys = half.view(np.dtype((np.void, half.shape[1]))).ravel()
    _, first, of_pair = np.unique(keys, return_index=True, return_inverse=True)
    if 2 * len(first) > len(a):
        return a.tolist(), b.tolist(), None
    order = np.argsort(first)
    return a[first[order]].tolist(), b[first[order]].tolist(), np.argsort(order)[of_pair]


def _shell_sums(values, n_shell, out=None) -> np.ndarray:
    """Sum each row of a shell-major ``(n, J*D)`` array over every shell's ``D`` modes.

    With one mode per shell the rows are returned as they are.
    """
    if values.shape[1] == n_shell and out is None:
        return values
    return values.reshape(len(values), n_shell, values.shape[1] // n_shell).sum(-1, out=out)


def _damping_weights(re, im, a, b, weight, im_diff) -> None:
    """Fill ``weight`` with ``|S_a - S_b|^2`` of the pairs ``(a[r], b[r])`` in ``np.triu_indices`` order.

    ``re`` and ``im`` are the real and imaginary parts of the structure
    factors.  For each run of rows with one label ``a``, the rows of its later
    labels ``b`` are read in place as a slice when they are consecutive and
    gathered into ``weight`` otherwise; either way ``S_b - S_a`` is taken by
    broadcast and squared as ``re^2 + im^2``, so a pair's weights are the same
    bits on both reads.  The imaginary part of a run goes to ``im_diff``, a
    reused buffer of at least as many rows as the longest run.
    """
    lo = 0
    while lo < len(a):
        hi = bisect.bisect_right(a, a[lo], lo)
        w, d, first, last = weight[lo:hi], im_diff[:hi - lo], b[lo], b[hi - 1]
        if last - first == hi - lo - 1:
            np.subtract(re[first:last + 1], re[a[lo]], out=w)
            np.subtract(im[first:last + 1], im[a[lo]], out=d)
        else:
            # mode "clip" writes straight into ``out`` ("raise" buffers it); indices are in range
            np.subtract(np.take(re, b[lo:hi], axis=0, out=w, mode="clip"), re[a[lo]], out=w)
            np.subtract(np.take(im, b[lo:hi], axis=0, out=d, mode="clip"), im[a[lo]], out=d)
        np.square(w, out=w)
        w += np.square(d, out=d)
        lo = hi


def spin_structure_factor(label: BasisLabel, k_vecs, positions) -> np.ndarray:
    """``sum_l s_l * exp(i k . r_l)`` for each wave vector, shape (M,)."""
    return _structure_factors([label], k_vecs, positions)[0]


def _pair_weights(i: BasisLabel, j: BasisLabel, k_vec,
                  positions) -> tuple[np.ndarray, np.ndarray]:
    """Damping weight ``|S_i - S_j|^2`` and phase weight ``|S_i|^2 - |S_j|^2`` at one wave vector.

    ``positions`` is one register ``(L, 3)`` or a stack of registers
    ``(n, L, 3)``, and the weights take its leading shape.  Both labels share
    one phase array.  The site sums are plain reductions, not BLAS products,
    so a register's weights are bit-identical alone and inside a stack.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim not in (2, 3) or pos.shape[-1] != 3:
        raise ValueError(f"positions must have shape (L, 3) or (n, L, 3), got {pos.shape}")
    for label in (i, j):
        if len(label) != pos.shape[-2]:
            raise ValueError(f"label length {len(label)} does not match {pos.shape[-2]} positions")
    phases = _unit_phases(pos @ np.asarray(k_vec, dtype=float))
    si, sj = (phases * i.as_array()).sum(-1), (phases * j.as_array()).sum(-1)
    diff = si - sj
    return (diff.real**2 + diff.imag**2,
            si.real**2 + si.imag**2 - (sj.real**2 + sj.imag**2))


def damping_weight(i: BasisLabel, j: BasisLabel, k_vec, positions) -> float:
    """Squared modulus of the spin-difference structure factor at one wave vector."""
    return float(_pair_weights(i, j, k_vec, positions)[0])


def phase_weight(i: BasisLabel, j: BasisLabel, k_vec, positions) -> float:
    """Difference of the two labels' squared structure factors (may be negative)."""
    return float(_pair_weights(i, j, k_vec, positions)[1])


def damping_exponent(i: BasisLabel, j: BasisLabel, t: float, bath: BathSpectrum,
                     positions) -> float:
    """Damping exponent of the coherence between labels ``i`` and ``j`` at time ``t``.

    Nonnegative; zero at ``t = 0`` and whenever ``i == j``.
    """
    return float(_coherence([i, j], [t], bath, positions)[0][0, 0])


def lamb_phase(i: BasisLabel, j: BasisLabel, t: float, bath: BathSpectrum,
               positions) -> float:
    """Bath-induced coherent phase on the (i, j) coherence at time ``t``.

    Grows roughly linearly in time once ``omega*t >> 1``; identically zero for
    sign-symmetric label pairs.
    """
    phase = _coherence([i, j], [t], bath, positions)[1][0]
    return float(phase[0] - phase[1])


def label_phase(i: BasisLabel, t: float, bath: BathSpectrum, positions) -> float:
    """Scalar evolution phase of basis label ``i`` alone.

    Differences of label phases reproduce the pairwise Lamb phase:
    ``label_phase(i) - label_phase(j) == lamb_phase(i, j)``.
    """
    return float(_coherence([i], [t], bath, positions)[1][0, 0])


@dataclass(frozen=True, eq=False)
class DecoherenceFactors:
    """Damping exponents and phases for every ordered pair of a label set.

    ``eta_matrix[a, b]`` and ``phi_matrix[a, b]`` belong to the coherence
    between ``labels[a]`` and ``labels[b]``: eta is symmetric, phi
    antisymmetric, and both vanish on the diagonal.
    """

    t: float
    labels: tuple[BasisLabel, ...]
    eta_matrix: np.ndarray
    phi_matrix: np.ndarray

    @cached_property
    def _index(self) -> dict[BasisLabel, int]:
        return {label: n for n, label in enumerate(self.labels)}

    def eta(self, i: BasisLabel, j: BasisLabel) -> float:
        return float(self.eta_matrix[self._index[i], self._index[j]])

    def phi(self, i: BasisLabel, j: BasisLabel) -> float:
        return float(self.phi_matrix[self._index[i], self._index[j]])


def pair_factors(labels: Iterable[BasisLabel], t: float, bath: BathSpectrum,
                 positions) -> DecoherenceFactors:
    """Damping/phase factors for all ordered pairs drawn from ``labels``."""
    labels = tuple(labels)
    a, b = _triu(len(labels))
    eta, phase = _coherence(labels, [t], bath, positions)
    eta_matrix = np.zeros((len(labels), len(labels)))
    eta_matrix[a, b] = eta_matrix[b, a] = eta[0]
    return DecoherenceFactors(t=t, labels=labels, eta_matrix=eta_matrix,
                              phi_matrix=phase[0][:, None] - phase[0][None, :])


def evolve(state: RegisterState, t: float, bath: BathSpectrum,
           positions) -> dict[tuple[BasisLabel, BasisLabel], complex]:
    """Reduced register density at time ``t``, sparsely over the state's support.

    Entry ``(i, j)`` is ``c_i * conj(c_j) * exp(-eta_ij + i*phi_ij)``; diagonal
    entries never change.
    """
    if not isinstance(state, RegisterState):
        raise TypeError("evolve expects a RegisterState (normalization enforced)")
    fac = pair_factors(state.labels(), t, bath, positions)
    c = np.array(list(state.amplitudes.values()))
    rho = np.outer(c, c.conj()) * np.exp(-fac.eta_matrix + 1j * fac.phi_matrix)
    return {(i, j): rho[a, b]
            for a, i in enumerate(fac.labels) for b, j in enumerate(fac.labels)}


def fidelity(state: RegisterState, t: float, bath: BathSpectrum, positions) -> float:
    """Overlap of the evolved register density with the initial pure state.

    Equals 1 at ``t = 0`` and for any single basis label; the pairwise phase
    antisymmetry makes the sum real.
    """
    return float(fidelity_curve(state, [t], bath, positions)[0])


def factor_curves(i: BasisLabel, j: BasisLabel, times, bath: BathSpectrum,
                  positions) -> tuple[np.ndarray, np.ndarray]:
    """Damping exponent and phase of one coherence over a whole time grid."""
    eta, phase = _coherence([i, j], times, bath, positions)
    return eta[:, 0], phase[:, 0] - phase[:, 1]


def fidelity_curve(state: RegisterState, times, bath: BathSpectrum,
                   positions) -> np.ndarray:
    """State fidelity over a whole time grid (vectorized over pairs and times)."""
    labels = state.labels()
    p = np.abs(list(state.amplitudes.values())) ** 2
    a, b = _triu(len(labels))
    eta, phase = _coherence(labels, times, bath, positions)
    phi = phase[:, a] - phase[:, b]
    return np.sum(p**2) + 2.0 * (np.exp(-eta) * np.cos(phi)) @ (p[a] * p[b])
