"""Exact reduced dynamics of a dephasing register.

Every coherence element between two computational basis labels evolves by a
closed-form factor ``exp(-eta + i*phi)``: ``eta`` is a nonnegative damping
exponent and ``phi`` a bath-induced (Lamb) phase.  Populations are untouched —
this is pure dephasing.  The labels and states it takes,
:class:`BasisLabel` and :class:`RegisterState`, live in :mod:`regdeph.states`
and are re-exported here.

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
half-angle phases of one block of times, and the ``(P, M)`` damping weights
of one block of columns (below) each hold at most ``CHUNK`` elements, or one
row when a row alone is larger; no ``(T, M)`` array is formed.  The
differences are taken of factors scaled by ``sqrt(g2) / omega``, so the
weight costs one pass over ``(n, M)`` and none over ``(P, M)``.  Each
column's weights are built at most once per call: with one block of times
each block of columns meets the kernels once; with several, a group of
columns keeps its ``(P, J)`` weights, at most ``4*CHUNK`` elements, across
the blocks of times.  The ``(T, J)`` kernels are built once per call when
they fit ``4*CHUNK`` elements, and otherwise once per group.  ``V`` is built
at most once per call and the label phases once per time point.

**Weights and kernels kept across calls.**  ``V`` and ``W`` do not depend
on time, and the kernels depend only on the bath and the time grid.  Two
lists of at most ``_KEEP = 4`` entries keep them, each read and written by
one function only: ``_kept`` by :func:`_label_weights` and ``_kept_kernels``
by :func:`_time_kernels`.  A hit moves its entry to the front, a new entry
goes to the front, and the entry past the fourth is dropped.  The weights,
factors, pair columns and kernels an entry keeps are read-only, and it holds
its bath, whose arrays are read-only copies.  A hit takes the same column
slices and time blocks as a build, so its results are bit-identical to a
fresh build.

* ``_kept`` is keyed on the bath object, the positions' shape and bytes, the
  label tuple and ``CHUNK``.  A set whose columns fit one group,
  ``P <= 4*CHUNK // J``, keeps ``V`` and its whole ``W``, so registers on
  one bath can alternate, independent against collective or encoded against
  bare.  A larger set streams ``W``; when its scaled label factors, ``2*n*M``
  doubles, fit ``4*CHUNK``, it keeps them with ``V`` and the pair columns
  instead, as the code residual's 64 labels do, and a hit rebuilds only
  ``W``.  A set beyond both bounds leaves the list as it is.  An entry holds
  at most ``8*(8*CHUNK + J)`` bytes of arrays (4 MiB plus ``8*J`` at the
  default ``CHUNK``), the ``24*L`` bytes of positions in its key, and a few
  words per label and per pair of a grouped set.
* ``_kept_kernels`` is keyed on the bath object, the grid's bytes and
  ``CHUNK``.  A grid of several times whose ``(T, J)`` kernels fit
  ``4*CHUNK`` elements keeps them, at most ``2*4*CHUNK`` doubles (4 MiB), so
  a fidelity curve and its tracked pairs build them once.  A call at a
  single time neither reads nor changes this list, so single-time calls at
  many times evict no grid.

**Pair columns.**  ``S_a - S_b`` is the structure factor of ``s_a - s_b``,
so the damping of a pair depends on its labels only through their spin
difference, and pairs whose differences agree up to sign share it.  A
complete basis of ``n`` qubits has ``4^n/2`` pairs but only ``(3^n - 1)/2``
such classes.  The weights and the damping reduction run over columns, each
one label pair ``a < b``: a set of at least 16 labels with at most half as
many classes as pairs takes one column per class, its first pair, and
copies the damping to the rest of the class; any other set takes every pair
as a column.  A block of columns is filled one run at a time, a run being
the columns of one label ``a``: the real and imaginary parts of its later
labels' rows are gathered into two reused buffers, ``S_a`` is subtracted by
broadcast, and the difference is squared as ``re^2 + im^2`` and summed over
each shell's modes.  A grouped column takes the arithmetic of its pair in the
ungrouped set, so its damping is bit-identical to that pair's.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from ._checks import finite
from .bath import BathSpectrum, coth_half
from .states import BasisLabel, RegisterState

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

# elements of the largest temporary block over modes or over pairs
CHUNK = 1 << 16
# entries of each kept list (module docstring)
_KEEP = 4
# (bath, key, (V, row_of, of_pair, W, factors)) kept by _label_weights, the most recently
# used first, replaced whole on every change, never mutated
_kept = ()
# (bath, (time grid bytes, CHUNK), kernel blocks) kept by _time_kernels, likewise
_kept_kernels = ()


def _structure_factors(labels, modes, positions) -> np.ndarray:
    """``S[a, m] = sum_l s_l exp(i k_m . r_l)`` for every label, shape (n, M).

    ``modes`` is a bath, summed over its folded modes, or an array of wave
    vectors.  A bath with a shell grid takes the ladder, anything else the
    dense path.  The positions and wave vectors must be finite.
    """
    pos = finite(positions, "positions")
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must have shape (L, 3), got {pos.shape}")
    for label in labels:
        if len(label) != len(pos):
            raise ValueError(f"label length {len(label)} does not match {len(pos)} positions")
    spins = np.array([label.spins for label in labels], dtype=float).reshape(len(labels), len(pos))
    if not isinstance(modes, BathSpectrum):
        return _dense_factors(spins, pos, np.atleast_2d(finite(modes, "wave vectors")))
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
    damping, phase)``, each kernel a new array of shape (rows, J).  With
    ``x = f_j t``:
    damping ``2 coth(f_j/2T) sin^2(x/2)`` and phase ``x - sin x``.  The
    per-mode weight ``g2 / omega^2`` is not in them; it scales the structure
    factors instead.  Both kernels come from ``h = exp(i x/2)``:
    ``sin(x/2) = Im h`` and ``sin x = 2 Re h Im h``.  Below ``x = 0.2`` the
    subtraction ``x - sin x`` cancels, so the phase kernel takes its Taylor
    series there (truncation error below 1e-16 relative).
    """
    w = _shell_freqs(bath)
    coth2 = 2.0 * coth_half(w, bath.temperature)
    for t0 in range(0, len(times), rows):
        t = times[t0:t0 + rows]
        h = _half_turns(t, w, bath.grid is not None, np.empty((len(t), len(w)), dtype=complex))
        x = np.multiply.outer(t, w)
        small = x < 0.2
        xs = x[small]
        x2 = xs * xs
        d = np.multiply(h.real, h.imag)
        d *= 2.0
        x -= d
        x[small] = xs * x2 / 6.0 * (1 - x2 / 20 * (1 - x2 / 42 * (1 - x2 / 72 * (1 - x2 / 110))))
        np.square(h.imag, out=d)
        d *= coth2
        yield slice(t0, t0 + len(t)), d, x


def _coherence(labels, times, bath: BathSpectrum, positions) -> tuple[np.ndarray, np.ndarray]:
    """Damping of every upper-triangle label pair (T, n(n-1)/2) and phase of each label (T, n).

    ``eta_ab = K_eta @ W_ab`` over the pairs ``a < b`` in ``np.triu_indices``
    order, each pair taking its column's damping (:func:`_pair_columns`), and
    ``phase_a = K_phi @ V_a``, with the weights of :func:`_label_weights` and
    the kernels of :func:`_time_kernels`.  Identical labels share one
    structure factor and one phase, so the eta and phi between them vanish
    exactly.  The time blocks and column groups are those of the module
    docstring, whatever the kept lists hold.
    """
    times, labels = _times(times), tuple(labels)
    mod2, row_of, of_pair, weights, factors = _label_weights(labels, bath, positions)
    n_shell = len(_shell_freqs(bath))
    step = max(1, CHUNK // n_shell)  # rows of a time block
    kernels = _time_kernels(bath, times, step)
    n_col = len(weights) if factors is None else len(factors[2])
    # one time block: each block of columns meets the kernels once; several: keep a
    # group's weights across the time blocks
    per_block = max(1, min(n_col, CHUNK // bath.folded.omega.size))
    per_group = per_block if len(times) <= step else max(1, min(n_col, 4 * CHUNK // n_shell))
    starts = range(0, max(n_col, 1), per_group)
    groups = ((weights[g0:g0 + per_group] for g0 in starts) if factors is None
              else _column_weights(factors, n_shell, per_group))
    eta = np.empty((len(times), n_col))
    phase = np.empty((len(times), len(labels)))
    for g0, group in zip(starts, groups):
        for rows, k_eta, k_phi in kernels or _shell_kernels(bath, times, step):
            if g0 == 0:
                phase[rows] = (k_phi @ mod2.T)[:, row_of]
            eta[rows, g0:g0 + len(group)] = k_eta @ group.T
    return (eta if of_pair is None else eta[:, of_pair]), phase


def _label_weights(labels: tuple, bath: BathSpectrum, positions):
    """The time-independent half of :func:`_coherence`: ``(V, row_of, of_pair, W, factors)``.

    ``V`` is the (n, J) weight of the distinct labels and ``row_of`` each
    label's row; ``of_pair`` is each pair's column, or None
    (:func:`_pair_columns`).  Exactly one of ``W``, the whole (P, J) damping
    weight, and ``factors``, the labels' scaled structure factors ``re`` and
    ``im`` with the pairs ``a`` and ``b`` of the columns, is None.  The entry
    is recalled from ``_kept`` or built and kept there (module docstring).
    """
    global _kept
    pos = np.asarray(positions, dtype=float)
    key = (pos.shape, pos.tobytes(), labels, CHUNK)
    entry, _kept = _recall(_kept, bath, key)
    if entry is not None:
        return entry
    index = {label: n for n, label in enumerate(dict.fromkeys(labels))}
    row_of = [index[label] for label in labels]
    s = _structure_factors(list(index), bath, pos)
    w, _, g2 = bath.folded
    s *= np.sqrt(g2) / w
    n_shell = len(_shell_freqs(bath))
    mod2 = np.abs(s)
    mod2 *= mod2
    mod2 = _shell_sums(mod2, n_shell)
    a, b, of_pair = _pair_columns(labels)
    factors = (s.real[row_of], s.imag[row_of], a, b)
    if len(a) <= 4 * CHUNK // n_shell:
        weights = next(_column_weights(factors, n_shell, max(1, len(a))))
        entry, kept = (mod2, row_of, of_pair, weights, None), (mod2, weights)
    elif 2 * len(labels) * w.size <= 4 * CHUNK:
        entry, kept = (mod2, row_of, of_pair, None, factors), (mod2, *factors[:2])
    else:
        return mod2, row_of, of_pair, None, factors
    for arr in kept if of_pair is None else (*kept, of_pair):
        arr.setflags(write=False)
    _, _kept = _recall(_kept, bath, key, entry)
    return entry


def _column_weights(factors, n_shell: int, size: int):
    """The (P, J) damping weights of the columns of ``factors``, in groups of ``size`` columns.

    ``factors`` is ``(re, im, a, b)`` (:func:`_label_weights`).  A group is
    filled in blocks of columns of at most ``CHUNK`` elements over the modes,
    then summed over each shell's; no columns give one empty group.  A group
    reuses the array of the one before it, so only a group of all the
    columns may be kept.
    """
    re, im, a, b = factors
    n_col, n_mode = len(a), re.shape[1]
    per_block = max(1, min(n_col, CHUNK // n_mode))
    weights = np.empty((min(size, n_col), n_shell))
    weight = np.empty((per_block, n_mode)) if n_mode > n_shell else None
    # a run of one label's columns never outgrows its later labels
    im_diff = np.empty((min(per_block, max(len(re) - 1, 0)), n_mode))
    for g0 in range(0, max(n_col, 1), size):
        group = weights[:min(size, n_col - g0)]
        for r0 in range(0, len(group), per_block):
            r1 = min(r0 + per_block, len(group))
            block = group[r0:r1] if weight is None else weight[:r1 - r0]
            _damping_weights(re, im, a[g0 + r0:g0 + r1], b[g0 + r0:g0 + r1], block, im_diff)
            if weight is not None:
                _shell_sums(block, n_shell, out=group[r0:r1])
        yield group


def _time_kernels(bath: BathSpectrum, times, step: int):
    """The kernels of ``times`` in blocks of ``step`` rows (:func:`_shell_kernels`), or None.

    A grid of several times whose (T, J) kernels fit ``4*CHUNK`` elements
    takes its read-only blocks from ``_kept_kernels``, or builds and keeps
    them there; a single time is built and never touches the list.  None
    leaves a longer grid to the caller, which streams it per group of columns.
    """
    global _kept_kernels
    if len(times) > 1 and len(times) * len(_shell_freqs(bath)) <= 4 * CHUNK:
        grid = (times.tobytes(), CHUNK)
        kernels, _kept_kernels = _recall(_kept_kernels, bath, grid)
        if kernels is None:
            kernels = tuple(_shell_kernels(bath, times, step))
            for arr in (k for _, *pair in kernels for k in pair):
                arr.setflags(write=False)
            _, _kept_kernels = _recall(_kept_kernels, bath, grid, kernels)
        return kernels
    return tuple(_shell_kernels(bath, times, step)) if len(times) <= step else None


def _recall(kept, bath, key, value=None):
    """The value kept under ``bath`` and ``key``, else ``value``, and the list with it in front.

    Least recently used first out: the entry past ``_KEEP`` is dropped, and a
    miss without a value leaves the list as it is.
    """
    entry = next((entry for entry in kept if entry[0] is bath and entry[1] == key), None)
    if entry is None:
        if value is None:
            return None, kept
        entry = (bath, key, value)
    if kept and kept[0] is entry:
        return entry[2], kept
    return entry[2], (entry, *(other for other in kept if other is not entry))[:_KEEP]


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
    structure factor of ``s_a - s_b``.  Grouping pays only when the columns
    it saves, each a fill over the modes and a GEMM column, outweigh the class
    search, a sort of ``P`` keys, and the ``of_pair`` gather of the damping to
    every pair, so the pairs are grouped only from 16 labels on, and only into
    at most half as many classes as pairs.  The keys are the exact bytes of
    the ``int8`` differences, each row's sign set by its first nonzero entry.
    """
    n = len(labels)
    a, b = _triu(n)
    if n < 16:
        return a.tolist(), b.tolist(), None
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
    factors.  For each run of rows with one label ``a``, the real parts of its
    later labels ``b`` are gathered into ``weight`` and the imaginary parts into
    ``im_diff``, a reused buffer of at least as many rows as the longest run;
    ``S_a`` is subtracted by broadcast and the difference squared as ``re^2 + im^2``.
    """
    lo = 0
    while lo < len(a):
        hi = bisect.bisect_right(a, a[lo], lo)
        w, d = weight[lo:hi], im_diff[:hi - lo]
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
    pos = finite(positions, "positions")
    if pos.ndim not in (2, 3) or pos.shape[-1] != 3:
        raise ValueError(f"positions must have shape (L, 3) or (n, L, 3), got {pos.shape}")
    for label in (i, j):
        if len(label) != pos.shape[-2]:
            raise ValueError(f"label length {len(label)} does not match {pos.shape[-2]} positions")
    phases = _unit_phases(pos @ finite(k_vec, "k_vec"))
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
