"""A stateful model test of the paths of ``core._coherence``.

Since the weights and the kernels are kept across calls, the result of a call
depends on the calls before it.  Each call takes one path of each kind:

* kept ``W``, kept label factors (``W`` streams from them), or nothing kept
  (``W`` streams and the list is left as it is);
* kept kernels, streamed kernels, or a single time that must not touch the
  kernel list;
* grouped pair columns (16 labels or more) or one column per pair;
* the ladder (grid baths) or the dense path (a hand-built bath);
* one or several time blocks, at any ``CHUNK``;
* any position in two least-recently-used lists.

The machine below draws sequences of calls of every public entry point over
small pools of these inputs, with rules that change ``CHUNK`` and write a
register's positions in place.  Each call takes its bath, register and
labels as one subject from those chosen so far, so that subjects repeat and
hit.  After every call it checks that

* the result is bit-equal to a fresh build at the same ``CHUNK``, made with
  both lists saved, emptied and then restored;
* the result is within 1e-12 of the direct mode sum of ``mode_sums``;
* each list has at most ``_KEEP`` entries, the kept weights, factors, pair
  columns and kernels are read-only, and each entry is within the byte bound
  of the ``core`` docstring;
* a call builds its kernels once for a single time, at most once for a grid
  that fits ``4*CHUNK``, and once per group of columns beyond it, and fills
  each column's weights once, or not at all when it hits a kept ``W``;
* a single-time call leaves ``_kept_kernels`` as the same object.

Pool sizes, at the default ``CHUNK`` (``4*CHUNK = 2**18`` elements):

* both grid baths have ``J = 1024`` shells, of one folded mode (1-D) or of
  three (3-D): up to 256 columns keep ``W``, so the 24 random labels (276
  columns, not grouped) stream, and their factors, ``2*24*M`` elements, are
  kept;
* the hand-built bath has 64 folded modes, each its own shell, and every set
  keeps its ``W`` on it;
* at ``CHUNK = 2**14`` the 12- and 32-label sets stream on the grid baths
  too, and keep their factors on the 1-D bath, the 32 labels' exactly at the
  bound; at ``CHUNK = 256`` every set of more than one column streams on the
  grid baths and keeps nothing.

The grids are one time, 9 times, and on each bath and ``CHUNK`` the longest
grid whose ``(T, J)`` kernels fit ``4*CHUNK`` and one time more, in one or
several time blocks of ``CHUNK // J`` rows.
"""
import itertools

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from mode_sums import direct_sums
from regdeph import core
from regdeph.bath import BathSpectrum, PowerLawCoupling, discretize_spectrum
from regdeph.core import (BasisLabel, RegisterState, damping_exponent, evolve, factor_curves,
                          fidelity, fidelity_curve, label_phase, lamb_phase, pair_factors)
from regdeph.regimes import damping_scale, phase_scale

pytestmark = pytest.mark.bits

N_SITE = 8


def _hand_built_bath(rng, n_pair=64):
    """Inversion pairs of random 3-D wave vectors with unequal partner weights."""
    k = rng.normal(size=(n_pair, 3))
    k = np.vstack([k, -k[::-1]])
    return BathSpectrum(omega=np.linalg.norm(k, axis=1), k=k,
                        g2=rng.uniform(0.0, 0.02, size=len(k)), v=1.0, temperature=0.5)


def _pools():
    rng = np.random.default_rng(151)
    coupling = PowerLawCoupling(0.05, 1.0, 2.0)
    baths = {
        "1d": discretize_spectrum(coupling, v=1.0, n_freq=1024, omega_max=6.0, temperature=0.5),
        "3d": discretize_spectrum(coupling, v=1.0, dimensionality=3, n_freq=1024, omega_max=6.0,
                                  temperature=0.5, n_directions=6),
        "hand": _hand_built_bath(rng),
    }
    chain = np.zeros((N_SITE, 3))
    chain[:, 0] = 0.9 * np.arange(N_SITE)
    cube = [np.array(list(np.ndindex(2, 2, 2)), dtype=float) * 0.9
            + rng.uniform(-0.1, 0.1, size=(N_SITE, 3)) for _ in range(2)]

    def padded(n_qubit):
        tail = (1, -1, 1, 1, -1)[:N_SITE - n_qubit]
        return [BasisLabel(s + tail) for s in itertools.product((1, -1), repeat=n_qubit)]

    def distinct(count):
        labels = {BasisLabel(tuple(rng.choice([-1, 1], size=N_SITE))) for _ in range(4 * count)}
        return sorted(labels, key=str)[:count]

    twelve = distinct(11)
    label_sets = {"1": distinct(1), "2": distinct(2), "12": twelve + [twelve[4]],
                  "basis16": padded(4), "basis32": padded(5), "stream24": distinct(24)}
    return baths, chain, cube, label_sets


BATHS, CHAIN, CUBE_VARIANTS, LABEL_SETS = _pools()
CUBE = CUBE_VARIANTS[0].copy()
REGISTERS = {"chain": CHAIN, "cube": CUBE}
STATES = {name: RegisterState.from_unnormalized(
    {lab: complex(np.cos(n), np.sin(2 * n) + 0.5) for n, lab in enumerate(dict.fromkeys(labels))})
    for name, labels in LABEL_SETS.items()}
CHUNKS = [1 << 16, 256, 1 << 14]
SINGLE_TIMES = [0.0, 2.7, 6.3]
UP, DOWN, ORIGIN = BasisLabel((1,)), BasisLabel((-1,)), np.zeros((1, 3))
# the entry points at one time; the two scales take only the subject's bath, on one site
ONE_TIME = ["pair_factors", "evolve", "fidelity", "damping_exponent", "lamb_phase", "label_phase",
            "damping_scale", "phase_scale"]


def _n_shell(bath):
    return bath.folded.omega.size if bath.grid is None else bath.grid.freqs.size


def _grid(kind, bath):
    """One of the time grids: 9 times, or the longest whose kernels fit ``4*CHUNK``, or one more."""
    if kind == "nine":
        return np.linspace(0.0, 7.0, 9)
    fit = 4 * core.CHUNK // _n_shell(bath)
    return np.linspace(0.0, 7.0, max(2, fit if kind == "fit" else fit + 1))


def _fresh(call):
    """``call()`` with both kept lists emptied, which then get back what they held."""
    kept, kernels = core._kept, core._kept_kernels
    core._kept = core._kept_kernels = ()
    try:
        return call()
    finally:
        core._kept, core._kept_kernels = kept, kernels


def _arrays(result):
    if isinstance(result, core.DecoherenceFactors):
        return [result.eta_matrix, result.phi_matrix]
    if isinstance(result, dict):
        return [np.array(list(result.values()))]
    if isinstance(result, tuple):
        return [np.asarray(r) for r in result]
    return [np.asarray(result)]


class CoherencePaths(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # each example starts from empty lists and the first cube
        self.saved = (core.CHUNK, core._kept, core._kept_kernels, core._shell_kernels,
                      core._damping_weights)
        core._kept = core._kept_kernels = ()
        CUBE[...] = CUBE_VARIANTS[0]
        # the time blocks of each kernel build, and the columns of each weight fill
        self.builds, self.filled = [], []
        kernels, fill = core._shell_kernels, core._damping_weights

        def counted_kernels(bath, times, rows):
            self.builds.append([])
            for block, k_eta, k_phi in kernels(bath, times, rows):
                self.builds[-1].append(block)
                yield block, k_eta, k_phi

        def counted_fill(re, im, a, b, weight, im_diff):
            self.filled.append(len(a))
            return fill(re, im, a, b, weight, im_diff)

        core._shell_kernels, core._damping_weights = counted_kernels, counted_fill

    def teardown(self):
        (core.CHUNK, core._kept, core._kept_kernels, core._shell_kernels,
         core._damping_weights) = self.saved

    @initialize(chunk=st.sampled_from(CHUNKS))
    def start_at_chunk(self, chunk):
        core.CHUNK = chunk

    @rule(chunk=st.sampled_from(CHUNKS))
    def set_chunk(self, chunk):
        core.CHUNK = chunk

    @rule(variant=st.sampled_from(CUBE_VARIANTS))
    def write_cube_in_place(self, variant):
        CUBE[...] = variant

    subjects = Bundle("subjects")

    @rule(target=subjects, bath=st.sampled_from(sorted(BATHS)),
          register=st.sampled_from(sorted(REGISTERS)), labels=st.sampled_from(sorted(LABEL_SETS)))
    def choose_a_subject(self, bath, register, labels):
        return bath, register, labels

    @rule(entry=st.sampled_from(ONE_TIME), subject=subjects, t=st.sampled_from(SINGLE_TIMES))
    def call_at_one_time(self, entry, subject, t):
        self.call(entry, *subject, [t])

    @rule(entry=st.sampled_from(["fidelity_curve", "factor_curves"]), subject=subjects,
          grid=st.sampled_from([(SINGLE_TIMES[1],), "nine", "fit", "past"]))
    def call_on_a_grid(self, entry, subject, grid):
        self.call(entry, *subject, grid)

    def call(self, entry, bath, register, labels, times):
        """Call ``entry`` and check its results, its kernel builds and its column fills."""
        bath = BATHS[bath]
        times = _grid(times, bath) if isinstance(times, str) else list(times)
        t = times[0]
        pos, state, labels = REGISTERS[register], STATES[labels], LABEL_SETS[labels]
        if entry.endswith("_scale"):
            pos, labels = ORIGIN, [UP, DOWN]
        i, j = labels[0], labels[-1]
        if entry == "pair_factors":
            eta, phi, _ = direct_sums(labels, times, bath, pos)
            used, call, want = labels, lambda: pair_factors(labels, t, bath, pos), [eta[0], phi[0]]
        elif entry in ("evolve", "fidelity", "fidelity_curve"):
            used = state.labels()
            eta, phi, _ = direct_sums(used, times, bath, pos)
            c = np.array(list(state.amplitudes.values()))
            p = np.abs(c) ** 2
            fid = np.einsum("a,b,tab->t", p, p, np.exp(-eta) * np.cos(phi))
            call, want = {
                "evolve": (lambda: evolve(state, t, bath, pos),
                           [(np.outer(c, c.conj()) * np.exp(-eta[0] + 1j * phi[0])).ravel()]),
                "fidelity": (lambda: fidelity(state, t, bath, pos), [fid[0]]),
                "fidelity_curve": (lambda: fidelity_curve(state, times, bath, pos), [fid])}[entry]
        else:
            eta, phi, phase = direct_sums([i, j], times, bath, pos)
            used, call, want = {
                "factor_curves": ([i, j], lambda: factor_curves(i, j, times, bath, pos),
                                  [eta[:, 0, 1], phi[:, 0, 1]]),
                "damping_exponent": ([i, j], lambda: damping_exponent(i, j, t, bath, pos),
                                     [eta[0, 0, 1]]),
                "lamb_phase": ([i, j], lambda: lamb_phase(i, j, t, bath, pos), [phi[0, 0, 1]]),
                "label_phase": ([i], lambda: label_phase(i, t, bath, pos), [phase[0, 0]]),
                "damping_scale": ([i, j], lambda: damping_scale(bath, t), [eta[0, 0, 1] / 4]),
                "phase_scale": ([i], lambda: phase_scale(bath, t), [phase[0, 0]])}[entry]

        kernels = core._kept_kernels
        self.builds.clear()
        self.filled.clear()
        got = _arrays(call())
        builds, filled = list(self.builds), sum(self.filled)
        built = _arrays(_fresh(call))
        assert len(got) == len(built)
        for g, b in zip(got, built):
            assert g.shape == b.shape and np.array_equal(g, b)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

        # the kernels: a single time builds them once, outside the list; a grid that fits
        # 4*CHUNK builds them at most once; a longer grid once per group of columns
        n_shell, n_time = _n_shell(bath), len(times)
        step = max(1, core.CHUNK // n_shell)
        blocks = [slice(t0, min(t0 + step, n_time)) for t0 in range(0, n_time, step)]
        n_col = len(core._pair_columns(used)[0])
        fit = 4 * core.CHUNK // n_shell
        if n_time == 1:
            assert core._kept_kernels is kernels and builds == [blocks]
        elif n_time <= fit:
            assert builds in ([], [blocks])
        else:
            assert builds == [blocks] * -(-max(n_col, 1) // max(1, min(n_col, fit)))
        # every column's weights are filled once, or not at all when a kept W is hit
        assert filled == n_col or (filled == 0 and n_col <= fit)

    @invariant()
    def kept_lists_are_bounded_and_read_only(self):
        assert len(core._kept) <= core._KEEP and len(core._kept_kernels) <= core._KEEP
        for bath, (shape, _, labels, chunk), (mod2, row_of, of_pair, weights, source) in core._kept:
            n_shell = _n_shell(bath)
            assert (weights is None) != (source is None)
            kept = [mod2, weights] if source is None else [mod2, *source[:2]]
            assert not any(arr.flags.writeable for arr in kept)
            assert of_pair is None or not of_pair.flags.writeable
            assert shape == (N_SITE, 3) or shape == (1, 3)
            assert mod2.shape == (len(set(labels)), n_shell) and len(row_of) == len(labels)
            # at most 4*CHUNK elements of W or of factors, and (4*CHUNK // J + 1) * J of V
            assert sum(arr.nbytes for arr in kept[1:]) <= 8 * 4 * chunk
            assert mod2.nbytes <= 8 * (4 * chunk // n_shell + 1) * n_shell
        for bath, (grid, chunk), blocks in core._kept_kernels:
            arrays = [k for _, *pair in blocks for k in pair]
            assert not any(arr.flags.writeable for arr in arrays)
            assert len(grid) > 8 and sum(arr.nbytes for arr in arrays) <= 8 * 2 * 4 * chunk
            assert sum(rows.stop - rows.start for rows, *_ in blocks) == len(grid) // 8


CoherencePaths.TestCase.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)
test_coherence_paths = CoherencePaths.TestCase


def test_one_sequence_takes_every_path():
    # the machine's checks on a fixed sequence that takes each path at least once, whatever
    # the random sequences above happen to draw
    machine = CoherencePaths()

    def kept():
        return core._kept[0][2]

    def call(*args):
        machine.call(*args)
        machine.kept_lists_are_bounded_and_read_only()

    try:
        machine.start_at_chunk(1 << 16)
        # 276 columns of 1024 shells stream W, and the label factors are kept; a hit streams W
        call("pair_factors", "1d", "chain", "stream24", [2.7])
        assert kept()[3] is None and kept()[4] is not None
        entry = core._kept[0]
        call("fidelity", "1d", "chain", "stream24", [6.3])
        assert core._kept == (entry,)
        # a grouped set keeps W; 256 times keep their kernels in 4 blocks; then hits on both
        call("fidelity_curve", "1d", "chain", "basis32", "fit")
        assert kept()[2] is not None and kept()[3] is not None
        assert [len(entry[2]) for entry in core._kept_kernels] == [4]
        kernels = core._kept_kernels
        call("factor_curves", "1d", "chain", "basis32", "fit")
        call("fidelity_curve", "1d", "chain", "basis32", "fit")
        assert core._kept_kernels is kernels and len(core._kept) == 3
        # the dense path, kernels streamed past 4*CHUNK, then one grid on two baths
        call("fidelity_curve", "hand", "cube", "12", "past")
        assert core._kept_kernels is kernels
        call("fidelity_curve", "hand", "cube", "12", "nine")
        call("fidelity_curve", "3d", "cube", "12", "nine")
        assert len(core._kept_kernels) == 3 and len(core._kept) == 4
        # the cube written in place misses; written back it hits its first entry
        machine.write_cube_in_place(CUBE_VARIANTS[1])
        call("fidelity_curve", "3d", "cube", "12", "nine")
        first = core._kept[1]
        machine.write_cube_in_place(CUBE_VARIANTS[0])
        call("evolve", "3d", "cube", "12", [2.7])
        assert core._kept[0] is first
        for entry in ONE_TIME[-2:]:
            call(entry, "3d", "chain", "1", [2.7])
        # evicted, so built again
        call("pair_factors", "1d", "chain", "stream24", [0.0])
        # CHUNK = 256: nothing kept for 12 labels on 1024 shells; 2 times of 1024 shells
        # stream; 16 times of 64 shells are kept in 4 blocks
        machine.set_chunk(256)
        weights, kernels = core._kept, core._kept_kernels
        call("pair_factors", "1d", "chain", "12", [2.7])
        call("fidelity_curve", "3d", "chain", "1", "fit")
        assert all(new is old for new, old in zip(core._kept[1:], weights[:3]))
        assert core._kept_kernels is kernels
        call("factor_curves", "hand", "chain", "2", "fit")
        assert [len(entry[2]) for entry in core._kept_kernels][0] == 4
        # CHUNK = 2**14: the 32 labels stream on 1024 shells, their factors exactly at the bound
        machine.set_chunk(1 << 14)
        call("pair_factors", "1d", "chain", "basis32", [2.7])
        assert kept()[3] is None and kept()[4][0].size * 2 == 4 * core.CHUNK
        entry = core._kept[0]
        call("evolve", "1d", "chain", "basis32", [6.3])
        assert core._kept[0] is entry
        call("fidelity_curve", "1d", "cube", "basis16", "fit")
        # 65 times of 1024 shells stream their kernels once for the group of all 40 columns
        call("fidelity_curve", "3d", "chain", "basis16", "past")
        machine.set_chunk(1 << 16)
        call("pair_factors", "1d", "chain", "basis32", [2.7])
        assert kept()[3] is not None and any(other is entry for other in core._kept[1:])
    finally:
        machine.teardown()
