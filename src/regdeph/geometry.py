"""Qubit register geometry: periodic lattice sites plus static random displacement.

Positions are 3-vectors in length units.  A register is a cubic lattice of
``L1 x L2 x L3`` sites with common spacing ``d``; each site may additionally be
displaced by a quenched random offset whose total RMS norm is ``delta``.
1-D registers are represented as ``dims = (L, 1, 1)``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from ._checks import real

__all__ = ["RegisterGeometry", "build_lattice", "apply_disorder"]


def build_lattice(dims: tuple[int, int, int], d: float) -> np.ndarray:
    """Return the ideal periodic site positions for a cubic register.

    Site ``(l1, l2, l3)`` sits at ``(l1*d, l2*d, l3*d)``.  Sites are ordered
    with the last lattice index varying fastest, so a 1-D register
    ``dims=(L,1,1)`` lists its sites in increasing x.

    Parameters
    ----------
    dims : tuple of three positive ints
        Number of sites along each axis.
    d : float
        Lattice constant, identical along all axes.  Must be finite and > 0.

    Returns
    -------
    ndarray, shape (L1*L2*L3, 3)
    """
    # check before converting, so 2.7 is rejected rather than truncated to 2
    sizes = [float(n) for n in dims]
    if len(sizes) != 3 or any(not n.is_integer() or n < 1 for n in sizes):
        raise ValueError(f"dims must be three positive integers, got {tuple(dims)!r}")
    dims = tuple(int(n) for n in sizes)
    real(d, "lattice constant d", "positive")
    grid = np.array(list(np.ndindex(dims)), dtype=float)
    return grid * d


def apply_disorder(ideal_positions: np.ndarray, delta: float,
                   seed: int | tuple[int, ...]) -> np.ndarray:
    """Superimpose seeded random site displacements on ideal positions.

    Each site receives an independent isotropic Gaussian offset with per-axis
    standard deviation ``delta/sqrt(3)``, so the displacement vector has zero
    mean and total RMS norm ``delta``.  The same ``(input, delta, seed)``
    always yields bit-identical output; composite seeds (tuples) derive
    per-sample streams for Monte Carlo averaging.
    """
    positions = np.asarray(ideal_positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must have shape (L, 3), got {positions.shape}")
    if real(delta, "disorder amplitude delta", ">= 0") == 0:
        return positions.copy()
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, delta / np.sqrt(3.0), size=positions.shape)
    return positions + offsets


# The block builder below mirrors numpy's SeedSequence (entropy pool mixing and
# generate_state, numpy/random/bit_generator.pyx) and PCG64's seeding
# (pcg_setseq_128_srandom_r, numpy/random/src/pcg64), so that it reproduces
# default_rng((seed, idx)) without building one generator per sample.
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an integer: 32-bit words, least significant first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng`` seeded by each row of 32-bit words.

    ``entropy`` is ``(m, W)`` uint64 holding 32-bit values; every 32-bit
    product is taken in uint64 and masked, so the rows hash as one batch.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        # uint64 wraps modulo 2**64, so the masked difference is the one modulo 2**32
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    n_words = entropy.shape[1]
    zeros = np.zeros(len(entropy), dtype=np.uint64)
    pool = [hashmix(entropy[:, k] if k < n_words else zeros) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # entropy longer than the pool takes one more round per extra word
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    # generate_state(4, uint64): eight words cycled from the pool, paired little-endian
    h, words = _INIT_B, []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        words.append(value ^ value >> 16)
    seed64 = [(words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states = []
    for s0, s1, s2, s3 in zip(*seed64):
        init_state, init_seq = s0 << 64 | s1, s2 << 64 | s3
        inc = (init_seq << 1 | 1) & _MASK128
        # state 0, one step, add init_state, one step
        states.append((((inc + init_state) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _disorder_block(ideal_positions: np.ndarray, delta: float, seed: int,
                    lo: int, hi: int) -> np.ndarray:
    """``apply_disorder(ideal, delta, (seed, idx))`` for ``idx`` in ``[lo, hi)``, stacked.

    Bit-identical to the per-sample calls: the streams are derived for the
    whole block at once and drawn from one reused generator.
    """
    positions = np.asarray(ideal_positions, dtype=float)
    if real(delta, "disorder amplitude delta", ">= 0") == 0:
        return np.repeat(positions[None], hi - lo, axis=0)
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    seed_words = _words(seed)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    draws = np.empty((hi - lo, *positions.shape))
    start = lo
    # indices are grouped by how many 32-bit words they take
    while start < hi:
        n_idx_words = len(_words(start))
        stop = min(hi, 1 << 32 * n_idx_words)
        idx = np.arange(start, stop, dtype=np.uint64)
        entropy = np.empty((stop - start, len(seed_words) + n_idx_words), dtype=np.uint64)
        entropy[:, :len(seed_words)] = seed_words
        for k in range(n_idx_words):
            entropy[:, len(seed_words) + k] = idx >> np.uint64(32 * k) & np.uint64(_MASK32)
        for row, (state, inc) in enumerate(_pcg64_states(entropy), start - lo):
            pcg["state"], pcg["inc"] = state, inc
            bitgen.state = full_state
            rng.standard_normal(out=draws[row])
        start = stop
    # Generator.normal(loc, scale) returns loc + scale * z for each standard draw z
    return positions + (0.0 + delta / np.sqrt(3.0) * draws)


@dataclass(frozen=True)
class RegisterGeometry:
    """A realized register: lattice parameters and the site positions they produce.

    ``positions`` holds one 3-vector per qubit, ``r_l = R_l + offset_l``.
    With ``delta == 0`` the positions are exactly the periodic lattice.
    """

    dims: tuple[int, int, int]
    d: float
    delta: float = 0.0
    seed: int = 0
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ideal = build_lattice(self.dims, self.d)
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        realized = apply_disorder(ideal, self.delta, self.seed)
        realized.setflags(write=False)
        object.__setattr__(self, "positions", realized)

    @property
    def n_qubits(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def ideal_positions(self) -> np.ndarray:
        return build_lattice(self.dims, self.d)
