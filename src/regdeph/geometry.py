"""Qubit register geometry: periodic lattice sites plus static random displacement.

Positions are 3-vectors in length units.  A register is a cubic lattice of
``L1 x L2 x L3`` sites with common spacing ``d``; each site may additionally be
displaced by a quenched random offset whose total RMS norm is ``delta``.
1-D registers are represented as ``dims = (L, 1, 1)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import finite, real

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
    always yields bit-identical output.
    """
    positions = finite(ideal_positions, "ideal_positions")
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must have shape (L, 3), got {positions.shape}")
    if real(delta, "disorder amplitude delta", ">= 0") == 0:
        return positions.copy()
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, delta / np.sqrt(3.0), size=positions.shape)
    return positions + offsets


@dataclass(frozen=True, eq=False)
class RegisterGeometry:
    """A realized register: lattice parameters and the site positions they produce.

    ``positions`` holds one 3-vector per qubit, ``r_l = R_l + offset_l``.
    With ``delta == 0`` the positions are exactly the periodic lattice.
    Geometries compare and hash by identity.
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
