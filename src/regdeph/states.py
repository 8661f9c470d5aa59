"""Computational basis labels and pure register states.

Both are plain Python, so the commands that only map labels and amplitudes
(``pairing``, ``encode``) run without numpy; :mod:`regdeph.core` re-exports
them as the same objects.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping

from ._checks import integer

__all__ = ["BasisLabel", "RegisterState"]

NORM_TOL = 1e-12


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

    def as_array(self):
        """The spins as a float numpy array."""
        import numpy as np

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
        if not all(map(cmath.isfinite, amps.values())):
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
        if not all(map(cmath.isfinite, amplitudes.values())):
            raise ValueError("amplitudes must be finite")
        norm = math.sqrt(sum(abs(c) ** 2 for c in amplitudes.values()))
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
