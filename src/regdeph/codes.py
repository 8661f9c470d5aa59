"""Subdecoherent pairing encodings and their residual-decoherence check.

Both encodings trade one logical qubit for a pair of physical qubits whose
spins are arranged so that the pair's contribution to the bath structure
factor cancels — exactly for a perfectly collective bath (adjacent pairing),
or at the dominant wavenumber for a peaked bath (modulated pairing at
distance ``m``).  This is decoherence avoidance, not error correction: a
decoded pair mismatch is reported, never repaired.

The search and the encodings are scalar arithmetic on labels, so this module
imports neither numpy nor :mod:`regdeph.core`; only
:func:`subdecoherence_residual` loads them, when it is called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from . import _resolver
from ._checks import integer, real
from .states import BasisLabel, RegisterState

if TYPE_CHECKING:
    from .bath import BathSpectrum
    from .geometry import RegisterGeometry

__all__ = [
    "PairingPlan",
    "DecodeResult",
    "SubdecoherenceResidual",
    "encode_adjacent",
    "decode_adjacent",
    "find_pairing",
    "encode_modulated",
    "decode_modulated",
    "subdecoherence_residual",
]


@dataclass(frozen=True)
class PairingPlan:
    """A pairing distance ``m`` with its parity integer ``n`` and commensuration residual.

    ``residual`` is ``|m * kbar * d / pi - n|``; at zero the pair separation is
    an exact half-wavelength multiple of the dominant mode, and it is ``None``
    when the dominant wavenumber is unknown.  :meth:`physical_pairs` gives the
    one (site, partner) cover, which encoding, decoding and the ``pairing``
    command use.  ``m`` must be an integer >= 1 and ``n`` one >= 0; both are
    stored as ``int``.
    """

    m: int
    n: int
    residual: float | None

    def __post_init__(self):
        for name, low in (("m", 1), ("n", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        if self.residual is not None:
            real(self.residual, "residual", ">= 0")

    def physical_pairs(self, n_logical: int) -> tuple[tuple[int, int], ...]:
        """Disjoint (site, site+m) cover of ``2*n_logical`` sites, in blocks of 2m."""
        m = self.m
        if n_logical % m != 0:
            raise ValueError(
                f"register of {n_logical} logical qubits cannot be covered by "
                f"disjoint blocks of pairing distance m={m}")
        return tuple((2 * m * block + r, 2 * m * block + r + m)
                     for block in range(n_logical // m) for r in range(m))


# the adjacent code is the modulated one at distance 1 with even parity
_ADJACENT = PairingPlan(m=1, n=0, residual=None)


def find_pairing(kbar: float, d: float, m_max: int = 10,
                 eps_tol: float = 0.1) -> PairingPlan | None:
    """Search for the smallest pairing distance commensurate with ``kbar``.

    Scans ``m = 1..m_max`` for an integer ``n`` with
    ``|m*kbar*d/pi - n| <= eps_tol`` and returns the first hit (for fixed
    ``m`` the nearest integer is optimal).  Returns ``None`` when no pairing
    exists within tolerance — callers must handle that outcome explicitly.
    """
    for name, value in (("kbar", kbar), ("d", d), ("eps_tol", eps_tol)):
        real(value, name, "positive")
    m_max = integer(m_max, "m_max", 1)
    ratio = kbar * d / math.pi
    if not m_max * ratio < math.inf:
        raise ValueError(f"m_max * kbar * d / pi overflows: kbar = {kbar}, d = {d}")
    for m in range(1, m_max + 1):
        n = int(round(m * ratio))
        eps = abs(m * ratio - n)
        if eps <= eps_tol:
            return PairingPlan(m=m, n=n, residual=eps)
    return None


def _encode_label(label: BasisLabel, plan: PairingPlan) -> BasisLabel:
    sign = (-1) ** (plan.n + 1)
    spins = [0] * (2 * len(label))
    for s, (site, partner) in zip(label.spins, plan.physical_pairs(len(label))):
        spins[site] = s
        spins[partner] = sign * s
    return BasisLabel(tuple(spins))


def _encode(logical, plan: PairingPlan):
    if isinstance(logical, BasisLabel):
        return _encode_label(logical, plan)
    if isinstance(logical, RegisterState):
        return RegisterState({_encode_label(lab, plan): amp for lab, amp in logical.items()})
    raise TypeError(f"cannot encode {type(logical).__name__}")


def encode_adjacent(logical):
    """Map each logical spin ``s`` to the adjacent physical pair ``(s, -s)``.

    Logical qubit ``q`` occupies physical sites ``2q`` and ``2q+1``.  Accepts a
    basis label or a register state; superpositions map linearly with
    amplitudes unchanged.
    """
    return _encode(logical, _ADJACENT)


def encode_modulated(logical, plan: PairingPlan):
    """Map logical spin ``s`` at pair ``(l, l+m)`` to ``(s, s * (-1)**(n+1))``.

    With even parity ``n`` this reproduces the adjacent-pair sign pattern; odd
    parity aligns the partner spin instead, compensating the sign the dominant
    mode accumulates over the ``m``-site separation.
    """
    return _encode(logical, plan)


@dataclass(frozen=True)
class DecodeResult:
    """Logical label read from the first pair members, plus any pair mismatches."""

    logical: BasisLabel
    mismatched_pairs: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return not self.mismatched_pairs


def decode_adjacent(physical: BasisLabel) -> DecodeResult:
    """Left inverse of :func:`encode_adjacent`; mismatches are reported, not fixed."""
    return decode_modulated(physical, _ADJACENT)


def decode_modulated(physical: BasisLabel, plan: PairingPlan) -> DecodeResult:
    """Left inverse of :func:`encode_modulated`; mismatches are reported, not fixed."""
    if len(physical) % 2 != 0:
        raise ValueError("physical register must have an even number of qubits")
    sign = (-1) ** (plan.n + 1)
    pairs = plan.physical_pairs(len(physical) // 2)
    spins = physical.spins
    bad = tuple(q for q, (site, partner) in enumerate(pairs)
                if spins[partner] != sign * spins[site])
    return DecodeResult(logical=BasisLabel(tuple(spins[site] for site, _ in pairs)),
                        mismatched_pairs=bad)


@dataclass(frozen=True)
class SubdecoherenceResidual:
    """Worst damping exponent and phase over the encoded coherence pairs."""

    max_eta: float
    max_abs_phi: float


def subdecoherence_residual(code, geometry: RegisterGeometry, bath: BathSpectrum,
                            t: float, states: Iterable) -> SubdecoherenceResidual:
    """Residual decoherence of encoded states under a concrete bath.

    ``code`` is either the string ``"adjacent"`` or a :class:`PairingPlan`;
    every basis label in the support of ``states`` (labels or register states,
    logical) is encoded onto the physical register described by ``geometry``,
    and the damping/phase factors are maximized over all ordered pairs of the
    resulting physical labels.
    """
    if code == "adjacent":
        code = _ADJACENT
    elif not isinstance(code, PairingPlan):
        raise ValueError(f"unknown code {code!r}: expected 'adjacent' or a PairingPlan")

    encoded: list[BasisLabel] = []
    seen = set()
    for obj in states:
        labels = [obj] if isinstance(obj, BasisLabel) else obj.labels()
        for lab in labels:
            phys = encode_modulated(lab, code)
            if phys not in seen:
                seen.add(phys)
                encoded.append(phys)
    if not encoded:
        raise ValueError("state set is empty")
    if len(encoded[0]) != geometry.n_qubits:
        raise ValueError(
            f"encoded labels need {len(encoded[0])} physical qubits but the "
            f"geometry has {geometry.n_qubits}")
    from .core import pair_factors

    factors = pair_factors(encoded, t, bath, geometry.positions)
    return SubdecoherenceResidual(max_eta=float(factors.eta_matrix.max()),
                                  max_abs_phi=float(abs(factors.phi_matrix).max()))


# ``pair_factors`` is imported where it is called; as a module attribute it is
# core's current binding, which tools that wrap core's functions rely on
__getattr__ = _resolver(__name__, {"pair_factors": "core"})
