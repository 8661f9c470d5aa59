"""Direct mode sums of the closed-form dephasing factors, used to check outputs.

Written independently of ``regdeph.core``: structure factors are built from
explicit cosine and sine sums over the sites, one block of modes at a time,
and every mode sum is accumulated with ``math.fsum``.  For labels ``i``, ``j``
with spins ``s`` on sites ``r_l`` and modes ``(omega_k, k, g2_k)``::

    S_i(k)      = sum_l s_l exp(i k . r_l)
    eta_ij(t)   = sum_k g2_k coth(omega_k / 2T) 2 sin^2(omega_k t / 2) / omega_k^2
                        |S_i(k) - S_j(k)|^2
    phi_ij(t)   = sum_k g2_k (omega_k t - sin(omega_k t)) / omega_k^2
                        (|S_i(k)|^2 - |S_j(k)|^2)
    rho_ij(t)   = c_i conj(c_j) exp(-eta_ij + i phi_ij)
    F(t)        = sum_ij |c_i|^2 |c_j|^2 exp(-eta_ij) cos(phi_ij)
"""
from __future__ import annotations

import math

import numpy as np

MODE_BLOCK = 1024


def structure_factors(spins, positions, k):
    """Real and imaginary parts of ``S(k)`` for each label row of ``spins``."""
    spins = np.asarray(spins, dtype=float)
    re = np.empty((spins.shape[0], k.shape[0]))
    im = np.empty_like(re)
    for lo in range(0, k.shape[0], MODE_BLOCK):
        theta = positions @ k[lo:lo + MODE_BLOCK].T
        re[:, lo:lo + MODE_BLOCK] = spins @ np.cos(theta)
        im[:, lo:lo + MODE_BLOCK] = spins @ np.sin(theta)
    return re, im


def kernels(omega, g2, temperature, t):
    """Per-mode damping and phase weights at time ``t``."""
    coth = np.ones_like(omega) if temperature == 0 else 1.0 / np.tanh(omega / (2.0 * temperature))
    damp = g2 * coth * 2.0 * np.sin(0.5 * omega * t) ** 2 / omega**2
    phase = g2 * (omega * t - np.sin(omega * t)) / omega**2
    return damp, phase


class ModeSums:
    """Structure factors of a label set on one register and bath, computed once."""

    def __init__(self, labels, positions, bath):
        self.index = {label: n for n, label in enumerate(labels)}
        spins = [label.spins for label in labels]
        self.re, self.im = structure_factors(spins, np.asarray(positions, dtype=float),
                                             np.asarray(bath.k))
        self.mod2 = self.re**2 + self.im**2
        self.omega = np.asarray(bath.omega)
        self.g2 = np.asarray(bath.g2)
        self.temperature = bath.temperature

    def factors(self, i, j, t):
        """``(eta, phi)`` of the ``(i, j)`` coherence at time ``t``."""
        a, b = self.index[i], self.index[j]
        damp, phase = kernels(self.omega, self.g2, self.temperature, t)
        lam1 = (self.re[a] - self.re[b]) ** 2 + (self.im[a] - self.im[b]) ** 2
        lam2 = self.mod2[a] - self.mod2[b]
        return math.fsum(damp * lam1), math.fsum(phase * lam2)

    def max_factors(self, t):
        """Largest ``eta`` and ``|phi|`` over all ordered pairs of distinct labels."""
        damp, phase = kernels(self.omega, self.g2, self.temperature, t)
        max_eta = max_phi = 0.0
        for a in range(self.re.shape[0]):
            lam1 = (self.re[a] - self.re) ** 2 + (self.im[a] - self.im) ** 2
            lam2 = self.mod2[a] - self.mod2
            eta = lam1 @ damp
            phi = np.abs(lam2 @ phase)
            eta[a] = phi[a] = 0.0
            max_eta, max_phi = max(max_eta, float(eta.max())), max(max_phi, float(phi.max()))
        return max_eta, max_phi

    def fidelity(self, amplitudes, t):
        total = []
        for i, ci in amplitudes.items():
            for j, cj in amplitudes.items():
                eta, phi = self.factors(i, j, t)
                total.append(abs(ci) ** 2 * abs(cj) ** 2 * math.exp(-eta) * math.cos(phi))
        return math.fsum(total)

    def density(self, amplitudes, i, j, t):
        eta, phi = self.factors(i, j, t)
        return amplitudes[i] * amplitudes[j].conjugate() * complex(math.exp(-eta)) \
            * complex(math.cos(phi), math.sin(phi))
