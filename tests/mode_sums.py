"""The closed form written out once per mode of the full set, a reference for ``regdeph.core``.

No folding, no shell sums, no blocks and nothing kept between calls.  For
labels ``a``, ``b`` with spins ``s`` on sites ``r_l`` and modes
``(omega_k, k, g2_k)``::

    S_a(k)      = sum_l s_l exp(i k . r_l)
    eta_ab(t)   = sum_k g2_k coth(omega_k / 2T) 2 sin^2(omega_k t / 2) / omega_k^2
                        |S_a(k) - S_b(k)|^2
    phase_a(t)  = sum_k g2_k (omega_k t - sin(omega_k t)) / omega_k^2 |S_a(k)|^2
    phi_ab(t)   = phase_a(t) - phase_b(t)
"""
import numpy as np

from regdeph.bath import coth_half


def direct_sums(labels, times, bath, positions):
    """``eta[t, a, b]``, ``phi[t, a, b]`` and ``phase[t, a]`` of ``labels`` over ``times``."""
    pos = np.asarray(positions, dtype=float)
    spins = np.array([lab.spins for lab in labels], dtype=float).reshape(len(labels), len(pos))
    s = spins @ np.exp(1j * (pos @ bath.k.T))
    x = np.multiply.outer(np.asarray(times, dtype=float), bath.omega)
    weight = bath.g2 / bath.omega**2
    k_eta = weight * coth_half(bath.omega, bath.temperature) * 2.0 * np.sin(x / 2) ** 2
    k_phi = weight * (x - np.sin(x))
    eta = np.stack([k_eta @ (np.abs(s - row) ** 2).T for row in s], axis=1)
    phase = k_phi @ (np.abs(s) ** 2).T
    return eta, phase[:, :, None] - phase[:, None, :], phase
