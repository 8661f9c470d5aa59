"""Closed forms of the continuum mode sums, an independent reference for ``regdeph.core``.

For the power-law coupling ``|g|^2 = A omega^p exp(-omega/cutoff)`` the grid
sums of :mod:`regdeph.core` stand for integrals over a continuous spectrum.
Here ``p = 1`` and a 1-D bath, at ``T = 0`` (the default config family) and at
``T > 0``.  Each pair of sites ``l, l'`` enters through a kernel of
``u = |x_l - x_l'| / v``, with ``a = 1/cutoff``:

* damping, ``eta_ab = A sum_ll' ds_l ds_l' K(u, t)`` with ``ds = s_a - s_b``
  and ``K = 1/4 ln[(a^2 + (u+t)^2)(a^2 + (u-t)^2) / (a^2 + u^2)^2]``, the
  integral of ``exp(-a w) cos(w u) (1 - cos w t) / w``;
* at ``T > 0`` the integrand takes ``coth(w/2T)``.  Its series
  ``1 + 2 sum_n exp(-n w/T)`` sums to ``K_T = 1/2 [S(u+t) + S(u-t) - 2 S(u)] - K``
  with ``S(w) = 2 [ln Gamma(aT) - Re ln Gamma(aT + i T w)]``, through
  ``|Gamma(x + iy)|^2 / Gamma(x)^2 = prod_n [1 + y^2/(x+n)^2]^-1``;
* label phase, ``phase_a = A sum_ll' s_l s_l' P(u, t)`` with
  ``P = t a/(a^2 + u^2) - 1/2 [arctan((u+t)/a) - arctan((u-t)/a)]``, the
  integral of ``exp(-a w) cos(w u) (t - sin(w t)/w)``.

A single flip has ``ds = 2`` on one site and ``u = 0``, so its damping is
``2 A ln(1 + cutoff^2 t^2)`` (Palma, Suominen & Ekert, Proc. R. Soc. Lond. A
452, 567 (1996)).  The integrals run over all frequencies; a grid stops at
its ``omega_max`` and misses a tail of order ``exp(-omega_max / cutoff)``.
"""
import numpy as np
from scipy.special import loggamma


def damping_kernel(u, t, cutoff):
    """``K(u, t)`` at ``T = 0``, ``p = 1``: the damping of one pair of sites at distance ``u``."""
    a2 = 1.0 / cutoff**2
    return 0.25 * np.log((a2 + (u + t) ** 2) * (a2 + (u - t) ** 2) / (a2 + u**2) ** 2)


def thermal_damping_kernel(u, t, cutoff, temperature):
    """``K_T(u, t)`` at ``T > 0``, ``p = 1``: the damping of one pair of sites at distance ``u``."""
    x = temperature / cutoff

    def s(w):
        return 2.0 * (loggamma(x).real - loggamma(x + 1j * temperature * w).real)

    return 0.5 * (s(u + t) + s(u - t) - 2.0 * s(u)) - damping_kernel(u, t, cutoff)


def phase_kernel(u, t, cutoff):
    """``P(u, t)`` at any ``T``, ``p = 1``: the phase of one pair of sites at distance ``u``."""
    a = 1.0 / cutoff
    return t * a / (a * a + u * u) - 0.5 * (np.arctan((u + t) / a) - np.arctan((u - t) / a))


def _quadratic_form(x, v, weights, kernel):
    """``sum_ll' w_l w_l' kernel(|x_l - x_l'| / v)`` over the sites of a chain."""
    u = np.abs(np.subtract.outer(x, x)) / v
    return float(weights @ kernel(u) @ weights)


def damping_exponent(amplitude, cutoff, x, v, label_a, label_b, t, temperature=0.0):
    """Continuum ``eta`` between two labels on the sites at ``x`` along the bath axis."""
    ds = np.asarray(label_a.spins, dtype=float) - np.asarray(label_b.spins, dtype=float)
    if temperature == 0:
        return amplitude * _quadratic_form(x, v, ds, lambda u: damping_kernel(u, t, cutoff))
    return amplitude * _quadratic_form(
        x, v, ds, lambda u: thermal_damping_kernel(u, t, cutoff, temperature))


def label_phase(amplitude, cutoff, x, v, label, t):
    """Continuum phase of one label; a Lamb phase is the difference of two."""
    s = np.asarray(label.spins, dtype=float)
    return amplitude * _quadratic_form(x, v, s, lambda u: phase_kernel(u, t, cutoff))
