import itertools

import numpy as np
import pytest

from regdeph.bath import BathSpectrum
from regdeph.codes import (
    PairingPlan,
    decode_adjacent,
    decode_modulated,
    encode_adjacent,
    encode_modulated,
    find_pairing,
    subdecoherence_residual,
)
from regdeph.core import BasisLabel, RegisterState, damping_exponent
from regdeph.geometry import RegisterGeometry


def collective_bath(omega=1.0, g2=0.05):
    # wave vector orthogonal to the register axis: every site sees one phase
    return BathSpectrum(omega=np.array([omega]), k=np.array([[0.0, omega, 0.0]]),
                        g2=np.array([g2]), v=1.0)


def axis_mode(kx, g2=0.05):
    return BathSpectrum(omega=np.array([abs(kx)]), k=np.array([[kx, 0.0, 0.0]]),
                        g2=np.array([g2]), v=1.0)


class TestAdjacentEncoding:
    def test_single_logical_spins(self):
        assert encode_adjacent(BasisLabel((-1,))).spins == (-1, 1)
        assert encode_adjacent(BasisLabel((1,))).spins == (1, -1)

    def test_two_logical_qubits(self):
        assert encode_adjacent(BasisLabel((-1, 1))).spins == (-1, 1, 1, -1)

    def test_superposition_amplitudes_unchanged(self):
        state = RegisterState.from_unnormalized({BasisLabel((-1,)): 0.6, BasisLabel((1,)): 0.8})
        encoded = encode_adjacent(state)
        amps = encoded.amplitudes
        assert amps[BasisLabel((-1, 1))] == pytest.approx(0.6)
        assert amps[BasisLabel((1, -1))] == pytest.approx(0.8)
        assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(1.0)

    def test_injective_over_all_labels(self):
        images = {encode_adjacent(BasisLabel(s)) for s in itertools.product((1, -1), repeat=3)}
        assert len(images) == 8

    def test_pairwise_spin_sums_vanish(self):
        for spins in itertools.product((1, -1), repeat=3):
            enc = encode_adjacent(BasisLabel(spins))
            for q in range(3):
                assert enc.spins[2 * q] + enc.spins[2 * q + 1] == 0

    def test_decode_round_trip_and_mismatch(self):
        lab = BasisLabel((1, -1, 1))
        out = decode_adjacent(encode_adjacent(lab))
        assert out.logical == lab and out.clean
        corrupted = BasisLabel((1, 1, -1, 1, 1, -1))  # first pair no longer opposite
        res = decode_adjacent(corrupted)
        assert res.mismatched_pairs == (0,)
        assert res.logical.spins[0] == 1


class TestFindPairing:
    def test_exact_commensuration(self):
        plan = find_pairing(np.pi, 1.0)
        assert (plan.m, plan.n) == (1, 1)
        assert plan.residual == 0.0

    def test_half_wavenumber(self):
        plan = find_pairing(0.5 * np.pi, 1.0)
        assert (plan.m, plan.n) == (2, 1)
        assert plan.residual == pytest.approx(0.0, abs=1e-15)

    def test_exhaustive_search_example(self):
        plan = find_pairing(0.34 * np.pi, 1.0, m_max=10, eps_tol=0.05)
        assert (plan.m, plan.n) == (3, 1)
        assert plan.residual == pytest.approx(0.02, abs=1e-12)

    def test_no_pairing_is_explicit_none(self):
        assert find_pairing(0.3819660 * np.pi, 1.0, m_max=2, eps_tol=1e-3) is None

    def test_tolerance_independent_when_exact(self):
        # once the returned residual is zero, tightening the tolerance changes nothing
        for ratio in (0.5, 0.25, 1.0 / 3.0, 0.75):
            plans = [find_pairing(ratio * np.pi, 1.0, eps_tol=tol)
                     for tol in (0.05, 1e-3, 1e-9)]
            assert all(p is not None and p.residual < 1e-12 for p in plans)
            assert len({(p.m, p.n) for p in plans}) == 1

    def test_pair_cover(self):
        pairs = find_pairing(0.5 * np.pi, 1.0).physical_pairs(4)
        assert pairs == ((0, 2), (1, 3), (4, 6), (5, 7))
        flat = [s for pair in pairs for s in pair]
        assert sorted(flat) == list(range(8))

    def test_cover_requires_divisible_register(self):
        plan = find_pairing(0.5 * np.pi, 1.0)
        with pytest.raises(ValueError):
            plan.physical_pairs(3)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            find_pairing(-1.0, 1.0)
        with pytest.raises(ValueError):
            find_pairing(1.0, 1.0, eps_tol=0.0)

    @pytest.mark.parametrize("name,kwargs", [
        ("eps_tol", dict(eps_tol=float("nan"))),
        ("eps_tol", dict(eps_tol=float("inf"))),
        ("kbar", dict(kbar=float("nan"))),
        ("kbar", dict(kbar=float("inf"))),
        ("d", dict(d=float("nan"))),
        ("overflows", dict(kbar=1e308, d=10.0)),
        ("m_max", dict(m_max=2.5)),
    ])
    def test_non_finite_inputs_rejected(self, name, kwargs):
        # a NaN tolerance used to return None, an infinite kbar an OverflowError, and a
        # fractional m_max a TypeError from range
        with pytest.raises(ValueError, match=name):
            find_pairing(**{"kbar": 1.0, "d": 1.0, **kwargs})


class TestModulatedEncoding:
    def test_odd_parity_aligns_partner(self):
        plan = PairingPlan(m=1, n=1, residual=0.0)
        assert encode_modulated(BasisLabel((-1,)), plan).spins == (-1, -1)
        assert encode_modulated(BasisLabel((1,)), plan).spins == (1, 1)

    def test_even_parity_reproduces_adjacent_pattern(self):
        plan = PairingPlan(m=1, n=2, residual=0.0)
        for spins in itertools.product((1, -1), repeat=3):
            lab = BasisLabel(spins)
            assert encode_modulated(lab, plan) == encode_adjacent(lab)

    def test_blocked_layout_at_distance_two(self):
        plan = PairingPlan(m=2, n=1, residual=0.0)
        enc = encode_modulated(BasisLabel((1, -1, 1, -1)), plan)
        # blocks of four sites; logical q sits at (2m*b + r, 2m*b + r + m)
        assert enc.spins == (1, -1, 1, -1, 1, -1, 1, -1)
        enc2 = encode_modulated(BasisLabel((1, 1, -1, -1)), plan)
        assert enc2.spins == (1, 1, 1, 1, -1, -1, -1, -1)

    def test_norm_preserved_on_states(self):
        plan = PairingPlan(m=2, n=1, residual=0.0)
        state = RegisterState.from_unnormalized(
            {BasisLabel((1, 1, 1, 1)): 1.0, BasisLabel((1, -1, 1, -1)): 1.0j})
        encoded = encode_modulated(state, plan)
        assert sum(abs(a) ** 2 for a in encoded.amplitudes.values()) == pytest.approx(1.0)

    def test_decode_round_trip(self):
        plan = PairingPlan(m=2, n=1, residual=0.0)
        lab = BasisLabel((1, -1, -1, 1))
        res = decode_modulated(encode_modulated(lab, plan), plan)
        assert res.logical == lab and res.clean

    def test_pairs_must_be_the_block_cover(self):
        # encoding and decoding share the one cover, the blocks of physical_pairs
        plan = find_pairing(0.5 * np.pi, 1.0)
        lab = BasisLabel((1, -1, -1, 1))
        encoded = encode_modulated(lab, plan)
        pairs = plan.physical_pairs(len(lab))
        assert [encoded.spins[site] for site, _ in pairs] == list(lab.spins)
        sign = (-1) ** (plan.n + 1)
        assert [encoded.spins[partner] for _, partner in pairs] == [sign * s for s in lab.spins]
        res = decode_modulated(encoded, plan)
        assert res.logical == lab and res.clean
        with pytest.raises(ValueError, match="cannot be covered"):
            PairingPlan(m=2, n=1, residual=0.0).physical_pairs(3)

    @pytest.mark.parametrize("residual", [float("nan"), float("inf"), -0.1])
    def test_residual_must_be_finite_and_nonnegative(self, residual):
        with pytest.raises(ValueError, match="residual"):
            PairingPlan(m=1, n=0, residual=residual)

    @pytest.mark.parametrize("m, n, name", [
        (1.5, 0, "m"), (float("nan"), 0, "m"), (0, 0, "m"), (float("inf"), 0, "m"),
        (1, 0.5, "n"), (1, float("nan"), "n"), (1, -1, "n"),
    ])
    def test_m_and_n_must_be_integers(self, m, n, name):
        # m = 1.5 and NaN, and n = 0.5, used to be accepted and fail later in
        # physical_pairs or in encoding
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            PairingPlan(m=m, n=n, residual=None)

    def test_integral_float_m_and_n_are_stored_as_int(self):
        plan = PairingPlan(m=2.0, n=1.0, residual=0.0)
        assert (plan.m, plan.n) == (2, 1)
        assert type(plan.m) is int and type(plan.n) is int

    def test_size_mismatch_rejected(self):
        plan = PairingPlan(m=2, n=1, residual=0.0)
        with pytest.raises(ValueError):
            encode_modulated(BasisLabel((1, 1, 1)), plan)  # 3 not divisible by m=2


class TestSubdecoherenceResidual:
    def test_collective_bath_kills_adjacent_code(self):
        rng = np.random.default_rng(0)
        geometry = RegisterGeometry(dims=(6, 1, 1), d=1.0, delta=0.0, seed=0)
        labels = [BasisLabel(tuple(rng.choice([-1, 1], size=3))) for _ in range(4)]
        res = subdecoherence_residual("adjacent", geometry, collective_bath(), 7.0, labels)
        assert res.max_eta < 1e-12
        assert res.max_abs_phi < 1e-12

    def test_exact_pairing_kills_modulated_code(self):
        d = 1.0
        kbar = 0.5 * np.pi / d
        plan = find_pairing(kbar, d)
        assert plan.residual == pytest.approx(0.0, abs=1e-15)
        geometry = RegisterGeometry(dims=(8, 1, 1), d=d, delta=0.0, seed=0)
        states = [RegisterState.cat(4), RegisterState.single_flip(4)]
        res = subdecoherence_residual(plan, geometry, axis_mode(kbar), 3.0, states)
        assert res.max_eta < 1e-12
        assert res.max_abs_phi < 1e-12

    def test_small_residual_suppresses_quadratically(self):
        d = 1.0
        kbar = 0.51 * np.pi
        plan = find_pairing(kbar, d, eps_tol=0.05)
        assert (plan.m, plan.n) == (2, 1)
        eps = plan.residual
        geometry = RegisterGeometry(dims=(12, 1, 1), d=d, delta=0.0, seed=0)
        bath = axis_mode(kbar)
        t = 2.0 / kbar
        logical = [BasisLabel((1,) * 6), BasisLabel((-1,) + (1,) * 5)]
        res = subdecoherence_residual(plan, geometry, bath, t, logical)
        single = RegisterGeometry(dims=(1, 1, 1), d=d, delta=0.0, seed=0)
        ref = damping_exponent(BasisLabel((1,)), BasisLabel((-1,)), t, bath, single.positions)
        ratio = res.max_eta / ref
        assert eps**2 / 2 <= ratio <= 2 * eps**2 * 6

    def test_rejects_unknown_code_and_empty_states(self):
        geometry = RegisterGeometry(dims=(2, 1, 1), d=1.0, delta=0.0, seed=0)
        with pytest.raises(ValueError):
            subdecoherence_residual("mystery", geometry, collective_bath(), 1.0,
                                    [BasisLabel((1,))])
        with pytest.raises(ValueError):
            subdecoherence_residual("adjacent", geometry, collective_bath(), 1.0, [])

    def test_geometry_size_must_match(self):
        geometry = RegisterGeometry(dims=(4, 1, 1), d=1.0, delta=0.0, seed=0)
        with pytest.raises(ValueError):
            subdecoherence_residual("adjacent", geometry, collective_bath(), 1.0,
                                    [BasisLabel((1, 1, 1))])  # needs 6 physical sites
