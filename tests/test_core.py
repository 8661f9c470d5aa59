import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regdeph.bath import BathSpectrum, PowerLawCoupling, discretize_spectrum
from regdeph.core import (
    BasisLabel,
    RegisterState,
    damping_exponent,
    damping_weight,
    evolve,
    factor_curves,
    fidelity,
    fidelity_curve,
    label_phase,
    lamb_phase,
    pair_factors,
    phase_weight,
    spin_structure_factor,
)


def line_positions(n, d=1.0):
    pos = np.zeros((n, 3))
    pos[:, 0] = d * np.arange(n)
    return pos


def single_mode_bath(omega=1.0, g2=0.05, direction=(1.0, 0.0, 0.0), temperature=0.0):
    k = omega * np.asarray(direction) / np.linalg.norm(direction)
    return BathSpectrum(omega=np.array([omega]), k=np.array([k]),
                        g2=np.array([g2]), v=1.0, temperature=temperature)


def random_label(rng, n):
    return BasisLabel(tuple(rng.choice([-1, 1], size=n)))


def random_bath(rng, temperature=0.0):
    n_shells = rng.integers(1, 4)
    omega, k, g2 = [], [], []
    for _ in range(n_shells):
        w = rng.uniform(0.4, 2.5)
        g = rng.uniform(0.01, 0.1)
        for sign in (1, -1):
            omega.append(w)
            k.append([sign * w, 0.0, 0.0])
            g2.append(g / 2)
    return BathSpectrum(omega=np.array(omega), k=np.array(k), g2=np.array(g2),
                        v=1.0, temperature=temperature)


def build_every_call(monkeypatch):
    """Empty the kept weights before every ``core._coherence`` call, so that each call builds them."""
    from regdeph import core

    coherence = core._coherence

    def built(*args):
        core._kept = ()
        return coherence(*args)

    monkeypatch.setattr(core, "_coherence", built)


class TestBasisLabel:
    def test_string_round_trip(self):
        lab = BasisLabel.from_string("+-+")
        assert lab.spins == (1, -1, 1)
        assert str(lab) == "+-+"

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            BasisLabel((1, 0, -1))
        with pytest.raises(ValueError):
            BasisLabel(())
        with pytest.raises(ValueError):
            BasisLabel.from_string("+x")

    @pytest.mark.parametrize("spins", [(1.5, -1), (1, -0.5), (np.float64(-1.2), 1), ("1", -1)])
    def test_rejects_non_unit_entries_before_converting(self, spins):
        # int() would truncate 1.5 to 1 and -0.5 to 0
        with pytest.raises(ValueError):
            BasisLabel(spins)

    def test_accepts_unit_floats_and_numpy_integers(self):
        for spins in [(1.0, -1.0), (np.int64(1), np.int64(-1)), np.array([1.0, -1.0])]:
            lab = BasisLabel(spins)
            assert lab.spins == (1, -1) and all(type(s) is int for s in lab.spins)
            assert lab == BasisLabel.from_string("+-")


class TestRegisterState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            RegisterState({BasisLabel((1,)): 0.5})

    @pytest.mark.parametrize("bad", [float("nan"), complex(1.0, float("nan")), float("inf")])
    def test_rejects_non_finite_amplitudes(self, bad):
        # abs(nan - 1) > NORM_TOL is False, so a NaN amplitude used to pass the norm check
        up, down = BasisLabel((1,)), BasisLabel((-1,))
        with pytest.raises(ValueError, match="finite"):
            RegisterState({up: bad})
        with pytest.raises(ValueError, match="finite"):
            RegisterState({up: 1.0, down: bad})
        # an inf amplitude used to be divided into NaN by the norm
        with pytest.raises(ValueError, match="finite"):
            RegisterState.from_unnormalized({up: 1.0, down: bad})

    def test_rejects_empty_and_mixed_lengths(self):
        with pytest.raises(ValueError):
            RegisterState({})
        with pytest.raises(ValueError):
            RegisterState.from_unnormalized({BasisLabel((1,)): 1.0, BasisLabel((1, 1)): 1.0})

    def test_presets(self):
        cat = RegisterState.cat(3)
        assert set(map(str, cat.labels())) == {"+++", "---"}
        flip = RegisterState.single_flip(3, site=1)
        assert set(map(str, flip.labels())) == {"+++", "+-+"}

    @pytest.mark.parametrize("site", [-1, 3, 5, 1.5, float("nan")])
    def test_single_flip_site_must_be_in_range(self, site):
        # -1 used to flip the last qubit, 3 and 5 raised IndexError, 1.5 TypeError
        with pytest.raises(ValueError, match=r"site must be an integer in \[0, 3\)"):
            RegisterState.single_flip(3, site=site)

    def test_single_flip_integral_float_site(self):
        # site = 1.0 used to raise TypeError in the list index
        assert RegisterState.single_flip(3, site=1.0) == RegisterState.single_flip(3, site=1)

    @pytest.mark.parametrize("preset", ["cat", "single_flip"])
    @pytest.mark.parametrize("n_qubits", [2.5, float("nan"), 0])
    def test_n_qubits_must_be_a_positive_integer(self, preset, n_qubits):
        # 2.5 and NaN used to raise TypeError, 0 an empty-label or site error
        with pytest.raises(ValueError, match="n_qubits must be an integer >= 1"):
            getattr(RegisterState, preset)(n_qubits)

    @pytest.mark.parametrize("preset", ["cat", "single_flip"])
    def test_integral_float_n_qubits_is_that_integer(self, preset):
        # 3.0 used to raise TypeError in the list product
        make = getattr(RegisterState, preset)
        assert make(3.0) == make(3) and make(3.0).n_qubits == 3


class TestStructureWeights:
    def test_equal_labels_vanish(self):
        pos = line_positions(3)
        lab = BasisLabel((1, -1, 1))
        assert damping_weight(lab, lab, [0.7, 0, 0], pos) == 0.0
        assert phase_weight(lab, lab, [0.7, 0, 0], pos) == 0.0

    def test_single_qubit_flip_is_four(self):
        pos = line_positions(1)
        for kx in (0.0, 0.3, 2.2):
            w = damping_weight(BasisLabel((1,)), BasisLabel((-1,)), [kx, 0, 0], pos)
            assert w == pytest.approx(4.0, abs=1e-12)

    def test_opposite_phases_cancel(self):
        # k.(r1 - r2) = pi makes the two flipped qubits interfere away
        pos = line_positions(2, d=1.0)
        w = damping_weight(BasisLabel((1, 1)), BasisLabel((-1, -1)), [np.pi, 0, 0], pos)
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_global_flip_has_zero_phase_weight(self):
        rng = np.random.default_rng(0)
        pos = line_positions(4)
        for _ in range(20):
            lab = random_label(rng, 4)
            assert phase_weight(lab, lab.flipped(), [rng.uniform(0, 3), 0, 0], pos) == \
                pytest.approx(0.0, abs=1e-12)

    def test_phase_weight_signed_example(self):
        # both qubits at zero phase: |0|^2 - |2|^2 = -4
        pos = np.zeros((2, 3))
        w = phase_weight(BasisLabel((1, -1)), BasisLabel((1, 1)), [1.3, 0, 0], pos)
        assert w == pytest.approx(-4.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            damping_weight(BasisLabel((1,)), BasisLabel((1, -1)), [1, 0, 0], line_positions(2))
        with pytest.raises(ValueError):
            spin_structure_factor(BasisLabel((1, 1, 1)), [[1, 0, 0]], line_positions(2))


class TestDampingExponent:
    def test_zero_time(self):
        bath = random_bath(np.random.default_rng(1))
        pos = line_positions(2)
        assert damping_exponent(BasisLabel((1, 1)), BasisLabel((1, -1)), 0.0, bath, pos) == 0.0

    def test_equal_labels(self):
        bath = random_bath(np.random.default_rng(2))
        pos = line_positions(3)
        lab = BasisLabel((1, -1, 1))
        assert damping_exponent(lab, lab, 3.7, bath, pos) == 0.0

    def test_full_period_revival(self):
        omega = 1.3
        bath = single_mode_bath(omega=omega)
        pos = line_positions(1)
        eta = damping_exponent(BasisLabel((1,)), BasisLabel((-1,)), 2 * np.pi / omega, bath, pos)
        assert eta == pytest.approx(0.0, abs=1e-12)

    def test_against_extended_precision_resummation(self):
        from mpmath import mp, mpf, cos as mcos, coth as mcoth

        mp.dps = 40
        rng = np.random.default_rng(3)
        bath = random_bath(rng, temperature=0.7)
        pos = line_positions(3, d=0.9)
        i, j = BasisLabel((1, 1, -1)), BasisLabel((1, -1, 1))
        t = 2.6
        eta = damping_exponent(i, j, t, bath, pos)
        total = mpf(0)
        for w, g2, k in zip(bath.omega, bath.g2, bath.k):
            s = sum((a - b) * complex(np.exp(1j * float(k @ r)))
                    for a, b, r in zip(i.spins, j.spins, pos))
            lam1 = mpf(abs(s) ** 2)
            w_, g2_ = mpf(w), mpf(g2)
            total += g2_ * mcoth(w_ / (2 * mpf(0.7))) * (1 - mcos(w_ * mpf(t))) / w_**2 * lam1
        assert eta == pytest.approx(float(total), rel=1e-12)

    def test_negative_time_rejected(self):
        bath = single_mode_bath()
        with pytest.raises(ValueError):
            damping_exponent(BasisLabel((1,)), BasisLabel((-1,)), -1.0, bath, line_positions(1))


class TestLambPhase:
    def test_zero_time(self):
        bath = random_bath(np.random.default_rng(4))
        pos = line_positions(2)
        assert lamb_phase(BasisLabel((1, 1)), BasisLabel((1, -1)), 0.0, bath, pos) == 0.0

    def test_global_flip_pair_has_no_phase(self):
        bath = random_bath(np.random.default_rng(5))
        pos = line_positions(3)
        lab = BasisLabel((1, -1, -1))
        for t in (0.5, 2.0, 11.0):
            assert lamb_phase(lab, lab.flipped(), t, bath, pos) == pytest.approx(0.0, abs=1e-12)

    def test_linear_growth_asymptote(self):
        # single mode: phase -> g2 * t * weight / omega for large omega*t
        omega, g2 = 1.1, 0.07
        bath = single_mode_bath(omega=omega, g2=g2)
        pos = np.zeros((2, 3))  # both qubits at equal phase
        i, j = BasisLabel((1, 1)), BasisLabel((1, -1))
        lam2 = phase_weight(i, j, bath.k[0], pos)
        t = 2000.0 / omega
        phi = lamb_phase(i, j, t, bath, pos)
        assert phi == pytest.approx(g2 * t * lam2 / omega, rel=0.01)


class TestLabelPhase:
    def test_zero_time(self):
        bath = random_bath(np.random.default_rng(6))
        assert label_phase(BasisLabel((1, -1)), 0.0, bath, line_positions(2)) == 0.0

    def test_single_mode_single_qubit_closed_form(self):
        omega, g2 = 0.9, 0.04
        bath = single_mode_bath(omega=omega, g2=g2)
        t = 3.3
        expected = g2 * (omega * t - np.sin(omega * t)) / omega**2
        assert label_phase(BasisLabel((1,)), t, bath, line_positions(1)) == \
            pytest.approx(expected, rel=1e-12)

    def test_difference_identity_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            bath = random_bath(rng, temperature=float(rng.choice([0.0, 0.9])))
            pos = line_positions(n, d=float(rng.uniform(0.5, 1.5)))
            i, j = random_label(rng, n), random_label(rng, n)
            t = float(rng.uniform(0.0, 8.0))
            diff = label_phase(i, t, bath, pos) - label_phase(j, t, bath, pos)
            assert diff == pytest.approx(lamb_phase(i, j, t, bath, pos), abs=1e-12)


class TestEvolveAndFidelity:
    def test_initial_density_is_projector(self):
        bath = random_bath(np.random.default_rng(8))
        pos = line_positions(2)
        state = RegisterState.cat(2)
        dens = evolve(state, 0.0, bath, pos)
        amps = state.amplitudes
        for (i, j), val in dens.items():
            assert val == pytest.approx(amps[i] * np.conj(amps[j]), abs=1e-15)

    def test_basis_state_is_stationary(self):
        bath = random_bath(np.random.default_rng(9))
        pos = line_positions(3)
        state = RegisterState.basis_state(BasisLabel((1, -1, 1)))
        for t in (0.0, 1.0, 6.0):
            dens = evolve(state, t, bath, pos)
            assert len(dens) == 1
            assert list(dens.values())[0] == pytest.approx(1.0, abs=1e-15)
            assert fidelity(state, t, bath, pos) == pytest.approx(1.0, abs=1e-12)

    def test_cat_fidelity_reduces_to_two_term_form(self):
        bath = random_bath(np.random.default_rng(10), temperature=0.6)
        pos = line_positions(3, d=0.8)
        state = RegisterState.cat(3)
        up, down = BasisLabel((1, 1, 1)), BasisLabel((-1, -1, -1))
        for t in (0.7, 2.9):
            eta = damping_exponent(up, down, t, bath, pos)
            # the sign-symmetric pair carries no phase, so F = (1 + e^-eta)/2
            assert lamb_phase(up, down, t, bath, pos) == pytest.approx(0.0, abs=1e-12)
            assert fidelity(state, t, bath, pos) == pytest.approx((1 + np.exp(-eta)) / 2,
                                                                  rel=1e-12)

    def test_two_qubit_cat_matches_oracle(self):
        from regdeph.oracle import thermal_reduced_density

        bath = random_bath(np.random.default_rng(11))
        pos = line_positions(2, d=1.2)
        state = RegisterState.cat(2)
        t = 2.4
        dens = evolve(state, t, bath, pos)
        res = thermal_reduced_density(state, t, bath, pos, steps=4000)
        for key, val in dens.items():
            assert val == pytest.approx(res.entries[key], abs=1e-6)

    def test_evolve_requires_register_state(self):
        bath = random_bath(np.random.default_rng(12))
        with pytest.raises(TypeError):
            evolve({BasisLabel((1,)): 1.0}, 1.0, bath, line_positions(1))

    def test_curves_match_pointwise_values(self):
        bath = random_bath(np.random.default_rng(13), temperature=0.4)
        pos = line_positions(2)
        i, j = BasisLabel((1, 1)), BasisLabel((-1, 1))
        times = np.linspace(0.0, 5.0, 7)
        eta, phi = factor_curves(i, j, times, bath, pos)
        for n, t in enumerate(times):
            assert eta[n] == pytest.approx(damping_exponent(i, j, float(t), bath, pos), abs=1e-12)
            assert phi[n] == pytest.approx(lamb_phase(i, j, float(t), bath, pos), abs=1e-12)
        state = RegisterState.cat(2)
        curve = fidelity_curve(state, times, bath, pos)
        for n, t in enumerate(times):
            assert curve[n] == pytest.approx(fidelity(state, float(t), bath, pos), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_randomized_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    bath = random_bath(rng, temperature=float(rng.choice([0.0, 0.5, 2.0])))
    pos = line_positions(n, d=float(rng.uniform(0.4, 1.6)))
    pos[:, 0] += rng.normal(0, 0.1, size=n)
    i, j = random_label(rng, n), random_label(rng, n)
    t = float(rng.uniform(0.0, 10.0))

    eta = damping_exponent(i, j, t, bath, pos)
    phi = lamb_phase(i, j, t, bath, pos)
    assert eta >= 0.0
    # symmetry / antisymmetry of the pair factors
    assert damping_exponent(j, i, t, bath, pos) == pytest.approx(eta, abs=1e-12)
    assert lamb_phase(j, i, t, bath, pos) == pytest.approx(-phi, abs=1e-12)
    # upper bound: the oscillatory factor never exceeds 2
    bound = 0.0
    from regdeph.bath import coth_half
    for w, g2, k in zip(bath.omega, bath.g2, bath.k):
        bound += 2.0 * g2 * float(coth_half(w, bath.temperature)) / w**2 * \
            damping_weight(i, j, k, pos)
    assert eta <= bound + 1e-12

    # permutation covariance: permuting qubits and positions together changes nothing
    perm = rng.permutation(n)
    ip = BasisLabel(tuple(np.array(i.spins)[perm]))
    jp = BasisLabel(tuple(np.array(j.spins)[perm]))
    assert damping_exponent(ip, jp, t, bath, pos[perm]) == pytest.approx(eta, abs=1e-12)
    assert lamb_phase(ip, jp, t, bath, pos[perm]) == pytest.approx(phi, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_randomized_density_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    bath = random_bath(rng, temperature=float(rng.choice([0.0, 1.1])))
    pos = line_positions(n)
    labels = sorted({random_label(rng, n) for _ in range(3)}, key=str)
    amps = {lab: complex(rng.normal(), rng.normal()) for lab in labels}
    state = RegisterState.from_unnormalized(amps)
    t = float(rng.uniform(0.0, 6.0))
    dens = evolve(state, t, bath, pos)
    # hermiticity and trace preservation
    trace = 0.0
    for (i, j), val in dens.items():
        assert val == pytest.approx(np.conj(dens[(j, i)]), abs=1e-12)
        if i == j:
            trace += val.real
            assert abs(val.imag) < 1e-15
    assert trace == pytest.approx(1.0, abs=1e-12)
    fid = fidelity(state, t, bath, pos)
    assert -1e-12 <= fid <= 1.0 + 1e-12
    assert fidelity(state, 0.0, bath, pos) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("chunk", [None, 50])
def test_repeated_labels_have_exactly_zero_factors(monkeypatch, chunk):
    # copies of a label share one structure factor and one phase, so the eta and
    # phi between them are exactly zero, not zero up to the summation order
    from regdeph import core
    from regdeph.bath import gaussian_peak_modes

    if chunk is not None:
        monkeypatch.setattr(core, "CHUNK", chunk)
    rng = np.random.default_rng(59)
    baths = [discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, dimensionality=3,
                                 n_freq=69, omega_max=6.0, temperature=0.5, n_directions=8),
             discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, n_freq=152,
                                 omega_max=6.0, temperature=0.5),
             gaussian_peak_modes(center=1.6, width=0.2, v=0.8, dimensionality=3, n_freq=15,
                                 amplitude=0.3, temperature=0.3, n_directions=6)]
    pos = rng.uniform(-2.0, 2.0, size=(6, 3))
    distinct = sorted({random_label(rng, 6) for _ in range(12)}, key=str)[:10]
    labels = distinct + [distinct[n] for n in (3, 0, 7, 3)]
    labels = [labels[n] for n in rng.permutation(len(labels))]
    copies = [(a, b) for a in range(len(labels)) for b in range(len(labels))
              if a != b and labels[a] == labels[b]]
    assert len(copies) == 2 + 2 + 3 * 2  # two copies of labels 0 and 7, three of label 3
    for bath in baths:
        for t in (0.7, 3.1, 8.9):
            fac = pair_factors(labels, t, bath, pos)
            for a, b in copies:
                assert fac.eta_matrix[a, b] == 0.0 and fac.phi_matrix[a, b] == 0.0
            assert np.all(fac.eta_matrix[[a for a, _ in copies]].sum(1) > 0)


def test_pair_factors_diagonal_and_consistency():
    rng = np.random.default_rng(21)
    bath = random_bath(rng)
    pos = line_positions(3)
    labels = [BasisLabel((1, 1, 1)), BasisLabel((1, -1, 1)), BasisLabel((-1, -1, 1))]
    fac = pair_factors(labels, 2.0, bath, pos)
    for lab in labels:
        assert fac.eta(lab, lab) == 0.0
        assert fac.phi(lab, lab) == 0.0
    for a in labels:
        for b in labels:
            assert fac.eta(a, b) == pytest.approx(damping_exponent(a, b, 2.0, bath, pos),
                                                  abs=1e-12)
            assert fac.phi(a, b) == pytest.approx(lamb_phase(a, b, 2.0, bath, pos), abs=1e-12)


@pytest.mark.parametrize("grid", [True, False])
def test_empty_label_set_gives_empty_factors(grid):
    # the ladder path used to divide by zero labels per block
    from regdeph.core import _coherence

    bath = (discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, dimensionality=3,
                                n_freq=16, omega_max=4.0, n_directions=6)
            if grid else random_bath(np.random.default_rng(67)))
    assert (bath.grid is not None) == grid
    pos = line_positions(3)
    fac = pair_factors([], 1.5, bath, pos)
    assert fac.labels == () and fac.eta_matrix.shape == fac.phi_matrix.shape == (0, 0)
    eta, phase = _coherence([], [0.0, 1.0, 2.0], bath, pos)
    assert eta.shape == phase.shape == (3, 0)


def _grid(*times):
    """The times as a grid; an array of times adds its shape in front of the grid's axis."""
    return np.stack(np.broadcast_arrays(*times), axis=-1)


def _closed_form_calls():
    from regdeph.regimes import damping_scale, independent_limit_factors, phase_scale

    i, j = BasisLabel((1, -1)), BasisLabel((-1, -1))
    state = RegisterState.cat(2)
    return {
        "damping_exponent": lambda t, b, r: damping_exponent(i, j, t, b, r),
        "lamb_phase": lambda t, b, r: lamb_phase(i, j, t, b, r),
        "label_phase": lambda t, b, r: label_phase(i, t, b, r),
        "pair_factors": lambda t, b, r: pair_factors([i, j], t, b, r),
        "evolve": lambda t, b, r: evolve(state, t, b, r),
        "fidelity": lambda t, b, r: fidelity(state, t, b, r),
        "factor_curves": lambda t, b, r: factor_curves(i, j, _grid(0.0, 1.0, t), b, r),
        "fidelity_curve": lambda t, b, r: fidelity_curve(state, _grid(0.0, t, 2.0), b, r),
        "damping_scale": lambda t, b, r: damping_scale(b, t),
        "phase_scale": lambda t, b, r: phase_scale(b, t),
        "independent_limit_factors": lambda t, b, r: independent_limit_factors(i, j, t, b),
    }


@pytest.mark.parametrize("name", list(_closed_form_calls()))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0,
                                 pytest.param(np.array([1.0, 2.0]), id="1-D")])
def test_closed_form_entry_points_reject_non_finite_times(name, bad):
    # `times < 0` misses NaN, so a NaN or inf time used to give NaN factors; an array
    # where each entry point takes one time makes its grid 2-D, which used to fail
    # deep in the kernels with a broadcast error
    call = _closed_form_calls()[name]
    message = "times must be finite" if np.ndim(bad) == 0 else "times must be a scalar or a 1-D"
    for bath in (random_bath(np.random.default_rng(61)),
                 discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, n_freq=16,
                                     omega_max=4.0)):
        call(1.5, bath, line_positions(2))
        with pytest.raises(ValueError, match=message):
            call(bad, bath, line_positions(2))


@settings(max_examples=200, deadline=None)
@given(st.floats(np.log(1e-9), np.log(1e3)))
def test_label_phase_small_argument_against_mpmath(log_x):
    # one qubit at the origin and one mode: |S|^2 = 1, so the label phase is
    # exactly g2 (x - sin x) / omega^2 with x = omega t
    from mpmath import mp, mpf, sin as msin

    mp.dps = 50
    omega, g2 = 0.7, 0.03
    t = float(np.exp(log_x)) / omega
    got = label_phase(BasisLabel((1,)), t, single_mode_bath(omega=omega, g2=g2), np.zeros((1, 3)))
    x = mpf(omega) * mpf(t)
    expected = mpf(g2) * (x - msin(x)) / mpf(omega) ** 2
    assert abs(mpf(got) - expected) <= 1e-13 * expected


def test_chunked_results_match_unchunked(monkeypatch):
    from regdeph import core
    from regdeph.codes import subdecoherence_residual
    from regdeph.geometry import RegisterGeometry

    rng = np.random.default_rng(31)
    bath = discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, n_freq=11,
                               omega_max=5.0, temperature=0.5)
    geo = RegisterGeometry(dims=(7, 1, 1), d=0.9, delta=0.1, seed=3)
    code_geo = RegisterGeometry(dims=(6, 1, 1), d=0.9, delta=0.1, seed=4)
    labels = sorted({random_label(rng, 7) for _ in range(12)}, key=str)[:6]
    state = RegisterState.from_unnormalized({lab: complex(rng.normal(), rng.normal())
                                             for lab in labels})
    logical = [BasisLabel(tuple(rng.choice([-1, 1], size=3))) for _ in range(8)]
    times = np.linspace(0.0, 6.0, 13)
    build_every_call(monkeypatch)

    def run():
        fac = pair_factors(labels, 2.3, bath, geo.positions)
        res = subdecoherence_residual("adjacent", code_geo, bath, 2.3, logical)
        return (fidelity_curve(state, times, bath, geo.positions),
                *factor_curves(labels[0], labels[1], times, bath, geo.positions),
                fac.eta_matrix, fac.phi_matrix, np.array([res.max_eta, res.max_abs_phi]),
                np.array([label_phase(lab, 2.3, bath, geo.positions) for lab in labels]),
                np.array([lamb_phase(labels[2], labels[4], 2.3, bath, geo.positions),
                          damping_exponent(labels[2], labels[4], 2.3, bath, geo.positions)]))

    whole = run()
    # 50 elements: the 22 modes fold to 11, taken in blocks of 7 (or 8),
    # and 15 pairs in blocks of 4
    monkeypatch.setattr(core, "CHUNK", 50)
    assert len(labels) == 6 and bath.n_modes == 22
    for chunked, ref in zip(run(), whole):
        np.testing.assert_allclose(chunked, ref, rtol=0, atol=1e-12)


def _fold_test_baths():
    """Paired builder sets, unpaired sets, and a closed set with unequal partner weights."""
    from regdeph.bath import gaussian_peak_modes

    coupling = PowerLawCoupling(0.08, 1.0, 2.0)
    paired = discretize_spectrum(coupling, v=1.0, n_freq=9, omega_max=4.0, temperature=0.6)
    rng = np.random.default_rng(41)
    k = rng.normal(size=(5, 3))
    k = np.vstack([k, -k[::-1]])
    return {
        "1d": paired,
        "3d": discretize_spectrum(coupling, v=1.3, dimensionality=3, n_freq=6, omega_max=4.0,
                                  temperature=0.6, n_directions=10),
        "peak-1d": gaussian_peak_modes(center=1.6, width=0.2, v=1.0, n_freq=15, amplitude=0.3),
        "peak-3d": gaussian_peak_modes(center=1.6, width=0.2, v=0.8, dimensionality=3,
                                       n_freq=7, amplitude=0.3, temperature=0.3,
                                       n_directions=6),
        # shell counts that span several ladder anchors and are not multiples of the
        # ladder step B = ceil(sqrt(J)): 101 = 9*11 + 2, 107 = 9*11 + 8, 45 = 6*7 + 3
        "1d-ladder": discretize_spectrum(coupling, v=1.0, n_freq=101, omega_max=6.0,
                                         temperature=0.6),
        "3d-ladder": discretize_spectrum(coupling, v=1.3, dimensionality=3, n_freq=107,
                                         omega_max=6.0, temperature=0.6, n_directions=10),
        "peak-3d-ladder": gaussian_peak_modes(center=1.6, width=0.2, v=0.8, dimensionality=3,
                                              n_freq=45, amplitude=0.3, temperature=0.3,
                                              n_directions=6),
        "single-mode": single_mode_bath(omega=1.2, direction=(1.0, 1.0, 0.0), temperature=0.6),
        "extra-unpaired": BathSpectrum(omega=np.append(paired.omega, 1.5),
                                       k=np.vstack([paired.k, [[0.0, 1.5, 0.0]]]),
                                       g2=np.append(paired.g2, 0.04), v=1.0, temperature=0.6),
        "unequal-partners": BathSpectrum(omega=np.linalg.norm(k, axis=1), k=k,
                                         g2=rng.uniform(0.0, 0.1, size=len(k)), v=1.0,
                                         temperature=0.6),
    }


@pytest.mark.parametrize("name", list(_fold_test_baths()))
def test_folded_sums_equal_direct_sums_over_all_modes(name):
    from regdeph.bath import coth_half
    from regdeph.regimes import damping_scale, phase_scale

    bath = _fold_test_baths()[name]
    assert bath.inversion_closed == (name not in ("single-mode", "extra-unpaired"))
    rng = np.random.default_rng(43)
    pos = rng.uniform(-1.5, 1.5, size=(4, 3))
    labels = sorted({random_label(rng, 4) for _ in range(8)}, key=str)[:5]
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    state = RegisterState.from_unnormalized(dict(zip(labels, amps)))
    times = np.linspace(0.0, 7.0, 8)

    # the closed form written out once per mode of the full set, no folding
    s = np.array([[np.sum(np.array(lab.spins) * np.exp(1j * (pos @ k))) for k in bath.k]
                  for lab in labels])
    x = np.multiply.outer(times, bath.omega)
    weight = bath.g2 / bath.omega**2
    k_eta = weight * coth_half(bath.omega, bath.temperature) * 2.0 * np.sin(x / 2) ** 2
    k_phi = weight * (x - np.sin(x))
    mod2 = np.abs(s) ** 2
    eta = np.einsum("tm,abm->tab", k_eta, np.abs(s[:, None] - s[None]) ** 2)
    phi = np.einsum("tm,abm->tab", k_phi, mod2[:, None] - mod2[None])
    p = np.abs(list(state.amplitudes.values())) ** 2
    fid = np.einsum("a,b,tab->t", p, p, np.exp(-eta) * np.cos(phi))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    assert state.labels() == labels
    close(fidelity_curve(state, times, bath, pos), fid)
    close(factor_curves(labels[1], labels[3], times, bath, pos), (eta[:, 1, 3], phi[:, 1, 3]))
    fac = pair_factors(labels, float(times[5]), bath, pos)
    close(fac.eta_matrix, eta[5])
    close(fac.phi_matrix, phi[5])
    for n, lab in enumerate(labels):
        close(label_phase(lab, float(times[4]), bath, pos), k_phi[4] @ mod2[n])
    close(damping_scale(bath, float(times[6])), np.sum(k_eta[6]))
    close(phase_scale(bath, float(times[6])), np.sum(k_phi[6]))


def test_ladder_structure_factors_equal_dense_within_chunk(monkeypatch):
    # every builder bath: the ladder against one directly evaluated phase per site and
    # mode, with the phase blocks (cos, sin), the anchor-scaled spins (multiply) and the
    # GEMM output (matmul) bounded by CHUNK and L*D*(ceil(J/B) + B) unit phases
    from regdeph import core

    rng = np.random.default_rng(47)
    pos = rng.uniform(-3.0, 3.0, size=(6, 3))
    labels = sorted({random_label(rng, 6) for _ in range(8)}, key=str)[:5]
    builders = {name: bath for name, bath in _fold_test_baths().items() if bath.grid is not None}
    assert len(builders) == 7
    # 60 elements: blocks of 5 sites and then 1 when B = 11, all 5 labels at once;
    # 24 elements: blocks of 2 sites and one label at a time when B = 11
    for (name, bath), chunk in itertools.product(builders.items(), (60, 24)):
        n_shell, n_dir = len(bath.grid.freqs), len(bath.grid.dirs)
        rung = int(np.ceil(np.sqrt(n_shell)))
        sizes = {"cos": [], "sin": [], "multiply": [], "matmul": []}
        with monkeypatch.context() as m:
            m.setattr(core, "CHUNK", chunk)
            for fn in sizes:
                def recorded(*args, _fn=getattr(np, fn), _sizes=sizes[fn], **kwargs):
                    out = _fn(*args, **kwargs)
                    _sizes.append(out.size)
                    return out
                m.setattr(np, fn, recorded)
            ladder = core._structure_factors(labels, bath, pos)
        dense = core._structure_factors(labels, bath.folded.k, pos)
        assert ladder.shape == dense.shape == (len(labels), n_shell * n_dir)
        scale = max(1.0, np.abs(dense).max())
        assert np.abs(ladder - dense).max() <= 1e-13 * scale, name
        assert max(sum(sizes.values(), [])) <= chunk, name
        # one scaled block and one GEMM per direction and block of sites, labels, anchors
        assert len(sizes["multiply"]) == len(sizes["matmul"]) >= n_dir, name
        assert sizes["sin"] == sizes["cos"], name
        assert sum(sizes["cos"]) == len(pos) * n_dir * (-(-n_shell // rung) + rung), name


def test_time_blocks_equal_one_block(monkeypatch):
    from regdeph import core
    from regdeph.bath import gaussian_peak_modes

    rng = np.random.default_rng(53)
    bath = gaussian_peak_modes(center=1.4, width=0.3, v=1.0, dimensionality=3, n_freq=20,
                               amplitude=0.2, temperature=0.4, n_directions=6)
    pos = rng.uniform(-2.0, 2.0, size=(5, 3))
    labels = sorted({random_label(rng, 5) for _ in range(10)}, key=str)[:6]
    state = RegisterState.from_unnormalized({lab: complex(rng.normal(), rng.normal())
                                             for lab in labels})
    times = np.linspace(0.0, 9.0, 23)
    kernels, shapes = core._shell_kernels, []

    def recorded(bath, times, rows):
        for block, k_eta, k_phi in kernels(bath, times, rows):
            shapes.append((k_eta.shape, k_phi.shape))
            yield block, k_eta, k_phi

    def run():
        return (fidelity_curve(state, times, bath, pos),
                *factor_curves(labels[0], labels[2], times, bath, pos))

    monkeypatch.setattr(core, "_shell_kernels", recorded)
    assert (len(bath.grid.freqs), bath.folded.omega.size) == (20, 60)
    monkeypatch.setattr(core, "CHUNK", len(times) * 20)  # 20 shells: one block
    whole = run()
    assert shapes == [((len(times), 20),) * 2] * 2
    shapes.clear()
    # 60 elements: time blocks of 3 rows of the (T, J) = (T, 20) kernels; the weights
    # of 12 of the 15 pairs kept, so fidelity_curve takes every time block twice
    monkeypatch.setattr(core, "CHUNK", 60)
    for blocked, ref in zip(run(), whole):
        np.testing.assert_allclose(blocked, ref, rtol=1e-14, atol=1e-15)
    assert all(k_eta == k_phi and k_eta[1] == 20 for k_eta, k_phi in shapes)
    rows = [k_eta[0] for k_eta, _ in shapes]
    assert max(rows) == 3 and sum(rows) == (2 + 1) * len(times)


def difference_keys(labels):
    """The half spin difference ``(s_b - s_a)/2`` of every upper-triangle pair, up to sign."""
    keys = []
    for x, y in itertools.combinations(range(len(labels)), 2):
        half = [(q - p) // 2 for p, q in zip(labels[x].spins, labels[y].spins)]
        lead = next((h for h in half if h), 1)
        keys.append(tuple(h * lead for h in half))
    return keys


def test_pair_columns_group_only_large_sets_with_few_classes():
    # 16 labels, 120 pairs: the complete basis of 4 qubits has 40 classes and 16 labels
    # of the 5-qubit basis 58, each class one column taken by its first pair.  The
    # first 15 labels of the 4-qubit basis, 16 labels of the 5-qubit basis with 62
    # classes, and 16 random labels on 12 sites keep every pair as a column
    from regdeph import core

    basis = [BasisLabel(s) for s in itertools.product((1, -1), repeat=4)]
    wider = [BasisLabel(s) for s in itertools.product((1, -1), repeat=5)]
    pairs = list(itertools.combinations(range(16), 2))
    for labels, n_class in ((basis, 40), (wider[:14] + wider[30:], 58)):
        keys = difference_keys(labels)
        first = {}
        for n, key in enumerate(keys):
            first.setdefault(key, n)
        a, b, of_pair = core._pair_columns(labels)
        assert list(zip(a, b)) == [pairs[n] for n in first.values()] and len(a) == n_class
        assert of_pair is not None and [list(first)[c] for c in of_pair] == keys
    rng = np.random.default_rng(79)
    scattered = []
    while len(scattered) < 16:
        label = random_label(rng, 12)
        if label not in scattered:
            scattered.append(label)
    assert len(set(difference_keys(wider[:13] + wider[29:]))) == 62
    assert 2 * len(set(difference_keys(scattered))) > 120
    for labels, n_pair in ((basis[:15], 105), (wider[:13] + wider[29:], 120), (scattered, 120)):
        x, y = np.triu_indices(len(labels), 1)
        assert core._pair_columns(labels) == (x.tolist(), y.tolist(), None)
        assert len(x) == n_pair


@pytest.mark.parametrize("dimensionality,chunk,basis,repeats,n_col,per_group,per_block",
                         [(1, 48, False, 0, 36, 12, 3), (3, 96, False, 0, 36, 24, 1),
                          (1, 48, True, 0, 40, 12, 3), (3, 96, True, 2, 41, 24, 1)])
def test_each_column_weight_is_built_once_per_call(monkeypatch, dimensionality, chunk, basis,
                                                   repeats, n_col, per_group, per_block):
    # 16 shells of 1 or 6 modes and 11 times: several time blocks of CHUNK // 16 times,
    # several groups of kept column weights, each built in blocks of columns of at most
    # CHUNK elements.  9 random labels on 6 sites take their 36 pairs as columns, in
    # triu order.  The complete basis of 4 qubits, 16 labels and 120 pairs, takes one
    # column per class of spin difference up to sign, its first pair, in class order: 40
    # classes, and two repeated labels add the zero difference as a 41st.  Each column's
    # |S_a - S_b|^2 is filled exactly once, every pair takes its column's damping, and
    # each group takes every time block once
    from regdeph import core

    rng = np.random.default_rng(73 if basis else 67)
    bath = discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0,
                               dimensionality=dimensionality, n_freq=16, omega_max=5.0,
                               temperature=0.4, n_directions=12)
    if basis:
        pos = rng.uniform(-2.0, 2.0, size=(4, 3))
        full = [BasisLabel(s) for s in itertools.product((1, -1), repeat=4)]
        labels = full + [full[5], full[12]][:repeats]
    else:
        pos = rng.uniform(-2.0, 2.0, size=(6, 3))
        labels = sorted({random_label(rng, 6) for _ in range(20)}, key=str)[:9]
    times = np.linspace(0.0, 6.0, 11)
    whole = core._coherence(labels, times, bath, pos)
    pairs = list(itertools.combinations(range(len(labels)), 2))
    own = [[damping_exponent(labels[x], labels[y], t, bath, pos) for x, y in pairs]
           for t in times]
    first = {}
    for n, key in enumerate(difference_keys(labels)):
        first.setdefault(key, n)
    columns = [pairs[n] for n in first.values()] if basis else pairs
    assert len(columns) == n_col
    fill, kernels, built, blocks = core._damping_weights, core._shell_kernels, [], []

    def recorded(re, im, x, y, weight, im_diff):
        built.append((list(x), list(y), weight.size))
        return fill(re, im, x, y, weight, im_diff)

    def timed(bath, times, rows):
        for block, k_eta, k_phi in kernels(bath, times, rows):
            blocks.append(block)
            yield block, k_eta, k_phi

    monkeypatch.setattr(core, "_damping_weights", recorded)
    monkeypatch.setattr(core, "_shell_kernels", timed)
    monkeypatch.setattr(core, "CHUNK", chunk)
    build_every_call(monkeypatch)
    n_mode = bath.folded.omega.size
    assert (4 * chunk // 16, chunk // n_mode) == (per_group, per_block)
    eta, phase = core._coherence(labels, times, bath, pos)
    for blocked, ref in zip((eta, phase), whole):
        np.testing.assert_allclose(blocked, ref, rtol=1e-14, atol=1e-15)
    assert [pair for x, y, _ in built for pair in zip(x, y)] == columns
    sizes = [min(per_block, size - r) for g0 in range(0, n_col, per_group)
             for size in [min(per_group, n_col - g0)] for r in range(0, size, per_block)]
    assert [(len(x), size) for x, _, size in built] == [(n, n * n_mode) for n in sizes]
    assert max(size for _, _, size in built) <= chunk
    rows = chunk // 16
    time_blocks = [slice(t0, min(t0 + rows, len(times))) for t0 in range(0, len(times), rows)]
    assert blocks == time_blocks * -(-n_col // per_group)
    np.testing.assert_allclose(whole[0], own, rtol=1e-14, atol=0)
    same = [labels[x] == labels[y] for x, y in pairs]
    assert sum(same) == repeats and np.all(eta[:, same] == 0.0)
    # in one block of columns, each run of one label's columns reads its later labels
    # in place when they are consecutive and gathers them when not; a grouped basis
    # takes both reads
    built.clear()
    monkeypatch.setattr(core, "CHUNK", 1 << 16)
    core._coherence(labels, times, bath, pos)
    in_place = []
    for x, y, _ in built:
        for _, run in itertools.groupby(zip(x, y), key=lambda pair: pair[0]):
            later = [q for _, q in run]
            in_place.append(later == list(range(later[0], later[0] + len(later))))
    assert (any(in_place) and not all(in_place)) if basis else all(in_place)
    # the same set with every pair as a column, in one block or many: each column's pair
    # keeps its bits, and any other pair of its class differs only by the rounding of its
    # own S_b - S_a
    every = ([x for x, _ in pairs], [y for _, y in pairs], None)
    monkeypatch.setattr(core, "_pair_columns", lambda labels: every)
    own_column = [pairs.index(pair) for pair in columns]
    for ref in (whole, (eta, phase)):
        forced = core._coherence(labels, times, bath, pos)
        assert np.array_equal(forced[0][:, own_column], ref[0][:, own_column])
        assert np.array_equal(forced[1], ref[1])
        np.testing.assert_allclose(forced[0], ref[0], rtol=1e-14, atol=0)
        monkeypatch.setattr(core, "CHUNK", chunk)


@pytest.mark.parametrize("ladder", [True, False])
def test_shell_kernels_against_mpmath(ladder):
    # x = f_j t from 1e-9 to 1e3 on grids of 128 and 101 shells, plus times that put
    # chosen shells at x = 2 pi k, the zeros of sin(x/2); the same shells without a
    # grid take sin/cos directly
    from mpmath import mp, mpf, sin as msin
    from regdeph import core
    from regdeph.bath import gaussian_peak_modes

    mp.dps = 50
    eps = np.finfo(float).eps
    rng = np.random.default_rng(71)
    worst = 0.0
    for bath in (discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, n_freq=128,
                                     omega_max=8.0),
                 gaussian_peak_modes(center=2.3, width=0.2, v=1.0, n_freq=101)):
        freqs = bath.grid.freqs
        if not ladder:
            bath = BathSpectrum(bath.omega, bath.k, bath.g2, bath.v)
        assert np.array_equal(core._shell_freqs(bath), freqs) and (bath.grid is None) != ladder
        shells = rng.integers(0, len(freqs), 30)
        times = np.concatenate([np.geomspace(1e-9 / freqs[-1], 1e3 / freqs[0], 50),
                                2 * np.pi * rng.integers(1, 100, 30) / freqs[shells]])
        (block, damping, phase), = core._shell_kernels(bath, core._times(times), len(times))
        assert block == slice(0, len(times)) and damping.shape == (len(times), len(freqs))
        for (n, j), d, p in zip(np.ndindex(damping.shape), damping.flat, phase.flat):
            x = mpf(float(times[n])) * mpf(float(freqs[j]))
            if not 1e-9 <= x <= 1e3:
                continue
            want = x - msin(x)
            assert abs(p - want) <= 1e-13 * want
            worst = max(worst, float(abs(p - want) / want))
            # a few ulps of the value, plus the first and second order effect of an
            # argument off by a few ulps of x, which dominate near sin(x/2) = 0
            want = 2 * msin(x / 2) ** 2
            assert abs(d - want) <= 4 * eps * (want + x * abs(msin(x)) + eps * x**2)
    assert worst > 1e-15  # the cancelling range next to the series switch was reached


def _primed_calls(bath, register, other, times):
    """Every entry point on ``register``, each called with the kept list emptied and then
    primed by ``other``, and then again at once; returns the pairs of results, the first a
    build, the second a hit, and the shapes of the kept ``V`` and ``W``."""
    from regdeph import core

    state, pos = register

    def factors(st, p):
        fac = pair_factors(st.labels(), 2.7, bath, p)
        return [fac.eta_matrix, fac.phi_matrix]

    def one_pair(view):
        return lambda st, p: [view(st.labels()[0], st.labels()[-1], 2.7, bath, p)]

    calls = [factors,
             lambda st, p: list(evolve(st, 2.7, bath, p).values()),
             lambda st, p: [fidelity_curve(st, times, bath, p)],
             lambda st, p: [fidelity(st, 2.7, bath, p)],
             lambda st, p: factor_curves(st.labels()[0], st.labels()[-1], times, bath, p),
             one_pair(damping_exponent),
             one_pair(lamb_phase),
             lambda st, p: [label_phase(st.labels()[0], 2.7, bath, p)]]
    results = []
    for call in calls:
        core._kept = ()
        call(*other)
        primed = core._kept
        built = call(state, pos)
        assert len(core._kept) == 2 and core._kept[1] is primed[0]
        kept = core._kept
        hit = call(state, pos)
        assert core._kept is kept
        weights = kept[0][2]
        results.append((built, hit, [weights[0].shape, weights[3].shape]))
    return results


@pytest.mark.parametrize("dimensionality", [1, 3])
@pytest.mark.parametrize("chunk", [None, 256])
def test_kept_weights_give_the_bits_of_a_fresh_build(monkeypatch, dimensionality, chunk):
    # two registers of 6 labels (15 columns) on one bath of 64 shells, each entry point
    # built after the other register primed the list and then hit, in both orders.  At
    # CHUNK = 256 the 15 columns still fit one kept group (4*256 // 64 = 16), while the
    # single-time calls build and reduce them in blocks of 4 (1-D) or 1 (3-D) columns
    # and the 9 times run in 3 blocks of 4 rows
    from regdeph import core

    if chunk is not None:
        monkeypatch.setattr(core, "CHUNK", chunk)
    rng = np.random.default_rng(83)
    bath = discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0,
                               dimensionality=dimensionality, n_freq=64, omega_max=6.0,
                               temperature=0.5, n_directions=6)
    registers = []
    for n_site in (5, 6):
        labels = sorted({random_label(rng, n_site) for _ in range(12)}, key=str)[:6]
        state = RegisterState.from_unnormalized({lab: complex(rng.normal(), rng.normal())
                                                 for lab in labels})
        registers.append((state, rng.uniform(-2.0, 2.0, size=(n_site, 3))))
    times = np.linspace(0.0, 7.0, 9)
    for register, other in (registers, registers[::-1]):
        results = _primed_calls(bath, register, other, times)
        for built, hit, _ in results:
            assert len(built) == len(hit)
            assert all(np.array_equal(b, h) for b, h in zip(built, hit))
        # an entry holds V of the labels and one group of W: 15 columns, 1 for one pair
        # and none for one label
        assert [shapes for *_, shapes in results] == (
            [[(6, 64), (15, 64)]] * 4 + [[(2, 64), (1, 64)]] * 3 + [[(1, 64), (0, 64)]])


def test_positions_changed_in_place_miss():
    from regdeph import core

    rng = np.random.default_rng(89)
    bath = discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, n_freq=32,
                               omega_max=6.0, temperature=0.5)
    pos = line_positions(5, d=0.9)
    labels = sorted({random_label(rng, 5) for _ in range(8)}, key=str)[:5]
    first = pair_factors(labels, 2.1, bath, pos)
    pos[3, 0] += 0.25
    moved = pair_factors(labels, 2.1, bath, pos)
    core._kept = ()
    fresh = pair_factors(labels, 2.1, bath, pos)
    for got, want, old in zip((moved.eta_matrix, moved.phi_matrix),
                              (fresh.eta_matrix, fresh.phi_matrix),
                              (first.eta_matrix, first.phi_matrix)):
        assert np.array_equal(got, want) and not np.array_equal(got, old)


def test_sets_beyond_one_group_are_not_kept_and_chunk_is_in_the_key(monkeypatch):
    # the residual over the 64 labels of 6 logical qubits takes 364 columns, more than
    # the 4*CHUNK // 1024 = 256 of one group: its weights stream and the list keeps the
    # two registers before it, in their order.  The same register at another CHUNK
    # builds again
    from regdeph import core
    from regdeph.codes import encode_adjacent, subdecoherence_residual
    from regdeph.geometry import RegisterGeometry

    bath = discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, n_freq=1024,
                               omega_max=10.0, temperature=0.5)
    geo = RegisterGeometry(dims=(12, 1, 1), d=1.0, delta=0.01, seed=5)
    logical = [BasisLabel(s) for s in itertools.product((1, -1), repeat=6)]
    assert len(core._pair_columns([encode_adjacent(lab) for lab in logical])[0]) == 364
    labels = [encode_adjacent(lab) for lab in logical[:2]]
    core._kept = ()
    pair_factors(labels, 3.0, bath, geo.positions)
    pair_factors(labels[::-1], 3.0, bath, geo.positions)
    kept = core._kept
    assert len(kept) == 2 and kept[0][1][2] == tuple(labels[::-1])
    first = subdecoherence_residual("adjacent", geo, bath, 3.0, logical)
    assert core._kept is kept
    assert subdecoherence_residual("adjacent", geo, bath, 3.0, logical) == first
    assert core._kept is kept
    monkeypatch.setattr(core, "CHUNK", 1 << 15)
    pair_factors(labels, 3.0, bath, geo.positions)
    assert core._kept[0][1][3] == 1 << 15 and core._kept[1:] == kept


def _counted_builds(monkeypatch):
    """A list that gets one entry, the labels, per build of ``core._coherence``'s weights."""
    from regdeph import core

    builds, factors = [], core._structure_factors

    def counted(labels, modes, positions):
        builds.append(tuple(labels))
        return factors(labels, modes, positions)

    monkeypatch.setattr(core, "_structure_factors", counted)
    return builds


def _registers(rng, count, n_site=5, n_label=6):
    """``count`` random states of ``n_label`` labels, each with its own random positions."""
    registers = []
    for _ in range(count):
        labels = sorted({random_label(rng, n_site) for _ in range(3 * n_label)}, key=str)[:n_label]
        state = RegisterState.from_unnormalized({lab: complex(rng.normal(), rng.normal())
                                                 for lab in labels})
        registers.append((state, rng.uniform(-2.0, 2.0, size=(n_site, 3))))
    return registers


def test_alternating_registers_on_one_bath_both_hit(monkeypatch):
    # a bare register against the same labels spread ten times wider, nearly independent,
    # called in turn: each builds once and then hits, with the bits of a fresh build
    from regdeph import core

    bath = discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, n_freq=64,
                               omega_max=6.0, temperature=0.5)
    (state, pos), = _registers(np.random.default_rng(97), 1)
    registers = [(state, pos), (state, 10.0 * pos)]
    times = np.linspace(0.0, 7.0, 9)

    def calls(p):
        fac = pair_factors(state.labels(), 2.7, bath, p)
        return [fac.eta_matrix, fac.phi_matrix, fidelity_curve(state, times, bath, p)]

    fresh = []
    for _, p in registers:
        core._kept = ()
        fresh.append(calls(p))
    assert not np.array_equal(fresh[0][0], fresh[1][0])
    core._kept = ()
    builds = _counted_builds(monkeypatch)
    for _ in range(3):
        for (_, p), want in zip(registers, fresh):
            got = calls(p)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert len(builds) == 2 and len(core._kept) == 2


def test_a_fifth_register_evicts_the_least_recently_used():
    from regdeph import core

    bath = discretize_spectrum(PowerLawCoupling(0.05, 1.0, 2.0), v=1.0, n_freq=32,
                               omega_max=6.0, temperature=0.5)
    registers = _registers(np.random.default_rng(101), 5)

    def call(n):
        state, pos = registers[n]
        return pair_factors(state.labels(), 2.1, bath, pos).eta_matrix

    def order():
        return [[pos.tobytes() for _, pos in registers].index(entry[1][1])
                for entry in core._kept]

    core._kept = ()
    first = [call(n) for n in range(4)]
    assert order() == [3, 2, 1, 0]
    entry = core._kept[3]
    assert np.array_equal(call(0), first[0]) and core._kept[0] is entry
    assert order() == [0, 3, 2, 1]
    call(4)
    assert order() == [4, 0, 3, 2]
    assert np.array_equal(call(1), first[1]) and order() == [1, 4, 0, 3]


def test_writing_a_callers_mode_array_leaves_the_kept_weights_valid(monkeypatch):
    # the weights are kept per bath object; a write to the base of the array the bath
    # was built from must change neither the bath nor what a call returns, hit or build.
    # Without inversion partners the modes are summed whole, not through a folded copy
    omega = np.array([0.5, 1.3, 2.2, 3.4])
    k = omega[:, None] * np.array([1.0, 0.0, 0.0])
    big = np.full(8, 0.04)
    bath = BathSpectrum(omega=omega, k=k, g2=big[:4], v=1.0, temperature=0.5)
    rng = np.random.default_rng(103)
    labels = sorted({random_label(rng, 5) for _ in range(8)}, key=str)[:5]
    assert len(labels) == 5
    pos = line_positions(5, d=0.9)
    first = pair_factors(labels, 2.1, bath, pos)
    big[:4] *= 3
    hit = pair_factors(labels, 2.1, bath, pos)
    build_every_call(monkeypatch)
    built = pair_factors(labels, 2.1, bath, pos)
    for got in (hit, built):
        assert np.array_equal(got.eta_matrix, first.eta_matrix)
        assert np.array_equal(got.phi_matrix, first.phi_matrix)
