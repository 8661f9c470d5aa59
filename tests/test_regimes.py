import numpy as np
import pytest

from regdeph import core, regimes
from regdeph.bath import BathSpectrum, SpectralMoments, gaussian_peak_modes, spectral_moments
from regdeph.core import BasisLabel, damping_exponent
from regdeph.geometry import RegisterGeometry
from regdeph.regimes import (
    classify,
    damping_scale,
    disorder_average_weights,
    fourier_suppression,
    independent_limit_factors,
    phase_scale,
)


def moments(mean=1.0, width=0.5):
    return SpectralMoments(mean1=mean, width1=width, mean2=mean, width2=width)


def geometry(delta=0.0, d=1.0, n=4, seed=0):
    return RegisterGeometry(dims=(n, 1, 1), d=d, delta=delta, seed=seed)


def random_labels(n_qubits):
    """Two labels of ``n_qubits`` drawn from a fixed stream, differing on at least two sites."""
    rng = np.random.default_rng(7)
    while True:
        i, j = (rng.choice([-1, 1], size=n_qubits) for _ in range(2))
        if np.sum(i != j) >= 2:
            return BasisLabel(tuple(i)), BasisLabel(tuple(j))


def exact_disorder_average(i, j, k_magnitude, geo):
    """Exact disorder averages of the damping and phase weights at ``k`` along x.

    Each site's offset is an independent isotropic Gaussian of per-axis
    variance ``delta**2/3``, so every cross-site factor ``exp(i k.(u_l - u_l'))``
    averages to ``f = exp(-k**2 delta**2/3)`` and the diagonal terms keep their
    value.  The damping weight averages to ``|s_i - s_j|^2 + f (W - |s_i - s_j|^2)``,
    with ``W`` its value on the ideal lattice; the phase weight's diagonal terms
    cancel, so it averages to ``f`` times its lattice value.  See Zanardi and
    Rasetti, PRL 79, 3306 (1997).
    """
    k_vec = np.array([k_magnitude, 0.0, 0.0])
    damping, phase = core._pair_weights(i, j, k_vec, geo.ideal_positions())
    diagonal = float(np.sum((i.as_array() - j.as_array()) ** 2))
    f = np.exp(-(k_magnitude * geo.delta) ** 2 / 3.0)
    return diagonal + f * (damping - diagonal), f * phase


class TestClassify:
    def test_strong_disorder_is_independent_1(self):
        # mean-frequency/disorder parameter of 4 on both channels exceeds pi
        report = classify(geometry(delta=1.0), moments(mean=4.0, width=1.0))
        assert report.classification == "Independent-1"
        assert report.p_ind1a == pytest.approx(4.0)

    def test_wide_spectrum_is_independent_2(self):
        report = classify(geometry(delta=0.0, d=1.0), moments(mean=30.0, width=12.0))
        assert report.classification == "Independent-2"

    def test_long_wavelength_is_collective_1(self):
        report = classify(geometry(delta=0.001, d=1.0), moments(mean=0.01, width=0.005))
        assert report.classification == "Collective-1"

    def test_narrow_peak_is_collective_2(self):
        # wavelength comparable to the lattice constant but a very narrow peak
        report = classify(geometry(delta=0.001, d=1.0), moments(mean=2.0, width=0.01), m=2)
        assert report.classification == "Collective-2"
        assert report.p_coll2 == pytest.approx(0.02)

    def test_order_one_parameters_are_intermediate(self):
        report = classify(geometry(delta=1.0, d=1.0), moments(mean=1.0, width=1.0))
        assert report.classification == "Intermediate"

    def test_velocity_rescales_parameters(self):
        fast = classify(geometry(delta=1.0), moments(mean=4.0), v=10.0)
        assert fast.p_ind1a == pytest.approx(0.4)
        assert fast.classification != "Independent-1"

    def test_monotone_in_disorder(self):
        # growing disorder can never move a report from Independent-1 to Collective-1
        seen_independent = False
        for delta in np.linspace(0.0, 3.0, 31):
            label = classify(geometry(delta=float(delta)), moments(mean=4.0, width=1.0)).classification
            if seen_independent:
                assert label != "Collective-1"
            seen_independent = seen_independent or label == "Independent-1"
        assert seen_independent

    def test_report_round_trips_to_dict(self):
        report = classify(geometry(delta=1.0), moments(mean=4.0))
        data = report.as_dict()
        assert data["classification"] == report.classification
        assert set(data) == {"p_ind1a", "p_ind1b", "p_ind2a", "p_ind2b", "p_coll1a",
                             "p_coll1b", "p_coll2", "pairing_distance", "classification"}

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            classify(geometry(), moments(), m=0)
        with pytest.raises(ValueError):
            classify(geometry(), moments(), v=0.0)

    @pytest.mark.parametrize("name,kwargs", [
        ("v", dict(v=float("nan"))),  # used to read Intermediate
        ("v", dict(v=float("inf"))),  # used to read Collective-1
        ("m", dict(m=1.5)),  # used to be accepted
        ("m", dict(m=float("nan"))),
        ("m", dict(m=float("inf"))),
    ])
    def test_non_finite_or_fractional_inputs_rejected(self, name, kwargs):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            classify(geometry(), moments(), **kwargs)

    def test_integral_float_distance_is_an_int(self):
        assert classify(geometry(), moments(), m=2.0).pairing_distance == 2


class TestDisorderAverages:
    def test_equal_labels_average_to_zero_exactly(self):
        lab = BasisLabel((1, -1, 1, 1))
        est1, est2 = disorder_average_weights(lab, lab, 5.0, geometry(delta=0.4), 50)
        assert est1.mean == 0.0 and est1.stderr == 0.0
        assert est2.mean == 0.0 and est2.stderr == 0.0

    def test_single_flip_mean_is_four(self):
        # one differing qubit: the weight is exactly 4 in every realization
        i = BasisLabel((1, 1, 1, 1))
        j = BasisLabel((1, 1, -1, 1))
        est1, _ = disorder_average_weights(i, j, 20.0, geometry(delta=1.0), 300)
        assert abs(est1.mean - 4.0) <= 3 * est1.stderr + 1e-9

    def test_global_flip_phase_weight_unbiased_zero(self):
        i = BasisLabel((1, 1, 1, 1))
        _, est2 = disorder_average_weights(i, i.flipped(), 20.0, geometry(delta=1.0), 300)
        assert abs(est2.mean) <= 3 * est2.stderr + 1e-9

    def test_deterministic(self):
        i = BasisLabel((1, -1, 1, 1))
        j = BasisLabel((1, 1, 1, -1))
        geo = geometry(delta=0.5, seed=123)
        a = disorder_average_weights(i, j, 3.0, geo, 200)
        b = disorder_average_weights(i, j, 3.0, geo, 200)
        assert a == b

    def test_zero_disorder_is_the_lattice_exactly(self, monkeypatch):
        # equal copies of one weight used to give a stderr of a few 1e-18 through np.std
        i, j = BasisLabel((1, -1, 1, -1, -1, 1)), BasisLabel((1, 1, -1, 1, -1, 1))
        geo = RegisterGeometry(dims=(6, 1, 1), d=0.9, seed=4294967301)
        lattice = core._pair_weights(i, j, np.array([1.3, 0.0, 0.0]), geo.positions)
        monkeypatch.setattr(np.random, "default_rng", None)  # no normals are drawn
        for est, weight in zip(disorder_average_weights(i, j, 1.3, geo, 300), lattice):
            assert est.mean == float(weight) and est.stderr == 0.0 and est.n_samples == 300

    @pytest.mark.parametrize("dims", [(6, 1, 1), (3, 3, 3)])
    def test_estimates_do_not_depend_on_chunk(self, monkeypatch, dims):
        geo = RegisterGeometry(dims=dims, d=0.9, delta=0.4, seed=11)
        i, j = random_labels(geo.n_qubits)
        default = disorder_average_weights(i, j, 1.7, geo, 40)
        block_sizes = []

        def recorded(*args):
            block_sizes.append(len(args[-1]))
            return core._pair_weights(*args)

        # blocks of 3 samples on 27 sites, of 16 samples on 6 sites
        monkeypatch.setattr(core, "CHUNK", 100)
        monkeypatch.setattr(regimes, "_pair_weights", recorded)
        chunked = disorder_average_weights(i, j, 1.7, geo, 40)
        assert max(block_sizes) == 100 // geo.n_qubits and sum(block_sizes) == 40
        assert chunked == default

    @pytest.mark.parametrize("dims", [(6, 1, 1), (3, 3, 3)])
    def test_first_sample_is_the_configured_register(self, monkeypatch, dims):
        geo = RegisterGeometry(dims=dims, d=0.9, delta=0.4, seed=11)
        blocks = []

        def recorded(*args):
            blocks.append(args[-1])
            return core._pair_weights(*args)

        monkeypatch.setattr(regimes, "_pair_weights", recorded)
        disorder_average_weights(*random_labels(geo.n_qubits), 1.7, geo, 10)
        assert blocks[0][0].tobytes() == geo.positions.tobytes()

    # k*delta from 0.3 to 3 spans the crossover from the ideal lattice's weights
    # to the independent limit
    @pytest.mark.parametrize("k_delta", [0.3, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("dims", [(6, 1, 1), (3, 3, 3)])
    def test_mean_within_four_stderr_of_the_exact_average(self, dims, k_delta):
        geo = RegisterGeometry(dims=dims, d=0.9, delta=k_delta / 1.3, seed=11)
        i, j = random_labels(geo.n_qubits)
        estimates = disorder_average_weights(i, j, 1.3, geo, 2000)
        for est, exact in zip(estimates, exact_disorder_average(i, j, 1.3, geo)):
            assert est.stderr > 0 and abs(est.mean - exact) <= 4 * est.stderr, (est, exact)

    def test_needs_two_samples(self):
        lab = BasisLabel((1, 1, 1, 1))
        with pytest.raises(ValueError):
            disorder_average_weights(lab, lab.flipped(), 1.0, geometry(), 1)

    @pytest.mark.parametrize("n_samples", [1, 2.5, float("nan"), float("inf")])
    def test_n_samples_must_be_an_integer_of_two_or_more(self, n_samples):
        # 2.5, NaN and inf used to raise TypeError from np.empty
        lab = BasisLabel((1, 1, 1, 1))
        with pytest.raises(ValueError, match="n_samples must be an integer >= 2"):
            disorder_average_weights(lab, lab.flipped(), 1.0, geometry(), n_samples)

    def test_integral_float_n_samples_is_that_integer(self):
        # n_samples = 3.0 used to raise TypeError from np.empty
        lab = BasisLabel((1, 1, 1, 1))
        geo = geometry(delta=0.2, seed=4)
        assert (disorder_average_weights(lab, lab.flipped(), 1.0, geo, 3.0)
                == disorder_average_weights(lab, lab.flipped(), 1.0, geo, 3))

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_non_finite_wavenumber_rejected(self, k):
        # a NaN used to come back as NaN estimates
        lab = BasisLabel((1, 1, 1, 1))
        with pytest.raises(ValueError, match="k_magnitude"):
            disorder_average_weights(lab, lab.flipped(), k, geometry(delta=0.1), 4)


class TestFourierSuppression:
    def test_zero_width_gives_unity(self):
        assert fourier_suppression(0.0, 1.0, 1.0, 1.0).estimate == 1.0

    def test_value_at_three(self):
        # exp(-9), frozen from a 30-digit evaluation; 1.2341e-4 to four digits
        out = fourier_suppression(3.0, 1.0, 1.0, 1.0)
        assert out.estimate == pytest.approx(1.2340980408667955e-4, rel=1e-12)
        assert abs(out.estimate - 1.2341e-4) < 5e-9

    def test_grid_average_for_gaussian_weight(self):
        bath = gaussian_peak_modes(center=30.0, width=1.0, v=1.0, n_freq=801)
        width = spectral_moments(bath).width2
        out = fourier_suppression(width, 2.0 / width, 1.0, 1.0, bath=bath)
        # suppression exponents differ by the square-vs-half-square convention
        ratio = -np.log(out.estimate) / -np.log(out.grid_value)
        assert 0.5 <= ratio <= 2.0 + 1e-4

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fourier_suppression(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            fourier_suppression(1.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("name,args", [
        ("delta_omega", (float("nan"),)),  # used to give estimate = nan
        ("delta_omega", (float("inf"),)),
        ("s", (1.0, float("nan"))),
        ("d", (1.0, 1.0, float("inf"))),
        ("v", (1.0, 1.0, 1.0, float("nan"))),
        # a bath of zero weight used to divide by zero, to a NaN grid_value
        ("weights", (1.0, 1.0, 1.0, 1.0,
                     BathSpectrum(omega=np.array([1.0]), k=np.array([[1.0, 0, 0]]),
                                  g2=np.array([0.0]), v=1.0))),
    ])
    def test_non_finite_inputs_rejected(self, name, args):
        with pytest.raises(ValueError, match=rf"^{name} "):
            fourier_suppression(*args)


class TestIndependentLimit:
    def test_equal_labels(self):
        bath = gaussian_peak_modes(center=5.0, width=0.5, v=1.0, n_freq=51)
        lab = BasisLabel((1, -1))
        assert independent_limit_factors(lab, lab, 2.0, bath) == (0.0, 0.0)

    def test_single_flip_is_four_times_scale(self):
        bath = gaussian_peak_modes(center=5.0, width=0.5, v=1.0, n_freq=51, temperature=0.7)
        i, j = BasisLabel((1, 1)), BasisLabel((1, -1))
        t = 1.7
        eta, phi = independent_limit_factors(i, j, t, bath)
        assert phi == 0.0
        assert eta == pytest.approx(4.0 * damping_scale(bath, t), rel=1e-14)

    def test_scale_matches_single_flip_exponent(self):
        # cross-module identity: the common sum is one quarter of a single flip
        bath = gaussian_peak_modes(center=4.0, width=0.4, v=1.0, n_freq=75, temperature=0.3)
        pos = np.zeros((1, 3))
        t = 2.2
        eta = damping_exponent(BasisLabel((1,)), BasisLabel((-1,)), t, bath, pos)
        assert damping_scale(bath, t) == eta / 4.0

    def test_phase_scale_positive_and_growing(self):
        bath = gaussian_peak_modes(center=4.0, width=0.4, v=1.0, n_freq=75)
        assert 0 < phase_scale(bath, 1.0) < phase_scale(bath, 5.0)
