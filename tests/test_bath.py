import numpy as np
import pytest
from scipy.integrate import quad

from regdeph.bath import (
    BathSpectrum,
    GaussianPeakCoupling,
    PowerLawCoupling,
    SpectralMoments,
    coth_half,
    discretize_spectrum,
    gaussian_peak_modes,
    spectral_moments,
)
from regdeph.regimes import damping_scale


def test_coth_half_zero_temperature_limit():
    assert np.array_equal(coth_half(np.array([0.3, 2.0]), 0.0), [1.0, 1.0])


@pytest.mark.parametrize("temperature", [float("nan"), -1.0, float("inf")])
def test_coth_half_rejects_bad_temperature(temperature):
    # NaN used to give NaNs, -1 gave coth(-1/2) = -2.16 and infinity gave inf
    with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
        coth_half([1.0, 2.0], temperature)


class TestDiscretize:
    def test_degenerate_grid_single_frequency(self):
        bath = discretize_spectrum(PowerLawCoupling(), v=1.0, n_freq=1, omega_max=2.0)
        assert np.unique(bath.omega).tolist() == [2.0]
        # 1-D shells carry the +k/-k pair with the weight split evenly
        assert bath.n_modes == 2
        assert bath.g2[0] == bath.g2[1]
        assert np.allclose(bath.k[0], -bath.k[1])

    def test_one_shell_peak_sits_at_center(self):
        bath = gaussian_peak_modes(center=1.2, width=0.1, v=1.0, n_freq=1)
        assert bath.grid.freqs.tolist() == [1.2]
        weight = GaussianPeakCoupling(center=1.2, width=0.1).g2(1.2) * 0.1
        assert bath.g2.sum() == pytest.approx(weight, rel=1e-15)

    def test_ohmic_weight_vanishes_at_zero_frequency(self):
        assert PowerLawCoupling(exponent=1.0).g2(0.0) == 0.0

    def test_grid_refinement_converges(self):
        vals = []
        for n in (10_000, 20_000):
            bath = discretize_spectrum(PowerLawCoupling(1.0, 1.0, 1.0), v=1.0,
                                       n_freq=n, omega_max=10.0)
            vals.append(damping_scale(bath, 3.0))
        assert abs(vals[1] / vals[0] - 1.0) < 1e-3

    def test_mode_set_is_inversion_symmetric(self):
        bath = discretize_spectrum(PowerLawCoupling(), v=2.0, n_freq=16, omega_max=4.0)
        kset = {tuple(np.round(k, 12)) for k in bath.k}
        assert all(tuple(np.round(-np.array(k), 12)) in kset for k in kset)
        # every builder's set folds to one mode per +k/-k pair, weights summed
        for bath in (bath,
                     discretize_spectrum(PowerLawCoupling(), v=1.0, dimensionality=3,
                                         n_freq=7, omega_max=3.0, n_directions=14),
                     gaussian_peak_modes(center=2.0, width=0.1, v=1.0, n_freq=21),
                     gaussian_peak_modes(center=2.0, width=0.1, v=1.5, dimensionality=3,
                                         n_freq=9, n_directions=8)):
            assert bath.inversion_closed
            omega, k, g2 = bath.folded
            assert len(omega) == len(k) == len(g2) == bath.n_modes // 2
            assert abs(g2.sum() - bath.g2.sum()) <= 1e-15 * bath.g2.sum()
            # the kept modes and their partners are exactly the full set
            halves = [(w, *s * kk) for s in (1, -1) for w, kk in zip(omega, k)]
            assert sorted(halves) == sorted((w, *kk) for w, kk in zip(bath.omega, bath.k))
            assert not any(arr.flags.writeable for arr in bath.folded)

    @pytest.mark.parametrize("bath, n_dir", [
        (discretize_spectrum(PowerLawCoupling(), v=2.0, n_freq=16, omega_max=4.0), 1),
        (discretize_spectrum(PowerLawCoupling(), v=1.3, dimensionality=3, n_freq=107,
                             omega_max=6.0, n_directions=14), 7),
        (gaussian_peak_modes(center=2.0, width=0.1, v=1.0, n_freq=21), 1),
        (gaussian_peak_modes(center=2.0, width=0.1, v=1.5, dimensionality=3, n_freq=45,
                             n_directions=8), 4),
        (gaussian_peak_modes(center=2.0, width=0.1, v=1.0, dimensionality=3, n_freq=1,
                             n_directions=2), 1),
    ], ids=["1d", "3d", "peak-1d", "peak-3d", "one-shell"])
    def test_builders_fold_shell_major_over_their_grid(self, bath, n_dir):
        freqs, dirs = bath.grid
        assert dirs.shape == (n_dir, 3) and bath.n_modes == 2 * len(freqs) * n_dir
        gaps = np.diff(freqs)
        assert np.all(np.abs(gaps - gaps[:1]) <= 1e-13 * freqs[-1])
        omega, k, _ = bath.folded
        for j, d in np.ndindex(len(freqs), n_dir):
            assert omega[j * n_dir + d] == freqs[j]
            assert np.array_equal(k[j * n_dir + d], freqs[j] / bath.v * dirs[d])

    def test_hand_built_set_has_no_grid_and_a_wrong_grid_is_rejected(self):
        from regdeph.bath import ShellGrid, _assemble

        bath = discretize_spectrum(PowerLawCoupling(), v=1.0, dimensionality=3, n_freq=4,
                                   omega_max=3.0, n_directions=6)
        assert BathSpectrum(omega=bath.omega, k=bath.k, g2=bath.g2, v=1.0).grid is None
        freqs, dirs = bath.grid
        uneven = np.array([1.0, 2.0, 3.5])
        for wrong in (BathSpectrum(omega=bath.omega, k=bath.k, g2=bath.g2, v=1.0,
                                   grid=ShellGrid(freqs[::-1], dirs)),
                      BathSpectrum(omega=bath.omega, k=bath.k, g2=bath.g2, v=1.0,
                                   grid=ShellGrid(freqs, -dirs)),
                      _assemble(uneven, uneven, 1.0, 0.0, 3, 6)):
            with pytest.raises(ValueError, match="grid"):
                wrong.folded

    def test_unpaired_mode_set_is_summed_whole(self):
        lone = BathSpectrum(omega=np.array([1.0]), k=np.array([[0.0, 1.0, 0.0]]),
                            g2=np.array([0.1]), v=1.0)
        paired = discretize_spectrum(PowerLawCoupling(), v=1.0, n_freq=3, omega_max=3.0)
        extra = BathSpectrum(omega=np.append(paired.omega, 1.5),
                             k=np.vstack([paired.k, [[0.0, 0.0, 1.5]]]),
                             g2=np.append(paired.g2, 0.2), v=1.0)
        for bath in (lone, extra):
            assert not bath.inversion_closed
            for folded, full in zip(bath.folded, (bath.omega, bath.k, bath.g2)):
                assert np.array_equal(folded, full)

    def test_three_dimensional_directions(self):
        bath = discretize_spectrum(PowerLawCoupling(), v=1.0, dimensionality=3,
                                   n_freq=5, omega_max=2.0, n_directions=14)
        assert bath.n_modes == 5 * 14
        norms = np.linalg.norm(bath.k, axis=1)
        assert np.allclose(bath.v * norms, bath.omega)
        kset = {tuple(np.round(k, 10)) for k in bath.k}
        assert all(tuple(np.round(-np.array(k), 10)) in kset for k in kset)

    @pytest.mark.parametrize("n_directions", [0, 1, 13])
    def test_three_dimensional_direction_count_must_be_even(self, n_directions):
        with pytest.raises(ValueError, match="even"):
            discretize_spectrum(PowerLawCoupling(), v=1.0, dimensionality=3, n_freq=2,
                                omega_max=1.0, n_directions=n_directions)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            discretize_spectrum(PowerLawCoupling(), v=1.0, n_freq=0, omega_max=1.0)
        with pytest.raises(ValueError):
            discretize_spectrum(PowerLawCoupling(), v=1.0, n_freq=4, omega_max=-1.0)


MODE_SETS = {
    "grid": lambda n_freq: discretize_spectrum(PowerLawCoupling(), 1.0, n_freq=n_freq,
                                               omega_max=10.0),
    "peak": lambda n_freq: gaussian_peak_modes(center=2.0, width=0.1, v=1.0, n_freq=n_freq),
}


@pytest.mark.parametrize("n_freq", [2.5, float("nan"), float("inf"), 0, -3])
@pytest.mark.parametrize("mode_set", sorted(MODE_SETS))
def test_n_freq_must_be_a_positive_integer(mode_set, n_freq):
    # the grid used to build shells at 4, 8 and 12 for 2.5, past omega_max = 10;
    # the peak raised TypeError for 2.5 and numpy's own errors for 0 and -3
    with pytest.raises(ValueError, match="n_freq must be an integer >= 1"):
        MODE_SETS[mode_set](n_freq)


@pytest.mark.parametrize("name, build", [
    # omega_max = inf and n_sigma = nan used to fail at BathSpectrum, naming neither,
    # and v = 0 divided by zero before any check
    ("omega_max", lambda: discretize_spectrum(PowerLawCoupling(), 1.0, omega_max=np.inf)),
    ("n_sigma", lambda: gaussian_peak_modes(center=2.0, width=0.1, v=1.0, n_sigma=np.nan)),
    ("velocity v", lambda: discretize_spectrum(PowerLawCoupling(), 0.0, n_freq=4)),
    ("velocity v", lambda: gaussian_peak_modes(center=2.0, width=0.1, v=0.0, n_freq=5)),
], ids=["omega_max", "n_sigma", "grid-v", "peak-v"])
def test_builder_arguments_rejected_by_name(name, build):
    with pytest.raises(ValueError, match=rf"{name} must be finite and positive"):
        build()


@pytest.mark.parametrize("name, make", [
    # each was accepted: `x <= 0` lets a NaN and an infinity through
    ("amplitude", lambda: PowerLawCoupling(amplitude=np.nan)),
    ("exponent", lambda: PowerLawCoupling(exponent=np.inf)),
    ("cutoff", lambda: PowerLawCoupling(cutoff=np.nan)),
    ("center", lambda: GaussianPeakCoupling(center=np.nan, width=0.1)),
    ("width", lambda: GaussianPeakCoupling(center=1.0, width=np.inf)),
    ("amplitude", lambda: GaussianPeakCoupling(center=1.0, width=0.1, amplitude=np.inf)),
], ids=["power-amplitude", "power-exponent", "power-cutoff", "peak-center", "peak-width",
        "peak-amplitude"])
def test_coupling_fields_must_be_finite(name, make):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        make()


def test_integral_float_n_freq_is_that_integer():
    # gaussian_peak_modes(n_freq=3.0) used to raise TypeError in linspace
    a, b = MODE_SETS["peak"](3.0), MODE_SETS["peak"](3)
    assert np.array_equal(a.omega, b.omega) and np.array_equal(a.g2, b.g2)


class TestBathSpectrum:
    def test_rejects_zero_frequency_mode(self):
        with pytest.raises(ValueError):
            BathSpectrum(omega=np.array([0.0]), k=np.zeros((1, 3)),
                         g2=np.array([1.0]), v=1.0)

    def test_rejects_dispersion_violation(self):
        with pytest.raises(ValueError):
            BathSpectrum(omega=np.array([1.0]), k=np.array([[2.0, 0, 0]]),
                         g2=np.array([1.0]), v=1.0)

    @pytest.mark.parametrize("k", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 1e-4, 0.0]])
    def test_rejects_non_finite_or_wrong_norm_wave_vectors(self, k):
        # |k| off by 5e-9 relative is beyond the 1e-10 tolerance
        with pytest.raises(ValueError, match=r"dispersion violated: omega != v\*\|k\| for some mode"):
            BathSpectrum(omega=np.array([1.0, 1.0]), k=np.array([[-1.0, 0.0, 0.0], k]),
                         g2=np.array([1.0, 1.0]), v=1.0)

    def test_accepts_a_norm_within_the_tolerance(self):
        k = np.array([[1.0 + 5e-11, 0.0, 0.0]])
        assert BathSpectrum(omega=np.array([1.0]), k=k, g2=np.array([1.0]), v=1.0).n_modes == 1

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            BathSpectrum(omega=np.array([1.0]), k=np.array([[1.0, 0, 0]]),
                         g2=np.array([-1.0]), v=1.0)

    @pytest.mark.parametrize("name,override", [
        ("temperature", {"temperature": np.nan}),
        ("temperature", {"temperature": np.inf}),
        ("g2", {"g2": np.array([0.1, np.nan])}),
        ("g2", {"g2": np.array([0.1, np.inf])}),
        ("velocity v", {"v": np.nan}),
        ("omega", {"omega": np.array([1.0, np.inf]), "k": np.array([[1.0, 0, 0], [-np.inf, 0, 0]])}),
    ])
    def test_rejects_non_finite_inputs(self, name, override):
        # each passed the sign checks and gave NaN etas; the message names the input
        kwargs = dict(omega=np.array([1.0, 1.0]), k=np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                      g2=np.array([0.1, 0.1]), v=1.0, temperature=0.5)
        with pytest.raises(ValueError, match=name):
            BathSpectrum(**{**kwargs, **override})

    def test_immutability(self):
        bath = discretize_spectrum(PowerLawCoupling(), v=1.0, n_freq=4, omega_max=2.0,
                                   temperature=1.0)
        with pytest.raises(ValueError):
            bath.omega[0] = 5.0

    def test_grid_is_a_read_only_copy(self):
        # the closed form keeps weights per bath object, so the grid must not change under it
        from regdeph.bath import ShellGrid

        built = discretize_spectrum(PowerLawCoupling(), v=1.0, dimensionality=3, n_freq=4,
                                    omega_max=3.0, n_directions=6)
        freqs, dirs = np.array(built.grid.freqs), np.asfortranarray(built.grid.dirs)
        given = BathSpectrum(omega=built.omega, k=built.k, g2=built.g2, v=1.0,
                             grid=ShellGrid(freqs, dirs))
        for bath in (built, given):
            for arr in bath.grid:
                assert arr.flags.c_contiguous and arr.dtype == float
                with pytest.raises(ValueError):
                    arr[0] = 5.0
        assert freqs.flags.writeable and dirs.flags.writeable
        assert all(np.array_equal(*pair) for pair in zip(given.grid, built.grid))
        assert np.array_equal(given.folded.k, built.folded.k)
        # the copy is still checked against the folded modes
        freqs[0] = 0.5
        with pytest.raises(ValueError, match="grid"):
            BathSpectrum(omega=built.omega, k=built.k, g2=built.g2, v=1.0,
                         grid=ShellGrid(freqs, dirs)).folded

    def test_mode_arrays_are_read_only_copies(self):
        # C-contiguous float arrays, and views into a larger array, are copied too
        omega = np.array([1.0, 1.0, 2.0, 2.0])
        k = omega[:, None] * np.tile([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], (2, 1))
        big = np.full(8, 0.1)
        bath = BathSpectrum(omega=omega, k=k, g2=big[:4], v=1.0)
        for given, kept in ((omega, bath.omega), (k, bath.k), (big[:4], bath.g2)):
            assert given.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(given, kept)
        omega[:] = 3.0
        big[:4] *= 3
        assert np.array_equal(bath.omega, [1.0, 1.0, 2.0, 2.0])
        assert np.array_equal(bath.g2, np.full(4, 0.1))


class TestSpectralMoments:
    def test_point_mass(self):
        bath = BathSpectrum(omega=np.array([3.0]), k=np.array([[3.0, 0, 0]]),
                            g2=np.array([0.5]), v=1.0)
        m = spectral_moments(bath)
        assert (m.mean1, m.mean2) == (3.0, 3.0)
        assert (m.width1, m.width2) == (0.0, 0.0)

    def test_two_point_distribution(self):
        # equal channel weight needs g2 proportional to omega^2 at T = 0
        bath = BathSpectrum(omega=np.array([1.0, 3.0]),
                            k=np.array([[1.0, 0, 0], [3.0, 0, 0]]),
                            g2=np.array([1.0, 9.0]), v=1.0)
        m = spectral_moments(bath)
        assert m.mean1 == pytest.approx(2.0)
        assert m.width1 == pytest.approx(1.0)
        assert m.mean2 == pytest.approx(2.0)
        assert m.width2 == pytest.approx(1.0)

    def test_against_quadrature_oracle(self):
        # smooth phase-channel density (p = 2): grid moments vs direct quadrature
        bath = discretize_spectrum(PowerLawCoupling(1.0, 2.0, 1.0), v=1.0,
                                   n_freq=2000, omega_max=12.0)
        m = spectral_moments(bath)
        den = quad(lambda w: np.exp(-w), 0, 12)[0]
        mean = quad(lambda w: w * np.exp(-w), 0, 12)[0] / den
        var = quad(lambda w: (w - mean) ** 2 * np.exp(-w), 0, 12)[0] / den
        assert m.mean2 == pytest.approx(mean, rel=0.01)
        assert m.width2 == pytest.approx(np.sqrt(var), rel=0.01)

    def test_all_zero_weights_rejected(self):
        bath = BathSpectrum(omega=np.array([1.0]), k=np.array([[1.0, 0, 0]]),
                            g2=np.array([0.0]), v=1.0)
        with pytest.raises(ValueError):
            spectral_moments(bath)

    @pytest.mark.parametrize("name, moments", [
        # the first two used to classify a 4-site chain as Intermediate
        ("mean1", (np.nan, np.nan, np.nan, 0.1)),
        ("mean1", (np.inf, 0.1, 1.0, 0.1)),
        ("width1", (1.0, np.inf, 1.0, 0.1)),
        ("mean2", (1.0, 0.1, -np.inf, 0.1)),
        ("width2", (1.0, 0.1, 1.0, np.nan)),
    ])
    def test_non_finite_moments_rejected(self, name, moments):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            SpectralMoments(*moments)


def test_gaussian_peak_preset_moments():
    bath = gaussian_peak_modes(center=8.0, width=0.5, v=1.0, n_freq=401)
    m = spectral_moments(bath)
    assert m.mean2 == pytest.approx(8.0, rel=1e-3)
    assert m.width2 == pytest.approx(0.5, rel=1e-2)
    # the phase-channel weight is the Gaussian itself by construction
    h = bath.g2 / bath.omega**2
    h = h / h.max()
    peak_idx = np.argmax(h)
    assert bath.omega[peak_idx] == pytest.approx(8.0, abs=0.05)


def test_gaussian_peak_coupling_validation():
    with pytest.raises(ValueError):
        GaussianPeakCoupling(center=-1.0, width=0.5)
    with pytest.raises(ValueError):
        GaussianPeakCoupling(center=1.0, width=0.0)
