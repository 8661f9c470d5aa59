import numpy as np
import pytest

from regdeph.geometry import RegisterGeometry, apply_disorder, build_lattice


def test_single_site_at_origin():
    assert np.array_equal(build_lattice((1, 1, 1), 1.0), [[0.0, 0.0, 0.0]])


def test_line_is_arithmetic_progression():
    pos = build_lattice((3, 1, 1), 2.0)
    assert np.array_equal(pos, [[0, 0, 0], [2, 0, 0], [4, 0, 0]])


def test_square_lattice():
    pos = build_lattice((2, 2, 1), 1.0)
    assert pos.shape == (4, 3)
    # four corners of a unit square in the xy plane
    corners = {tuple(p) for p in pos}
    assert corners == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}


@pytest.mark.parametrize("dims,d", [((0, 1, 1), 1.0), ((2, -1, 1), 1.0), ((2, 1, 1), 0.0),
                                    ((2, 1, 1), -3.0)])
def test_bad_lattice_inputs_rejected(dims, d):
    with pytest.raises(ValueError):
        build_lattice(dims, d)


@pytest.mark.parametrize("dims", [(2.7, 1, 1), (2, 1.5, 1), (4, 1, np.float64(0.5)),
                                  (float("inf"), 1, 1), (2, float("nan"), 1)])
def test_non_integral_dims_rejected(dims):
    # int() would truncate 2.7 to 2 sites, and 0.5 to an empty axis
    with pytest.raises(ValueError, match="three positive integers"):
        RegisterGeometry(dims=dims, d=1.0)


def test_integral_dims_of_any_numeric_type_accepted():
    for dims in [(3.0, 1, 1), (np.int64(3), 1, 1)]:
        geo = RegisterGeometry(dims=dims, d=1.0)
        assert geo.dims == (3, 1, 1) and all(type(n) is int for n in geo.dims)
        assert geo.n_qubits == 3
        assert np.array_equal(geo.positions, build_lattice((3, 1, 1), 1.0))


def test_site_count_matches_dims():
    for dims in [(2, 3, 4), (5, 1, 1), (1, 1, 7)]:
        assert build_lattice(dims, 0.5).shape[0] == dims[0] * dims[1] * dims[2]


def test_zero_disorder_is_identity():
    ideal = build_lattice((4, 1, 1), 1.0)
    out = apply_disorder(ideal, 0.0, seed=3)
    assert np.array_equal(out, ideal)


def test_disorder_is_deterministic_per_seed():
    ideal = build_lattice((3, 2, 1), 1.0)
    a = apply_disorder(ideal, 0.1, seed=11)
    b = apply_disorder(ideal, 0.1, seed=11)
    c = apply_disorder(ideal, 0.1, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_negative_disorder_rejected():
    with pytest.raises(ValueError):
        apply_disorder(build_lattice((2, 1, 1), 1.0), -0.1, seed=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_lattice_constant_and_disorder_rejected(bad):
    # a NaN d or delta used to pass the sign checks and give NaN positions
    with pytest.raises(ValueError, match="lattice constant d"):
        build_lattice((2, 1, 1), bad)
    with pytest.raises(ValueError, match="lattice constant d"):
        RegisterGeometry(dims=(2, 1, 1), d=bad)
    with pytest.raises(ValueError, match="disorder amplitude delta"):
        apply_disorder(build_lattice((2, 1, 1), 1.0), bad, seed=0)
    with pytest.raises(ValueError, match="disorder amplitude delta"):
        RegisterGeometry(dims=(2, 1, 1), d=1.0, delta=bad)


def test_displacement_rms_matches_amplitude():
    # 1e5 draws of a single site's offset: empirical RMS within 2% of delta
    delta = 0.1
    ideal = np.zeros((100_000, 3))
    out = apply_disorder(ideal, delta, seed=99)
    rms = np.sqrt(np.mean(np.sum(out**2, axis=1)))
    assert abs(rms - delta) < 0.02 * delta


def test_per_axis_variance_is_isotropic_third():
    delta = 0.3
    out = apply_disorder(np.zeros((200_000, 3)), delta, seed=5)
    var_axes = np.var(out, axis=0)
    assert np.allclose(var_axes, delta**2 / 3.0, rtol=0.03)
    assert abs(np.mean(out)) < 1e-3


def test_geometry_object_realizes_positions():
    geo = RegisterGeometry(dims=(3, 1, 1), d=2.0, delta=0.0, seed=1)
    assert geo.n_qubits == 3
    assert np.array_equal(geo.positions, geo.ideal_positions())
    noisy = RegisterGeometry(dims=(3, 1, 1), d=2.0, delta=0.05, seed=1)
    assert not np.array_equal(noisy.positions, geo.positions)
    with pytest.raises(ValueError):
        noisy.positions[0, 0] = 7.0  # positions are read-only
