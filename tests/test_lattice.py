import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgrav import (
    CouplingKernel,
    LatticeSpec,
    QuadratureError,
    mode_function,
    overlap,
    softened_potential,
)
from ccgrav.quadrature import simpson_refined


def test_momentum_cutoff_is_derived_from_spacing():
    assert LatticeSpec.chain(3).momentum_cutoff == math.pi
    assert LatticeSpec.chain(3, spacing=0.5).momentum_cutoff == 2 * math.pi


def test_site_index_coordinate_bijection():
    lat = LatticeSpec(dimension=3, extents=(3, 2, 4))
    assert lat.num_sites == 24
    for k in range(lat.num_sites):
        assert lat.index_of(lat.integer_coordinates[k]) == k


@pytest.mark.parametrize("vector", [(0.7, 0, 0), (np.inf, 0, 0), (True, 0, 0)], ids=str)
def test_index_of_rejects_non_integer_entries(vector):
    lat = LatticeSpec(dimension=3, extents=(3, 3, 3))
    with pytest.raises(ValueError, match="site index must be an integer"):
        lat.index_of(vector)
    expected = lat.index_of((1, 0, 0))
    assert lat.index_of((np.int64(1), 0, 0)) == lat.index_of((1.0, 0, 0)) == expected


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dimension=2, extents=(2, 2)),
        dict(dimension=1, extents=(2, 2)),
        dict(dimension=1, extents=(0,)),
        dict(dimension=1, extents=(2,), spacing=-1.0),
        dict(dimension=1, extents=(2.5,)),
    ],
)
def test_lattice_validation(kwargs):
    with pytest.raises(ValueError):
        LatticeSpec(**kwargs)


def test_integral_real_extents_are_stored_as_ints():
    lat = LatticeSpec(dimension=3.0, extents=(2.0, np.int64(3), np.float64(1.0)))
    assert lat.dimension == 3 and lat.extents == (2, 3, 1)
    assert all(type(n) is int for n in (lat.dimension, *lat.extents))
    np.testing.assert_array_equal(
        LatticeSpec(dimension=1, extents=(2.0,)).integer_coordinates, [[-1], [0]]
    )


def test_bool_extents_are_rejected():
    with pytest.raises(ValueError, match="extents entry must be an integer, not the bool"):
        LatticeSpec(dimension=1, extents=(True,))


def test_bool_dimension_is_rejected():
    with pytest.raises(ValueError, match="dimension must be an integer, not the bool"):
        LatticeSpec(dimension=True, extents=(2,))


def test_mode_peak_value():
    lat = LatticeSpec.chain(5)
    assert mode_function(lat, 2, 0.0) == pytest.approx(1.0, abs=1e-15)
    lat_half = LatticeSpec.chain(5, spacing=0.5)
    assert mode_function(lat_half, 2, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_mode_vanishes_at_neighbouring_sites():
    lat = LatticeSpec.chain(5)
    for j in range(5):
        for l in range(5):
            if l != j:
                x = float(lat.coordinate(l)[0])
                assert abs(mode_function(lat, j, x)) < 1e-15


def test_mode_half_site_value_matches_closed_form():
    # oracle: direct evaluation of sin(pi/2)/(a/2) * sqrt(a/pi^2) at a = 1
    lat = LatticeSpec.chain(5)
    closed = math.sin(math.pi / 2) / 0.5 * math.sqrt(1.0 / math.pi**2)
    assert mode_function(lat, 2, 0.5) == pytest.approx(closed, abs=1e-14)


def test_mode_3d_is_product_of_axes():
    lat3 = LatticeSpec(dimension=3, extents=(3, 3, 3))
    lat1 = LatticeSpec.chain(3)
    point = np.array([0.3, -0.7, 0.1])
    expected = np.prod([mode_function(lat1, 1, v) for v in point])
    assert mode_function(lat3, 13, point) == pytest.approx(expected, rel=1e-12)


def test_overlap_normalisation_and_orthogonality():
    lat = LatticeSpec.chain(7)
    assert overlap(lat, 3, 3) == pytest.approx(1.0, abs=1e-6)
    assert overlap(lat, 3, 4) == pytest.approx(0.0, abs=1e-6)


def test_overlap_distant_pair_against_refined_oracle():
    # oracle: the same quadrature at doubled window and 10x tighter refinement
    lat = LatticeSpec.chain(7)
    default = overlap(lat, 0, 5)
    control = overlap(lat, 0, 5, window=800.0, conv_tol=1e-9)
    assert default == pytest.approx(0.0, abs=1e-6)
    assert default == pytest.approx(control, abs=1e-6)


def test_overlap_matrix_is_identity_on_eleven_sites():
    lat = LatticeSpec.chain(11)
    worst = 0.0
    for j in range(11):
        for l in range(j, 11):
            value = overlap(lat, j, l)
            target = 1.0 if j == l else 0.0
            worst = max(worst, abs(value - target))
    assert worst < 1e-6


def test_overlap_requires_one_dimension():
    lat3 = LatticeSpec(dimension=3, extents=(2, 2, 2))
    with pytest.raises(ValueError):
        overlap(lat3, 0, 1)


def test_simpson_nonconvergence_signal():
    with pytest.raises(QuadratureError):
        simpson_refined(np.sin, 0.0, 1.0, conv_tol=0.0, max_doublings=3)


def test_chi_values():
    lat = LatticeSpec.chain(11)
    kernel = CouplingKernel(lat)
    assert kernel.chi(0, 0) == pytest.approx(-1.0, abs=1e-15)
    assert kernel.chi(4, 5) == pytest.approx(-0.5, abs=1e-15)
    assert kernel.chi(0, 10) == pytest.approx(-1.0 / 11.0, abs=1e-15)


def test_chi_symmetric_and_bounded():
    lat = LatticeSpec(dimension=3, extents=(2, 3, 2))
    kernel = CouplingKernel(lat, scale=1.7)
    chi = kernel.matrix
    assert np.array_equal(chi, chi.T)
    assert np.all(chi < 0)
    cap = kernel.scale / lat.spacing
    assert np.all(np.abs(chi) <= cap)
    off = ~np.eye(lat.num_sites, dtype=bool)
    assert np.all(np.abs(chi[off]) < cap)
    assert np.allclose(np.diag(chi), -cap)


def test_softened_potential_values():
    lat = LatticeSpec.chain(11)
    kernel = CouplingKernel(lat)
    # adjacent pair: -G m^2 / (4 a) with G m^2 = 2 scale hbar
    assert softened_potential(kernel, 4, 5) == pytest.approx(-0.5, abs=1e-15)
    assert softened_potential(kernel, 4, 7) == pytest.approx(-0.25, abs=1e-15)
    with pytest.raises(ValueError):
        softened_potential(kernel, 4, 4)


def test_softened_potential_decreasing_and_bounded():
    lat = LatticeSpec.chain(12)
    kernel = CouplingKernel(lat, scale=2.0)
    mags = [abs(softened_potential(kernel, 0, j)) for j in range(1, 12)]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    assert all(m < kernel.scale / lat.spacing for m in mags)


def test_softening_negligible_at_long_range():
    lat = LatticeSpec.chain(2001)
    kernel = CouplingKernel(lat)
    j = lat.index_of((0,))
    l = lat.index_of((1000,))
    newton = -kernel.scale / 1000.0
    rel = abs(softened_potential(kernel, j, l) - newton) / abs(newton)
    assert rel <= 1e-3


@given(st.integers(min_value=2, max_value=9), st.floats(min_value=0.1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_chi_symmetry_property(extent, scale):
    kernel = CouplingKernel(LatticeSpec.chain(extent), scale=scale)
    chi = kernel.matrix
    assert np.array_equal(chi, chi.T)
