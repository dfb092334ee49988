import numpy as np
import pytest

from ccgrav.analytics import kappa_sq
from ccgrav.errors import LatticeSumError
from ccgrav.lattice_sums import (
    _axial_columns,
    _core_sums,
    _inversion_symmetric,
    _sphere_rule,
    _tails,
    column_difference_sum,
)
from helpers import adaptive_tail, square_core_sums

CHECKPOINT_RADII = (14.4, 16.8, 19.2, 21.6, 24.0)


@pytest.mark.parametrize(
    "points, weights",
    [
        ([(0, 0, 0), (0, 0, 5)], [1, -1]),
        ([(0, 0, 0), (0, 0, 20)], [1, -1]),
        ([(0, 0, 0), (3, 4, 5)], [1, -1]),
        ([(0, 0, 0), (2, 0, 0), (0, 1, 1)], [1, 1, -2]),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)], [1, 1, -1, -1]),
    ],
    ids=["z-pair-5", "z-pair-20", "off-axis-pair", "three-sources", "four-sources"],
)
def test_tail_matches_adaptive_oracle(points, weights):
    # at the smallest radius the sum uses, where the sources sit closest to
    # the sphere; tolerance as column_difference_sum sets it for tolerance 1e-3
    pts = np.array(points, dtype=float)
    wts = np.array(weights, dtype=float)
    centre = pts.mean(axis=0)
    src_radius = float(np.max(np.linalg.norm(pts - centre, axis=1)))
    radius = src_radius + 6.0
    tol = 0.02 * 1e-3 * float(np.abs(wts).sum()) ** 2 * max(src_radius, 1.0)
    fast = _tails(pts, wts, centre, [radius], tol)[0]
    oracle = adaptive_tail(pts, wts, centre, radius, tol)
    assert abs(fast - oracle) <= tol


def test_tail_is_the_same_for_a_pair_on_any_axis():
    wts = np.array([1.0, -1.0])
    tails = []
    for axis in np.eye(3):
        pts = np.array([np.zeros(3), 12.0 * axis])
        tails.append(_tails(pts, wts, pts.mean(axis=0), [20.0], 1e-4)[0])
    assert tails[0] == tails[1] == tails[2]


def test_weights_cancelling_at_coincident_points_give_zero():
    point = (1.0, 2.0, 3.0)
    assert column_difference_sum([point, point], [1.0, -1.0]) == (0.0, 0.0)


@pytest.mark.parametrize(
    "points, weights, radii",
    [
        ([(0, 0, 0), (0, 0, 1)], [1, -1], CHECKPOINT_RADII),
        ([(0, 0, 0), (0, 0, 20)], [1, -1], CHECKPOINT_RADII),
        ([(0, 0, 0), (3, 4, 5)], [1, -1], CHECKPOINT_RADII),
        ([(0, 0, 0), (2, 0, 0), (0, 1, 1)], [1, 1, -2], CHECKPOINT_RADII),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)], [1, 1, -1, -1], CHECKPOINT_RADII),
        # integer centres: (3,4,0), (5,12,0) and (7,24,0) offsets lie exactly
        # on these spheres, so a point dropped at the boundary shows
        ([(0, 0, 0), (0, 0, 20)], [1, -1], (5.0, 13.0, 25.0)),
        ([(0, 0, 0), (2, 2, 2)], [1, -1], (5.0, 13.0, 25.0)),
        # the cached axial table off the origin's column (z-pair-1 and
        # z-pair-20 put the centre on a half-plane and on a lattice plane)
        ([(3, -2, 1), (3, -2, 6)], [1, -1], CHECKPOINT_RADII),
        ([(0.5, 0.25, 0), (0.5, 0.25, 6)], [1, -1], CHECKPOINT_RADII),
        # inversion maps the weighted sources to +themselves
        ([(0, 0, 0), (2, 2, 2), (2, 0, 0), (0, 2, 2)], [1, 1, -1, -1], CHECKPOINT_RADII),
        # 2 * centre is an integer vector, but the weights break the symmetry
        ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)], [3, -1, -1, -1], CHECKPOINT_RADII),
    ],
    ids=[
        "z-pair-1",
        "z-pair-20",
        "off-axis-pair",
        "three-sources",
        "four-sources",
        "z-pair-20-on-sphere",
        "diagonal-pair-on-sphere",
        "shifted-z-pair",
        "fractional-z-pair",
        "symmetric-four-sources",
        "asymmetric-four-sources",
    ],
)
def test_core_sums_match_square_oracle(points, weights, radii):
    pts = np.array(points, dtype=float)
    wts = np.array(weights, dtype=float)
    centre = pts.mean(axis=0)
    fast = _core_sums(pts, wts, centre, list(radii))
    oracle = square_core_sums(pts, wts, centre, list(radii))
    np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "points, weights, symmetric",
    [
        ([(0, 0, 0), (0, 0, 8)], [1, -1], True),
        ([(0, 0, 0), (0, 0, 7)], [1, -1], True),
        ([(0, 0, 0), (3, 4, 5)], [1, -1], True),
        ([(0, 0, 0), (2, 2, 2), (2, 0, 0), (0, 2, 2)], [1, 1, -1, -1], True),
        ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)], [3, -1, -1, -1], False),
        ([(0, 0, 0), (2, 0, 0), (0, 1, 1)], [1, 1, -2], False),
    ],
    ids=["z-pair-even", "z-pair-odd", "off-axis-pair", "symmetric-four-sources",
         "asymmetric-four-sources", "three-sources"],
)
def test_inversion_symmetry_is_detected_exactly_when_it_holds(points, weights, symmetric):
    pts = np.array(points, dtype=float)
    wts = np.array(weights, dtype=float)
    assert _inversion_symmetric(pts, wts, pts.mean(axis=0)) is symmetric


def test_axial_pairs_at_one_radius_share_one_read_only_table():
    _axial_columns.cache_clear()
    kappa_sq(4.0, cutoff_radius=30.0)
    kappa_sq(9.0, cutoff_radius=30.0)
    info = _axial_columns.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    rho2, multiplicity = _axial_columns(0.0, 0.0, 30.0)
    assert not rho2.flags.writeable and not multiplicity.flags.writeable
    with pytest.raises(ValueError):
        rho2[0] = 1.0


def test_off_axis_sum_leaves_the_axial_cache_alone():
    kappa_sq(4.0, cutoff_radius=30.0)
    before = _axial_columns.cache_info()
    column_difference_sum([(0, 0, 0), (3, 4, 5)], [1, -1], cutoff_radius=30.0)
    column_difference_sum(
        [(0, 0, 0), (2, 0, 0), (0, 1, 1)], [1, 1, -2], cutoff_radius=30.0
    )
    assert _axial_columns.cache_info() == before


@pytest.mark.parametrize("n", [8, 16, 64])
def test_collapsed_phi_rule_equals_the_product_rule_for_a_z_pair(n):
    rel = np.array([[0.0, 0.0, -6.5], [0.0, 0.0, 6.5]])
    wts = np.array([1.0, -1.0])
    r = 20.0

    def integral(axial):
        dirs, w = _sphere_rule(n, axial)
        dist = np.sqrt(((r * dirs.T[:, None, :] - rel) ** 2).sum(axis=2))
        v = (wts / (dist + 1.0)).sum(axis=1)
        return float(w @ (v * v))

    full, collapsed = integral(False), integral(True)
    assert _sphere_rule(n, True)[0].shape == (3, n)
    assert collapsed == pytest.approx(full, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "points, weights",
    [
        ([(0, 0, 0), (0, 0, 7)], [1, -1]),
        ([(0, 0, 0), (3, 4, 5)], [1, -1]),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)], [1, 1, -1, -1]),
    ],
    ids=["z-pair", "off-axis-pair", "four-sources"],
)
def test_checkpoint_tails_match_separate_outer_tails(points, weights):
    # each checkpoint's tail is the outer tail plus shells; integrated to
    # infinity from the checkpoint itself it must agree within the budget
    pts = np.array(points, dtype=float)
    wts = np.array(weights, dtype=float)
    centre = pts.mean(axis=0)
    radii = [18.0, 21.0, 24.0, 27.0, 30.0]
    tol = 1e-5
    shells = _tails(pts, wts, centre, radii, tol)
    for radius, tail in zip(radii, shells):
        assert abs(tail - _tails(pts, wts, centre, [radius], tol)[0]) <= 2 * tol
    assert shells == sorted(shells, reverse=True)


@pytest.mark.parametrize(
    "points, weights, error",
    [
        ([(0, 0, 0), (0, 0, np.nan)], [1, -1], ValueError),
        ([(0, 0, 0), (np.inf, 0, 0)], [1, -1], ValueError),
        ([(0, 0, 0), (0, 0, 1)], [np.inf, -np.inf], ValueError),
        ([(0, 0, 0), (0, 0, 1e300)], [1, -1], LatticeSumError),
        ([(-1e308, 0, 0), (1e308, 0, 0)], [1, -1], LatticeSumError),
    ],
    ids=["nan", "inf", "inf-weights", "huge-separation", "span-beyond-float-range"],
)
def test_unusable_inputs_fail_before_the_sum(points, weights, error):
    with pytest.raises(error):
        column_difference_sum(points, weights)


@pytest.mark.parametrize(
    "radius, tolerance",
    [
        (-3.0, 1e-3),
        (0.0, 1e-3),
        (np.nan, 1e-3),
        (np.inf, 1e-3),
        (1e300, 1e-3),
        (1024.0, 1e-3),
        (60.0, 0.0),
        (60.0, -1e-3),
        (60.0, np.nan),
    ],
    ids=[
        "negative-radius",
        "zero-radius",
        "nan-radius",
        "inf-radius",
        "huge-radius",
        "grid-above-ceiling",
        "zero-tolerance",
        "negative-tolerance",
        "nan-tolerance",
    ],
)
def test_bad_cutoff_or_tolerance_is_rejected_first(radius, tolerance):
    # the points are malformed too: the cutoff check must come before them
    with pytest.raises(ValueError, match="cutoff_radius"):
        column_difference_sum([(0.0, 0.0)], [1.0], cutoff_radius=radius, tolerance=tolerance)
    # coincident sites return before any sum, but not before the check
    with pytest.raises(ValueError, match="cutoff_radius"):
        kappa_sq(0.0, cutoff_radius=radius, tolerance=tolerance)
