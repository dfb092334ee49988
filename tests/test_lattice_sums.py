import numpy as np
import pytest

from ccgrav.errors import LatticeSumError
from ccgrav.lattice_sums import _core_sums, _tail, column_difference_sum
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
    fast = _tail(pts, wts, centre, radius, tol)
    oracle = adaptive_tail(pts, wts, centre, radius, tol)
    assert abs(fast - oracle) <= tol


def test_tail_is_the_same_for_a_pair_on_any_axis():
    wts = np.array([1.0, -1.0])
    tails = []
    for axis in np.eye(3):
        pts = np.array([np.zeros(3), 12.0 * axis])
        tails.append(_tail(pts, wts, pts.mean(axis=0), 20.0, 1e-4))
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
    ],
    ids=[
        "z-pair-1",
        "z-pair-20",
        "off-axis-pair",
        "three-sources",
        "four-sources",
        "z-pair-20-on-sphere",
        "diagonal-pair-on-sphere",
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
