import numpy as np
import pytest

from ccgrav.lattice_sums import _tail, column_difference_sum
from helpers import adaptive_tail


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
