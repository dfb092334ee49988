import itertools

import numpy as np
import pytest

from ccgrav.analytics import kappa_sq
from ccgrav.errors import LatticeSumError
from ccgrav.lattice_sums import (
    _axial_columns,
    _core_sums,
    _integer_pair_sums,
    _inversion_symmetric,
    _sphere_rule,
    _tails,
    _window,
    column_difference_sum,
)
from helpers import (
    adaptive_tail,
    product_sphere_rule,
    square_core_sums,
    window,
    windowed_direct_sum,
    windowed_tail,
)

CHECKPOINT_RADII = (14.4, 16.8, 19.2, 21.6, 24.0)
THREE_SOURCES = ([(0, 0, 0), (2, 0, 0), (0, 1, 1)], [1, 1, -2])
FOUR_SOURCES = ([(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)], [1, 1, -1, -1])
# inversion through the centroid maps the weighted sources onto themselves
SYMMETRIC_FOUR_SOURCES = ([(0, 0, 0), (2, 2, 2), (2, 0, 0), (0, 2, 2)], [1, 1, -1, -1])
# 2 * centroid is an integer vector, but the weights break the symmetry
ASYMMETRIC_FOUR_SOURCES = ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)], [3, -1, -1, -1])


def pair_terms(points):
    """The pairs (2, 3) whose kappa^2 a source set is composed of; a pair
    set is its own single term."""
    pts = np.array(points, dtype=float)
    return [pts[[i, j]] for i, j in itertools.combinations(range(len(pts)), 2)]


@pytest.mark.parametrize(
    "points, weights",
    [
        ([(0, 0, 0), (0, 0, 5)], [1, -1]),
        ([(0, 0, 0), (0, 0, 20)], [1, -1]),
        ([(0, 0, 0), (3, 4, 5)], [1, -1]),
        THREE_SOURCES,
        FOUR_SOURCES,
    ],
    ids=["z-pair-5", "z-pair-20", "off-axis-pair", "three-sources", "four-sources"],
)
def test_tail_matches_adaptive_oracle(points, weights):
    # every pair term at the smallest radius a sum uses, where the sources
    # sit closest to the sphere; tolerance as a pair term sets it for 1e-3
    for pair in pair_terms(points):
        centre = pair.mean(axis=0)
        half = float(np.linalg.norm(pair[1] - pair[0])) / 2
        radius = half + 6.0
        tol = 0.02 * 1e-3 * 4.0 * max(half, 1.0)
        fast = _tails(pair, [radius], tol)[0]
        oracle = adaptive_tail(pair, [1.0, -1.0], centre, radius, tol)
        assert abs(fast - oracle) <= tol


def test_tail_is_the_same_for_a_pair_on_any_axis():
    tails = []
    for axis in np.eye(3):
        pts = np.array([np.zeros(3), 12.0 * axis])
        tails.append(_tails(pts, [20.0], 1e-4)[0])
    assert tails[0] == tails[1] == tails[2]


def test_weights_cancelling_at_coincident_points_give_zero():
    point = (1.0, 2.0, 3.0)
    assert column_difference_sum([point, point], [1.0, -1.0]) == (0.0, 0.0)


@pytest.mark.parametrize(
    "points, radii",
    [
        ([(0, 0, 0), (0, 0, 1)], CHECKPOINT_RADII),
        ([(0, 0, 0), (0, 0, 20)], CHECKPOINT_RADII),
        ([(0, 0, 0), (3, 4, 5)], CHECKPOINT_RADII),
        (THREE_SOURCES[0], CHECKPOINT_RADII),
        (FOUR_SOURCES[0], CHECKPOINT_RADII),
        # integer centres: (3,4,0), (5,12,0) and (7,24,0) offsets lie exactly
        # on these spheres, so a point dropped at the boundary shows
        ([(0, 0, 0), (0, 0, 20)], (5.0, 13.0, 25.0)),
        ([(0, 0, 0), (2, 2, 2)], (5.0, 13.0, 25.0)),
        # the cached axial table off the origin's column (z-pair-1 and
        # z-pair-20 put the centre on a half-plane and on a lattice plane)
        ([(3, -2, 1), (3, -2, 6)], CHECKPOINT_RADII),
        ([(0.5, 0.25, 0), (0.5, 0.25, 6)], CHECKPOINT_RADII),
        (SYMMETRIC_FOUR_SOURCES[0], CHECKPOINT_RADII),
        (ASYMMETRIC_FOUR_SOURCES[0], CHECKPOINT_RADII),
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
def test_core_sums_match_square_oracle(points, radii):
    # every pair term of the set, summed about its own midpoint
    for pair in pair_terms(points):
        centre = pair.mean(axis=0)
        fast = _core_sums(pair, centre, list(radii))
        oracle = square_core_sums(pair, [1.0, -1.0], centre, list(radii))
        np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=0.0)


WINDOWED_PAIRS = [
    [(0, 0, 0), (0, 0, 1)],
    [(0, 0, 0), (0, 0, 20)],
    [(0, 0, 0), (3, 4, 5)],
    [(3, -2, 1), (3, -2, 6)],
    [(0.5, 0.25, 0), (0.5, 0.25, 6)],
    [(0.5, 0, 0), (0, 1, 0)],
]
WINDOWED_IDS = ["z-pair-1", "z-pair-20", "off-axis-pair", "shifted-z-pair",
                "fractional-z-pair", "fractional-off-axis-pair"]


def test_window_is_a_smooth_step():
    s = np.linspace(0.5, 1.0, 201)[1:]
    w = _window(s)
    np.testing.assert_allclose(w, window(s), rtol=1e-12, atol=1e-300)
    assert w[-1] == 0.0 and w[0] == 1.0 and (np.diff(w) <= 0).all()
    assert _window(0.75) == 0.5


@pytest.mark.parametrize("points", WINDOWED_PAIRS, ids=WINDOWED_IDS)
def test_windowed_core_sums_match_square_oracle(points):
    pair = np.array(points, dtype=float)
    centre = pair.mean(axis=0)
    radii = [0.8 * 30.0, 30.0]
    fast = _core_sums(pair, centre, radii, windowed=True)
    oracle = square_core_sums(pair, [1.0, -1.0], centre, radii, windowed=True)
    np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("points", WINDOWED_PAIRS, ids=WINDOWED_IDS)
def test_windowed_tails_match_product_rule_oracle(points):
    # the windowed tail starts at R/2, inside the sharp ones, and takes the
    # tolerance a pair term of a multi-source set sets for 1e-3
    pair = np.array(points, dtype=float)
    centre = pair.mean(axis=0)
    half = float(np.linalg.norm(pair[1] - pair[0])) / 2
    tol = 0.01 * 0.02 * 1e-3 * 4.0 * max(half, 1.0)
    radii = [0.8 * 30.0, 30.0]
    fast = _tails(pair, radii, tol, windowed=True)
    for radius, tail in zip(radii, fast):
        oracle = windowed_tail(pair, [1.0, -1.0], centre, radius, tol / 100)
        assert abs(tail - oracle) <= 2 * tol


@pytest.mark.parametrize(
    "points, symmetric",
    [
        ([(0, 0, 0), (0, 0, 8)], True),
        ([(0, 0, 0), (0, 0, 7)], True),
        ([(0, 0, 0), (3, 4, 5)], True),
        ([(0.5, 0.25, 0), (0.5, 0.25, 6)], False),
        ([(0, 0, 0), (0.5, 0, 0)], False),
    ],
    ids=["z-pair-even", "z-pair-odd", "off-axis-pair", "fractional-z-pair",
         "quarter-spaced-pair"],
)
def test_inversion_symmetry_is_detected_exactly_when_it_holds(points, symmetric):
    pair = np.array(points, dtype=float)
    assert _inversion_symmetric(pair.mean(axis=0)) is symmetric


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
    assert _axial_columns.cache_info() == before
    # of the three pair terms only (2, 0, 0) is axial, and it reads the
    # table once for both of its windows; the two off-axis terms build their own
    _integer_pair_sums.cache_clear()
    column_difference_sum(*THREE_SOURCES, cutoff_radius=30.0)
    after = _axial_columns.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


@pytest.mark.parametrize("n", [8, 16, 64])
def test_collapsed_phi_rule_equals_the_product_rule_for_a_z_pair(n):
    rel = np.array([[0.0, 0.0, -6.5], [0.0, 0.0, 6.5]])
    wts = np.array([1.0, -1.0])
    r = 20.0

    def integral(dirs, w):
        dist = np.sqrt(((r * dirs.T[:, None, :] - rel) ** 2).sum(axis=2))
        v = (wts / (dist + 1.0)).sum(axis=1)
        return float(w @ (v * v))

    x, w = _sphere_rule(n)
    collapsed = np.array([np.sqrt(1.0 - x * x), np.zeros(n), x])
    assert x.shape == w.shape == (n,)
    assert integral(collapsed, w) == pytest.approx(
        integral(*product_sphere_rule(n)), rel=1e-14, abs=0.0
    )


@pytest.mark.parametrize(
    "points",
    [[(0, 0, 0), (0, 0, 7)], [(0, 0, 0), (3, 4, 5)], FOUR_SOURCES[0]],
    ids=["z-pair", "off-axis-pair", "four-sources"],
)
def test_checkpoint_tails_match_separate_outer_tails(points):
    # each checkpoint's tail is the outer tail plus shells; integrated to
    # infinity from the checkpoint itself it must agree within the budget
    radii = [18.0, 21.0, 24.0, 27.0, 30.0]
    tol = 1e-5
    for pair in pair_terms(points):
        shells = _tails(pair, radii, tol)
        for radius, tail in zip(radii, shells):
            assert abs(tail - _tails(pair, [radius], tol)[0]) <= 2 * tol
        assert shells == sorted(shells, reverse=True)


def _random_integer_sets(count, seed):
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        n = int(rng.integers(3, 5))
        pts = rng.integers(-3, 4, size=(n, 3))
        if len({tuple(p) for p in pts}) == n:
            sets.append((pts.tolist(), [1, 1, -2] if n == 3 else [1, 1, -1, -1]))
    return sets


FRACTIONAL_FOUR_SOURCES = ([(0.5, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1.25)], [1, 1, -1, -1])


@pytest.mark.parametrize(
    "points, weights",
    [THREE_SOURCES, FOUR_SOURCES, SYMMETRIC_FOUR_SOURCES, ASYMMETRIC_FOUR_SOURCES,
     FRACTIONAL_FOUR_SOURCES]
    + _random_integer_sets(20, seed=20261020),
    ids=["three-sources", "four-sources", "symmetric-four-sources",
         "asymmetric-four-sources", "fractional-four-sources"]
    + [f"random-{k}" for k in range(20)],
)
def test_multi_source_sum_matches_direct_oracle(points, weights):
    # the oracle sums the whole set about its centroid under a smooth
    # window, converged far below the returned estimate, which must cover
    # the error on its own, at the default radius and at small ones
    oracle = windowed_direct_sum(points, weights)
    for radius in (60.0, 30.0, 20.0):
        value, estimate = column_difference_sum(points, weights, cutoff_radius=radius)
        assert abs(value - oracle) <= estimate * abs(oracle)


def test_pair_cache_gives_the_same_bits_on_a_hit_a_miss_and_a_moved_copy():
    points, weights = FOUR_SOURCES
    _integer_pair_sums.cache_clear()
    miss = column_difference_sum(points, weights)
    hit = column_difference_sum(points, weights)
    # a cube symmetry (axes permuted, signs flipped), a translation and a
    # new source order
    turned = np.array(points)[:, [2, 0, 1]] * np.array([-1, 1, -1]) + np.array([5, -3, 2])
    moved = column_difference_sum(turned[::-1].tolist(), weights[::-1])
    info = _integer_pair_sums.cache_info()
    assert miss == hit == moved
    assert info.misses == 2  # the six terms have keys (0, 0, 1) and (0, 1, 1)
    assert info.hits == 4 + 2 * 6


def test_fractional_sources_leave_the_pair_cache_alone():
    column_difference_sum(*FOUR_SOURCES)
    before = _integer_pair_sums.cache_info()
    column_difference_sum(
        [(0.5, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)], [1, 1, -1, -1]
    )
    assert _integer_pair_sums.cache_info() == before


def test_pair_cache_is_bounded():
    assert _integer_pair_sums.cache_info().maxsize is not None


def test_quadrupole_at_a_small_radius_raises():
    quadrupole = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(LatticeSumError, match=r"bound \S+ exceeds .*used 9\b"):
        column_difference_sum(
            quadrupole, [1, -1, -1, 1], cutoff_radius=9.0, tolerance=1e-5
        )


def test_tight_tolerance_takes_every_term_to_the_full_radius():
    # the terms' own radii (2.5 |d| / 2 + 20) cannot reach 1e-8; at the
    # cutoff radius the windows can
    loose = column_difference_sum(*FOUR_SOURCES)
    _integer_pair_sums.cache_clear()
    value, estimate = column_difference_sum(*FOUR_SOURCES, tolerance=1e-8)
    assert estimate <= 1e-8
    assert abs(value - loose[0]) <= loose[1] * abs(value)
    # six terms with two keys at their own radii, then again at the cutoff
    assert _integer_pair_sums.cache_info()[:2] == (2 * 4, 2 * 2)
    _integer_pair_sums((0.0, 0.0, 1.0), (48.0, 60.0), 1e-8)
    assert _integer_pair_sums.cache_info().hits == 2 * 4 + 1


@pytest.mark.parametrize(
    "points, weights, error",
    [
        ([(0, 0, 0), (0, 0, np.nan)], [1, -1], ValueError),
        ([(0, 0, 0), (np.inf, 0, 0)], [1, -1], ValueError),
        ([(0, 0, 0), (0, 0, 1)], [np.inf, -np.inf], ValueError),
        ([(0, 0, 0), (0, 0, 1e300)], [1, -1], LatticeSumError),
        ([(-1e308, 0, 0), (1e308, 0, 0)], [1, -1], LatticeSumError),
        ([(0, 0, 0), (0, 0, 1)], [1e-13, -2e-13], ValueError),
    ],
    ids=["nan", "inf", "inf-weights", "huge-separation", "span-beyond-float-range",
         "tiny-weights-not-cancelling"],
)
def test_unusable_inputs_fail_before_the_sum(points, weights, error):
    with pytest.raises(error):
        column_difference_sum(points, weights)


def test_large_weights_cancelling_to_rounding_are_accepted():
    value, _ = column_difference_sum([(0, 0, 0), (0, 0, 3)], [1e6, -1e6 + 1e-9])
    assert value == pytest.approx(1e12 * kappa_sq(3.0).kappa_sq, rel=1e-12)


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
