"""Absolutely convergent sums over the infinite cubic lattice.

The quantity handled here is

    S = sum over l in Z^3 of ( sum_p w_p f_p(l) )^2,   f_p(l) = 1 / (|l - p| + 1)

for a small signed set of source points p (positions in units of the lattice
spacing) whose weights cancel: lattice sites, or one pair on a line parallel
to the z-axis at any real separation (a scalar D of ``kappa_sq``).  Then
(sum_p w_p f_p)^2 equals -1/2 sum_{p,q} w_p w_q (f_p - f_q)^2 at every
lattice point, so after coincident points are merged
S = -sum over p < q of w_p w_q kappa^2(q - p), kappa^2(d) being the pair sum
of (f_p - f_q)^2; only pairs are ever summed.

The summand decays only like 1/r^4 with an O(|d|^2) prefactor, so the
lattice points within a radius R of the pair's midpoint c are summed and
the rest is replaced by the continuum integral of the same integrand.  The
lattice pass works on xy columns within R of c's z-line.  Sorted by
distance to c, the columns inside each radius form a prefix in every plane,
so all radii come from one evaluation of the largest.  When 2c is an
integer vector, as for every integer pair, inversion through c maps the
lattice onto itself and swaps the sources, so plane 2 c_z - z has the
partial sums of plane z: only the planes with z >= c_z are summed, those
with z > c_z counted twice.

A pair of integer points is summed as the pair at the origin and at
|q - p|, its components ordered so that a zero or a repeated one lies in xy
and the odd one out in z.  That moves the lattice points within R of c
with the pair, so the sum is the same, and a turned or moved copy of a pair
gives the same bits.  The columns then depend only on whether c's x and y
are integers or halves and on R, and small caches keep them: for a pair on
the z-axis merged on their distance to c (3 860 distinct columns out of
45 225 at R = 120), otherwise one by one and folded over the pair's mirror
in xy, x -> -x when d_x = 0 and x <-> y when d_x = d_y, which halves them.
Every squared distance to an integer source is an integer m, so f is read
from a table of 1/(sqrt(m) + 1) built once per call with the float
operations of f itself.  A z-parallel pair with a fractional coordinate is
summed where it lies, its columns read from the same cached merged table
and f evaluated at every point.  The continuum part is taken with the pair
on the z-axis at c -+ |d|/2, where the integrand does not depend on phi, so
each spherical shell gets an n-point Gauss-Legendre rule in cos(theta), n
doubling from 8 until two estimates agree; the 8- and 16-point rules are
evaluated in one pass over their concatenated nodes.

A single pair (every ``kappa_sq``) is cut off sharply at R = cutoff_radius:
the tail beyond R is one adaptive Simpson integral under r = R/(1-t)^2, and
the error estimate is the largest relative change when the cutoff is lowered
to several checkpoint radii, all from the same lattice pass, each tail being
the tail beyond R plus the shells in between.  The sharp cutoff makes the
error oscillate with R, so a smaller radius can land where it is as large as
at R; several make that unlikely, but the estimate is sampled, not a proven
bound.

Each pair term of a set with more sources is summed under a smooth window
instead: every lattice point is weighted by a C-infinity step that is 1 up
to R/2 and 0 from R on, and the continuum integral of one minus the window
is added (adaptive Simpson beyond R, a product Gauss-Legendre rule in r and
cos(theta) from R/2 to R).  Where the window falls the summand is smooth, so
the lattice-versus-continuum error falls faster than any power of R.  That
matters because the terms' errors do not cancel the way the set's multipole
moments do: the sharp cutoff on every term left the composed sum less
accurate than a direct sum over the whole set, and its sampled estimate
missed.  A term's radius is 2.5 |d|/2 + 20, or cutoff_radius when that is
smaller, and it is summed again at 0.8 of it; the estimate is the composed
change between the two plus the terms' quadrature budgets.  When that
exceeds the tolerance every term is redone at cutoff_radius.  Such a set
has integer sources, and kappa^2 depends on d only up to the cube's
symmetries, so the terms come from a bounded cache keyed on the sorted
|d_i|, the radii and the tolerance, computed on the pair at the origin and
at the key: a hit and a miss give the same bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import LatticeSumError, QuadratureError, check_positive
from .quadrature import adaptive_simpson

_SPHERE_NODES_START = 8
_SPHERE_NODES_MAX = 512
_CHECKPOINTS = (0.6, 0.7, 0.8, 0.9)  # fractions of the cutoff radius
_WINDOW_CHECK = 0.8  # a windowed term is also summed at this fraction of its radius
_WINDOW_REACH = 20.0  # a windowed term's radius is 2.5 |d| / 2 plus this, at most R
_WINDOW_QUAD_SHARE = 0.01  # windowed tails get this share of a pair's tolerance
MAX_GRID_SIDE = 2048  # ceiling on the 2R + 1 xy columns per row of the core pass
_REACH_STEP = 64  # integer column tables are built to a multiple of this radius


def check_cutoff(cutoff_radius: float, tolerance: float) -> None:
    """Raise ValueError unless the cutoff radius and the tolerance are
    positive and finite and the core pass's xy grid, at most 2R + 1 columns
    on a side, fits within MAX_GRID_SIDE (R <= 1023.5)."""
    check_positive(
        "cutoff_radius and tolerance must be positive and finite",
        cutoff_radius,
        tolerance,
    )
    if 2.0 * cutoff_radius + 1.0 > MAX_GRID_SIDE:
        raise ValueError(
            f"cutoff_radius {cutoff_radius:g} is above the largest usable radius "
            f"{(MAX_GRID_SIDE - 1) / 2:g}: its xy grid would exceed "
            f"{MAX_GRID_SIDE}^2 columns"
        )


def _as_points(points) -> np.ndarray:
    """The sources as an (n, 3) float array: finite lattice sites, or one
    pair on a line parallel to the z-axis; ValueError otherwise."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("source points must be 3-vectors (units of the spacing)")
    if not np.isfinite(pts).all():
        raise ValueError("source points must be finite")
    z_pair = len(pts) == 2 and (pts[0, :2] == pts[1, :2]).all()
    if not (z_pair or (pts == np.round(pts)).all()):
        raise ValueError(
            "source points must be lattice sites, or one pair on a line parallel to the z-axis"
        )
    return pts


def _column_grid(cx: float, cy: float, rmax: float):
    """Integer xy columns of the bounding square about (cx, cy) and their
    squared distances to it, restricted to those within rmax."""
    xs = np.arange(math.ceil(cx - rmax), math.floor(cx + rmax) + 1, dtype=float)
    ys = np.arange(math.ceil(cy - rmax), math.floor(cy + rmax) + 1, dtype=float)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    rho2 = (X - cx) ** 2 + (Y - cy) ** 2
    inside = rho2 <= rmax * rmax
    return X[inside], Y[inside], rho2[inside]


@functools.lru_cache(maxsize=8)
def _axial_columns(fx: float, fy: float, rmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct squared xy distances to a centre with fractional xy part
    (fx, fy), ascending, and how many columns within rmax share each.

    X - cx equals (X - floor(cx)) - fx exactly, so the table is the same
    for every centre with this fractional part.
    """
    _, _, rho2 = _column_grid(fx, fy, rmax)
    rho2, counts = np.unique(rho2, return_counts=True)
    multiplicity = counts.astype(float)
    rho2.flags.writeable = multiplicity.flags.writeable = False  # shared by every caller
    return rho2, multiplicity


@functools.lru_cache(maxsize=4)  # one per parity of the midpoint's x and y
def _integer_columns(fx: float, fy: float, reach: int):
    """Integer xy columns within ``reach`` of the point (fx, fy): their
    offsets X, Y as int32 and their squared distances rho2 to the point,
    ascending in rho2.

    The midpoint of an integer pair has fractional parts fx, fy in
    {0, 1/2}, and the column (X + floor(cx), Y + floor(cy)) lies at the same
    squared distance rho2 from it, exactly.  So one table serves every
    integer pair of that parity whose radius is at most ``reach``; the
    columns within a smaller radius are a prefix.
    """
    X, Y, rho2 = _column_grid(fx, fy, reach)
    order = np.argsort(rho2, kind="stable")
    X, Y, rho2 = X[order].astype(np.int32), Y[order].astype(np.int32), rho2[order]
    for a in (X, Y, rho2):
        a.flags.writeable = False  # shared by every caller
    return X, Y, rho2


def _folded_columns(d, rmax):
    """Columns within rmax of the midpoint of the pair (0, 0, 0), d, for d
    an integer vector in ``_canonical_offset`` order and off the z-axis:
    their squared xy distances rho2 to the midpoint, ascending, their
    multiplicities, and their squared xy distances to each source as ints.

    When d_x = 0 the pair's xy projection is symmetric under x -> -x, and
    when d_x = d_y under x <-> y, so the summand is too: the columns on one
    side of the mirror are kept with multiplicity 2, those on it with 1,
    and the other side is dropped.
    """
    a, b, _ = d
    reach = _REACH_STEP * math.ceil(rmax / _REACH_STEP)
    X, Y, rho2 = _integer_columns(a % 2 / 2, b % 2 / 2, reach)
    n = int(np.searchsorted(rho2, rmax * rmax, side="right"))
    X, Y, rho2 = X[:n], Y[:n], rho2[:n]
    multiplicity = np.ones(n)
    if a == 0 or a == b:
        # the table is symmetric under the mirror: floor(c_x) = 0 when
        # d_x = 0, and floor(c_x) = floor(c_y) when d_x = d_y
        side = X if a == 0 else X - Y
        keep = side >= 0
        multiplicity = np.where(side[keep] > 0, 2.0, 1.0)
        X, Y, rho2 = X[keep], Y[keep], rho2[keep]
    X = X.astype(np.intp) + a // 2
    Y = Y.astype(np.intp) + b // 2
    return rho2, multiplicity, [X * X + Y * Y, (X - a) ** 2 + (Y - b) ** 2]


def _inversion_symmetric(centre) -> bool:
    """True when inversion through a pair's midpoint maps the lattice onto
    itself (2 * centre is an integer vector).  It swaps the two sources, so
    v(2 c - l)^2 = v(l)^2 at every lattice point."""
    twice = 2.0 * centre
    return bool((twice == np.round(twice)).all())


def _canonical_offset(pair) -> tuple[int, int, int] | None:
    """For a pair of integer points, |q - p| permuted so that a zero or a
    repeated component lies in xy and the odd one out in z: every cube
    symmetry and translation of the pair gives the same vector.  None when
    a source is not an integer point."""
    if not (pair == np.round(pair)).all():
        return None
    s0, s1, s2 = sorted(abs(int(v)) for v in (pair[1] - pair[0]).tolist())
    return (s1, s2, s0) if s1 == s2 else (s0, s1, s2)


def _window(s):
    """C-infinity step in s = r / R, for s in (1/2, 1]: it falls from 1 at
    s = 1/2 to 0 at s = 1 as 1 / (1 + exp(1/(1 - t) - 1/t)), t = 2 s - 1
    (the window is 1 below and 0 above)."""
    t = 2.0 * s - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + np.exp(1.0 / (1.0 - t) - 1.0 / t))


def _core_sums(pair, radii, windowed=False) -> list[float]:
    """Sum of (f_p - f_q)^2 over integer points l with |l - c| <= R, c the
    midpoint of the rows p, q of ``pair``, per radius; ``windowed`` weights
    each point by ``_window(|l - c| / R)`` instead.

    ``pair`` is two lattice sites, or, unwindowed only, two points on a line
    parallel to the z-axis (the inputs ``_as_points`` accepts).  ``radii``
    must be ascending.  Each point's summand and its test against R^2 use
    the same float operations as a plain loop over every plane of the
    bounding cube, so the set of points summed is the same.

    A pair of integer points is summed as the pair at the origin and at its
    ``_canonical_offset``: the same lattice points relative to c, so a
    turned or moved copy gives the same bits.  Its columns come from the
    cached ``_axial_columns`` (offset on the z-axis) or, mirror-folded, from
    ``_integer_columns``, with no merge per call; every squared distance to
    a source is an integer m, and f is read from a table of 1/(sqrt(m) + 1)
    built once per call; 4 |l - c|^2 is an integer too, and the window is
    read from a table per radius.  A z-parallel pair with a fractional
    coordinate is summed where it lies, its columns read from
    ``_axial_columns`` and f computed per point.
    """
    r2_limits = np.array([R * R for R in radii])
    r2_inner = r2_limits / 4.0  # where each window starts to fall
    rmax = radii[-1]
    offset = _canonical_offset(pair)
    if offset is None:
        centre = pair.mean(axis=0)
        cx, cy, cz = centre.tolist()
        symmetric = _inversion_symmetric(centre)
        source_z = pair[:, 2].tolist()
        rho2, multiplicity = _axial_columns(cx - math.floor(cx), cy - math.floor(cy), rmax)
        src2 = [rho2, rho2]

        def inverse_distance(s2, dz2):
            d = s2 + dz2
            np.sqrt(d, out=d)
            d += 1.0
            return np.divide(1.0, d, out=d)
    else:
        cz = offset[2] / 2
        symmetric = True
        source_z = [0, offset[2]]
        if offset[:2] == (0, 0):
            rho2, multiplicity = _axial_columns(0.0, 0.0, rmax)
            src2 = [rho2.astype(np.intp)] * 2
        else:
            rho2, multiplicity, src2 = _folded_columns(offset, rmax)
        # |l - p| <= |l - c| + |c - p|, with one spacing to spare
        reach = rmax + math.hypot(*offset) / 2 + 1.0
        table = np.sqrt(np.arange(math.ceil(reach * reach), dtype=float))
        table += 1.0
        np.divide(1.0, table, out=table)

        def inverse_distance(m, dz2):
            return table.take(m + dz2)

        if windowed:
            # 4 r2 is an integer k here, so each radius reads its falling
            # shell R^2/4 < r2 <= R^2 from a table of the same float operations
            lows = [math.floor(r2) for r2 in r2_limits.tolist()]
            windows = [
                _window(np.sqrt(np.arange(low, math.floor(4.0 * r2) + 1) / 4.0) / R)
                for low, r2, R in zip(lows, r2_limits.tolist(), radii)
            ]

            def window(r2, k):
                return windows[k].take((4.0 * r2).astype(np.intp) - lows[k])

    z_first = math.ceil(cz) if symmetric else math.ceil(cz - rmax)
    totals = [0.0 for _ in radii]
    for z in range(z_first, math.floor(cz + rmax) + 1):
        factor = 2.0 if symmetric and z > cz else 1.0
        # rho2 is ascending, so each radius takes a prefix of the columns
        r2 = rho2 + (z - cz) ** 2
        ends = np.searchsorted(r2, r2_limits, side="right").tolist()
        n = ends[-1]
        if n == 0:
            continue
        v, f_q = (inverse_distance(s2[:n], (z - pz) ** 2) for s2, pz in zip(src2, source_z))
        v -= f_q
        v *= v
        v *= multiplicity[:n]
        if windowed:
            firsts = np.searchsorted(r2[:n], r2_inner, side="right").tolist()
            for k, (lo, hi) in enumerate(zip(firsts, ends)):
                falling = v[lo:hi] @ window(r2[lo:hi], k)
                totals[k] += factor * (float(v[:lo].sum()) + float(falling))
            continue
        starts = [0, *ends[:-1]]
        # reduceat reads an empty segment as the element at its start, so
        # those are skipped below; a start at n would be out of range
        segments = np.add.reduceat(v, [min(lo, n - 1) for lo in starts]).tolist()
        partial = 0.0
        for k, (lo, hi) in enumerate(zip(starts, ends)):
            if lo < hi:
                partial += segments[k]
            totals[k] += factor * partial
    return totals


@functools.lru_cache(maxsize=None)
def _sphere_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes cos(theta) and weights of the n-point Gauss-Legendre rule on the
    unit sphere for an integrand that does not depend on phi (the phi
    integral is the factor 2 pi in the weights)."""
    x, wx = np.polynomial.legendre.leggauss(n)
    weights = wx * (2.0 * math.pi)
    x.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return x, weights


@functools.lru_cache(maxsize=1)
def _first_sphere_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes of the first two rules of a shell's doubling, n =
    _SPHERE_NODES_START and 2n, concatenated, and the weights of each."""
    x, w_coarse = _sphere_rule(_SPHERE_NODES_START)
    x_fine, w = _sphere_rule(2 * _SPHERE_NODES_START)
    nodes = np.concatenate([x, x_fine])
    nodes.flags.writeable = False  # shared by every caller
    return nodes, w_coarse, w


def _tails(pair, radii, tol, windowed=False) -> list[float]:
    """Continuum integral of (f_p - f_q)^2 over |u - c| > R for each ascending
    radius R, c the midpoint of the rows p, q of ``pair``, taken with the
    pair on the z-axis at c -+ |q - p| / 2; ``windowed`` gives the integral
    of (1 - _window(|u - c| / R)) (f_p - f_q)^2, the part the windowed core
    sum leaves out, instead.

    The tail beyond the largest radius is integrated to ``tol`` under the
    map r = R/(1-t)^2: the shell decays like 1/r^4, so the mapped integrand
    falls off like 1/sqrt(r) and is continuous at t = 1.  Each smaller
    radius adds the shells between it and the next one up, integrated in r
    with shares of ``tol`` in proportion to their widths, so the shells
    together also get ``tol``.  A shell value at radius r is converged to
    ``scale / r^4``, with scale chosen so that those errors integrate to at
    most the interval's tolerance.  With ``windowed``, each radius instead
    adds the integral from R/2 to the largest radius, by a product
    Gauss-Legendre rule in r and cos(theta) whose n doubles from 8 until two
    estimates agree to ``tol``.
    """
    half = float(np.linalg.norm(pair[1] - pair[0])) / 2
    sq = half * half

    def on_sphere(r: float, x: np.ndarray) -> np.ndarray:
        """(f_p - f_q)^2 at radius r in the directions with cos(theta) = x."""
        proj = half * x
        proj *= -2.0 * r  # -2 r (e . p) for the source at +half
        near = proj + (r * r + sq)  # |r e - p|^2 for the sources at +half
        far = (r * r + sq) - proj  # and at -half
        for d in (near, far):
            np.sqrt(d, out=d)
            d += 1.0
            np.reciprocal(d, out=d)
        near -= far
        near *= near
        return near

    def shell(r: float, scale: float) -> float:
        shell_tol = scale / r**4  # tracks the 1/r^4 decay of the shell
        # the first two rules in one pass over their concatenated nodes
        x, w_coarse, w = _first_sphere_rules()
        n = len(w)
        values = on_sphere(r, x)
        prev, est = float(w_coarse @ values[: n // 2]), float(w @ values[n // 2 :])
        while not abs(est - prev) <= shell_tol:
            if n == _SPHERE_NODES_MAX:
                raise QuadratureError(
                    f"sphere rule at r = {r:g} did not reach {shell_tol:.3e} with "
                    f"{_SPHERE_NODES_MAX} Gauss nodes"
                )
            n *= 2
            x, w = _sphere_rule(n)
            prev, est = est, float(w @ on_sphere(r, x))
        return est

    outer = radii[-1]

    def falling(R: float) -> float:
        # product Gauss-Legendre in r (on [R/2, R] and [R, outer]) and cos(theta)
        panels = [(R / 2, R)] + ([(R, outer)] if R < outer else [])
        n, prev = _SPHERE_NODES_START, None
        while n <= _SPHERE_NODES_MAX:
            x, w = _sphere_rule(n)
            est = 0.0
            for lo, hi in panels:
                r = lo + (hi - lo) / 2 * (x + 1.0)
                wr = w * ((hi - lo) / (4.0 * math.pi)) * r * r  # w carries 2 pi
                if hi == R:
                    wr *= 1.0 - _window(r / R)
                proj = np.outer(-2.0 * half * r, x)
                base = (r * r + sq)[:, None]
                near, far = base + proj, base - proj
                for d in (near, far):
                    np.sqrt(d, out=d)
                    d += 1.0
                    np.reciprocal(d, out=d)
                near -= far
                est += float(wr @ (near * near) @ w)
            if prev is not None and abs(est - prev) <= tol:
                return est
            n, prev = 2 * n, est
        raise QuadratureError(
            f"window tail at R = {R:g} did not reach {tol:.3e} with "
            f"{_SPHERE_NODES_MAX} Gauss nodes"
        )

    def mapped(t: float) -> float:
        if t >= 1.0:
            return 0.0
        r = outer / (1.0 - t) ** 2
        jac = 2.0 * outer / (1.0 - t) ** 3
        return r * r * shell(r, tol * outer) * jac

    tail = adaptive_simpson(
        mapped, 0.0, 1.0, tol, points=(0.25, 0.5, 0.75), noise_floor=2.0 * tol
    )
    if windowed:
        return [tail + falling(R) for R in radii]
    tails = [tail]
    for lo, hi in zip(radii[-2::-1], radii[:0:-1]):
        share = tol * (hi - lo) / (outer - radii[0])
        scale = tol * lo * hi / (outer - radii[0])  # r^2 scale / r^4 integrates to share

        def radial(r: float, scale=scale) -> float:
            return r * r * shell(r, scale)

        tail += adaptive_simpson(radial, lo, hi, share, noise_floor=scale / (lo * lo))
        tails.append(tail)
    return tails[::-1]


def _pair_sums(pair, radii, tolerance, windowed=False):
    """kappa^2 of the two rows of ``pair`` with the cutoff (or the window)
    at each radius about their midpoint, core sum plus continuum tail, and
    the absolute error budget of its tail integrals."""
    half = float(np.linalg.norm(pair[1] - pair[0])) / 2
    quad_tol = 0.02 * tolerance * 4.0 * max(half, 1.0)  # 4 = (sum |w|)^2
    if windowed:
        quad_tol *= _WINDOW_QUAD_SHARE
    cores = _core_sums(pair, radii, windowed)
    tails = _tails(pair, radii, quad_tol, windowed)
    return tuple(core + tail for core, tail in zip(cores, tails)), 2.0 * quad_tol


@functools.lru_cache(maxsize=256)  # a 7 x 7 x 7 block has 83 integer pair keys
def _integer_pair_sums(key: tuple[float, ...], radii: tuple[float, ...], tolerance):
    """Windowed ``_pair_sums`` of every integer pair whose |d_i|, sorted,
    are ``key``, computed on the pair at the origin and at ``key``."""
    return _pair_sums(np.array([(0.0, 0.0, 0.0), key]), radii, tolerance, True)


def _windowed_sum(sources, cutoff_radius, tolerance, reach):
    """(value, relative estimate, whether a radius was shortened) of
    -sum over p < q of w_p w_q kappa^2(q - p) from windowed pair terms, each
    at radius R = cutoff_radius, or with ``reach`` at
    2.5 |q - p| / 2 + _WINDOW_REACH when that is smaller."""
    terms = []
    shortened = False
    for i, (p, wp) in enumerate(sources):
        for q, wq in sources[i + 1 :]:
            half = float(np.linalg.norm(q - p)) / 2
            radius = cutoff_radius
            if reach and 2.5 * half + _WINDOW_REACH < radius:
                radius, shortened = 2.5 * half + _WINDOW_REACH, True
            # both windows must start to fall outside the sources
            if half + 1.0 > _WINDOW_CHECK * radius / 2:
                raise LatticeSumError(
                    f"cutoff_radius {cutoff_radius:g} too small for sources "
                    f"{2 * half:g} spacings apart; raise the radius"
                )
            key = tuple(sorted(np.abs(q - p).tolist()))
            sums, budget = _integer_pair_sums(key, (_WINDOW_CHECK * radius, radius), tolerance)
            terms.append((-wp * wq, sums, budget))
    # one fixed order, so a moved or turned copy of a set gives the same bits
    terms.sort()
    check, value = (sum(c * sums[k] for c, sums, _ in terms) for k in range(2))
    quadrature = sum(abs(c) * budget for c, _, budget in terms)
    bound = (abs(value - check) + quadrature) / max(abs(value), 1e-300)
    return value, bound, shortened


def column_difference_sum(
    points,
    weights,
    *,
    cutoff_radius: float = 60.0,
    tolerance: float = 1e-3,
) -> tuple[float, float]:
    """Evaluate S = -sum over p < q of w_p w_q kappa^2(q - p) (module
    docstring) with an estimate of its relative error.

    Returns ``(value, relative_bound)``.  The points must be lattice sites
    (integer 3-vectors), or exactly two points on a line parallel to the
    z-axis, which may lie anywhere.  A copy of a set of integer sources
    turned by a symmetry of the cube or moved by an integer vector gives the
    same bits.  For a single pair the estimate is the largest relative
    change when the cutoff is lowered to 0.6, 0.7, 0.8 and 0.9 *
    cutoff_radius (none below the sources' radius about their centroid plus
    6); it is sampled, not proven.  For more sources each pair term is
    windowed at its own radius (at most cutoff_radius), and the estimate is
    the composed change from 0.8 of those radii plus the quadrature budgets
    of the terms' tails, each weighted by |w_p w_q|.  Those terms come from
    a cache of at most 256 entries keyed on the sorted |d|, the radii and
    ``tolerance``.  Raises LatticeSumError when the estimate exceeds
    ``tolerance`` or the sources do not fit well inside the radius (every
    window must start to fall at least one spacing outside its pair), and
    ValueError for a radius or tolerance that ``check_cutoff`` rejects
    (checked first), for non-finite points, points that are neither lattice
    sites nor one z-parallel pair, non-finite weights, and weights that do
    not cancel to 1e-12 of their absolute sum.
    """
    check_cutoff(cutoff_radius, tolerance)
    pts = _as_points(points)
    wts = np.asarray(weights, dtype=float)
    if wts.shape != (len(pts),):
        raise ValueError("need one weight per source point")
    if not np.isfinite(wts).all():
        raise ValueError("weights must be finite")
    if abs(float(wts.sum())) > 1e-12 * float(np.abs(wts).sum()):
        raise ValueError("weights must cancel; the sum diverges otherwise")

    def too_small(span: float) -> LatticeSumError:
        return LatticeSumError(
            f"cutoff_radius {cutoff_radius:g} too small for sources spanning "
            f"{span:g} spacings; raise the radius"
        )

    # Half the widest coordinate span cannot exceed the source radius, and
    # halving first keeps it finite, so this rejects what the check below
    # would before a norm can overflow.
    half_span = float(np.max(pts.max(axis=0) / 2 - pts.min(axis=0) / 2))
    if half_span + 6.0 > cutoff_radius - 2.0:
        raise too_small(2 * half_span)
    centre = pts.mean(axis=0)
    src_radius = float(np.max(np.linalg.norm(pts - centre, axis=1)))
    checkpoints = sorted(
        {max(src_radius + 6.0, f * cutoff_radius) for f in _CHECKPOINTS}
    )
    if checkpoints[0] > cutoff_radius - 2.0:
        raise too_small(2 * src_radius)
    radii = (*checkpoints, cutoff_radius)

    merged: dict[tuple, float] = {}
    for p, w in zip(map(tuple, pts.tolist()), wts.tolist()):
        merged[p] = merged.get(p, 0.0) + w
    sources = [(np.array(p), w) for p, w in merged.items() if w != 0.0]
    if len(sources) < 2:
        return 0.0, 0.0
    if len(sources) == 2:
        (p, wp), (q, wq) = sources
        sums, _ = _pair_sums(np.array([p, q]), radii, tolerance)
        *earlier, value = (-wp * wq * v for v in sums)
        bound = max(abs(value - v) for v in earlier) / max(abs(value), 1e-300)
    else:
        value, bound, shortened = _windowed_sum(sources, cutoff_radius, tolerance, True)
        if bound > tolerance and shortened:
            value, bound, _ = _windowed_sum(sources, cutoff_radius, tolerance, False)
    if bound > tolerance:
        raise LatticeSumError(
            f"lattice-sum truncation bound {bound:.3e} exceeds tolerance "
            f"{tolerance:g}; raise cutoff_radius (used {cutoff_radius:g})"
        )
    return value, bound
