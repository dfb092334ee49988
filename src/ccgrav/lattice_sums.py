"""Absolutely convergent sums over the infinite cubic lattice.

The quantity handled here is

    S = sum over l in Z^3 of ( sum_p w_p / (|l - p| + 1) )^2

for a small signed set of source points p (positions in units of the lattice
spacing) whose weights cancel.  The summand decays only like 1/r^4 with an
O(|D|^2) prefactor, so plain truncation converges far too slowly; instead the
lattice points within a cutoff radius R of the sources' centroid are summed
and the rest is replaced by the continuum integral of the same integrand
over |u| > R.

The lattice pass works on xy columns within R of the centre's z-line.  A
column's summand in any plane depends only on its squared xy distances to
the centre and to each source, so columns that agree on all of them are
evaluated once and weighted by their count (a pair on a lattice axis at
R = 120 has 3 860 distinct columns out of 45 225).  Sorted by
distance to the centre, the columns inside each radius form a prefix in
every plane, so all radii come from one evaluation of the largest.

One rule computes that continuum tail for every source set.  The sources are
rotated so that the z-axis points at the one farthest from the centroid.
Each spherical shell is integrated by an n-point Gauss-Legendre rule in
cos(theta) times a 2n-point trapezoid rule in phi, with n doubling from 8
until two estimates agree; the radial integral is adaptive Simpson under the
map r = R/(1-t)^2.

The lattice-versus-continuum discrepancy beyond R is estimated by repeating
the evaluation at several smaller radii, all from one pass over the lattice,
and reported as the largest relative change.  The sharp cutoff makes that
discrepancy oscillate with R, so a single smaller radius can land where it
is as large as at R; several make that unlikely, but the estimate is still
not a proven bound.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import LatticeSumError, QuadratureError
from .quadrature import adaptive_simpson

_SPHERE_NODES_START = 8
_SPHERE_NODES_MAX = 512
_CHECKPOINTS = (0.6, 0.7, 0.8, 0.9)  # fractions of the cutoff radius


def _as_points(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("source points must be 3-vectors (units of the spacing)")
    if not np.isfinite(pts).all():
        raise ValueError("source points must be finite")
    return pts


def _core_sums(pts, weights, centre, radii) -> list[float]:
    """Sum of v(l)^2 over integer points with |l - centre| <= R, per radius.

    ``radii`` must be ascending.  Each point's summand and its test against
    R^2 use the same float operations as a plain loop over every plane of
    the bounding cube, so the set of points summed is the same.
    """
    r2_limits = np.array([R * R for R in radii])
    rmax = radii[-1]
    cx, cy, cz = centre
    xs = np.arange(math.ceil(cx - rmax), math.floor(cx + rmax) + 1, dtype=float)
    ys = np.arange(math.ceil(cy - rmax), math.floor(cy + rmax) + 1, dtype=float)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    rho2 = (X - cx) ** 2 + (Y - cy) ** 2
    inside = rho2 <= r2_limits[-1]
    X, Y, rho2 = X[inside], Y[inside], rho2[inside]
    # A column's summands in every plane follow from its squared xy distances
    # to the centre and to each source; columns that agree on all of them are
    # merged, sorted by the distance to the centre.
    keys = np.array([rho2] + [(X - p[0]) ** 2 + (Y - p[1]) ** 2 for p in pts])
    keys = keys[:, np.lexsort(keys[::-1])]
    first = np.ones(keys.shape[1], dtype=bool)
    first[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    starts = np.flatnonzero(first)
    multiplicity = np.diff(starts, append=keys.shape[1]).astype(float)
    rho2, *src2 = keys[:, starts]

    totals = [0.0 for _ in radii]
    for z in range(math.ceil(cz - rmax), math.floor(cz + rmax) + 1):
        # rho2 is ascending, so each radius takes a prefix of the columns
        ends = np.searchsorted(rho2 + (z - cz) ** 2, r2_limits, side="right")
        n = ends[-1]
        v = np.zeros(n)
        for s2, p, w in zip(src2, pts, weights):
            v += w / (np.sqrt(s2[:n] + (z - p[2]) ** 2) + 1.0)
        v2 = v * v * multiplicity[:n]
        partial = 0.0
        for k, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
            partial += float(v2[lo:hi].sum())
            totals[k] += partial
    return totals


@functools.lru_cache(maxsize=None)
def _sphere_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (3, 2n^2) and weights of the product rule on the unit
    sphere: n-point Gauss-Legendre in cos(theta) times the 2n-point
    trapezoid in phi."""
    x, wx = np.polynomial.legendre.leggauss(n)
    phi = np.arange(2 * n) * (math.pi / n)
    s = np.sqrt(1.0 - x * x)
    dirs = np.array(
        [
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.repeat(x, 2 * n),
        ]
    )
    weights = np.repeat(wx * (math.pi / n), 2 * n)
    dirs.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return dirs, weights


def _frame(rel: np.ndarray) -> np.ndarray:
    """Rotate centred source positions so the z-axis points at the farthest.

    The second axis is a cross product with a coordinate axis, so a set lying
    along any lattice axis lands on the z-axis without rounding.
    """
    far = rel[np.argmax(np.linalg.norm(rel, axis=1))]
    norm = float(np.linalg.norm(far))
    if norm == 0.0:
        return rel
    e3 = far / norm
    e1 = np.cross(np.eye(3)[np.argmin(np.abs(e3))], e3)
    e1 /= np.linalg.norm(e1)
    return rel @ np.array([e1, np.cross(e3, e1), e3]).T


def _radial_tail(shell, radius, tol):
    """Integrate r^2 shell(r) from radius to infinity.

    shell decays like 1/r^4, so the mapped integrand under r = R/(1-t)^2
    falls off like 1/sqrt(r) and is continuous at t = 1.
    """

    def radial(t: float) -> float:
        if t >= 1.0:
            return 0.0
        r = radius / (1.0 - t) ** 2
        jac = 2.0 * radius / (1.0 - t) ** 3
        return r * r * shell(r) * jac

    return adaptive_simpson(
        radial, 0.0, 1.0, tol, points=(0.25, 0.5, 0.75), noise_floor=2.0 * tol
    )


def _tail(pts, weights, centre, radius, tol):
    """Continuum integral of v^2 over |u - centre| > radius, any source set."""
    rel = _frame(pts - centre)
    sq = (rel * rel).sum(axis=1)[:, None]

    def on_sphere(r: float, n: int) -> float:
        dirs, w = _sphere_rule(n)
        d = rel @ dirs  # (sources, nodes): projections on each direction
        d *= -2.0 * r
        d += r * r + sq  # |r e - p|^2
        np.sqrt(d, out=d)
        d += 1.0
        v = weights @ np.reciprocal(d, out=d)
        return float(w @ (v * v))

    def shell(r: float) -> float:
        shell_tol = tol * radius / r**4  # tracks the 1/r^4 decay of the shell
        n = _SPHERE_NODES_START
        prev = on_sphere(r, n)
        while n < _SPHERE_NODES_MAX:
            n *= 2
            est = on_sphere(r, n)
            if abs(est - prev) <= shell_tol:
                return est
            prev = est
        raise QuadratureError(
            f"sphere rule at r = {r:g} did not reach {shell_tol:.3e} with "
            f"{_SPHERE_NODES_MAX} Gauss nodes"
        )

    return _radial_tail(shell, radius, tol)


def column_difference_sum(
    points,
    weights,
    *,
    cutoff_radius: float = 60.0,
    tolerance: float = 1e-3,
) -> tuple[float, float]:
    """Evaluate S (module docstring) with an estimate of its truncation error.

    Returns ``(value, relative_bound)``.  The estimate is the largest relative
    change between the full evaluation and the checkpoint evaluations at
    0.6, 0.7, 0.8 and 0.9 * cutoff_radius (none closer than 6 spacings to a
    source); it is sampled, not proven.  Raises LatticeSumError when it
    exceeds ``tolerance`` or the sources do not fit well inside the radius,
    and ValueError for non-finite points or weights.
    """
    pts = _as_points(points)
    wts = np.asarray(weights, dtype=float)
    if wts.shape != (len(pts),):
        raise ValueError("need one weight per source point")
    if not np.isfinite(wts).all():
        raise ValueError("weights must be finite")
    if abs(float(wts.sum())) > 1e-12:
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

    scale = max(float(np.abs(wts).sum()) ** 2, 1.0)
    quad_tol = 0.02 * tolerance * scale * max(src_radius, 1.0)
    radii = checkpoints + [cutoff_radius]
    cores = _core_sums(pts, wts, centre, radii)
    *earlier, value = [
        core + _tail(pts, wts, centre, r, quad_tol) for core, r in zip(cores, radii)
    ]
    bound = max(abs(value - v) for v in earlier) / max(abs(value), 1e-300)
    if bound > tolerance:
        raise LatticeSumError(
            f"lattice-sum truncation bound {bound:.3e} exceeds tolerance "
            f"{tolerance:g}; raise cutoff_radius (used {cutoff_radius:g})"
        )
    return value, bound
