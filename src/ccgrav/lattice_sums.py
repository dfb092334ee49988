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
every plane, so all radii come from one evaluation of the largest.  When
every source lies on the centre's z-line (every pair placed along an axis)
the merged table depends only on the fractional xy part of the centre and
on R, and a small cache keeps it across calls; other source sets, whose
placements rarely repeat, build theirs per call.

Inversion through the centre c maps plane z onto plane 2 c_z - z with the
same partial sum at every radius whenever 2c is an integer vector and the
inversion maps the weighted sources onto plus or minus themselves, as it
does for every integer pair.  Such sets are summed over the planes with
z >= c_z only, the planes with z > c_z counted twice.

One rule computes the continuum tail for every source set.  The sources are
rotated so that the z-axis points at the one farthest from the centroid.
Each spherical shell is integrated by an n-point Gauss-Legendre rule in
cos(theta) times a 2n-point trapezoid rule in phi, with n doubling from 8
until two estimates agree; when every rotated source lies on the z-axis the
integrand does not depend on phi and the trapezoid collapses to one node of
weight 2 pi.  The tail beyond R is one adaptive Simpson integral under the
map r = R/(1-t)^2.

The lattice-versus-continuum discrepancy beyond R is estimated by repeating
the evaluation at several smaller checkpoint radii, all from one pass over
the lattice; each checkpoint's tail is the tail beyond R plus the continuum
integrals over the shells between it and R.  The estimate is the largest
relative change.  The sharp cutoff makes that discrepancy oscillate with R,
so a single smaller radius can land where it is as large as at R; several
make that unlikely, but the estimate is still not a proven bound.
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
MAX_GRID_SIDE = 2048  # ceiling on the 2R + 1 xy columns per row of the core pass


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
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("source points must be 3-vectors (units of the spacing)")
    if not np.isfinite(pts).all():
        raise ValueError("source points must be finite")
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


def _merged_columns(pts, centre, rmax):
    """Columns within rmax merged on their squared xy distances to the
    centre and to each source, sorted by the distance to the centre."""
    X, Y, rho2 = _column_grid(centre[0], centre[1], rmax)
    keys = np.array([rho2] + [(X - p[0]) ** 2 + (Y - p[1]) ** 2 for p in pts])
    keys = keys[:, np.lexsort(keys[::-1])]
    first = np.ones(keys.shape[1], dtype=bool)
    first[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    starts = np.flatnonzero(first)
    multiplicity = np.diff(starts, append=keys.shape[1]).astype(float)
    rho2, *src2 = keys[:, starts]
    return rho2, multiplicity, src2


def _inversion_symmetric(pts, weights, centre) -> bool:
    """True when inversion through the centre maps the lattice onto itself
    (2 * centre is an integer vector) and the weighted sources onto plus or
    minus themselves, so v(2 c - l)^2 = v(l)^2 at every lattice point."""
    twice = 2.0 * centre
    if not (twice == np.round(twice)).all():
        return False
    merged: dict[tuple, float] = {}
    for p, w in zip(pts.tolist(), weights.tolist()):
        merged[tuple(p)] = merged.get(tuple(p), 0.0) + w
    image = {tuple((twice - p).tolist()): w for p, w in merged.items()}
    return any(
        image.keys() == merged.keys()
        and all(image[p] == sign * w for p, w in merged.items())
        for sign in (1.0, -1.0)
    )


def _core_sums(pts, weights, centre, radii) -> list[float]:
    """Sum of v(l)^2 over integer points with |l - centre| <= R, per radius.

    ``radii`` must be ascending.  Each point's summand and its test against
    R^2 use the same float operations as a plain loop over every plane of
    the bounding cube, so the set of points summed is the same.
    """
    r2_limits = np.array([R * R for R in radii])
    rmax = radii[-1]
    cx, cy, cz = centre
    if (pts[:, :2] == centre[:2]).all():
        rho2, multiplicity = _axial_columns(
            float(cx - math.floor(cx)), float(cy - math.floor(cy)), rmax
        )
        src2 = [rho2] * len(pts)
    else:
        rho2, multiplicity, src2 = _merged_columns(pts, centre, rmax)
    symmetric = _inversion_symmetric(pts, weights, centre)
    z_first = math.ceil(cz) if symmetric else math.ceil(cz - rmax)
    source_z = pts[:, 2].tolist()

    totals = [0.0 for _ in radii]
    for z in range(z_first, math.floor(cz + rmax) + 1):
        factor = 2.0 if symmetric and z > cz else 1.0
        # rho2 is ascending, so each radius takes a prefix of the columns
        ends = np.searchsorted(rho2 + (z - cz) ** 2, r2_limits, side="right").tolist()
        n = ends[-1]
        if n == 0:
            continue
        v = None
        for s2, pz, w in zip(src2, source_z, weights):
            d = s2[:n] + (z - pz) ** 2
            np.sqrt(d, out=d)
            d += 1.0
            np.divide(w, d, out=d)
            if v is None:
                v = d
            else:
                v += d
        v *= v
        v *= multiplicity[:n]
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
def _sphere_rule(n: int, axial: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (3, nodes) and weights of the product rule on the unit
    sphere: n-point Gauss-Legendre in cos(theta) times the 2n-point
    trapezoid in phi, or for an integrand that does not depend on phi
    (``axial``) one phi node of weight 2 pi."""
    x, wx = np.polynomial.legendre.leggauss(n)
    phi_nodes = 1 if axial else 2 * n
    phi = np.arange(phi_nodes) * (2.0 * math.pi / phi_nodes)
    s = np.sqrt(1.0 - x * x)
    dirs = np.array(
        [
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.repeat(x, phi_nodes),
        ]
    )
    weights = np.repeat(wx * (2.0 * math.pi / phi_nodes), phi_nodes)
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


def _tails(pts, weights, centre, radii, tol) -> list[float]:
    """Continuum integral of v^2 over |u - centre| > R for each ascending
    radius R, any source set.

    The tail beyond the largest radius is integrated to ``tol`` under the
    map r = R/(1-t)^2: the shell decays like 1/r^4, so the mapped integrand
    falls off like 1/sqrt(r) and is continuous at t = 1.  Each smaller
    radius adds the shells between it and the next one up, integrated in r
    with shares of ``tol`` in proportion to their widths, so the shells
    together also get ``tol``.  A shell value at radius r is converged to
    ``scale / r^4``, with scale chosen so that those errors integrate to at
    most the interval's tolerance.
    """
    rel = _frame(pts - centre)
    sq = (rel * rel).sum(axis=1)[:, None]
    axial = not rel[:, :2].any()

    def on_sphere(r: float, n: int) -> float:
        dirs, w = _sphere_rule(n, axial)
        d = rel @ dirs  # (sources, nodes): projections on each direction
        d *= -2.0 * r
        d += r * r + sq  # |r e - p|^2
        np.sqrt(d, out=d)
        d += 1.0
        v = weights @ np.reciprocal(d, out=d)
        return float(w @ (v * v))

    def shell(r: float, scale: float) -> float:
        shell_tol = scale / r**4  # tracks the 1/r^4 decay of the shell
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

    outer = radii[-1]

    def mapped(t: float) -> float:
        if t >= 1.0:
            return 0.0
        r = outer / (1.0 - t) ** 2
        jac = 2.0 * outer / (1.0 - t) ** 3
        return r * r * shell(r, tol * outer) * jac

    tail = adaptive_simpson(
        mapped, 0.0, 1.0, tol, points=(0.25, 0.5, 0.75), noise_floor=2.0 * tol
    )
    tails = [tail]
    for lo, hi in zip(radii[-2::-1], radii[:0:-1]):
        share = tol * (hi - lo) / (outer - radii[0])
        scale = tol * lo * hi / (outer - radii[0])  # r^2 scale / r^4 integrates to share

        def radial(r: float, scale=scale) -> float:
            return r * r * shell(r, scale)

        tail += adaptive_simpson(radial, lo, hi, share, noise_floor=scale / (lo * lo))
        tails.append(tail)
    return tails[::-1]


def column_difference_sum(
    points,
    weights,
    *,
    cutoff_radius: float = 60.0,
    tolerance: float = 1e-3,
) -> tuple[float, float]:
    """Evaluate S (module docstring) with an estimate of its truncation error.

    Returns ``(value, relative_bound)``.  The estimate is the largest relative
    gap between the lattice sum and the continuum integral over a checkpoint
    shell: the largest relative change between the full evaluation and the
    evaluations with the cutoff lowered to 0.6, 0.7, 0.8 and
    0.9 * cutoff_radius (none closer than 6 spacings to a source).  It is
    sampled, not proven.  Raises LatticeSumError when it exceeds
    ``tolerance`` or the sources do not fit well inside the radius, and
    ValueError for non-finite points or weights and for a radius or
    tolerance that ``check_cutoff`` rejects.
    """
    check_cutoff(cutoff_radius, tolerance)
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
    tails = _tails(pts, wts, centre, radii, quad_tol)
    *earlier, value = [core + tail for core, tail in zip(cores, tails)]
    bound = max(abs(value - v) for v in earlier) / max(abs(value), 1e-300)
    if bound > tolerance:
        raise LatticeSumError(
            f"lattice-sum truncation bound {bound:.3e} exceeds tolerance "
            f"{tolerance:g}; raise cutoff_radius (used {cutoff_radius:g})"
        )
    return value, bound
