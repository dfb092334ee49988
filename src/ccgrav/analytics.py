"""Dephasing frequencies, their continuum approximation, and heating estimates.

The central object is the squared dephasing frequency kappa^2 for a
coherence between two sites separated by D spacings: a lattice sum of
squared coupling-column differences that grows linearly in D.  It is
computed as a truncated shell sum with a continuum tail correction and
cross-checked against the dimensionless integral ``integral_I`` that
approximates it at large D.  That integral over all of space has an axis of
symmetry and two centres, the sites; in two-centre (bipolar) coordinates one
of its two remaining integrals is elementary, so it is computed as a
one-dimensional integral of artanh and rational terms.  It exceeds the
closed-form bound (pi^2 / 2) D from D = 5.8968 on, and grows like
4 pi D - 16 pi ln D + C with C = 75.3982.

Rate formulas here follow the convention of the noise generator: a
measurement of strength xi dephases at xi + kappa^2 / (2 xi), minimised at
xi = kappa / sqrt(2) where the rate is sqrt(2) kappa.  The SI-facing
order-of-magnitude estimates (minimum dephasing, heating) carry a prefactor
of exactly one, documented as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .errors import QuadratureError, as_index, check_positive
from .lattice import HBAR, CouplingKernel, LatticeSpec, feedback_coupling
from .lattice_sums import check_cutoff, column_difference_sum
from .quadrature import adaptive_simpson

DEFAULT_CUTOFF_RADIUS = 60.0
DEFAULT_TOLERANCE = 1e-3
MIN_REL_TOL = 1e-11  # the tightest rel_tol integral_I accepts


@dataclass(frozen=True)
class KappaResult:
    """Converged lattice sum for a squared dephasing frequency.

    ``tail_bound`` estimates the relative truncation error left after the
    continuum tail correction: the largest relative gap between the lattice
    sum and the continuum integral over a checkpoint shell, that is the
    largest relative change when the cutoff is lowered to the checkpoint
    radii of ``column_difference_sum``.  It is a sampled estimate, not a
    proven bound, and is below ``tolerance`` whenever the sum succeeded.
    From |d| >= 1.8 R - 12 (D >= 96 at R = 60) the checkpoints collapse into
    one radius and the estimate can swing across the tolerance between
    neighbouring separations: at R = 60, ``kappa_sq(99 - 1e-9)`` raises
    LatticeSumError (estimate 1.018e-3) while ``kappa_sq(99)`` returns
    8.9e-4.  ROADMAP item 21 replaces this estimate.
    """

    kappa_sq: float
    separation: float
    radius: float
    tail_bound: float
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "kappa_sq": self.kappa_sq,
            "separation": self.separation,
            "radius": self.radius,
            "tail_bound": self.tail_bound,
            "tolerance": self.tolerance,
        }


def kappa_sq(
    separation,
    *,
    scale: float = 1.0,
    spacing: float = 1.0,
    cutoff_radius: float = DEFAULT_CUTOFF_RADIUS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> KappaResult:
    """Squared dephasing frequency for two sites separated by ``separation``.

    ``separation`` is either a signed scalar D, any finite real (the pair is
    placed D spacings apart along the z-axis), or an integer displacement
    3-vector, both in units of the spacing.  The sum runs over the infinite
    cubic lattice, truncated at ``cutoff_radius`` with a continuum tail
    correction; the prefactor is (scale/spacing)^2 with scale = G m^2 /
    (2 hbar).  ValueError for a radius or tolerance that
    ``lattice_sums.check_cutoff`` rejects, a non-finite separation, and a
    3-vector with an entry that is not an integer (``errors.as_index``).
    """
    check_cutoff(cutoff_radius, tolerance)
    if np.ndim(separation) == 0:
        disp = np.array([0.0, 0.0, abs(float(separation))])
    else:
        disp = np.asarray(separation, dtype=float)
        if disp.shape != (3,):
            raise ValueError("separation must be a scalar or a 3-vector")
        disp = np.array([as_index(v, "separation entry") for v in disp.tolist()], dtype=float)
    check_positive("separation must be finite", *np.abs(disp), allow_zero=True)
    dist = math.hypot(*disp)
    prefactor = (scale / spacing) ** 2
    if dist == 0.0:
        return KappaResult(0.0, 0.0, cutoff_radius, 0.0, tolerance)
    value, bound = column_difference_sum(
        [(0.0, 0.0, 0.0), tuple(disp)],
        [1.0, -1.0],
        cutoff_radius=cutoff_radius,
        tolerance=tolerance,
    )
    return KappaResult(prefactor * value, dist, cutoff_radius, bound, tolerance)


_SERIES_EDGE = 0.3  # below this x the series for A(x) and B(x) are used


def _two_centre_integrand(y: float, D: float) -> float:
    """Integrand j(y) of I(D) = 8 pi D * integral of j dy, y = ln r and
    r = (s + 2 - D) / D, in the notation of ``integral_I``.

    j = [a A(x) - (2 (s + 1) / a) B(x)] r / D with x = D / a = 1 / (1 + r),
    written as (1 - x) [A/x^2 - (2/a)(1 - 1/a) B/x^2] so that nothing
    overflows for large r or underflows for small D.
    """
    # x and 1 - x from r = e^y without forming 1 - x by subtraction
    if y > 0.0:
        t = math.exp(-y)
        x, omx = t / (1.0 + t), 1.0 / (1.0 + t)
    else:
        r = math.exp(y)
        x, omx = 1.0 / (1.0 + r), r / (1.0 + r)
    x2 = x * x
    if x < _SERIES_EDGE:
        # A/x^2 = sum x^(2k-1)/(2k+1), B/x^2 = sum 2k x^(2k-1)/(2k+1), k >= 1
        power, k = x, 1
        a_term = b_term = 0.0
        while True:
            term = power / (2 * k + 1)
            a_term += term
            b_term += 2 * k * term
            if term <= 1e-17 * a_term:
                break
            power *= x2
            k += 1
    else:
        artanh = 0.5 * math.log((2.0 - omx) / omx)
        a_term = (artanh - x) / x2
        b_term = (x / (omx * (2.0 - omx)) - artanh) / x2
    inv_a = x / D
    return omx * (a_term - 2.0 * inv_a * (1.0 - inv_a) * b_term)


def integral_I(separation: float, *, rel_tol: float = 1e-3) -> float:
    """Continuum approximation of the kappa^2 lattice sum, dimensionless.

    I(D) is the integral over all u of (f(|u|) - f(|u - D|))^2 with
    f(r) = 1 / (r + 1).  In two-centre coordinates r1 = |u|, r2 = |u - D|
    the volume element is (2 pi / D) r1 r2 dr1 dr2 on |r1 - r2| <= D <=
    r1 + r2; with s = r1 + r2, t = r2 - r1 and a = s + 2 the integral over t
    is elementary and

        I(D) = (8 pi / D) * integral from D to infinity of
               [a A(D/a) - (2 (s + 1) / a) B(D/a)] ds,
        A(x) = artanh x - x,    B(x) = x / (1 - x^2) - artanh x.

    The remaining integral is taken by adaptive Simpson in y = ln r,
    r = (s + 2 - D) / D, from ln(2/D) to 60 past max(ln(2/D), 0), where the
    dropped tail is below 1e-25 relative.  Converged when tightening the
    tolerance by 4x moves the result by less than ``rel_tol``; raises
    QuadratureError otherwise, and OverflowError when I(D) exceeds the
    float range (from D of about 1.4e307 on).  ``rel_tol`` below
    ``MIN_REL_TOL`` = 1e-11 raises ValueError: 1e-11 converges from D = 1e-300
    to 1.4e307, tighter targets fall below the rounding of the integrand.
    """
    D = float(separation)
    check_positive("separation must be finite and nonnegative", D, allow_zero=True)
    check_positive("rel_tol must be positive and finite", rel_tol)
    if rel_tol < MIN_REL_TOL:
        raise ValueError(f"rel_tol must be at least {MIN_REL_TOL:g}, got {rel_tol:g}")
    if D == 0.0:
        return 0.0

    lo = math.log(2.0) - math.log(D)
    hi = max(lo, 0.0) + 60.0
    # r = 1 is s = 2D - 2; lo + 1 and lo + 3 (s + 2 - D = 2e and 2e^3)
    # split the structure near s = D
    marks = [y for y in (0.0, lo + 1.0, lo + 3.0) if lo < y < hi]

    def evaluate(tol: float) -> float:
        integral = adaptive_simpson(
            lambda y: _two_centre_integrand(y, D), lo, hi, tol, points=marks
        )
        value = D * (8.0 * math.pi * integral)  # 8 pi D alone overflows first
        if not math.isfinite(value):
            raise OverflowError(
                f"I(D) overflows the float range at separation {D:g} (it grows "
                f"like 4 pi D)"
            )
        return value

    # the size of I / (8 pi D): D / 18 as D -> 0, above pi / 16 from D* on
    tol = 0.2 * rel_tol * min(D / 18.0, math.pi / 16.0)
    previous = evaluate(tol)
    for _ in range(2):
        tol /= 4.0
        current = evaluate(tol)
        if abs(current - previous) <= rel_tol * abs(current):
            return current
        previous = current
    raise QuadratureError(
        f"integral did not converge to {rel_tol:g} relative at separation {D:g}"
    )


def asymptotic_lower_bound(separation: float) -> float:
    """The linear bound (pi^2 / 2) * D on the dimensionless integral.

    It holds from D* = 5.8968 on (the root of I(D) = (pi^2/2) D, found with
    mpmath on the two-centre form of ``integral_I``) and fails below it:
    I(1) = 1.311 against 4.935.  It is returned for every D, since the
    ``integral`` command reports it next to each value.  At large D,
    I(D) - (4 pi D - 16 pi ln D) tends to 75.3982, which is 24 pi to 7 digits.
    """
    return 0.5 * math.pi**2 * float(separation)


def noise_rate(xi, sum_c_sq, sum_w_sq):
    """Back-action plus feedback noise rate (xi/2) sum_l c_l^2 + sum_l w_l^2 / (2 xi),
    c_l and w_l the changes of site l's occupation and feedback; elementwise."""
    return 0.5 * xi * sum_c_sq + sum_w_sq / (2.0 * xi)


def dephasing_rate(kappa_squared: float, xi: float) -> float:
    """Coherence decay rate xi + kappa^2 / (2 xi) at measurement strength xi:
    ``noise_rate`` for one particle moved between two sites (sum c^2 = 2)."""
    check_positive("measurement strength must be positive and finite", xi)
    check_positive(
        "kappa^2 must be finite and nonnegative", kappa_squared, allow_zero=True
    )
    return noise_rate(xi, 2.0, kappa_squared)


def optimal_xi(kappa_squared: float) -> tuple[float, float]:
    """Minimising strength and minimal rate: (kappa/sqrt(2), sqrt(2) kappa)."""
    check_positive(
        "kappa^2 must be finite and nonnegative", kappa_squared, allow_zero=True
    )
    return math.sqrt(kappa_squared / 2.0), math.sqrt(2.0 * kappa_squared)


@dataclass(frozen=True)
class DephasingEstimate:
    """Closed-form dephasing summary for a fixed kappa^2."""

    kappa_sq: float
    xi_opt: float
    min_rate: float

    def rate_at(self, xi: float) -> float:
        return dephasing_rate(self.kappa_sq, xi)


def dephasing_estimate(kappa_squared: float) -> DephasingEstimate:
    xi_star, min_rate = optimal_xi(kappa_squared)
    return DephasingEstimate(kappa_squared, xi_star, min_rate)


def min_dephasing_estimate(
    mass_kg: float,
    cutoff_m: float,
    separation_m: float,
    constants: PhysicalConstants = CODATA,
) -> float:
    """Order-of-magnitude minimum dephasing rate, SI.

    (G m^2 / (2 a hbar)) sqrt(d / a) with prefactor exactly one.
    """
    check_positive(
        "all inputs must be positive and finite", mass_kg, cutoff_m, separation_m
    )
    scale_rate = constants.G * mass_kg**2 / (2.0 * cutoff_m * constants.hbar)
    return scale_rate * math.sqrt(separation_m / cutoff_m)


def hopping_damping_rate(i: int, j: int, xi: float, kernel: CouplingKernel) -> float:
    """Exact decay rate of the hopping operator adag_j a_i on the kernel's lattice.

    Same closed form as the dephasing rate, with kappa^2 the finite-lattice
    sum of squared feedback-column differences; the feedback seen at site l
    omits chi_ll (``lattice.feedback_coupling``), matching the generator exactly.
    ``i`` and ``j`` must be integers (``errors.as_index``); ValueError otherwise.
    """
    i, j = as_index(i), as_index(j)
    if i == j:
        raise ValueError("hopping damping is defined for distinct sites")
    if not (0 <= i < kernel.num_sites and 0 <= j < kernel.num_sites):
        raise ValueError("site index out of range")
    check_positive("measurement strength must be positive and finite", xi)
    fb = feedback_coupling(kernel, (j, i))
    w = fb[:, 0] - fb[:, 1]
    return dephasing_rate(float(w @ w), xi)


@dataclass(frozen=True)
class MomentumVarianceReport:
    """Late-time net-momentum variance, per the two available prefactors.

    ``stated_value`` uses (2 pi hbar / a)^2 per particle; ``zone_average_value``
    uses the cubic-zone average of (hbar k)^2, which the separable per-axis
    integral gives in closed form as hbar^2 pi^2 / a^2 per particle.  Their
    ratio (4) is reported, not adjudicated.
    """

    particle_count: float
    spacing: float
    stated_value: float
    zone_average_value: float
    ratio: float

    def as_dict(self) -> dict:
        return {
            "particle_count": self.particle_count,
            "spacing": self.spacing,
            "stated_value": self.stated_value,
            "zone_average_value": self.zone_average_value,
            "ratio": self.ratio,
        }


def momentum_variance_asymptote(
    particle_count: float,
    spacing: float = 1.0,
    mass: float = 1.0,
    hbar: float = HBAR,
) -> MomentumVarianceReport:
    """Asymptotic momentum variance of a region holding ``particle_count`` bosons.

    ``mass`` cancels between the mass operator and its 1/m prefactor and is
    accepted only for interface completeness.
    """
    check_positive(
        "particle count must be finite and nonnegative", particle_count, allow_zero=True
    )
    check_positive("spacing and mass must be positive and finite", spacing, mass)
    stated_prefactor = (2.0 * math.pi * hbar / spacing) ** 2
    zone_prefactor = (hbar * math.pi / spacing) ** 2
    return MomentumVarianceReport(
        particle_count,
        spacing,
        particle_count * stated_prefactor,
        particle_count * zone_prefactor,
        stated_prefactor / zone_prefactor,
    )


def heating_rate(
    mass_kg: float, cutoff_m: float, constants: PhysicalConstants = CODATA
) -> float:
    """Order-of-magnitude heating power G hbar M / a^3, SI, prefactor one."""
    check_positive("mass and cutoff must be positive and finite", mass_kg, cutoff_m)
    return constants.G * constants.hbar * mass_kg / cutoff_m**3
