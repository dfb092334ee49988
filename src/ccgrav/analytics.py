"""Dephasing frequencies, their continuum approximation, and heating estimates.

The central object is the squared dephasing frequency kappa^2 for a
coherence between two sites separated by D spacings: a lattice sum of
squared coupling-column differences that grows linearly in D.  It is
computed as a truncated shell sum with a continuum tail correction and
cross-checked against the dimensionless integral ``integral_I`` that
approximates it at large D, which in turn exceeds the closed-form lower
bound (pi^2 / 2) D.

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
from .errors import QuadratureError, check_positive
from .lattice import HBAR, CouplingKernel, LatticeSpec
from .lattice_sums import column_difference_sum
from .quadrature import adaptive_simpson

DEFAULT_CUTOFF_RADIUS = 60.0
DEFAULT_TOLERANCE = 1e-3


@dataclass(frozen=True)
class KappaResult:
    """Converged lattice sum for a squared dephasing frequency.

    ``tail_bound`` estimates the relative truncation error left after the
    continuum tail correction: the largest relative change when the cutoff
    is lowered to the checkpoint radii of ``column_difference_sum``.  It is
    a sampled estimate, not a proven bound, and is below ``tolerance``
    whenever the sum succeeded.
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

    ``separation`` is either a signed scalar D (the pair is placed D spacings
    apart along an axis) or an integer displacement 3-vector, both in units
    of the spacing.  The sum runs over the infinite cubic lattice, truncated
    at ``cutoff_radius`` with a continuum tail correction; the prefactor is
    (scale/spacing)^2 with scale = G m^2 / (2 hbar).
    """
    if np.ndim(separation) == 0:
        disp = np.array([0.0, 0.0, abs(float(separation))])
    else:
        disp = np.asarray(separation, dtype=float)
        if disp.shape != (3,):
            raise ValueError("separation must be a scalar or a 3-vector")
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


def _pair_integrand(rho: float, z: float, d_half: float) -> float:
    d1 = math.hypot(rho, z - d_half)
    d2 = math.hypot(rho, z + d_half)
    ratio = (d1 - d2) / ((1.0 + d1) * (1.0 + d2))
    return ratio * ratio


def _unmap(r: float) -> float:
    """Inverse of the compression map u -> u / (1 - u)^2 on [0, 1)."""
    if r <= 0:
        return 0.0
    return (2.0 * r + 1.0 - math.sqrt(4.0 * r + 1.0)) / (2.0 * r)


def integral_I(separation: float, *, rel_tol: float = 1e-3) -> float:
    """Continuum approximation of the kappa^2 lattice sum, dimensionless.

    Cylindrical-coordinate quadrature with both half-infinite directions
    mapped to (0, 1) by u -> u / (1 - u); converged when tightening the
    internal tolerances by 4x moves the result by less than ``rel_tol``.
    """
    D = float(separation)
    check_positive("separation must be finite and nonnegative", D, allow_zero=True)
    if D == 0.0:
        return 0.0

    d_half = D / 2.0
    z_marks = [z for z in (d_half - 2, d_half - 1, d_half, d_half + 1, d_half + 2, D, 2 * D) if z > 0]
    q_marks = [_unmap(z) for z in z_marks]
    p_marks = [_unmap(r) for r in (0.5, 1.0, 2.0, d_half, D) if r > 0]

    def evaluate(outer_tol: float) -> float:
        def transverse(p: float) -> float:
            if p >= 1.0:
                return 0.0
            rho = p / (1.0 - p) ** 2
            rho_jac = (1.0 + p) / (1.0 - p) ** 3
            inner_tol = 0.15 * outer_tol / max(rho * rho_jac, 1.0)

            def over_z(q: float) -> float:
                if q >= 1.0:
                    return 0.0
                z = q / (1.0 - q) ** 2
                z_jac = (1.0 + q) / (1.0 - q) ** 3
                return _pair_integrand(rho, z, d_half) * z_jac

            inner = adaptive_simpson(over_z, 0.0, 1.0, inner_tol, points=q_marks)
            return 2.0 * rho * inner * rho_jac

        return 2.0 * math.pi * adaptive_simpson(
            transverse, 0.0, 1.0, outer_tol, points=p_marks, noise_floor=0.3 * outer_tol
        )

    rough = max(asymptotic_lower_bound(D), 1.0)
    tol = 0.2 * rel_tol * rough
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
    """Large-separation lower bound (pi^2 / 2) * D on the dimensionless integral."""
    return 0.5 * math.pi**2 * float(separation)


def dephasing_rate(kappa_squared: float, xi: float) -> float:
    """Coherence decay rate xi + kappa^2 / (2 xi) at measurement strength xi."""
    check_positive("measurement strength must be positive and finite", xi)
    check_positive(
        "kappa^2 must be finite and nonnegative", kappa_squared, allow_zero=True
    )
    return xi + kappa_squared / (2.0 * xi)


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
    omits the diagonal entry chi_ll, matching the noise generator exactly.
    """
    if i == j:
        raise ValueError("hopping damping is defined for distinct sites")
    check_positive("measurement strength must be positive and finite", xi)
    chi = kernel.matrix
    c = np.zeros(kernel.num_sites)
    c[j] += 1.0
    c[i] -= 1.0
    w = chi @ c - np.diag(chi) * c
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
