import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgrav import (
    CouplingKernel,
    FockBasis,
    LatticeSpec,
    LatticeSumError,
    NoiseGenerator,
    adjoint_coefficient,
    asymptotic_lower_bound,
    dephasing_estimate,
    dephasing_rate,
    heating_rate,
    hopping_damping_rate,
    integral_I,
    kappa_sq,
    min_dephasing_estimate,
    momentum_variance_asymptote,
    optimal_xi,
)
from ccgrav.bounds import (
    HeatingScenario,
    InterferometryScenario,
    heating_bound,
    interferometry_bound,
)
from ccgrav.analytics import MIN_REL_TOL
from ccgrav.constants import CODATA, PhysicalConstants
from ccgrav.quadrature import simpson_refined
from helpers import cylindrical_integral, two_centre_integral_mp


def test_kappa_vanishes_for_coincident_sites():
    result = kappa_sq(0.0)
    assert result.kappa_sq == 0.0
    assert result.tail_bound == 0.0


def test_kappa_is_even_in_the_separation():
    assert kappa_sq(5.0).kappa_sq == kappa_sq(-5.0).kappa_sq


def test_kappa_accepts_displacement_vectors():
    scalar = kappa_sq(6.0).kappa_sq
    vector = kappa_sq((0.0, 0.0, 6.0)).kappa_sq
    assert vector == pytest.approx(scalar, rel=1e-12)


def test_kappa_tail_bound_below_tolerance():
    result = kappa_sq(20.0)
    assert 0.0 <= result.tail_bound < result.tolerance


def test_kappa_raises_when_radius_too_small():
    with pytest.raises(LatticeSumError):
        kappa_sq(20.0, cutoff_radius=12.0)


def test_kappa_prefactor_scaling():
    base = kappa_sq(8.0).kappa_sq
    scaled = kappa_sq(8.0, scale=3.0, spacing=2.0).kappa_sq
    assert scaled == pytest.approx(base * (3.0 / 2.0) ** 2, rel=1e-12)


def test_kappa_grows_with_separation():
    values = [kappa_sq(D).kappa_sq for D in (5.0, 10.0, 20.0, 40.0)]
    assert values[0] >= 0.0
    assert all(a < b for a, b in zip(values, values[1:]))


def test_kappa_exceeds_linear_bound_at_large_separation():
    for D in (20.0, 40.0):
        assert kappa_sq(D).kappa_sq >= 0.8 * asymptotic_lower_bound(D)


def test_integral_trivial_limits():
    assert integral_I(0.0) == 0.0
    with pytest.raises(ValueError):
        integral_I(-1.0)


def test_integral_exceeds_linear_bound():
    # I(D) = (pi^2/2) D at D* = 5.8968 (mpmath root of the two-centre form)
    assert integral_I(5.89) < asymptotic_lower_bound(5.89)
    for D in (10.0, 20.0, *np.geomspace(5.905, 1e6, 25)):
        assert integral_I(D) > asymptotic_lower_bound(D)


@pytest.mark.parametrize("D", [1.0, 2.0, 7.0, 10.0, 33.0, 100.0])
def test_integral_matches_cylindrical_oracle(D):
    assert integral_I(D) == pytest.approx(cylindrical_integral(D), rel=1e-3)


@pytest.mark.parametrize("D", [1.0, 10.0, 100.0])
def test_integral_matches_mpmath_two_centre_form(D):
    pytest.importorskip("mpmath")
    assert integral_I(D) == pytest.approx(two_centre_integral_mp(D), rel=1e-5)


@pytest.mark.parametrize("D", [1e8, 1e12])
def test_integral_large_separation_asymptote(D):
    asymptote = 4 * math.pi * D - 16 * math.pi * math.log(D) + 75.3982
    assert integral_I(D) == pytest.approx(asymptote, rel=1e-3)


@pytest.mark.parametrize("D", [1e-2, 1e-100])
def test_integral_small_separation_limit(D):
    # I(D) -> D^2 * integral of (df/dz)^2 = 4 pi D^2 / 9 as D -> 0
    assert integral_I(D) == pytest.approx(4 * math.pi * D * D / 9, rel=1e-3)


def test_integral_overflow_is_named():
    # I(D) ~ 4 pi D passes the float range near D = 1.4e307
    assert math.isfinite(integral_I(1.4e307))
    with pytest.raises(OverflowError, match="overflows"):
        integral_I(1.7e308)


def test_integral_rel_tol_has_a_floor():
    assert integral_I(1e300, rel_tol=MIN_REL_TOL) == pytest.approx(4 * math.pi * 1e300, rel=1e-6)
    with pytest.raises(ValueError, match="at least 1e-11"):
        integral_I(1.0, rel_tol=MIN_REL_TOL / 2)


def test_integral_doubling_ratio_trends_to_two():
    r1 = integral_I(20.0) / integral_I(10.0)
    r2 = integral_I(40.0) / integral_I(20.0)
    assert 2.0 < r2 < r1 < 2.7


def test_lower_bound_values():
    assert asymptotic_lower_bound(1.0) == pytest.approx(math.pi**2 / 2)
    assert asymptotic_lower_bound(2.0) == pytest.approx(math.pi**2)
    assert asymptotic_lower_bound(100.0) == pytest.approx(50 * math.pi**2)


def test_dephasing_rate_examples():
    assert dephasing_rate(2.0, 1.0) == pytest.approx(2.0)
    assert dephasing_rate(0.0, 0.7) == pytest.approx(0.7)
    assert dephasing_rate(8.0, 1.0) == pytest.approx(5.0)
    xi_star, min_rate = optimal_xi(8.0)
    assert xi_star == pytest.approx(2.0)
    assert min_rate == pytest.approx(4.0)
    with pytest.raises(ValueError):
        dephasing_rate(1.0, 0.0)
    with pytest.raises(ValueError):
        dephasing_rate(-1.0, 1.0)


def test_dephasing_estimate_interface():
    est = dephasing_estimate(2.0)
    assert est.min_rate == pytest.approx(2.0)
    assert est.xi_opt == pytest.approx(1.0)
    assert est.rate_at(1.0) == pytest.approx(est.min_rate)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=1000, deadline=None)
def test_rate_never_beats_optimum(xi, kappa2):
    assert dephasing_rate(kappa2, xi) >= math.sqrt(2.0 * kappa2) * (1 - 1e-12)


def test_min_dephasing_unit_normalisation():
    # with G m^2 = 2 hbar and d = a the closed form collapses to one
    consts = PhysicalConstants(G=2.0, hbar=1.0)
    assert min_dephasing_estimate(1.0, 1.0, 1.0, consts) == pytest.approx(1.0)


def test_min_dephasing_molecule_scale():
    rate = min_dephasing_estimate(5000 * CODATA.amu, 1e-19, 0.5e-6)
    assert 300.0 < rate < 700.0  # order 1e3 per second, ~ms coherence scale
    doubled = min_dephasing_estimate(5000 * CODATA.amu, 1e-19, 1.0e-6)
    assert doubled == pytest.approx(rate * math.sqrt(2.0), rel=1e-12)


@given(
    st.floats(min_value=1e-27, max_value=1e-20),
    st.floats(min_value=1e-20, max_value=1e-10),
    st.floats(min_value=1e-9, max_value=1e-5),
    st.floats(min_value=1.2, max_value=9.0),
)
@settings(max_examples=200, deadline=None)
def test_min_dephasing_scaling_exponents(m, a, d, lam):
    base = min_dephasing_estimate(m, a, d)
    assert min_dephasing_estimate(lam * m, a, d) == pytest.approx(lam**2 * base, rel=1e-9)
    assert min_dephasing_estimate(m, lam * a, d) == pytest.approx(base / lam**1.5, rel=1e-9)
    assert min_dephasing_estimate(m, a, lam * d) == pytest.approx(math.sqrt(lam) * base, rel=1e-9)


def test_hopping_damping_matches_generator_eigenrate():
    lattice = LatticeSpec.chain(5)
    kernel = CouplingKernel(lattice)
    gen = NoiseGenerator(FockBasis(5, 2), kernel, 1.4)
    rate = hopping_damping_rate(1, 4, 1.4, kernel)
    assert -adjoint_coefficient([1], [4], gen) == pytest.approx(rate, rel=1e-13)
    with pytest.raises(ValueError):
        hopping_damping_rate(2, 2, 1.0, kernel)
    for i, j in ((-1, 4), (4, 5)):  # -1 used to wrap to site 4: the same site
        with pytest.raises(ValueError):
            hopping_damping_rate(i, j, 1.0, kernel)


@pytest.mark.parametrize("i, j", [(0, 1.5), (0, "1"), (False, 1)], ids=["fraction", "string", "bool"])
def test_hopping_damping_rejects_non_integer_sites(i, j):
    kernel = CouplingKernel(LatticeSpec.chain(3))
    with pytest.raises(ValueError, match="site index must be an integer"):
        hopping_damping_rate(i, j, 1.0, kernel)
    expected = hopping_damping_rate(0, 1, 1.0, kernel)
    assert hopping_damping_rate(np.int32(0), 1, 1.0, kernel) == expected
    assert hopping_damping_rate(0, 1.0, 1.0, kernel) == expected


def test_momentum_variance_report():
    report = momentum_variance_asymptote(3.0)
    assert report.stated_value == pytest.approx(3 * (2 * math.pi) ** 2, rel=1e-12)
    assert report.zone_average_value == pytest.approx(3 * math.pi**2, rel=1e-12)
    assert report.ratio == pytest.approx(4.0, rel=1e-12)
    assert momentum_variance_asymptote(0.0).stated_value == 0.0


def test_momentum_variance_zone_average_against_quadrature():
    # oracle: per-axis zone average of k^2, composed by separability
    per_axis = simpson_refined(
        lambda k: k * k, -math.pi, math.pi, conv_tol=1e-13, n0=512
    ) / (2 * math.pi)
    report = momentum_variance_asymptote(1.0)
    assert report.zone_average_value == pytest.approx(3 * per_axis, abs=1e-10)


def test_heating_rate_reference_points():
    bec = heating_rate(1.44e-25, 1e-13)
    assert 0.5e-30 < bec < 2e-30
    earth = heating_rate(CODATA.earth_mass, 1e-12)
    assert abs(math.log10(earth) - 17.0) < 1.0


@given(
    st.floats(min_value=1e-27, max_value=1e25),
    st.floats(min_value=1e-19, max_value=1e-9),
    st.floats(min_value=1.1, max_value=7.0),
)
@settings(max_examples=200, deadline=None)
def test_heating_rate_scaling_exponents(M, a, lam):
    base = heating_rate(M, a)
    assert heating_rate(lam * M, a) == pytest.approx(lam * base, rel=1e-12)
    assert heating_rate(M, lam * a) == pytest.approx(base / lam**3, rel=1e-9)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: kappa_sq(NAN),
        lambda: kappa_sq(INF),
        lambda: kappa_sq([0.0, NAN, 1.0]),
        lambda: integral_I(NAN),
        lambda: integral_I(INF),
        lambda: integral_I(1.0, rel_tol=NAN),
        lambda: dephasing_rate(NAN, 1.0),
        lambda: dephasing_rate(1.0, NAN),
        lambda: optimal_xi(NAN),
        lambda: optimal_xi(INF),
        lambda: min_dephasing_estimate(NAN, 1e-15, 1e-6),
        lambda: heating_rate(1e-25, NAN),
        lambda: heating_rate(INF, 1e-15),
        lambda: momentum_variance_asymptote(NAN),
        lambda: interferometry_bound(1e-25, NAN, 1e-3),
        lambda: heating_bound(NAN, 1e-30),
        lambda: InterferometryScenario(1e-25, 1e-6, INF),
        lambda: HeatingScenario(1e-25, NAN),
    ],
    ids=[
        "kappa-nan",
        "kappa-inf",
        "kappa-vector-nan",
        "integral-nan",
        "integral-inf",
        "integral-rel-tol-nan",
        "rate-kappa-nan",
        "rate-xi-nan",
        "optimal-xi-nan",
        "optimal-xi-inf",
        "min-dephasing-nan",
        "heating-rate-nan",
        "heating-rate-inf",
        "momentum-variance-nan",
        "interferometry-bound-nan",
        "heating-bound-nan",
        "interferometry-scenario-inf",
        "heating-scenario-nan",
    ],
)
def test_non_finite_inputs_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
