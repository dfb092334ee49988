"""Experimental lower bounds on the cutoff length, in SI units.

Two constraint families are implemented.  Interferometry: a particle of mass
m held in a superposition of size Delta for a time t must not have fully
dephased, so (G m^2 / (2 a hbar)) sqrt(Delta / a) * t <= 1; the visibility
criterion is fixed at equality one (order-of-magnitude convention).
Heating: a body of mass M with an observed power budget P must satisfy
G hbar M / a^3 <= P.  Both invert to closed forms for the smallest allowed
cutoff a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import CODATA, PhysicalConstants
from .errors import check_positive


@dataclass(frozen=True)
class InterferometryScenario:
    mass_kg: float
    separation_m: float
    coherence_time_s: float

    def __post_init__(self):
        check_positive(
            "all scenario fields must be positive and finite",
            self.mass_kg,
            self.separation_m,
            self.coherence_time_s,
        )


@dataclass(frozen=True)
class HeatingScenario:
    mass_kg: float
    power_w: float

    def __post_init__(self):
        check_positive(
            "all scenario fields must be positive and finite",
            self.mass_kg,
            self.power_w,
        )


ExperimentScenario = InterferometryScenario | HeatingScenario


@dataclass(frozen=True)
class BoundReport:
    """Cutoff-length bound with enough trace to recompute it bit-exactly."""

    a_min_m: float
    formula: str
    inputs: dict
    derivation: dict

    def as_dict(self) -> dict:
        return {
            "a_min_m": self.a_min_m,
            "formula": self.formula,
            "inputs": dict(self.inputs),
            "derivation": dict(self.derivation),
        }


def interferometry_bound(
    mass_kg: float,
    separation_m: float,
    coherence_time_s: float,
    constants: PhysicalConstants = CODATA,
) -> BoundReport:
    """Smallest cutoff compatible with observed matter-wave coherence.

    Solves (G m^2 / (2 a hbar)) sqrt(Delta / a) t = 1 for a, giving
    a_min = (G m^2 sqrt(Delta) t / (2 hbar))^(2/3).
    """
    check_positive(
        "all inputs must be positive and finite",
        mass_kg,
        separation_m,
        coherence_time_s,
    )
    gm2 = constants.G * mass_kg**2
    prefactor = gm2 * separation_m**0.5 * coherence_time_s / (2.0 * constants.hbar)
    a_min = prefactor ** (2.0 / 3.0)
    return BoundReport(
        a_min_m=a_min,
        formula="interferometry",
        inputs={
            "mass_kg": mass_kg,
            "separation_m": separation_m,
            "coherence_time_s": coherence_time_s,
            "G": constants.G,
            "hbar": constants.hbar,
        },
        derivation={
            "G_m_squared": gm2,
            "rate_time_product_at_unit_a": prefactor,
            "a_min_m": a_min,
        },
    )


def heating_bound(
    mass_kg: float, power_w: float, constants: PhysicalConstants = CODATA
) -> BoundReport:
    """Smallest cutoff compatible with an observed power budget: (G M hbar / P)^(1/3)."""
    check_positive("all inputs must be positive and finite", mass_kg, power_w)
    volume = constants.G * mass_kg * constants.hbar / power_w
    a_min = volume ** (1.0 / 3.0)
    return BoundReport(
        a_min_m=a_min,
        formula="heating",
        inputs={
            "mass_kg": mass_kg,
            "power_w": power_w,
            "G": constants.G,
            "hbar": constants.hbar,
        },
        derivation={"bounded_volume_m3": volume, "a_min_m": a_min},
    )


def recompute(report: BoundReport, constants: PhysicalConstants = CODATA) -> float:
    """Re-derive a_min from a report's echoed inputs (bit-exact round trip)."""
    consts = PhysicalConstants(
        G=report.inputs["G"],
        hbar=report.inputs["hbar"],
        amu=constants.amu,
        earth_mass=constants.earth_mass,
    )
    if report.formula == "interferometry":
        return interferometry_bound(
            report.inputs["mass_kg"],
            report.inputs["separation_m"],
            report.inputs["coherence_time_s"],
            consts,
        ).a_min_m
    if report.formula == "heating":
        return heating_bound(
            report.inputs["mass_kg"], report.inputs["power_w"], consts
        ).a_min_m
    raise ValueError(f"unknown formula {report.formula!r}")


def molecule_scenario(constants: PhysicalConstants = CODATA) -> InterferometryScenario:
    """Large-molecule interferometry: 5000 amu, 0.5 um superposition, 1 ms."""
    return InterferometryScenario(5000.0 * constants.amu, 0.5e-6, 1e-3)


def rubidium_bec_scenario() -> HeatingScenario:
    """Per-atom budget for a Rb-87 condensate: 1.44e-25 kg, 1e-30 W.

    The power figure is the stored preset implied by the condensate's
    temperature scale and lifetime; it is not re-derived from microphysics.
    """
    return HeatingScenario(1.44e-25, 1e-30)


def earth_scenario(constants: PhysicalConstants = CODATA) -> HeatingScenario:
    """Whole-Earth budget: its mass against the absorbed solar power 1e17 W."""
    return HeatingScenario(constants.earth_mass, 1e17)


def bound_for_scenario(
    scenario: ExperimentScenario, constants: PhysicalConstants = CODATA
) -> BoundReport:
    if isinstance(scenario, InterferometryScenario):
        return interferometry_bound(
            scenario.mass_kg,
            scenario.separation_m,
            scenario.coherence_time_s,
            constants,
        )
    if isinstance(scenario, HeatingScenario):
        return heating_bound(scenario.mass_kg, scenario.power_w, constants)
    raise TypeError("unknown scenario type")
