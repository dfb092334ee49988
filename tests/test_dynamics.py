import math
from dataclasses import dataclass

import numpy as np
import pytest

from ccgrav import (
    AncillaOscillator,
    CouplingKernel,
    EvolutionConfig,
    FockBasis,
    LatticeSpec,
    NoiseGenerator,
    PositivityError,
    StepSizeError,
    TruncationOverflowError,
    adjoint_coefficient,
    circuit_step,
    circuit_sweep,
    evolve,
    generator_apply,
    generator_residual,
    interaction_hamiltonian,
    kappa_sq,
    kinetic_hamiltonian,
    trace_norm,
)
from helpers import double_commutator_generator, monomial_matrix, random_density


def two_site_setup(xi=1.0):
    lattice = LatticeSpec.chain(2)
    basis = FockBasis(2, 1)
    gen = NoiseGenerator(basis, CouplingKernel(lattice), xi)
    return lattice, basis, gen


def plus_state():
    amp = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.outer(amp, amp.conj())


# --- ancilla -----------------------------------------------------------------


def test_ancilla_canonical_commutator_below_truncation():
    anc = AncillaOscillator(16)
    comm = anc.position @ anc.momentum - anc.momentum @ anc.position
    block = comm[:-2, :-2]
    assert np.max(np.abs(block - 1j * np.eye(14))) < 1e-12


def test_ancilla_vacuum_moments():
    anc = AncillaOscillator()
    vac = np.zeros(anc.levels)
    vac[0] = 1.0
    for q in (anc.position, anc.momentum):
        assert abs(vac @ q @ vac) < 1e-10
        assert (vac @ q @ q @ vac).real == pytest.approx(0.5, abs=1e-10)


def test_ancilla_needs_enough_levels():
    with pytest.raises(ValueError):
        AncillaOscillator(2)


# --- generator ---------------------------------------------------------------


def test_noise_generator_validates_xi():
    lattice, basis, _ = two_site_setup()
    kernel = CouplingKernel(lattice)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            NoiseGenerator(basis, kernel, bad)


def test_generator_annihilates_diagonal_states():
    _, _, gen = two_site_setup()
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.array_equal(generator_apply(rho, gen), np.zeros((2, 2)))


def test_generator_traceless_and_hermitian_on_random_input():
    lattice = LatticeSpec.chain(3)
    basis = FockBasis(3, 2)
    gen = NoiseGenerator(basis, CouplingKernel(lattice), 0.8)
    h = interaction_hamiltonian(basis, CouplingKernel(lattice))
    rng = np.random.default_rng(7)
    for _ in range(25):
        rho = random_density(rng, basis.dim)
        out = generator_apply(rho, gen, h)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_generator_coherence_rate_matches_adjoint():
    _, _, gen = two_site_setup(xi=0.6)
    rho = plus_state()
    out = generator_apply(rho, gen)
    rate = out[0, 1] / rho[0, 1]
    assert rate == pytest.approx(adjoint_coefficient([0], [1], gen), abs=1e-13)
    # the two-site truncated kappa^2 gives the same closed form
    chi = gen.kernel.matrix
    k2 = sum((chi[l, 0] - chi[l, 1]) ** 2 for l in range(2))
    assert rate.real == pytest.approx(-(0.6 + k2 / (2 * 0.6)), abs=1e-13)


def test_generator_dimension_mismatch():
    _, _, gen = two_site_setup()
    with pytest.raises(ValueError):
        generator_apply(np.eye(3, dtype=complex) / 3, gen)


# --- adjoint closed form -----------------------------------------------------


def test_adjoint_identical_lists_is_zero():
    lattice = LatticeSpec.chain(4)
    gen = NoiseGenerator(FockBasis(4, 2), CouplingKernel(lattice), 1.3)
    assert adjoint_coefficient([2, 0], [0, 2], gen) == 0.0
    assert adjoint_coefficient([1], [1], gen) == 0.0


def test_adjoint_matches_double_commutators_sampled():
    lattice = LatticeSpec.chain(4)
    kernel = CouplingKernel(lattice)
    basis = FockBasis(4, 2)
    gen = NoiseGenerator(basis, kernel, 0.9)
    for js, iss in (((0, 1), (2, 3)), ((1, 1), (0, 2)), ((3, 0), (3, 1))):
        mat = monomial_matrix(basis, js, iss)
        brute = double_commutator_generator(mat, gen)
        coeff = adjoint_coefficient(list(js), list(iss), gen)
        assert np.max(np.abs(brute - coeff * mat)) < 1e-12


def test_adjoint_infinite_mode_matches_kappa_formula():
    # sites at offsets -10 and +10 of a 41-site chain: separation 20 spacings
    lattice = LatticeSpec.chain(41)
    gen = NoiseGenerator(FockBasis(41, 1), CouplingKernel(lattice), 1.0)
    k2 = kappa_sq(20.0).kappa_sq
    raw = adjoint_coefficient(
        [30], [10], gen, site_mode="infinite", exclude_self_coupling=False
    )
    assert raw == pytest.approx(-(1.0 + k2 / 2.0), rel=1e-9)
    exact = adjoint_coefficient([30], [10], gen, site_mode="infinite")
    # the self-coupling exclusion is a finite-separation correction
    assert exact == pytest.approx(-(1.0 + k2 / 2.0), rel=0.02)
    assert exact != pytest.approx(-(1.0 + k2 / 2.0), rel=1e-6)


def test_adjoint_infinite_mode_non_collinear_sources():
    # four involved sites spanning a plane give a tail with no symmetry axis;
    # two cutoff radii must agree within their reported truncation bounds
    lattice = LatticeSpec(dimension=3, extents=(3, 3, 3))
    basis = FockBasis(27, 2)
    gen = NoiseGenerator(basis, CouplingKernel(lattice), 1.0)
    creates = [lattice.index_of((1, 0, 0)), lattice.index_of((0, 1, 0))]
    annihilates = [lattice.index_of((0, 0, 0)), lattice.index_of((0, 0, 1))]
    near = adjoint_coefficient(
        creates, annihilates, gen, site_mode="infinite", cutoff_radius=30.0
    )
    far = adjoint_coefficient(
        creates, annihilates, gen, site_mode="infinite", cutoff_radius=45.0
    )
    assert near == pytest.approx(far, rel=2e-3)


@dataclass(frozen=True)
class _ShiftedKernel:
    matrix: np.ndarray
    num_sites: int
    lattice: LatticeSpec
    scale: float = 1.0


def test_adjoint_column_difference_form_is_shift_invariant():
    lattice = LatticeSpec.chain(5)
    kernel = CouplingKernel(lattice)
    basis = FockBasis(5, 1)
    gen = NoiseGenerator(basis, kernel, 1.1)
    shifted = _ShiftedKernel(kernel.matrix + 0.37, 5, lattice)
    gen_shifted = NoiseGenerator(basis, shifted, 1.1)
    base = adjoint_coefficient([0], [3], gen, exclude_self_coupling=False)
    moved = adjoint_coefficient([0], [3], gen_shifted, exclude_self_coupling=False)
    assert moved == pytest.approx(base, abs=1e-12)
    # the exact form reads the shift through the excluded diagonal
    base_x = adjoint_coefficient([0], [3], gen)
    moved_x = adjoint_coefficient([0], [3], gen_shifted)
    assert abs(moved_x - base_x) > 1e-6


def test_adjoint_validates_input():
    _, _, gen = two_site_setup()
    with pytest.raises(ValueError):
        adjoint_coefficient([0, 1], [0], gen)
    with pytest.raises(ValueError):
        adjoint_coefficient([2], [0], gen)
    with pytest.raises(ValueError):
        adjoint_coefficient([0], [1], gen, site_mode="nonsense")


# --- circuit -----------------------------------------------------------------


def test_circuit_preserves_trace_and_hermiticity():
    _, basis, gen = two_site_setup()
    anc = AncillaOscillator()
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(rng, basis.dim)
        out = circuit_step(rho, 0, gen, 1e-3, anc)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10


def test_circuit_fixes_diagonal_states():
    _, _, gen = two_site_setup()
    anc = AncillaOscillator()
    rho = np.diag([0.25, 0.75]).astype(complex)
    out = circuit_step(rho, 1, gen, 5e-3, anc)
    assert np.max(np.abs(out - rho)) < 1e-12


def test_circuit_truncation_overflow_guard():
    _, _, gen = two_site_setup()
    small = AncillaOscillator(6)
    with pytest.raises(TruncationOverflowError):
        circuit_step(plus_state(), 0, gen, 2.0, small)


def test_circuit_rejects_malformed_states():
    _, _, gen = two_site_setup()
    anc = AncillaOscillator()
    non_hermitian = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(PositivityError):
        circuit_step(non_hermitian, 0, gen, 1e-3, anc)
    wrong_trace = np.diag([0.9, 0.9]).astype(complex)
    with pytest.raises(PositivityError):
        circuit_step(wrong_trace, 0, gen, 1e-3, anc)
    negative = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(PositivityError):
        circuit_step(negative, 0, gen, 1e-3, anc)


def test_sweep_matches_summed_generator_to_first_order():
    lattice = LatticeSpec.chain(3)
    basis = FockBasis(3, 1)
    gen = NoiseGenerator(basis, CouplingKernel(lattice), 1.0)
    anc = AncillaOscillator()
    amp = np.ones(3, dtype=complex) / math.sqrt(3.0)
    rho = np.outer(amp, amp.conj())
    res = []
    for tau in (2e-3, 1e-3):
        swept = circuit_sweep(rho, gen, tau, anc)
        linear = rho + tau * generator_apply(rho, gen)
        res.append(trace_norm(swept - linear))
    assert res[1] / res[0] == pytest.approx(0.25, abs=0.05)


def test_sweep_hamiltonian_step_is_unitary_rotation():
    lattice = LatticeSpec.chain(2)
    basis = FockBasis(2, 1)
    gen = NoiseGenerator(basis, CouplingKernel(lattice), 1.0)
    h = kinetic_hamiltonian(basis, lattice)
    out = circuit_sweep(plus_state(), gen, 1e-3, hamiltonian=h)
    assert abs(np.trace(out) - 1.0) < 1e-10


# --- residual ----------------------------------------------------------------


def test_residual_vanishes_at_zero_tau_and_on_diagonals():
    _, _, gen = two_site_setup()
    anc = AncillaOscillator()
    assert generator_residual(plus_state(), 0, gen, 0.0, anc) == pytest.approx(0.0, abs=1e-14)
    diag = np.diag([0.4, 0.6]).astype(complex)
    assert generator_residual(diag, 0, gen, 1e-3, anc) < 1e-10


def test_residual_quarter_ratio_under_halving():
    _, _, gen = two_site_setup()
    anc = AncillaOscillator()
    rho = plus_state()
    r1 = generator_residual(rho, 0, gen, 2e-3, anc)
    r2 = generator_residual(rho, 0, gen, 1e-3, anc)
    assert 0.2 < r2 / r1 < 0.3


# --- evolution ---------------------------------------------------------------


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(total_time=-1.0, steps=10)
    with pytest.raises(ValueError):
        EvolutionConfig(total_time=1.0, steps=0)


def test_unitary_evolution_preserves_purity():
    lattice = LatticeSpec.chain(3)
    basis = FockBasis(3, 1)
    h = kinetic_hamiltonian(basis, lattice)
    amp = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    rho0 = np.outer(amp, amp.conj())
    traj = evolve(rho0, None, h, EvolutionConfig(total_time=2.0, steps=400))
    assert np.max(np.abs(traj.purities() - 1.0)) < 1e-8
    assert np.max(np.abs(traj.traces() - 1.0)) < 1e-8


def test_noise_only_coherence_decay_is_exponential():
    _, _, gen = two_site_setup()
    chi = gen.kernel.matrix
    k2 = sum((chi[l, 0] - chi[l, 1]) ** 2 for l in range(2))
    gamma = 1.0 + k2 / 2.0
    cfg = EvolutionConfig(total_time=3.0 / gamma, steps=400)
    traj = evolve(plus_state(), gen, None, cfg)
    target = 0.5 * np.exp(-gamma * traj.times)
    rel = np.abs(np.abs(traj.element(0, 1)) - target) / target
    assert rel.max() < 1e-6


def test_diagonal_state_is_stationary():
    _, _, gen = two_site_setup()
    rho0 = np.diag([0.2, 0.8]).astype(complex)
    traj = evolve(rho0, gen, None, EvolutionConfig(total_time=2.0, steps=50))
    assert np.max(np.abs(traj.states[-1] - rho0)) < 1e-12


def test_too_coarse_step_raises():
    _, _, gen = two_site_setup()
    with pytest.raises(StepSizeError):
        evolve(plus_state(), gen, None, EvolutionConfig(total_time=5.0, steps=1))


def test_evolve_requires_generator_or_hamiltonian():
    with pytest.raises(ValueError):
        evolve(plus_state(), None, None, EvolutionConfig(total_time=1.0, steps=10))


def test_trajectory_csv_export(tmp_path):
    _, _, gen = two_site_setup()
    traj = evolve(plus_state(), gen, None, EvolutionConfig(total_time=1.0, steps=50))
    path = tmp_path / "trajectory.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,rho_01_re,rho_01_im,trace,purity,min_eigenvalue"
    assert len(lines) == 52
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(0.5)
    assert first[3] == pytest.approx(1.0)
