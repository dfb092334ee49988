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
    hopping_damping_rate,
    interaction_hamiltonian,
    kappa_sq,
    kinetic_hamiltonian,
    trace_norm,
)
from ccgrav import dynamics
from ccgrav.lattice import feedback_coupling
from helpers import (
    dense_circuit_step,
    double_commutator_generator,
    excluded_feedback,
    monomial_matrix,
    pairwise_self_coupling_correction,
    random_density,
    rk4_trajectory,
    taylor_reference,
)


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


def test_self_coupling_exclusion_matches_double_loop_in_3d():
    lattice = LatticeSpec(dimension=3, extents=(2, 2, 2))
    kernel = CouplingKernel(lattice)
    basis = FockBasis(8, 2)
    xi = 0.8
    gen = NoiseGenerator(basis, kernel, xi)
    chi = kernel.matrix
    fbk = np.array([excluded_feedback(chi, occ) for occ in basis.occupations])
    np.testing.assert_allclose(gen.feedback_diagonals, fbk, rtol=1e-12, atol=0)
    energy = np.einsum("al,al->a", basis.occupations, fbk)
    pair = np.diag(interaction_hamiltonian(basis, kernel).matrix).real
    np.testing.assert_allclose(pair, energy, rtol=1e-12, atol=0)
    for creates, annihilates in (([0], [7]), ([1, 1], [2, 4]), ([0, 6], [3, 5])):
        c = np.zeros(8)
        np.add.at(c, creates, 1.0)
        np.add.at(c, annihilates, -1.0)
        w = excluded_feedback(chi, c)
        expected = -(0.5 * xi * (c @ c) + (w @ w) / (2 * xi))
        assert adjoint_coefficient(creates, annihilates, gen) == pytest.approx(
            expected, rel=1e-12
        )
    for i, j in ((0, 7), (2, 5), (3, 1)):
        c = np.zeros(8)
        c[j], c[i] = 1.0, -1.0
        w = excluded_feedback(chi, c)
        assert hopping_damping_rate(i, j, xi, kernel) == pytest.approx(
            xi + (w @ w) / (2 * xi), rel=1e-12
        )


def test_infinite_self_coupling_correction_matches_pairwise_loop():
    lattice = LatticeSpec(dimension=3, extents=(2, 2, 2))
    xi = 0.8
    gen = NoiseGenerator(FockBasis(8, 2), CouplingKernel(lattice), xi)
    infinite = dict(site_mode="infinite", cutoff_radius=30.0)
    for creates, annihilates in (([0, 0], [3, 6]), ([0, 6], [3, 5])):
        kept = adjoint_coefficient(creates, annihilates, gen, **infinite)
        full = adjoint_coefficient(
            creates, annihilates, gen, exclude_self_coupling=False, **infinite
        )
        correction = pairwise_self_coupling_correction(
            lattice.integer_coordinates, creates, annihilates
        )
        assert kept - full == pytest.approx(-correction / (2 * xi), rel=1e-12)


@pytest.mark.parametrize("extents", [(2, 2, 2), (7, 7, 7)], ids=str)
def test_feedback_columns_match_the_full_matrix_form(extents):
    lattice = LatticeSpec(dimension=3, extents=extents)
    kernel = CouplingKernel(lattice)
    n = lattice.num_sites
    full = np.array(kernel.matrix)
    np.fill_diagonal(full, 0.0)
    assert np.array_equal(feedback_coupling(kernel), full)
    xi = 0.7
    gen = NoiseGenerator(FockBasis(n, 1), kernel, xi)
    rng = np.random.default_rng(n)
    for count in (1, 2, 3, 4):
        sites = rng.choice(n, size=2 * count, replace=False)
        creates, annihilates = list(sites[:count]), list(sites[count:])
        c = np.zeros(n)
        np.add.at(c, creates, 1.0)
        np.add.at(c, annihilates, -1.0)
        w = full @ c
        expected = -(0.5 * xi * (c @ c) + (w @ w) / (2 * xi))
        assert adjoint_coefficient(creates, annihilates, gen) == pytest.approx(
            expected, rel=1e-12
        )
        # infinite mode: the exclusion's correction on the sources' block
        infinite = dict(site_mode="infinite", cutoff_radius=20.0)
        kept = adjoint_coefficient(creates, annihilates, gen, **infinite)
        raw = adjoint_coefficient(
            creates, annihilates, gen, exclude_self_coupling=False, **infinite
        )
        block = np.ix_(sites, sites)
        w_kept, w_raw = full[block] @ c[sites], kernel.matrix[block] @ c[sites]
        correction = -(w_kept @ w_kept - w_raw @ w_raw) / (2 * xi)
        assert kept - raw == pytest.approx(correction, rel=1e-12)
        i, j = sites[:2]
        w = full[:, j] - full[:, i]
        assert hopping_damping_rate(i, j, xi, kernel) == pytest.approx(
            xi + (w @ w) / (2 * xi), rel=1e-12
        )


def test_adjoint_validates_input():
    _, _, gen = two_site_setup()
    with pytest.raises(ValueError):
        adjoint_coefficient([0, 1], [0], gen)
    with pytest.raises(ValueError):
        adjoint_coefficient([2], [0], gen)
    with pytest.raises(ValueError):
        adjoint_coefficient([0], [1], gen, site_mode="nonsense")
    with pytest.raises(ValueError):  # a vanishing monomial does not skip the check
        adjoint_coefficient([1], [1], gen, site_mode="nonsense")


@pytest.mark.parametrize(
    "creates, annihilates",
    [([0.5], [1]), ([True], [1]), ([0], [np.nan])],
    ids=["fraction", "bool", "nan"],
)
def test_adjoint_rejects_non_integer_sites(creates, annihilates):
    _, _, gen = two_site_setup()
    with pytest.raises(ValueError, match="site index must be an integer"):
        adjoint_coefficient(creates, annihilates, gen)
    # Python and numpy integers and integral floats are accepted
    expected = adjoint_coefficient([0], [1], gen)
    assert adjoint_coefficient([np.int64(0)], [1], gen) == expected
    assert adjoint_coefficient([0.0], [np.float64(1.0)], gen) == expected


@pytest.mark.parametrize(
    "j", [True, 0.5, -1, 2], ids=["bool", "fraction", "negative", "past-the-end"]
)
def test_circuit_stage_rejects_bad_site_index(j):
    _, _, gen = two_site_setup()
    rho = plus_state()
    with pytest.raises(ValueError, match="site index"):
        gen.site_apply(rho, j)
    with pytest.raises(ValueError, match="site index"):
        circuit_step(rho, j, gen, 1e-3)
    np.testing.assert_array_equal(gen.site_apply(rho, 1.0), gen.site_apply(rho, 1))


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


@pytest.mark.parametrize("sector", [(2, 1), (3, 2), (4, 3)], ids=str)
def test_circuit_step_matches_dense_oracle(sector):
    sites, particles = sector
    rng = np.random.default_rng(sites * 10 + particles)
    basis = FockBasis(sites, particles)
    kernel = CouplingKernel(LatticeSpec.chain(sites))
    anc = AncillaOscillator()
    worst = 0.0
    for xi in (0.5, 1.0, 2.0):
        gen = NoiseGenerator(basis, kernel, xi)
        for tau in (1e-3, 1e-2, 5e-2):
            rho = random_density(rng, basis.dim)
            j = int(rng.integers(sites))
            diff = circuit_step(rho, j, gen, tau, anc) - dense_circuit_step(rho, j, gen, tau, anc)
            worst = max(worst, float(np.abs(diff).max()))
    assert worst <= 1e-13


@pytest.mark.parametrize("sector", [(2, 1), (3, 2), (4, 3)], ids=str)
def test_circuit_factor_is_positive_semidefinite(sector):
    # the uniform superposition has every element 1 / dim, so its image is
    # the elementwise factor over dim
    sites, particles = sector
    basis = FockBasis(sites, particles)
    kernel = CouplingKernel(LatticeSpec.chain(sites))
    uniform = np.full((basis.dim, basis.dim), 1.0 / basis.dim, dtype=complex)
    for xi in (0.5, 1.0, 2.0):
        gen = NoiseGenerator(basis, kernel, xi)
        for tau in (1e-3, 1e-2, 5e-2, 0.2):
            for j in range(sites):
                factor = basis.dim * circuit_step(uniform, j, gen, tau)
                assert np.max(np.abs(factor - factor.conj().T)) < 1e-15
                assert np.linalg.eigvalsh(factor).min() >= -1e-12


@pytest.mark.parametrize("step", [circuit_step, dense_circuit_step], ids=["closed", "dense"])
def test_truncation_guard_on_production_and_oracle(step):
    _, _, gen = two_site_setup()
    with pytest.raises(TruncationOverflowError):
        step(plus_state(), 0, gen, 2.0, AncillaOscillator(6))
    out = step(plus_state(), 0, gen, 1e-3, AncillaOscillator(24))
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_leak_bound_exceeds_poisson_tail():
    lam = np.array([0.0, 1e-3, 0.5, 2.0, 3.9, 4.0, 4.5, 5.0, 30.0])
    for levels in (6, 10, 24):
        m = levels - 2
        bound = dynamics._ancilla_leak_bound(lam, levels)
        for mean, b in zip(lam, bound):
            head = sum(math.exp(-mean) * mean**k / math.factorial(k) for k in range(m))
            assert b >= 1.0 - head - 1e-15
            assert b <= 1.0


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_circuit_functions_reject_bad_tau(tau):
    _, _, gen = two_site_setup()
    for call in (
        lambda: circuit_step(None, 0, gen, tau),
        lambda: circuit_sweep(None, gen, tau),
        lambda: generator_residual(None, 0, gen, tau),
    ):
        with pytest.raises(ValueError, match="tau"):
            call()


def test_expm_of_anti_hermitian_matrix():
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    theta = 0.7
    u = dynamics.expm(-1j * theta * sigma_x)
    expected = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * sigma_x
    assert np.max(np.abs(u - expected)) < 1e-15
    h = random_density(np.random.default_rng(3), 6)
    u = dynamics.expm(-1j * h)
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-13
    assert np.max(np.abs(u @ u - dynamics.expm(-2j * h))) < 1e-13


@pytest.mark.parametrize(
    "matrix",
    [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
     np.array([[math.inf, 0.0], [0.0, 0.0]]), np.ones(3)],
    ids=["hermitian", "non-normal", "infinite", "vector"],
)
def test_expm_rejects_non_anti_hermitian_input(matrix):
    with pytest.raises(ValueError):
        dynamics.expm(matrix)


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


@pytest.mark.parametrize("entry", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_state_is_rejected_by_evolve_and_circuit_step(entry):
    # every Hermiticity, trace and eigenvalue comparison is False for NaN,
    # so finiteness is checked first
    _, _, gen = two_site_setup()
    rho = plus_state()
    rho[0, 1] = rho[1, 0] = entry
    with pytest.raises(ValueError, match="non-finite"):
        evolve(rho, gen, None, EvolutionConfig(total_time=1.0, steps=10))
    with pytest.raises(ValueError, match="non-finite"):
        circuit_step(rho, 0, gen, 1e-3, AncillaOscillator())


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
    for bad_time in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="total_time"):
            EvolutionConfig(total_time=bad_time, steps=10)
    for bad_steps in (True, False, "3", 2.0, 2.5, None):
        with pytest.raises(ValueError, match="steps"):
            EvolutionConfig(total_time=1.0, steps=bad_steps)
    assert EvolutionConfig(total_time=0.0, steps=np.int64(3)).steps == 3


@pytest.mark.parametrize("with_noise", [True, False], ids=["noise", "no-noise"])
def test_evolve_validates_hamiltonian(with_noise):
    lattice = LatticeSpec.chain(3)
    basis = FockBasis(3, 1)
    gen = NoiseGenerator(basis, CouplingKernel(lattice), 1.0) if with_noise else None
    h = kinetic_hamiltonian(basis, lattice).matrix
    rho0 = np.eye(3, dtype=complex) / 3
    cfg = EvolutionConfig(total_time=1.0, steps=50)
    nan, inf = h.copy(), h.copy()
    nan[0, 1] = nan[1, 0] = math.nan
    inf[2, 2] = math.inf
    skew = h.copy()
    skew[0, 2] += 1e-6
    # a vector, non-square, wrong dimension, NaN, infinite, non-Hermitian
    for matrix in (np.ones(3), np.ones((3, 2)), np.eye(2), nan, inf, skew):
        with pytest.raises(ValueError):
            evolve(rho0, gen, matrix, cfg)
    skew[0, 2] = h[0, 2] + 1e-12  # inside HERMITICITY_TOL
    evolve(rho0, gen, skew, cfg)


def test_unitary_evolution_preserves_purity():
    lattice = LatticeSpec.chain(3)
    basis = FockBasis(3, 1)
    h = kinetic_hamiltonian(basis, lattice)
    amp = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    rho0 = np.outer(amp, amp.conj())
    traj = evolve(rho0, None, h, EvolutionConfig(total_time=2.0, steps=400))
    assert np.max(np.abs(traj.purities() - 1.0)) < 1e-8
    assert np.max(np.abs(traj.traces() - 1.0)) < 1e-8
    still = evolve(rho0, None, h, EvolutionConfig(total_time=0.0, steps=3))
    assert all(np.array_equal(state, rho0) for state in still.states)


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
    # noise only: the exact path has no step error, so one step is enough
    _, _, gen = two_site_setup()
    traj = evolve(plus_state(), gen, None, EvolutionConfig(total_time=5.0, steps=1))
    assert np.array_equal(traj.states[-1], plus_state() * np.exp(-5.0 * gen.dephasing_rates))
    # a kinetic Hamiltonian with h ||L'|| > 1/2 is refused, naming the fix
    lattice, basis, gen = two_site_setup()
    h = kinetic_hamiltonian(basis, lattice).matrix
    energies = np.linalg.eigvalsh(h)
    norm = 0.5 * gen.dephasing_rates.max() + energies[-1] - energies[0]
    need = math.ceil(2.0 * 5.0 * norm)
    with pytest.raises(StepSizeError, match=f"at least {need}$"):
        evolve(plus_state(), gen, h, EvolutionConfig(total_time=5.0, steps=need - 1))
    evolve(plus_state(), gen, h, EvolutionConfig(total_time=5.0, steps=need))
    # without the check the run goes ahead; the snapshots are still checked
    loose = EvolutionConfig(total_time=5.0, steps=need - 1, convergence_check=False)
    assert evolve(plus_state(), gen, h, loose).states.shape == (need, 2, 2)


def _sector_setup(sites, particles, xi=0.8):
    lattice = LatticeSpec.chain(sites)
    kernel = CouplingKernel(lattice)
    basis = FockBasis(sites, particles)
    return lattice, kernel, basis, NoiseGenerator(basis, kernel, xi)


@pytest.mark.parametrize("sector", [(3, 2), (4, 3)], ids=str)
@pytest.mark.parametrize("interaction", [False, True], ids=["noise", "noise+interaction"])
def test_exact_path_matches_closed_form(sector, interaction):
    _, kernel, basis, gen = _sector_setup(*sector)
    rho0 = random_density(np.random.default_rng(sum(sector)), basis.dim)
    gamma = sum(gen.site_rates(j) for j in range(basis.num_sites))
    energies = np.zeros(basis.dim)
    h = None
    if interaction:
        h = interaction_hamiltonian(basis, kernel)
        energies = np.diagonal(h.matrix).real
    omega = energies[:, None] - energies[None, :]
    traj = evolve(rho0, gen, h, EvolutionConfig(total_time=2.0, steps=100))
    expected = rho0 * np.exp(
        -traj.times[:, None, None] * gamma - 1j * traj.times[:, None, None] * omega
    )
    assert np.abs(traj.states - expected).max() <= 1e-13


def test_bounded_path_error_within_proven_bound():
    lattice, kernel, basis, gen = _sector_setup(3, 2)
    h = kinetic_hamiltonian(basis, lattice).matrix + interaction_hamiltonian(basis, kernel).matrix
    rho0 = random_density(np.random.default_rng(5), basis.dim)
    gamma = gen.dephasing_rates
    energies = np.linalg.eigvalsh(h)
    norm = 0.5 * gamma.max() + energies[-1] - energies[0]
    total_time = 3.0
    steps = math.ceil(total_time * norm / 0.45)
    x = total_time / steps * norm
    assert 0.4 < x <= 0.45
    traj = evolve(rho0, gen, h, EvolutionConfig(total_time=total_time, steps=steps))
    reference = taylor_reference(gamma, h, rho0, traj.times)
    errors = [trace_norm(s - r) for s, r in zip(traj.states, reference)]
    assert max(errors) < 1e-8
    rk4 = rk4_trajectory(rho0, lambda rho: generator_apply(rho, gen, h), total_time, 50 * steps)
    assert trace_norm(traj.states[-1] - rk4[-1]) < 1e-8


@pytest.mark.parametrize("fault", ["nan", "trace", "negative"])
def test_snapshot_checks_reject_bad_states(fault):
    rng = np.random.default_rng(17)
    times = np.linspace(0.0, 1.0, 100)
    states = np.array([random_density(rng, 4) for _ in times])
    dynamics._check_snapshots(states, times)
    k = 70  # in the second chunk of snapshots
    if fault == "nan":
        states[k, 1, 2] = math.nan
    elif fault == "trace":
        states[k] *= 1.0 + 2e-8
    else:
        states[k] = np.diag([1.0 + 2e-7, 0.0, 0.0, -2e-7]).astype(complex)
    with pytest.raises(StepSizeError, match=f"snapshot {k} "):
        dynamics._check_snapshots(states, times)


def test_snapshot_eigenvalue_floor_is_minus_1e_7():
    times = np.zeros(1)
    inside = np.diag([1.0 + 5e-8, 0.0, -5e-8]).astype(complex)[None]
    dynamics._check_snapshots(inside, times)
    below = np.diag([1.0 + 1.1e-7, 0.0, -1.1e-7]).astype(complex)[None]
    with pytest.raises(StepSizeError, match="eigenvalue -1.10e-07"):
        dynamics._check_snapshots(below, times)


def test_evolve_rejects_a_nan_snapshot():
    # a kernel with a NaN entry makes every decay rate NaN
    lattice, basis, gen = two_site_setup()
    broken = _ShiftedKernel(np.full((2, 2), math.nan), 2, lattice)
    gen = NoiseGenerator(basis, broken, 1.0)
    with pytest.raises(StepSizeError, match="snapshot 0 .* not finite"):
        evolve(plus_state(), gen, None, EvolutionConfig(total_time=1.0, steps=10))


def test_evolve_requires_generator_or_hamiltonian():
    with pytest.raises(ValueError):
        evolve(plus_state(), None, None, EvolutionConfig(total_time=1.0, steps=10))


def test_trajectory_summaries_match_per_snapshot_loops():
    lattice, kernel, basis, gen = _sector_setup(3, 2)
    h = kinetic_hamiltonian(basis, lattice)
    rho0 = random_density(np.random.default_rng(2), basis.dim)
    traj = evolve(rho0, gen, h, EvolutionConfig(total_time=1.0, steps=70))
    states = list(traj.states)
    assert len(states) == 71
    assert np.array_equal(traj.element(1, 4), np.array([s[1, 4] for s in states]))
    assert np.array_equal(traj.traces(), np.array([np.trace(s).real for s in states]))
    assert np.array_equal(traj.purities(), np.array([np.trace(s @ s).real for s in states]))
    assert np.array_equal(
        traj.min_eigenvalues(),
        np.array([np.linalg.eigvalsh(0.5 * (s + s.conj().T)).min() for s in states]),
    )


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
