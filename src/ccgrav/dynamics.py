"""Measure-and-feedback circuit, its master-equation generator, and evolution.

One interaction step at site j is two unitaries on system x ancilla: a weak
measurement U1 = exp(-i sqrt(2 xi tau) n_j P_j) writing the local occupation
into a fresh oscillator, then a classically conditioned force
U2 = exp(-i sqrt(2 tau / xi) X_j O_j) with feedback operator
O_j = sum_{k != j} chi_jk n_k.  Discarding the oscillator leaves, exactly to
first order in tau, the pair term -i tau [n_j O_j, rho], the noise generator

    L_j(rho) = -(xi/2) [n_j, [n_j, rho]] - 1/(2 xi) [O_j, [O_j, rho]],

and a cross term -i tau (O_j rho n_j - n_j rho O_j) from the correlation
between the fresh measurement record and the kick that reads it.  The cross
terms cancel in the sum over sites (chi is symmetric), so the full master
equation is the summed noise plus -i [H0 + V, rho]; per site they are
genuinely present and belong in the linear model ``generator_residual``
subtracts.
The measurement strength sqrt(2 xi tau) is calibrated so that the vacuum
pointer (variance 1/2 per quadrature) produces back-action (xi/2) dn^2,
matching the generator, and so that the conditioned kick, which reads the
just-written record at half weight, emulates the pair term at full strength.

The circuit is evaluated in closed form.  n_j and O_j are diagonal in the
occupation basis, so for each basis state a the product U2 U1 displaces the
ancilla vacuum to the coherent state

    gamma_a = sqrt(xi tau) n_a - i sqrt(tau / xi) O_a,   |gamma_a|^2 = lambda_a,

times the phase exp(-i tau n_a O_a).  Tracing the ancilla out multiplies
each matrix element by the overlap of two coherent states:

    rho_ab -> rho_ab exp(-i tau (n_a O_a - n_b O_b)) <gamma_b|gamma_a>,
    <gamma_b|gamma_a> = exp(-(lambda_a + lambda_b)/2 + gamma_a conj(gamma_b)).

The factor is a Gram matrix times phases, so the map is completely positive
by construction, and it costs O(dim^2) whatever the ancilla truncation.  The
ancilla's photon number in state a is Poisson with mean lambda_a; the
truncation guard bounds the population a ``levels``-level oscillator would
push into its top two levels by the Poisson tail and raises
``TruncationOverflowError`` above ``ANCILLA_LEAK_TOL``.

Since every jump operator is diagonal in the occupation basis, the summed
generator acts elementwise: rho_ab decays at a rate set by the squared
differences of the n and O diagonals between the states a and b.  The
Heisenberg-picture eigenrate on a normal-ordered monomial has a closed form
(``adjoint_coefficient``).  Every rate is ``analytics.noise_rate``, and the
feedback column seen at site l omits chi_ll (``lattice.feedback_coupling``), a
finite-separation correction that matters on small lattices even though it
vanishes relative to the total at large separations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .analytics import noise_rate
from .errors import (
    PositivityError,
    StepSizeError,
    TruncationOverflowError,
    as_index,
    check_positive,
)
from .fock import FockBasis, OperatorMatrix
from .lattice import HBAR, CouplingKernel, feedback_coupling
from .lattice_sums import column_difference_sum

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-8
ANCILLA_LEAK_TOL = 1e-8
EVOLVE_TOL = 1e-8  # proven trace-norm error bound of evolve's Taylor propagator
MAX_STEP_NORM = 0.5  # largest h ||L'|| that bound covers
MAX_TAYLOR_DEGREE = 30
SNAPSHOT_EIGENVALUE_FLOOR = -1e-7
SNAPSHOT_CHUNK = 64  # snapshots per elementwise factor and per batched check
UNIT_ROUNDOFF = 2.0**-53  # u of float64


def _gamma(n: float) -> float:
    """gamma_n = n u / (1 - n u), the relative error of n float64 operations
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def _exp_bound(y: float) -> float:
    """exp(y), or inf where that overflows."""
    return math.exp(y) if y < 700.0 else math.inf


@dataclass(frozen=True)
class AncillaOscillator:
    """Truncated harmonic oscillator with dimensionless canonical X, P.

    [X, P] = i holds exactly below the top truncated level; the ground state
    has zero means and variances 1/2 in both quadratures.  ``circuit_step``
    uses only ``levels``, the truncation its leak guard checks; the matrices
    build the dense system x ancilla circuit when one is wanted.
    """

    levels: int = 24

    def __post_init__(self):
        if self.levels < 4:
            raise ValueError("need at least 4 oscillator levels")

    @cached_property
    def lowering(self) -> np.ndarray:
        a = np.zeros((self.levels, self.levels), dtype=complex)
        for n in range(1, self.levels):
            a[n - 1, n] = math.sqrt(n)
        a.flags.writeable = False
        return a

    @cached_property
    def position(self) -> np.ndarray:
        a = self.lowering
        x = (a + a.conj().T) / math.sqrt(2.0)
        x.flags.writeable = False
        return x

    @cached_property
    def momentum(self) -> np.ndarray:
        a = self.lowering
        p = 1j * (a.conj().T - a) / math.sqrt(2.0)
        p.flags.writeable = False
        return p

    @cached_property
    def vacuum_projector(self) -> np.ndarray:
        proj = np.zeros((self.levels, self.levels), dtype=complex)
        proj[0, 0] = 1.0
        proj.flags.writeable = False
        return proj


@dataclass(frozen=True)
class NoiseGenerator:
    """Summed back-action and feedback noise generator on one Fock sector."""

    basis: FockBasis
    kernel: CouplingKernel
    xi: float

    def __post_init__(self):
        check_positive("measurement strength xi must be positive and finite", self.xi)
        # a subnormal xi passes the test above, but the rates divide by it
        check_positive("measurement strength xi is too small: 1/xi overflows", 1.0 / self.xi)
        if self.kernel.num_sites != self.basis.num_sites:
            raise ValueError("kernel and basis are built over different lattices")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def num_sites(self) -> int:
        return self.basis.num_sites

    @cached_property
    def feedback_diagonals(self) -> np.ndarray:
        """(dim, num_sites) diagonal of O_j = sum_{k != j} chi_jk n_k per state."""
        diag = self.basis.occupations @ feedback_coupling(self.kernel)
        diag.flags.writeable = False
        return diag

    @cached_property
    def dephasing_rates(self) -> np.ndarray:
        """(dim, dim) decay rate of each matrix element under the noise."""
        occ = self.basis.occupations
        fbk = self.feedback_diagonals
        docc = occ[:, None, :] - occ[None, :, :]
        dfbk = fbk[:, None, :] - fbk[None, :, :]
        gamma = noise_rate(self.xi, (docc**2).sum(axis=-1), (dfbk**2).sum(axis=-1))
        gamma.flags.writeable = False
        return gamma

    def site_rates(self, j: int) -> np.ndarray:
        """Single-site contribution to ``dephasing_rates``."""
        occ = self.basis.occupations[:, j]
        fbk = self.feedback_diagonals[:, j]
        docc = occ[:, None] - occ[None, :]
        dfbk = fbk[:, None] - fbk[None, :]
        return noise_rate(self.xi, docc**2, dfbk**2)

    def site_apply(self, rho: np.ndarray, j: int) -> np.ndarray:
        """Exact first-order action of one circuit stage at site j.

        Comprises the coherent pair term -i [n_j O_j, rho], the back-action
        and feedback noise, and the record-kick cross term
        -i (O_j rho n_j - n_j rho O_j), which cancels in the site sum but
        not stage by stage.  All pieces are diagonal-conditioned, so the
        action is elementwise.  ``j`` must be a site index
        (``errors.as_index``, in range); ValueError otherwise.
        """
        j = as_index(j)
        if not 0 <= j < self.num_sites:
            raise ValueError("site index out of range")
        occ = self.basis.occupations[:, j]
        fbk = self.feedback_diagonals[:, j]
        pair = occ * fbk
        coherent = pair[:, None] - pair[None, :]
        cross = fbk[:, None] * occ[None, :] - occ[:, None] * fbk[None, :]
        return (-1j * (coherent + cross) - self.site_rates(j)) * rho


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M+) / 2 of a matrix or of each matrix in a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def _validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError for a non-finite entry, else PositivityError unless
    rho is Hermitian with unit trace and positive semidefinite (a NaN would
    fail none of those comparisons)."""
    if not np.isfinite(rho).all():
        raise ValueError("input density matrix has a non-finite entry")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise PositivityError("input density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise PositivityError("input density matrix does not have unit trace")
    if float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()) < -PSD_TOL:
        raise PositivityError("input density matrix is not positive semidefinite")


def generator_apply(
    rho: np.ndarray, gen: NoiseGenerator, hamiltonian=None
) -> np.ndarray:
    """Right-hand side d rho / dt: summed noise generator plus -i[H, rho]/hbar.

    Hermiticity and trace are preserved for Hermitian input; the noise part
    annihilates every occupation-diagonal state exactly.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError("state dimension does not match the generator's sector")
    out = -gen.dephasing_rates * rho
    if hamiltonian is not None:
        H = _as_matrix(hamiltonian)
        if H.shape != rho.shape:
            raise ValueError("Hamiltonian dimension does not match the state")
        out = out - 1j / HBAR * (H @ rho - rho @ H)
    return out


def _check_hermitian(m: np.ndarray, what: str, *, anti: bool = False) -> None:
    """Raise ValueError unless ``m`` is a finite square matrix equal to its
    conjugate transpose (to minus it when ``anti``) within HERMITICITY_TOL."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} needs a square matrix")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} needs a finite matrix")
    adjoint = -m.conj().T if anti else m.conj().T
    if np.abs(m - adjoint).max(initial=0.0) > HERMITICITY_TOL:
        raise ValueError(f"{what} needs {'an anti-' if anti else 'a '}Hermitian matrix")


def expm(a: np.ndarray) -> np.ndarray:
    """exp(A) for an anti-Hermitian matrix A, from the eigendecomposition of
    the Hermitian iA = V diag(w) V+ as V diag(exp(-i w)) V+.

    Raises ValueError unless A is square and finite and iA is Hermitian
    within HERMITICITY_TOL.
    """
    a = np.asarray(a, dtype=complex)
    _check_hermitian(a, "expm", anti=True)
    w, v = np.linalg.eigh(1j * a)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _ancilla_leak_bound(lam: np.ndarray, levels: int) -> np.ndarray:
    """Upper bound on P[Poisson(lam) >= m], m = levels - 2, per entry.

    The tail sum is at most pmf(m) (m + 1) / (m + 1 - lam), a geometric
    series in lam / (m + 1), for lam < m + 1, and one otherwise.
    """
    m = float(levels - 2)
    bound = np.ones_like(lam)
    inside = lam < m + 1.0
    mean = lam[inside]
    with np.errstate(divide="ignore"):  # log 0 = -inf gives pmf 0
        log_pmf = m * np.log(mean) - mean - math.lgamma(m + 1.0)
    bound[inside] = np.minimum(np.exp(log_pmf) * (m + 1.0) / (m + 1.0 - mean), 1.0)
    return bound


def circuit_step(
    rho: np.ndarray,
    j: int,
    gen: NoiseGenerator,
    tau: float,
    anc: AncillaOscillator | None = None,
    *,
    validate: bool = True,
) -> np.ndarray:
    """One measure-and-feedback stage at site j, ancilla traced out.

    Evaluates Tr_anc[U2 U1 (rho x |vac><vac|) U1+ U2+] in closed form: each
    element rho_ab is multiplied by exp(-i tau (n_a O_a - n_b O_b)) times the
    coherent-state overlap <gamma_b|gamma_a>, with gamma_a = sqrt(xi tau) n_a
    - i sqrt(tau / xi) O_a (see the module docstring).  Occupation-diagonal
    states are exact fixed points.

    ``anc`` sets only the truncation the guard checks: with m = levels - 2,
    the population sum_a |rho_aa| P[Poisson(|gamma_a|^2) >= m] that a
    truncated oscillator would push into its top two levels is bounded by the
    geometric Poisson tail, and ``TruncationOverflowError`` is raised when
    the bound exceeds ``ANCILLA_LEAK_TOL`` or a displacement is not finite.
    ``tau`` must be finite and nonnegative (ValueError).  ``validate=False``
    skips the density-matrix checks so the linear map can be probed on
    non-states (Choi reconstruction).
    """
    check_positive("tau must be finite and nonnegative", tau, allow_zero=True)
    j = as_index(j)
    if not 0 <= j < gen.num_sites:
        raise ValueError("site index out of range")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError("state dimension does not match the generator's sector")
    if validate:
        _validate_density_matrix(rho)
    if anc is None:
        anc = AncillaOscillator()

    occ = gen.basis.occupations[:, j]
    fbk = gen.feedback_diagonals[:, j]
    # gamma = x - i y; an overflow here is caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        x = math.sqrt(tau * gen.xi) * occ
        y = math.sqrt(tau / gen.xi) * fbk
        lam = x * x + y * y
    if not np.isfinite(lam).all():
        raise TruncationOverflowError(
            "an ancilla displacement is beyond the float range; shrink tau"
        )
    leak = float(np.abs(np.diagonal(rho)) @ _ancilla_leak_bound(lam, anc.levels))
    if leak > ANCILLA_LEAK_TOL:
        raise TruncationOverflowError(
            f"population up to {leak:.2e} in the top two ancilla levels; raise "
            f"the truncation (levels={anc.levels}) or shrink tau"
        )
    # <gamma_b|gamma_a> written as exp(-|gamma_a - gamma_b|^2 / 2 + i Im(gamma_a
    # conj(gamma_b))), so the diagonal factor is exactly one
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    pair = tau * occ * fbk
    phase = (x[:, None] * y[None, :] - y[:, None] * x[None, :]) - (
        pair[:, None] - pair[None, :]
    )
    return rho * np.exp(-0.5 * (dx * dx + dy * dy) + 1j * phase)


def circuit_sweep(
    rho: np.ndarray,
    gen: NoiseGenerator,
    tau: float,
    anc: AncillaOscillator | None = None,
    hamiltonian=None,
    *,
    validate: bool = True,
) -> np.ndarray:
    """Apply one circuit step per site, ascending index, fresh ancilla each.

    The optional Hamiltonian acts once per sweep (after the site loop); site
    ordering and Hamiltonian placement only matter at second order in tau.
    """
    check_positive("tau must be finite and nonnegative", tau, allow_zero=True)
    out = np.asarray(rho, dtype=complex)
    if validate:
        _validate_density_matrix(out)
    for j in range(gen.num_sites):
        out = circuit_step(out, j, gen, tau, anc, validate=False)
    if hamiltonian is not None:
        u = expm(-1j * tau / HBAR * _as_matrix(hamiltonian))
        out = u @ out @ u.conj().T
    return out


def trace_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False).sum())


def generator_residual(
    rho: np.ndarray,
    j: int,
    gen: NoiseGenerator,
    tau: float,
    anc: AncillaOscillator | None = None,
) -> float:
    """Trace norm of circuit_step(rho) - (rho + tau L_j(rho)); scales as tau^2.

    ``tau`` must be finite and nonnegative (ValueError).
    """
    check_positive("tau must be finite and nonnegative", tau, allow_zero=True)
    stepped = circuit_step(rho, j, gen, tau, anc)
    linear = np.asarray(rho, dtype=complex) + tau * gen.site_apply(
        np.asarray(rho, dtype=complex), j
    )
    return trace_norm(stepped - linear)


def adjoint_coefficient(
    create_sites: Sequence[int],
    annihilate_sites: Sequence[int],
    gen: NoiseGenerator,
    *,
    site_mode: str = "lattice",
    cutoff_radius: float = 60.0,
    tolerance: float = 1e-3,
    exclude_self_coupling: bool = True,
) -> float:
    """Eigenrate of the Heisenberg-picture noise generator on a monomial.

    The monomial is adag_{j1}..adag_{jN} a_{i1}..a_{iN} with the two index
    lists given.  With c_l the count of creations minus annihilations at
    site l, the rate is

        -(xi/2) sum_l c_l^2  -  1/(2 xi) sum_l w_l^2,
        w_l = sum_k chi_lk c_k  (k != l when exclude_self_coupling).

    site_mode "lattice" runs the feedback sum over the kernel's own sites,
    matching ``generator_apply`` on the finite lattice exactly.  "infinite"
    extends it over the unbounded lattice, truncated at ``cutoff_radius``
    with a continuum tail correction (LatticeSumError when the truncation
    bound exceeds ``tolerance``).  Disabling ``exclude_self_coupling`` keeps
    the diagonal chi_ll inside the column differences, the approximation
    valid at large separations; only that variant is invariant under adding
    a constant to every chi entry.  Site indices must be integers
    (``errors.as_index``); a bool, a fractional value or one out of range
    raises ValueError.
    """
    if site_mode not in ("lattice", "infinite"):
        raise ValueError("site_mode must be 'lattice' or 'infinite'")
    js = np.array([as_index(s) for s in create_sites], dtype=int)
    iss = np.array([as_index(s) for s in annihilate_sites], dtype=int)
    if len(js) != len(iss):
        raise ValueError("creation and annihilation index lists must have equal length")
    n = gen.num_sites
    if ((js < 0) | (js >= n)).any() or ((iss < 0) | (iss >= n)).any():
        raise ValueError("site index out of range")
    c = (np.bincount(js, minlength=n) - np.bincount(iss, minlength=n)).astype(float)
    if not c.any():
        return 0.0

    support = np.flatnonzero(c)
    chi = gen.kernel.matrix[:, support]
    fb = feedback_coupling(gen.kernel, support)
    if site_mode == "lattice":
        w = (fb if exclude_self_coupling else chi) @ c[support]
        return -noise_rate(gen.xi, float(c @ c), float(w @ w))

    lattice = gen.kernel.lattice
    unit = gen.kernel.scale / lattice.spacing  # chi column differences in rate units
    points = np.zeros((support.size, 3))
    points[:, : lattice.dimension] = lattice.integer_coordinates[support]
    raw_sum, _bound = column_difference_sum(
        points, c[support], cutoff_radius=cutoff_radius, tolerance=tolerance
    )
    sum_w_sq = unit**2 * raw_sum
    if exclude_self_coupling:
        # The exclusion changes w_l only at the sources, where the kernel's own
        # chi (entries -unit / (d + 1)) gives w_l without and with chi_ll.
        kept, full = fb[support] @ c[support], chi[support] @ c[support]
        sum_w_sq += float(kept @ kept - full @ full)
    return -noise_rate(gen.xi, float(c @ c), sum_w_sq)


@dataclass(frozen=True)
class EvolutionConfig:
    """Time grid of ``evolve``: ``steps`` uniform intervals over ``total_time``.

    ``convergence_check=False`` lets ``evolve`` run a Hamiltonian step too
    coarse for its proven error bound instead of raising ``StepSizeError``.
    """

    total_time: float
    steps: int
    convergence_check: bool = True

    def __post_init__(self):
        check_positive(
            "total_time must be finite and nonnegative", self.total_time, allow_zero=True
        )
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ValueError("steps must be an integer")
        if self.steps < 1:
            raise ValueError("need at least one step")


@dataclass(frozen=True)
class Trajectory:
    """Density-matrix snapshots at uniform times.

    ``states`` is one (len(times), dim, dim) array; indexing or iterating it
    gives one snapshot at a time.
    """

    times: np.ndarray
    states: np.ndarray

    def element(self, i: int, j: int) -> np.ndarray:
        return self.states[:, i, j].copy()

    def traces(self) -> np.ndarray:
        return np.trace(self.states, axis1=1, axis2=2).real

    def purities(self) -> np.ndarray:
        return np.trace(self.states @ self.states, axis1=1, axis2=2).real

    def min_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(_hermitian_part(self.states)).min(axis=1)

    def to_csv(self, path, element: tuple[int, int] = (0, 1)) -> None:
        """Columns: time, element real/imag, trace, purity, min eigenvalue."""
        i, j = element
        elems = self.element(i, j)
        columns = (self.times, elems.real, elems.imag, self.traces(), self.purities(),
                   self.min_eigenvalues())
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["time", f"rho_{i}{j}_re", f"rho_{i}{j}_im", "trace", "purity", "min_eigenvalue"]
            )
            writer.writerows([f"{v:.12g}" for v in row] for row in zip(*columns))


def _taylor_degree(x: float, budget: float) -> int:
    """Smallest m <= MAX_TAYLOR_DEGREE with sum_{j>m} x^j / j! < budget.

    The tail is bounded by its first term times the geometric factor
    (m + 2) / (m + 2 - x), valid for x < m + 2; MAX_TAYLOR_DEGREE is
    returned when no degree meets the budget.
    """
    term = 1.0
    for m in range(MAX_TAYLOR_DEGREE):
        term *= x / (m + 1)  # x^(m+1) / (m+1)!, the tail's first term
        if x < m + 2 and term * (m + 2) / (m + 2 - x) < budget:
            return m
    return MAX_TAYLOR_DEGREE


def _exact_states(states, rho0, rates, times) -> None:
    """states[k] = rho0 * exp(-times[k] * rates), SNAPSHOT_CHUNK at a time."""
    for lo in range(0, len(times), SNAPSHOT_CHUNK):
        t = times[lo : lo + SNAPSHOT_CHUNK, None, None]
        np.multiply(rho0, np.exp(-t * rates), out=states[lo : lo + len(t)])


def _taylor_rounding(dim, degree, runs, span, decay_max, abs_h_norm) -> float:
    """Trace-norm bound on the rounding error of ``_taylor_states``: every
    computed snapshot minus what the same runs give in exact arithmetic.

    ``span`` is q h, ``decay_max`` is max |Gamma - c| and ``abs_h_norm`` an
    upper bound on the spectral norm of |H| / hbar; see ``evolve`` for the
    derivation.
    """
    g_mm = math.sqrt(2.0) * _gamma(2 * dim + 2)  # H @ term, complex, inner length dim
    g_out = 3.0 * _gamma(2 * degree + 4)  # rounded weights @ terms, inner length degree + 1
    c_step = 2.0 * g_mm * abs_h_norm + 6.0 * _gamma(2) * (decay_max + 2.0 * abs_h_norm)
    y = span * (decay_max + 2.0 * abs_h_norm + c_step)
    per_run = 2.0 * (g_out * _exp_bound(y) + span * c_step * _exp_bound(2.0 * y))
    leak = 2.0 * math.e * span * abs_h_norm
    total = runs * per_run * (2.0 + leak * (runs - 1) / 2.0) * (1.0 + 2.0 * EVOLVE_TOL)
    return math.sqrt(dim) * total


def _taylor_states(states, rho0, gamma, H, config) -> float:
    """Fill states[1:] by truncated Taylor series of exp(t L), with the
    trace-norm error proven below EVOLVE_TOL (see ``evolve``).

    Returns ``_taylor_rounding`` for the run, or inf when the truncation
    bound does not hold (``config.convergence_check`` off, or no degree up
    to MAX_TAYLOR_DEGREE meets its budget).  A non-finite Gamma raises
    StepSizeError for snapshot 0, as on the exact path, where
    rho0 * exp(-0 * Gamma) is not finite.
    """
    if not np.isfinite(gamma).all():
        raise StepSizeError("snapshot 0 (t = 0) is not finite: a decay rate is not finite")
    steps, dim = config.steps, rho0.shape[0]
    shift = 0.5 * float(gamma.max())
    decay = gamma - shift
    energies = np.linalg.eigvalsh(H)
    norm = float(np.abs(decay).max()) + float(energies[-1] - energies[0]) / HBAR
    h = config.total_time / steps
    x = h * norm
    if config.convergence_check and x > MAX_STEP_NORM:
        need = math.ceil(config.total_time * norm / MAX_STEP_NORM)
        while config.total_time / need * norm > MAX_STEP_NORM:
            need += 1
        raise StepSizeError(
            f"x = h ||L'|| = {x:.3g} is above {MAX_STEP_NORM:g}, the largest step "
            f"the error bound covers; raise steps from {steps} to at least {need}"
        )
    # Runs of q snapshots share one expansion about the run's first state.
    q = steps if x * steps <= 1.0 else max(1, int(1.0 / x))
    runs = -(-steps // q)
    degree = _taylor_degree(q * x, EVOLVE_TOL / ((runs + 1) * math.sqrt(dim)))
    k = np.arange(1, q + 1)
    weights = np.exp(-shift * h * k)[:, None] * (k[:, None] / q) ** np.arange(degree + 1)
    H = H / HBAR
    terms = np.empty((degree + 1, dim, dim), dtype=states.dtype)
    states[0] = rho0
    for start in range(0, steps, q):
        n = min(q, steps - start)
        term = terms[0] = states[start]
        for j in range(1, degree + 1):
            a = H @ term  # -i [H, term] = -i (a - a+) for Hermitian term
            term = terms[j] = (q * h / j) * (-decay * term - 1j * (a - a.conj().T))
        states[start + 1 : start + 1 + n] = (
            weights[:n] @ terms.reshape(degree + 1, -1)
        ).reshape(n, dim, dim)
    if not config.convergence_check or degree == MAX_TAYLOR_DEGREE:
        return math.inf
    # || |H| ||_2 is the largest eigenvalue of |H|; eigvalsh's backward error,
    # taken as gamma_{10 dim^2} ||A||_F <= gamma_{10 dim^2} sqrt(dim) ||A||_2,
    # bounds how far below it the computed one may lie
    abs_h_norm = float(np.linalg.eigvalsh(np.abs(H))[-1])
    abs_h_norm /= 1.0 - math.sqrt(dim) * _gamma(10 * dim * dim)
    return _taylor_rounding(dim, degree, runs, q * h, float(np.abs(decay).max()), abs_h_norm)


def _check_snapshots(states, times, *, spectral: bool = True) -> None:
    """StepSizeError unless every snapshot is finite, has unit trace within
    TRACE_TOL and, when ``spectral``, passes ``_check_spectra``; checked
    SNAPSHOT_CHUNK snapshots at a time."""
    for lo in range(0, len(states), SNAPSHOT_CHUNK):
        chunk = states[lo : lo + SNAPSHOT_CHUNK]
        finite = np.isfinite(chunk).all(axis=(1, 2))
        if not finite.all():
            k = lo + int(np.argmin(finite))
            raise StepSizeError(f"snapshot {k} (t = {times[k]:g}) is not finite")
        drift = np.abs(np.trace(chunk, axis1=1, axis2=2) - 1.0)
        if drift.max() > TRACE_TOL:
            k = lo + int(np.argmax(drift))
            raise StepSizeError(
                f"snapshot {k} (t = {times[k]:g}) is off unit trace by {drift.max():.2e}"
            )
        if spectral:
            _check_spectra(chunk, times, lo)


def _check_spectra(chunk, times, lo) -> None:
    """StepSizeError unless the Hermitian part of every snapshot in
    ``chunk`` (snapshot ``lo`` first) has no eigenvalue below
    SNAPSHOT_EIGENVALUE_FLOOR."""
    herm = _hermitian_part(chunk)
    floor = -SNAPSHOT_EIGENVALUE_FLOOR * np.eye(chunk.shape[-1])
    try:  # herm + |floor| I positive definite <=> min eigenvalue > floor
        np.linalg.cholesky(herm + floor)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(herm).min(axis=1)
        if low.min() < SNAPSHOT_EIGENVALUE_FLOOR:
            k = lo + int(np.argmin(low))
            raise StepSizeError(
                f"snapshot {k} (t = {times[k]:g}) has eigenvalue {low.min():.2e} "
                f"below {SNAPSHOT_EIGENVALUE_FLOOR:g}"
            ) from None


def evolve(
    rho0: np.ndarray,
    gen: NoiseGenerator | None,
    hamiltonian=None,
    config: EvolutionConfig | None = None,
) -> Trajectory:
    """Solve d rho / dt = L(rho), the summed noise generator plus
    -i [H, rho] / hbar, at ``config.steps + 1`` uniform times.

    ``hamiltonian`` must be square, finite, of the state's dimension and
    Hermitian within HERMITICITY_TOL (ValueError).  It and ``rho0`` enter
    through their Hermitian parts.  Two propagators:

    - H absent or diagonal (the interaction Hamiltonian is): every noise
      operator is diagonal in the occupation basis too, so
      rho_ab(t) = rho_ab(0) exp(-t (Gamma_ab + i (E_a - E_b) / hbar)) holds
      exactly, evaluated for all snapshots at once; no step is too coarse.
    - Any other H: with c = max Gamma / 2, L = L' - c and
      ||L'|| <= max |Gamma - c| + (lambda_max(H) - lambda_min(H)) / hbar in
      the Frobenius operator norm.  With h = total_time / steps and
      x = h ||L'||, runs of q = floor(1 / x) snapshots share one degree-m
      Taylor expansion of exp(t L') about the run's first state, each
      snapshot evaluated at its own offset.  m is the smallest degree with
      (runs + 1) sqrt(dim) sum_{j>m} (q x)^j / j! < 1e-8; since exp(t L) is
      trace preserving and completely positive, earlier errors do not grow,
      and every snapshot is within 1e-8 of the exact solution in trace
      norm.  The bound needs x <= 1/2: ``StepSizeError`` names x and the
      smallest ``steps`` that passes, unless ``config.convergence_check``
      is False, in which case the run goes ahead without the bound.

    Every snapshot is checked to be finite and to have unit trace within
    1e-8, else ``StepSizeError``.  Its positivity is proven where a theorem
    covers the run; only where none does, and always when
    ``config.convergence_check`` is False, the scan ``_check_spectra`` runs
    too (a batched Cholesky of each Hermitian part plus 1e-7 I, and
    ``StepSizeError`` for an eigenvalue below -1e-7).  The proof, in the
    Frobenius norm unless stated, with u = 2^-53, gamma_n = n u / (1 - n u)
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), s sites
    and T = total_time:

    - Gamma_ab = |f_a - f_b|^2 for the features f_a = (sqrt(xi/2) n_a,
      O_a / sqrt(2 xi)), so exp(-t Gamma) is a Gaussian kernel: positive
      semidefinite (Schoenberg) with unit diagonal, and -Gamma o is a
      completely positive, unital generator.  The stored Gamma is within a
      relative gamma_{s+4} of these distances.  Run-time condition: Gamma
      is real and finite.
    - Exact path.  By Schur's product theorem
      lambda_min(rho0 o K) >= lambda_min(rho0) >= -1e-10 for K = exp(-t Gamma)
      under the diagonal unitary congruence of the phases.  Each computed
      entry is rho0_ab K_ab (1 + e_ab) with
      |e_ab| <= gamma_{s+16} + gamma_4 T (max E - min E) / hbar: the rate
      rounds relatively, and x exp(-x) <= 1 keeps that inside the kernel;
      the phase rounds relatively to t (E_a - E_b).  So the snapshot is
      within max |e| ||rho0||_F of rho0 o K.
    - Taylor path, with ``convergence_check``.  exp(t L) is completely
      positive, trace preserving and unital (Gamma_aa = 0), so
      lambda_min(rho(t)) >= lambda_min(rho0), and the truncation moves it by
      at most 1e-8 (Weyl).  The runs use Gamma' = fl(Gamma - c) + c, which is
      nonnegative and within gamma_{s+6} max Gamma of the distances, so
      by Duhamel the exact solution moves by at most
      T gamma_{s+6} max Gamma ||rho0||_F.  Rounding (``_taylor_rounding``):
      with D = max |Gamma - c|, eta >= || |H| / hbar ||_2 (one eigvalsh of
      |H|), span s_q = q h and m the degree, a complex fl(A B) of inner
      length n is within sqrt(2) gamma_{2n+2} |A| |B| of A B, so one
      recurrence step j adds at most (s_q / j) c ||term|| with
      c = 2 sqrt(2) gamma_{2 dim+2} eta + 6 gamma_2 (D + 2 eta), and the
      rounded weights @ terms at most 3 gamma_{2m+4} sum |w_j| ||term_j||.
      With Y = s_q (D + 2 eta + c), a run from a start of norm at most 2
      rounds by at most rho = 2 (3 gamma_{2m+4} e^Y + s_q c e^{2Y}).
      Hermitian errors are carried by the exact map, which contracts the
      Frobenius norm; an anti-Hermitian error A (the recurrence keeps
      Hermitian terms Hermitian to the bit, the last product need not) only
      decays, and leaks into the Hermitian part through -i {H, A}, at most
      2 e s_q eta ||A|| per run.  After R runs the rounding is at most
      R rho (2 + e s_q eta (R - 1)) (1 + 2e-8), times sqrt(dim) in trace
      norm.  ``StepSizeError`` stops a run before x > 1/2 can void this.

    The scan is skipped when 1e-10 + (1e-8 on the Taylor path) + these
    bounds + gamma_{10 dim^2} ||rho0||_F (the eigvalsh that validated rho0)
    stays below 1e-7, with ||rho0||_F <= 1 + 1e-8 + 2e-10 dim.  Rounding in
    eigvalsh's spread of H and in the grid times changes the terms by
    relative amounts of order dim^2 u and stays inside that margin.
    """
    if gen is None and hamiltonian is None:
        raise ValueError("need a noise generator, a Hamiltonian, or both")
    if config is None:
        raise ValueError("an EvolutionConfig is required")
    rho0 = np.asarray(rho0, dtype=complex)
    _validate_density_matrix(rho0)
    rho0 = _hermitian_part(rho0)
    dim = rho0.shape[0]
    if gen is not None and gen.dim != dim:
        raise ValueError("state dimension does not match the generator's sector")
    gamma = np.zeros((dim, dim)) if gen is None else gen.dephasing_rates
    H = None
    if hamiltonian is not None:
        H = _as_matrix(hamiltonian)
        _check_hermitian(H, "the Hamiltonian")
        if H.shape != rho0.shape:
            raise ValueError("Hamiltonian dimension does not match the state")
        H = _hermitian_part(H)

    times = np.linspace(0.0, config.total_time, config.steps + 1)
    states = np.empty((config.steps + 1, dim, dim), dtype=complex)
    sites = 0 if gen is None else gen.num_sites
    # where the proof holds, every snapshot's Hermitian part has no eigenvalue
    # below -PSD_TOL - error; the first term is eigvalsh's error on rho0
    norm0 = 1.0 + TRACE_TOL + 2.0 * dim * PSD_TOL  # >= ||rho0||_1 >= ||rho0||_F
    error = _gamma(10 * dim * dim) * norm0
    if H is None or not (H - np.diag(np.diagonal(H))).any():
        if H is None:
            _exact_states(states, rho0, gamma, times)
            spread = 0.0
        else:
            energies = np.diagonal(H).real / HBAR
            _exact_states(states, rho0, gamma + 1j * (energies[:, None] - energies), times)
            spread = float(energies.max() - energies.min())
        rel = _gamma(sites + 16) + _gamma(4) * config.total_time * spread
        error += rel * norm0
    else:
        error += EVOLVE_TOL + _taylor_states(states, rho0, gamma, H, config)
        error += config.total_time * _gamma(sites + 6) * float(gamma.max()) * norm0
    proven = (
        np.isrealobj(gamma)
        and bool(np.isfinite(gamma).all())
        and PSD_TOL + error < -SNAPSHOT_EIGENVALUE_FLOOR
    )
    _check_snapshots(states, times, spectral=not proven)
    return Trajectory(times, states)
