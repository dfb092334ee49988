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

Since every jump operator is diagonal in the occupation basis, the summed
generator acts elementwise: rho_ab decays at a rate set by the squared
differences of the n and O diagonals between the states a and b.  The
Heisenberg-picture eigenrate on a normal-ordered monomial has a closed form
(``adjoint_coefficient``); note that the feedback column seen at site l
omits chi_ll, a finite-separation correction that matters on small lattices
even though it vanishes relative to the total at large separations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .errors import (
    PositivityError,
    StepSizeError,
    TruncationOverflowError,
    check_positive,
)
from .fock import FockBasis, OperatorMatrix
from .lattice import HBAR, CouplingKernel
from .lattice_sums import column_difference_sum

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-8
ANCILLA_LEAK_TOL = 1e-8


@dataclass(frozen=True)
class AncillaOscillator:
    """Truncated harmonic oscillator with dimensionless canonical X, P.

    [X, P] = i holds exactly below the top truncated level; the ground state
    has zero means and variances 1/2 in both quadratures.
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
        occ = self.basis.occupations
        chi = self.kernel.matrix
        diag = occ @ chi - occ * np.diag(chi)[None, :]
        diag.flags.writeable = False
        return diag

    @cached_property
    def dephasing_rates(self) -> np.ndarray:
        """(dim, dim) decay rate of each matrix element under the noise."""
        occ = self.basis.occupations
        fbk = self.feedback_diagonals
        docc = occ[:, None, :] - occ[None, :, :]
        dfbk = fbk[:, None, :] - fbk[None, :, :]
        gamma = 0.5 * self.xi * (docc**2).sum(axis=-1)
        gamma += (0.5 / self.xi) * (dfbk**2).sum(axis=-1)
        gamma.flags.writeable = False
        return gamma

    def site_rates(self, j: int) -> np.ndarray:
        """Single-site contribution to ``dephasing_rates``."""
        occ = self.basis.occupations[:, j]
        fbk = self.feedback_diagonals[:, j]
        docc = occ[:, None] - occ[None, :]
        dfbk = fbk[:, None] - fbk[None, :]
        return 0.5 * self.xi * docc**2 + (0.5 / self.xi) * dfbk**2

    def site_apply(self, rho: np.ndarray, j: int) -> np.ndarray:
        """Exact first-order action of one circuit stage at site j.

        Comprises the coherent pair term -i [n_j O_j, rho], the back-action
        and feedback noise, and the record-kick cross term
        -i (O_j rho n_j - n_j rho O_j), which cancels in the site sum but
        not stage by stage.  All pieces are diagonal-conditioned, so the
        action is elementwise.
        """
        occ = self.basis.occupations[:, j]
        fbk = self.feedback_diagonals[:, j]
        pair = occ * fbk
        coherent = pair[:, None] - pair[None, :]
        cross = fbk[:, None] * occ[None, :] - occ[:, None] * fbk[None, :]
        return (-1j * (coherent + cross) - self.site_rates(j)) * rho


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)


def _validate_density_matrix(rho: np.ndarray) -> None:
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


def _circuit_unitaries(gen: NoiseGenerator, j: int, tau: float, anc: AncillaOscillator):
    occ = np.asarray(gen.basis.occupations[:, j], dtype=float)
    fbk = np.asarray(gen.feedback_diagonals[:, j], dtype=float)
    u1 = expm(-1j * math.sqrt(2.0 * gen.xi * tau) * np.kron(np.diag(occ), anc.momentum))
    u2 = expm(-1j * math.sqrt(2.0 * tau / gen.xi) * np.kron(np.diag(fbk), anc.position))
    return u2 @ u1


def _apply_circuit(rho, gen, j, tau, anc):
    u = _circuit_unitaries(gen, j, tau, anc)
    joint = np.kron(rho, anc.vacuum_projector)
    out = u @ joint @ u.conj().T
    d, nf = gen.dim, anc.levels
    out4 = out.reshape(d, nf, d, nf)
    leak = float(np.einsum("anan->", out4[:, nf - 2 :, :, nf - 2 :]).real)
    if leak > ANCILLA_LEAK_TOL:
        raise TruncationOverflowError(
            f"population {leak:.2e} in the top two ancilla levels; raise the "
            f"truncation (levels={nf}) or shrink tau"
        )
    return np.einsum("anbn->ab", out4)


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

    Implements Tr_anc[U2 U1 (rho x |vac><vac|) U1+ U2+] with dense matrix
    exponentials on the joint space.  Occupation-diagonal states are exact
    fixed points.  ``validate=False`` skips the density-matrix checks so the
    linear map can be probed on non-states (Choi reconstruction).
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if not 0 <= j < gen.num_sites:
        raise ValueError("site index out of range")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError("state dimension does not match the generator's sector")
    if validate:
        _validate_density_matrix(rho)
    if anc is None:
        anc = AncillaOscillator()
    return _apply_circuit(rho, gen, j, tau, anc)


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
    if anc is None:
        anc = AncillaOscillator()
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
    """Trace norm of circuit_step(rho) - (rho + tau L_j(rho)); scales as tau^2."""
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
    a constant to every chi entry.
    """
    js = [int(s) for s in create_sites]
    iss = [int(s) for s in annihilate_sites]
    if len(js) != len(iss):
        raise ValueError("creation and annihilation index lists must have equal length")
    for s in js + iss:
        if not 0 <= s < gen.num_sites:
            raise ValueError("site index out of range")

    counts: dict[int, float] = {}
    for s in js:
        counts[s] = counts.get(s, 0.0) + 1.0
    for s in iss:
        counts[s] = counts.get(s, 0.0) - 1.0
    counts = {s: c for s, c in counts.items() if c != 0.0}
    measurement_part = -0.5 * gen.xi * sum(c * c for c in counts.values())
    if not counts:
        return 0.0

    chi = gen.kernel.matrix
    c_vec = np.zeros(gen.num_sites)
    for s, c in counts.items():
        c_vec[s] = c

    if site_mode == "lattice":
        w = chi @ c_vec
        if exclude_self_coupling:
            w = w - np.diag(chi) * c_vec
        return measurement_part - (0.5 / gen.xi) * float(w @ w)

    if site_mode != "infinite":
        raise ValueError("site_mode must be 'lattice' or 'infinite'")

    lattice = gen.kernel.lattice
    a = lattice.spacing
    unit = gen.kernel.scale / a  # chi column differences in rate units
    points, weights = [], []
    coords = {}
    for s, c in counts.items():
        pos = lattice.integer_coordinates[s].astype(float)
        pos3 = np.zeros(3)
        pos3[: pos.shape[0]] = pos
        points.append(tuple(pos3))
        weights.append(c)
        coords[s] = pos3
    raw_sum, _bound = column_difference_sum(
        points, weights, cutoff_radius=cutoff_radius, tolerance=tolerance
    )
    if exclude_self_coupling:
        # The exclusion changes only the finitely many l with c_l != 0:
        # w_l = -(unit) (v_l - c_l) instead of -(unit) v_l.
        for s, c in counts.items():
            v_l = 0.0
            for s2, c2 in counts.items():
                dist = float(np.linalg.norm(coords[s] - coords[s2]))
                v_l += c2 / (dist + 1.0)
            raw_sum += (v_l - c) ** 2 - v_l**2
    return measurement_part - (0.5 / gen.xi) * unit**2 * raw_sum


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration setup for the master equation."""

    total_time: float
    steps: int
    convergence_check: bool = True

    def __post_init__(self):
        if self.total_time < 0:
            raise ValueError("total_time must be nonnegative")
        if self.steps < 1:
            raise ValueError("need at least one step")


@dataclass(frozen=True)
class Trajectory:
    """Density-matrix snapshots at uniform times."""

    times: np.ndarray
    states: tuple[np.ndarray, ...]

    def element(self, i: int, j: int) -> np.ndarray:
        return np.array([state[i, j] for state in self.states])

    def traces(self) -> np.ndarray:
        return np.array([np.trace(s).real for s in self.states])

    def purities(self) -> np.ndarray:
        return np.array([np.trace(s @ s).real for s in self.states])

    def min_eigenvalues(self) -> np.ndarray:
        return np.array(
            [np.linalg.eigvalsh(0.5 * (s + s.conj().T)).min() for s in self.states]
        )

    def to_csv(self, path, element: tuple[int, int] = (0, 1)) -> None:
        """Columns: time, element real/imag, trace, purity, min eigenvalue."""
        i, j = element
        elems = self.element(i, j)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["time", f"rho_{i}{j}_re", f"rho_{i}{j}_im", "trace", "purity", "min_eigenvalue"]
            )
            for t, e, tr, pu, mn in zip(
                self.times, elems, self.traces(), self.purities(), self.min_eigenvalues()
            ):
                writer.writerow(
                    [f"{v:.12g}" for v in (t, e.real, e.imag, tr, pu, mn)]
                )


def _rk4_run(rho0, rhs, total_time, steps):
    h = total_time / steps
    states = [rho0.copy()]
    rho = rho0.copy()
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho.copy())
    return states


def evolve(
    rho0: np.ndarray,
    gen: NoiseGenerator | None,
    hamiltonian=None,
    config: EvolutionConfig | None = None,
) -> Trajectory:
    """Integrate the master equation with a fixed-step 4th-order scheme.

    The step count must be fine enough that doubling it moves the final
    state by less than 1e-8 in trace norm (checked unless disabled in the
    config); every snapshot is verified to keep unit trace within 1e-8 and
    minimum eigenvalue above -1e-7.
    """
    if gen is None and hamiltonian is None:
        raise ValueError("need a noise generator, a Hamiltonian, or both")
    if config is None:
        raise ValueError("an EvolutionConfig is required")
    rho0 = np.asarray(rho0, dtype=complex)
    _validate_density_matrix(rho0)
    H = None if hamiltonian is None else _as_matrix(hamiltonian)

    if gen is not None:
        rhs = lambda rho: generator_apply(rho, gen, H)
    else:
        rhs = lambda rho: -1j / HBAR * (H @ rho - rho @ H)

    states = _rk4_run(rho0, rhs, config.total_time, config.steps)
    if config.convergence_check and config.total_time > 0:
        finer = _rk4_run(rho0, rhs, config.total_time, 2 * config.steps)
        drift = trace_norm(states[-1] - finer[-1])
        if drift >= 1e-8:
            raise StepSizeError(
                f"halving the step moves the final state by {drift:.2e} in "
                f"trace norm; raise steps above {config.steps}"
            )

    times = np.linspace(0.0, config.total_time, config.steps + 1)
    for state in states:
        if abs(np.trace(state).real - 1.0) > 1e-8:
            raise StepSizeError("trajectory lost unit trace; raise steps")
        if np.linalg.eigvalsh(0.5 * (state + state.conj().T)).min() < -1e-7:
            raise StepSizeError("trajectory lost positivity; raise steps")
    return Trajectory(times, tuple(states))
