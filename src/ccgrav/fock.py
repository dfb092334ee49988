"""Fixed-total-number bosonic Fock sectors and dense operator matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import HBAR, CouplingKernel, LatticeSpec, feedback_coupling


def _compositions(total: int, parts: int):
    """Occupation vectors summing to ``total``, lexicographically descending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class FockBasis:
    """Occupation basis of ``total_particles`` bosons on ``num_sites`` sites.

    States are ordered lexicographically descending so basis layouts are
    deterministic; the index map is the exact inverse of the state list.
    Everything in the package lives inside one such superselected sector.
    """

    def __init__(self, num_sites: int, total_particles: int):
        if num_sites < 1:
            raise ValueError("need at least one site")
        if total_particles < 0:
            raise ValueError("total particle number must be nonnegative")
        self.num_sites = int(num_sites)
        self.total_particles = int(total_particles)
        self.states: tuple[tuple[int, ...], ...] = tuple(
            _compositions(self.total_particles, self.num_sites)
        )
        self.index: dict[tuple[int, ...], int] = {
            state: k for k, state in enumerate(self.states)
        }
        assert len(self.states) == math.comb(
            self.total_particles + self.num_sites - 1, self.total_particles
        )

    @property
    def dim(self) -> int:
        return len(self.states)

    @cached_property
    def occupations(self) -> np.ndarray:
        """(dim, num_sites) float array of occupation numbers."""
        occ = np.array(self.states, dtype=float).reshape(self.dim, self.num_sites)
        occ.flags.writeable = False
        return occ

    def __repr__(self) -> str:
        return f"FockBasis(num_sites={self.num_sites}, total_particles={self.total_particles})"


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator on a FockBasis sector, tagged with a label."""

    matrix: np.ndarray
    label: str

    @classmethod
    def wrap(cls, matrix: np.ndarray, label: str) -> "OperatorMatrix":
        m = np.ascontiguousarray(matrix, dtype=complex)
        m.flags.writeable = False
        return cls(m, label)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> np.ndarray:
        return self.matrix.conj().T

    def to_json_pairs(self) -> list:
        """Array-of-arrays of [real, imag] pairs, for debugging dumps."""
        return [
            [[float(v.real), float(v.imag)] for v in row] for row in self.matrix
        ]


@dataclass(frozen=True)
class Region:
    """Nonempty subset of lattice site indices."""

    sites: tuple[int, ...]

    def __post_init__(self):
        if not self.sites:
            raise ValueError("region must contain at least one site")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("region sites must be distinct")

    @classmethod
    def full(cls, num_sites: int) -> "Region":
        return cls(tuple(range(num_sites)))

    def validate(self, num_sites: int) -> None:
        if any(s < 0 or s >= num_sites for s in self.sites):
            raise ValueError("region site index out of range")


def _check_site(basis: FockBasis, j: int) -> None:
    if not 0 <= j < basis.num_sites:
        raise ValueError(f"site index {j} out of range for {basis.num_sites} sites")


def number_op(basis: FockBasis, j: int) -> OperatorMatrix:
    """Diagonal occupation operator for site j."""
    _check_site(basis, j)
    return OperatorMatrix.wrap(np.diag(basis.occupations[:, j]), f"n_{j}")


def total_number_op(basis: FockBasis) -> OperatorMatrix:
    return OperatorMatrix.wrap(
        np.diag(basis.occupations.sum(axis=1)), "n_total"
    )


def one_body_op(basis: FockBasis, h: np.ndarray, label: str) -> OperatorMatrix:
    """Lift a single-particle matrix h to sum_{p,q} h[p,q] adag_p a_q."""
    L = basis.num_sites
    if h.shape != (L, L):
        raise ValueError("single-particle matrix has wrong shape")
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        for q in range(L):
            nq = occ[q]
            if nq == 0:
                continue
            for p in range(L):
                hpq = h[p, q]
                if hpq == 0:
                    continue
                if p == q:
                    out[col, col] += hpq * nq
                else:
                    hopped = list(occ)
                    hopped[q] -= 1
                    hopped[p] += 1
                    row = basis.index[tuple(hopped)]
                    out[row, col] += hpq * math.sqrt(nq * (occ[p] + 1))
    return OperatorMatrix.wrap(out, label)


def hop_op(basis: FockBasis, j: int, i: int) -> OperatorMatrix:
    """Matrix of adag_j a_i on the fixed-N sector."""
    _check_site(basis, j)
    _check_site(basis, i)
    h = np.zeros((basis.num_sites, basis.num_sites))
    h[j, i] = 1.0
    return one_body_op(basis, h, f"hop_{j}_{i}")


def interaction_hamiltonian(basis: FockBasis, kernel: CouplingKernel) -> OperatorMatrix:
    """Diagonal pair interaction hbar * sum_{j != k} chi_jk n_j n_k.

    The double sum counts each unordered pair twice, matching the factor
    one-half folded into chi.
    """
    if kernel.num_sites != basis.num_sites:
        raise ValueError("kernel and basis are built over different lattices")
    occ = basis.occupations
    pair = np.einsum("aj,jk,ak->a", occ, feedback_coupling(kernel), occ)
    return OperatorMatrix.wrap(np.diag(HBAR * pair), "interaction")


def _k_values(extent: int, spacing: float) -> np.ndarray:
    """Discrete periodic wavenumbers 2 pi n / (L a), n in (-L/2, L/2]."""
    ns = np.arange(-((extent - 1) // 2), extent // 2 + 1)
    return 2.0 * math.pi * ns / (extent * spacing)


def kinetic_hamiltonian(
    basis: FockBasis, lattice: LatticeSpec, mass: float = 1.0
) -> OperatorMatrix:
    """Free dispersion hbar^2 k^2 / 2m on the periodic reciprocal lattice."""
    if lattice.num_sites != basis.num_sites:
        raise ValueError("lattice and basis sizes differ")
    if not mass > 0:
        raise ValueError("mass must be positive")
    axes_k = [_k_values(n, lattice.spacing) for n in lattice.extents]
    coords = lattice.integer_coordinates * lattice.spacing
    L = lattice.num_sites
    h = np.zeros((L, L), dtype=complex)
    for kvec in np.array(np.meshgrid(*axes_k, indexing="ij")).reshape(len(axes_k), -1).T:
        energy = (HBAR**2) * float(kvec @ kvec) / (2.0 * mass)
        phases = np.exp(1j * coords @ kvec)
        h += energy * np.outer(phases, phases.conj())
    h /= L
    h = 0.5 * (h + h.conj().T)
    return one_body_op(basis, h, "kinetic")


def momentum_axis_coefficient(n: int) -> complex:
    """1D zone integral (a/2pi) int k exp(-i k n a) dk, in units hbar/a."""
    if n == 0:
        return 0.0 + 0.0j
    return 1j * (-1.0) ** n / n


def momentum_sq_axis_coefficient(n: int) -> float:
    """1D zone integral (a/2pi) int k^2 exp(-i k n a) dk, in units (hbar/a)^2."""
    if n == 0:
        return math.pi**2 / 3.0
    return 2.0 * (-1.0) ** n / n**2


def momentum_op(
    basis: FockBasis, lattice: LatticeSpec, region: Region, axis: int = 0
) -> OperatorMatrix:
    """Net momentum component of the region, from the closed-form zone integrals.

    Coefficients are a^3 hbar / (2 pi)^3 times the cubic-zone integral of
    k_axis; the 1/(2 pi) per axis is the normalisation for which the
    commutator with the region position equals i hbar times the region
    number operator on zone-edge-orthogonal states (see tests).
    """
    region.validate(lattice.num_sites)
    if not 0 <= axis < lattice.dimension:
        raise ValueError("axis out of range")
    if lattice.num_sites != basis.num_sites:
        raise ValueError("lattice and basis sizes differ")
    a = lattice.spacing
    ints = lattice.integer_coordinates
    L = lattice.num_sites
    h = np.zeros((L, L), dtype=complex)
    for jp in region.sites:  # creation index
        for j in region.sites:  # annihilation index
            delta = ints[j] - ints[jp]
            if any(delta[ax] != 0 for ax in range(lattice.dimension) if ax != axis):
                continue
            h[jp, j] = HBAR / a * momentum_axis_coefficient(int(delta[axis]))
    return one_body_op(basis, h, f"p_axis{axis}")


def momentum_sq_op(
    basis: FockBasis, lattice: LatticeSpec, region: Region
) -> OperatorMatrix:
    """Squared net momentum of the region (|k|^2 zone weight)."""
    region.validate(lattice.num_sites)
    if lattice.num_sites != basis.num_sites:
        raise ValueError("lattice and basis sizes differ")
    a = lattice.spacing
    ints = lattice.integer_coordinates
    L = lattice.num_sites
    dim = lattice.dimension
    h = np.zeros((L, L), dtype=complex)
    for jp in region.sites:
        for j in region.sites:
            delta = ints[j] - ints[jp]
            value = 0.0
            for axis in range(dim):
                if any(delta[ax] != 0 for ax in range(dim) if ax != axis):
                    continue
                value += momentum_sq_axis_coefficient(int(delta[axis]))
            h[jp, j] = (HBAR / a) ** 2 * value
    return one_body_op(basis, h, "p_sq")
