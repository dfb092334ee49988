"""Cutoff-lattice geometry, sinc mode functions and the softened coupling kernel.

Internal unit system: hbar = 1, lengths in units of the cutoff spacing a
(spacing defaults to 1), rates in units of scale/spacing where ``scale`` is
the coupling prefactor G m^2 / (2 hbar).  SI values enter only through the
``bounds`` module; keeping the dynamical core in order-one units avoids
underflow with G ~ 1e-11 and hbar ~ 1e-34.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import as_index
from .quadrature import simpson_refined

HBAR = 1.0  # internal units


@dataclass(frozen=True)
class LatticeSpec:
    """Rectangular block of sites centred on the origin.

    Site coordinates are ``spacing * (integer vector)``; the site index runs
    row-major over the integer grid, and index <-> coordinate is a bijection.
    ``si_spacing`` is carried as metadata only and never enters a formula.
    ``dimension`` and each entry of ``extents`` go through
    ``errors.as_index``: an integral real such as 2.0 is stored as the int
    2, and a bool or a fractional value raises ValueError.
    """

    dimension: int = 1
    spacing: float = 1.0
    extents: tuple[int, ...] = (2,)
    si_spacing: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "dimension", as_index(self.dimension, "dimension"))
        object.__setattr__(
            self, "extents", tuple(as_index(e, "extents entry") for e in self.extents)
        )
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
        if len(self.extents) != self.dimension:
            raise ValueError("extents must list sites per axis, one entry per axis")
        if any(e < 1 for e in self.extents):
            raise ValueError("extents must be positive integers")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError("spacing must be positive and finite")

    @classmethod
    def chain(cls, num_sites: int, spacing: float = 1.0) -> "LatticeSpec":
        """One-dimensional lattice of ``num_sites`` sites."""
        return cls(dimension=1, spacing=spacing, extents=(num_sites,))

    @property
    def num_sites(self) -> int:
        return int(np.prod(self.extents))

    @property
    def momentum_cutoff(self) -> float:
        """p_c = pi * hbar / spacing, always derived from the spacing."""
        return math.pi * HBAR / self.spacing

    @cached_property
    def integer_coordinates(self) -> np.ndarray:
        """(num_sites, dimension) integer site offsets, row-major."""
        axes = [range(-(n // 2), n - n // 2) for n in self.extents]
        coords = np.array(list(itertools.product(*axes)), dtype=int)
        coords.flags.writeable = False
        return coords

    @cached_property
    def _index_map(self) -> dict[tuple[int, ...], int]:
        return {tuple(row): k for k, row in enumerate(self.integer_coordinates)}

    def coordinate(self, j: int) -> np.ndarray:
        """Physical coordinate of site j."""
        return self.integer_coordinates[j] * self.spacing

    def index_of(self, integer_vector) -> int:
        """Site index of an integer offset vector; ValueError when an entry
        is not an integer (``errors.as_index``), KeyError when the vector
        lies outside the block."""
        return self._index_map[tuple(as_index(v) for v in integer_vector)]


def mode_function(lattice: LatticeSpec, j: int, x):
    """Real-space amplitude of the sinc mode localised at site j.

    In 1D this is sqrt(1/a) * sinc((x - x_j)/a) with the removable
    singularity at x = x_j evaluating to the peak 1/sqrt(a); in 3D it is the
    product of the per-axis factors (cubic momentum cutoff convention).
    """
    a = lattice.spacing
    centre = lattice.coordinate(j)
    if lattice.dimension == 1:
        x_arr = np.asarray(x, dtype=float)
        vals = np.sinc((x_arr - centre[0]) / a) / math.sqrt(a)
        return vals if x_arr.ndim else float(vals)
    point = np.asarray(x, dtype=float)
    if point.shape != (3,):
        raise ValueError("3D mode function expects a 3-vector position")
    return float(np.prod(np.sinc((point - centre) / a))) / a**1.5


def overlap(
    lattice: LatticeSpec,
    j: int,
    l: int,
    *,
    tol: float = 1e-6,
    conv_tol: float = 1e-8,
    window: float | None = None,
) -> float:
    """Quadrature of ``integral f_j(x) f_l(x) dx``; equals delta_jl within tol.

    The product of two sinc modes splits into a non-oscillating 1/x^2 part,
    whose tail beyond the window is added back in closed form, and an
    oscillating part whose tail is bounded by a^2 / (2 pi^3 W^2).  The window
    half-width starts at the 50a default and widens until that bound is below
    tol/4, so the returned value carries truncation error below tol.
    """
    if lattice.dimension != 1:
        raise ValueError("overlap orthonormality is checked per axis on a 1D lattice")
    a = lattice.spacing
    xj = float(lattice.coordinate(j)[0])
    xl = float(lattice.coordinate(l)[0])
    lo_site, hi_site = min(xj, xl), max(xj, xl)
    if window is None:
        window = max(50.0 * a, 2.0 * a / math.sqrt(math.pi**3 * 0.25 * tol))
    x_lo = lo_site - window
    x_hi = hi_site + window

    def integrand(x: np.ndarray) -> np.ndarray:
        return mode_function(lattice, j, x) * mode_function(lattice, l, x)

    span = x_hi - x_lo
    core = simpson_refined(
        integrand, x_lo, x_hi, conv_tol=conv_tol, n0=max(512, int(8 * span / a))
    )

    # Closed-form tail of the non-oscillating term of f_j * f_l.
    m = round((xl - xj) / a)
    amp = (-1.0) ** m * a / (2.0 * math.pi**2)
    if j == l:
        q_hi = 1.0 / (x_hi - xj)
        q_lo = 1.0 / (xj - x_lo)
    else:
        q_hi = math.log((x_hi - xl) / (x_hi - xj)) / (xj - xl)
        q_lo = math.log((xj - x_lo) / (xl - x_lo)) / (xj - xl)
    return core + amp * (q_hi + q_lo)


@dataclass(frozen=True)
class CouplingKernel:
    """Pairwise rate matrix chi_ij = -scale / (d_ij + spacing).

    ``scale`` is G m^2 / (2 hbar), a rate times a length; entries are rates.
    All entries are negative, symmetric, and bounded by scale/spacing in
    magnitude with equality only on the diagonal.
    """

    lattice: LatticeSpec
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")

    @cached_property
    def matrix(self) -> np.ndarray:
        coords = self.lattice.integer_coordinates * self.lattice.spacing
        deltas = coords[:, None, :] - coords[None, :, :]
        dists = np.sqrt((deltas.astype(float) ** 2).sum(axis=-1))
        chi = -self.scale / (dists + self.lattice.spacing)
        chi.flags.writeable = False
        return chi

    @property
    def num_sites(self) -> int:
        return self.lattice.num_sites

    def chi(self, i: int, j: int) -> float:
        """Coupling rate between sites i and j (negative, finite at i = j)."""
        return float(self.matrix[i, j])


def feedback_coupling(kernel: CouplingKernel, sources=None) -> np.ndarray:
    """Columns ``sources`` of ``kernel.matrix`` (all columns when None) with
    the self-coupling set to zero: the feedback O_l = sum_{k != l} chi_lk n_k
    seen at site l omits chi_ll.

    Column k of the result is chi[:, sources[k]] with its entry at row
    sources[k] zeroed, so ``feedback_coupling(kernel, S) @ c[S]`` is the
    excluded feedback of counts supported on the distinct sites S without
    copying the whole matrix.
    """
    cols = np.arange(kernel.num_sites) if sources is None else np.asarray(sources, dtype=int)
    fb = np.asarray(kernel.matrix, dtype=float)[:, cols]  # a copy
    fb[cols, np.arange(cols.size)] = 0.0
    return fb


def softened_potential(kernel: CouplingKernel, i: int, j: int) -> float:
    """Pair interaction energy -G m^2 / (2 (d_ij + a)) = hbar * chi_ij.

    The i = j case is rejected: the self-term is a constant background in any
    particle-conserving theory and is excluded from interaction sums.
    """
    if i == j:
        raise ValueError("self-interaction is excluded from the softened potential")
    return HBAR * kernel.chi(i, j)
