"""The four benchmark workloads: seeded op lists, fixtures, ops and output checks.

Each workload is a closed loop over an unbounded op list.  The list is cut
into blocks; block ``i`` is drawn from its own generator seeded by
``(seed, workload id, i)``, so the same seed always yields the same ops and
every block holds the same mix of op classes.  Runs stop only at block
boundaries, so a run's mix is exact whatever its length.

Op inputs are made here with numpy alone; the library sees only those
inputs.  Library calls go through module attributes (``cc.dynamics.evolve``)
so that the tracer's wrappers are picked up when it installs them.

Workload objects take the package as an argument (``cc``) instead of
importing it, because the set-up probe times that import.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from common import BENCH_DIR


# Stream index for inputs shared by all blocks; block indices never reach it.
SHARED_STREAM = 2**32 - 1


def block_rng(seed: int, workload_id: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_id, index])


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix G G^+ / tr, G with complex Gaussian entries."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class Workload:
    """Interface every workload implements (see the module docstring)."""

    name = ""
    workload_id = 0
    trace_blocks = 1  # blocks in the fixed prefix a traced run repeats
    group_size = 1  # consecutive ops checked together; a block holds whole groups

    def __init__(self, seed: int):
        self.seed = seed

    def make_block(self, index: int) -> list:
        raise NotImplementedError

    def build_fixtures(self, cc):
        """Library objects the ops share; counted in ``setup_s``."""
        return None

    def build_references(self, cc, fixtures):
        """Values used only by the checks; built untimed, not in ``setup_s``."""
        return None

    def run(self, cc, fixtures, op):
        raise NotImplementedError

    def check(self, references, ops, outputs) -> list:
        """Check one group of ops; per op, None when correct, else a message."""
        raise NotImplementedError

    def counts(self, references, ops, outputs) -> dict:
        """Per-layer counts read from outputs (not failures), for traced runs."""
        return {}


# ---------------------------------------------------------------------------
# pair_dephasing


@dataclass(frozen=True)
class PairOp:
    separation: int
    radius: float
    xi: float

    def argv(self) -> tuple[list[str], list[str]]:
        dephase = ["dephase", "--D", str(self.separation), "--radius", repr(self.radius),
                   "--xi", repr(self.xi)]
        return dephase, ["integral", "--D", str(self.separation)]


class PairDephasing(Workload):
    """One op: ``dephase`` then ``integral`` for one pair, through ``cli.main``.

    70% of ops use the default radius 60, 15% each use 90 and 120, so the
    core sum's working set (about R^3 lattice points) varies; the slowest
    class is large enough that the tail percentile falls inside it.
    """

    name = "pair_dephasing"
    workload_id = 1
    trace_blocks = 2
    RADII = (60.0,) * 14 + (90.0,) * 3 + (120.0,) * 3
    REFERENCE_PATH = BENCH_DIR / "reference_kappa.json"

    def make_block(self, index):
        rng = block_rng(self.seed, self.workload_id, index)
        radii = list(self.RADII)
        rng.shuffle(radii)
        seps = rng.integers(1, 101, size=len(radii))
        xis = 10.0 ** rng.uniform(-1.0, 1.0, size=len(radii))
        return [PairOp(int(d), r, float(x)) for d, r, x in zip(seps, radii, xis)]

    def build_references(self, cc, fixtures):
        with open(self.REFERENCE_PATH) as fh:
            table = json.load(fh)
        return {int(d): float(v) for d, v in table["kappa_sq"].items()}

    def run(self, cc, fixtures, op):
        texts = []
        for argv in op.argv():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cc.cli.main(argv)
            texts.append((code, out.getvalue(), err.getvalue()))
        return texts

    def check(self, references, ops, outputs):
        return [
            None if out is None else pair_failure(references, op, out)
            for op, out in zip(ops, outputs)
        ]

    def counts(self, references, ops, outputs):
        misses = sum(out is not None and bound_missed(references, op, out)
                     for op, out in zip(ops, outputs))
        return {"lattice_sums.bound_misses": misses}


def _parse_cli(code: int, stdout: str, stderr: str):
    if code != 0:
        return None, f"exit code {code}: {stderr.strip()}"
    try:
        return json.loads(stdout)["result"], None
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return None, f"output is not a JSON result: {exc}"


# (pi^2/2) D bounds the integral from below only at large separations: the
# package states it for D >= 10 (it fails below D = 6).  Smaller separations
# are checked for a positive integral.
LINEAR_BOUND_MIN_D = 10


def pair_failure(references: dict, op: PairOp, texts) -> str | None:
    dephase, problem = _parse_cli(*texts[0])
    if problem:
        return "dephase " + problem
    integral, problem = _parse_cli(*texts[1])
    if problem:
        return "integral " + problem
    ref = references[op.separation]
    kappa, tol = dephase["kappa_sq"], dephase["tolerance"]
    if not abs(kappa - ref) <= tol * ref:
        return f"kappa_sq {kappa!r} is not within {tol:g} of the reference {ref!r}"
    value = integral["value"]
    lower = 0.5 * math.pi**2 * op.separation if op.separation >= LINEAR_BOUND_MIN_D else 0.0
    if not value > lower:
        return f"integral {value!r} is not above {lower!r}"
    return None


def bound_missed(references: dict, op: PairOp, texts) -> bool:
    """True when the reported tail_bound is below the error against the reference."""
    result = json.loads(texts[0][1])["result"]
    ref = references[op.separation]
    return result["tail_bound"] < abs(result["kappa_sq"] - ref) / ref


# ---------------------------------------------------------------------------
# monomial_rates


@dataclass(frozen=True)
class MonomialShape:
    """A monomial up to placement: integer 3-vector offsets of its creation
    and annihilation sites, with the smallest offset on each axis zero."""

    create: tuple[tuple[int, int, int], ...]
    annihilate: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class MonomialOp:
    shape: int  # index into ``monomial_pool()``; the reference is per shape
    create: tuple[int, ...]
    annihilate: tuple[int, ...]


def block_coordinates(extent: int) -> np.ndarray:
    """Integer coordinates of a centred cubic block, row-major (site order)."""
    axis = range(-(extent // 2), extent - extent // 2)
    return np.array(list(itertools.product(axis, axis, axis)), dtype=int)


def all_collinear(points: np.ndarray) -> bool:
    d = points[1:] - points[0]
    ref = d[np.argmax(np.abs(d).sum(axis=1))]
    return not np.cross(d, ref).any()


def _normalised(create: np.ndarray, annihilate: np.ndarray) -> MonomialShape:
    corner = np.vstack([create, annihilate]).min(axis=0)
    return MonomialShape(
        tuple(tuple(int(v) for v in p) for p in create - corner),
        tuple(tuple(int(v) for v in p) for p in annihilate - corner),
    )


def monomial_pool() -> list[MonomialShape]:
    """The fixed shapes ops are drawn from, ``POOL`` per source count.

    Sources are distinct random sites of the block; three or four sources are
    never collinear, and three sources hold one doubled site.  The pool does
    not depend on the seed, so ``reference_monomial.json`` can hold the
    infinite-lattice rate of every shape."""
    rng = np.random.default_rng([SHARED_STREAM, MonomialRates.workload_id])
    coords = block_coordinates(MonomialRates.EXTENT)
    shapes = []
    for sources in (2, 3, 4):
        for _ in range(MonomialRates.POOL):
            while True:
                sites = coords[rng.choice(len(coords), size=sources, replace=False)]
                if sources == 2 or not all_collinear(sites):
                    break
            if sources == 3:
                doubled = sites[[2, 2]]
                pair = sites[:2]
                create, annihilate = (pair, doubled) if rng.random() < 0.5 else (doubled, pair)
            else:
                half = sources // 2
                create, annihilate = sites[:half], sites[half:]
            shapes.append(_normalised(create, annihilate))
    return shapes


def placed_sites(shape: MonomialShape, corner, extent: int):
    """Site indices of ``shape`` with its smallest offsets at ``corner``
    (0-based position in the block), in row-major site order."""
    def index(p):
        x, y, z = (int(c) + int(v) for c, v in zip(corner, p))
        return (x * extent + y) * extent + z

    return tuple(map(index, shape.create)), tuple(map(index, shape.annihilate))


def unit_kernel(coords: np.ndarray) -> np.ndarray:
    """Unit-scale coupling chi = -1/(d + 1) between sites at ``coords``
    (one row per site), with the self-coupling chi_ll set to zero."""
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    chi = -1.0 / (dist + 1.0)
    np.fill_diagonal(chi, 0.0)
    return chi


def lattice_rate(chi: np.ndarray, create, annihilate, xi: float) -> float:
    """Eigenrate of a monomial with the feedback sum over the block's own sites."""
    counts = np.zeros(len(chi))
    np.add.at(counts, list(create), 1.0)
    np.add.at(counts, list(annihilate), -1.0)
    w = chi @ counts
    return -0.5 * xi * float(counts @ counts) - (0.5 / xi) * float(w @ w)


class MonomialRates(Workload):
    """One op: the infinite- and lattice-mode eigenrate of one monomial.

    Each op takes a shape from a fixed pool (two, three or four distinct
    sources, one third of the ops each), turns it by a random symmetry of
    the cube and places it at a random position in the block.  Only this
    workload drives the lattice sum's general (non-collinear) tail, whose
    nested quadrature dominates its time.  The infinite-lattice rate does not
    depend on the placement, so it is checked against the shape's committed
    reference; the lattice rate is checked against a numpy sum over the block.
    """

    name = "monomial_rates"
    workload_id = 2
    trace_blocks = 4
    EXTENT = 7
    XI = 1.0
    POOL = 16  # shapes per source count
    CLASSES = (2, 2, 3, 3, 4, 4)  # distinct sources per op in one block
    TOLERANCE = 1e-3  # requested of the infinite-lattice sum
    LATTICE_TOL = 1e-9
    REFERENCE_PATH = BENCH_DIR / "reference_monomial.json"

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = monomial_pool()

    def make_block(self, index):
        rng = block_rng(self.seed, self.workload_id, index)
        classes = list(self.CLASSES)
        rng.shuffle(classes)
        ops = []
        for sources in classes:
            k = (sources - 2) * self.POOL + int(rng.integers(self.POOL))
            shape = self.pool[k]
            axes, signs = rng.permutation(3), rng.choice((-1, 1), size=3)
            turned = _normalised(
                signs * np.array(shape.create)[:, axes],
                signs * np.array(shape.annihilate)[:, axes],
            )
            span = np.array(turned.create + turned.annihilate).max(axis=0)
            corner = [int(rng.integers(self.EXTENT - s)) for s in span]
            ops.append(MonomialOp(k, *placed_sites(turned, corner, self.EXTENT)))
        return ops

    def build_fixtures(self, cc):
        lattice = cc.lattice.LatticeSpec(dimension=3, extents=(self.EXTENT,) * 3)
        kernel = cc.lattice.CouplingKernel(lattice)
        basis = cc.fock.FockBasis(lattice.num_sites, 1)
        kernel.matrix  # cached; built here so ops do not pay for it
        return cc.dynamics.NoiseGenerator(basis, kernel, self.XI)

    def build_references(self, cc, fixtures):
        with open(self.REFERENCE_PATH) as fh:
            table = json.load(fh)
        shapes = [MonomialShape(tuple(map(tuple, c)), tuple(map(tuple, a)))
                  for c, a in table["shapes"]]
        if shapes != self.pool:
            raise RuntimeError(f"{self.REFERENCE_PATH.name} does not hold the current pool; "
                               "run make_reference.py")
        return table["infinite_rate"], unit_kernel(block_coordinates(self.EXTENT))

    def run(self, cc, gen, op):
        return tuple(
            cc.dynamics.adjoint_coefficient(
                op.create, op.annihilate, gen, site_mode=mode, tolerance=self.TOLERANCE
            )
            for mode in ("infinite", "lattice")
        )

    def check(self, references, ops, outputs):
        return [
            None if out is None else monomial_failure(references, op, out, self.XI,
                                                      self.TOLERANCE, self.LATTICE_TOL)
            for op, out in zip(ops, outputs)
        ]


def monomial_failure(references, op: MonomialOp, rates, xi, tol, lattice_tol) -> str | None:
    infinite, finite = rates
    if not (math.isfinite(infinite) and math.isfinite(finite)):
        return f"non-finite rate {rates!r}"
    infinite_refs, chi = references
    ref = infinite_refs[op.shape]
    if not abs(infinite - ref) <= tol * abs(ref):
        return f"infinite-lattice rate {infinite!r} is not within {tol:g} of the reference {ref!r}"
    ref = lattice_rate(chi, op.create, op.annihilate, xi)
    if not abs(finite - ref) <= lattice_tol * abs(ref):
        return f"lattice rate {finite!r} is not within {lattice_tol:g} of the block sum {ref!r}"
    if not infinite <= finite:
        return f"infinite-lattice rate {infinite!r} exceeds the lattice rate {finite!r}"
    return None


# ---------------------------------------------------------------------------
# circuit_check


@dataclass(frozen=True)
class CircuitOp:
    sector: tuple[int, int]
    site: int
    tau: float
    rho: np.ndarray

    def __eq__(self, other):
        return (
            (self.sector, self.site, self.tau) == (other.sector, other.site, other.tau)
            and np.array_equal(self.rho, other.rho)
        )


class CircuitCheck(Workload):
    """One op: one ``generator_residual`` call; ops come in tau-halving ladders.

    A block holds one three-rung ladder per sector, (2,1), (3,2) and (4,3),
    and each ladder is checked as one group: its log-log slope must be 2.  Dense
    ``expm`` on system x ancilla (24 levels) dominates the time.
    """

    name = "circuit_check"
    workload_id = 3
    trace_blocks = 5
    group_size = 3  # one ladder
    SECTORS = ((2, 1), (3, 2), (4, 3))
    LEVELS = 24
    XI = 1.0
    SLOPE_TOL = 0.2

    def make_block(self, index):
        rng = block_rng(self.seed, self.workload_id, index)
        sectors = list(self.SECTORS)
        rng.shuffle(sectors)
        ops = []
        for sites, particles in sectors:
            dim = math.comb(sites + particles - 1, particles)
            rho = random_density_matrix(rng, dim)
            site = int(rng.integers(sites))
            tau0 = float(rng.uniform(4e-4, 1e-3))
            for k in range(self.group_size):
                ops.append(CircuitOp((sites, particles), site, tau0 / 2**k, rho))
        return ops

    def build_fixtures(self, cc):
        gens = {}
        for sites, particles in self.SECTORS:
            lattice = cc.lattice.LatticeSpec.chain(sites)
            basis = cc.fock.FockBasis(sites, particles)
            gen = cc.dynamics.NoiseGenerator(basis, cc.lattice.CouplingKernel(lattice), self.XI)
            gen.feedback_diagonals  # cached; built here so ops do not pay for it
            gens[(sites, particles)] = gen
        anc = cc.dynamics.AncillaOscillator(self.LEVELS)
        anc.position, anc.momentum, anc.vacuum_projector  # cached, as above
        return gens, anc

    def run(self, cc, fixtures, op):
        gens, anc = fixtures
        return cc.dynamics.generator_residual(op.rho, op.site, gens[op.sector], op.tau, anc)

    def check(self, references, ops, outputs):
        problem = ladder_failure([op.tau for op in ops], outputs, self.SLOPE_TOL)
        return [problem] * len(ops)


def ladder_failure(taus, residuals, slope_tol) -> str | None:
    """Residuals must be positive and fall as tau^2 between consecutive rungs."""
    if any(r is None for r in residuals):
        return "a rung of this ladder failed"
    if not all(math.isfinite(r) and r > 0 for r in residuals):
        return f"residuals {residuals!r} are not finite and positive"
    for (t0, r0), (t1, r1) in zip(zip(taus, residuals), zip(taus[1:], residuals[1:])):
        slope = math.log(r0 / r1) / math.log(t0 / t1)
        if not abs(slope - 2.0) <= slope_tol:
            return f"residual slope {slope:.4f} between tau={t0:g} and {t1:g} is not 2"
    return None


# ---------------------------------------------------------------------------
# evolution


@dataclass(frozen=True)
class EvolutionOp:
    sector: tuple[int, int]
    hamiltonian: bool
    weights: np.ndarray | None  # mixture of the sector's pool states (Hamiltonian ops)
    rho0: np.ndarray

    def __eq__(self, other):
        return (
            (self.sector, self.hamiltonian) == (other.sector, other.hamiltonian)
            and np.array_equal(self.rho0, other.rho0)
        )


def sector_states(sites: int, particles: int) -> list[tuple[int, ...]]:
    """Occupation vectors of a sector, lexicographically descending."""
    levels = range(particles, -1, -1)
    return [s for s in itertools.product(levels, repeat=sites) if sum(s) == particles]


def chain_dephasing_rates(sites: int, particles: int, xi: float) -> np.ndarray:
    """Noise decay rate of each matrix element, for the unit-scale chain kernel."""
    occ = np.array(sector_states(sites, particles), dtype=float)
    fbk = occ @ unit_kernel(np.arange(sites)[:, None])
    docc = occ[:, None, :] - occ[None, :, :]
    dfbk = fbk[:, None, :] - fbk[None, :, :]
    return 0.5 * xi * (docc**2).sum(axis=-1) + (0.5 / xi) * (dfbk**2).sum(axis=-1)


def chain_hamiltonian(sites: int, particles: int) -> np.ndarray:
    """Kinetic plus interaction Hamiltonian of the unit chain on a sector.

    The kinetic part is sum_pq h_pq adag_p a_q with h the dispersion k^2/2 on
    the chain's periodic wavenumbers 2 pi n / sites, n in (-sites/2, sites/2];
    the interaction part is sum_{p != q} chi_pq n_p n_q.  Both are built on
    the product of per-site Fock spaces truncated at ``particles`` (exact
    inside the sector) and then restricted to the sector's states."""
    ns = np.arange(-((sites - 1) // 2), sites // 2 + 1)
    k = 2.0 * math.pi * ns / sites
    x = np.arange(sites)
    modes = np.exp(1j * np.outer(x, k))
    h = (modes * (0.5 * k**2)) @ modes.conj().T / sites
    levels = particles + 1
    lower = np.diag(np.sqrt(np.arange(1.0, levels)), k=1)  # a on one site
    eye = np.eye(levels)

    def product(factors: dict) -> np.ndarray:
        out = np.ones((1, 1))
        for site in range(sites):
            out = np.kron(out, factors.get(site, eye))
        return out

    states = sector_states(sites, particles)
    index = [sum(n * levels ** (sites - 1 - j) for j, n in enumerate(s)) for s in states]
    kinetic = np.zeros((len(states), len(states)), dtype=complex)
    for p in range(sites):
        for q in range(sites):
            factors = {p: lower.T @ lower} if p == q else {p: lower.T, q: lower}
            kinetic += h[p, q] * product(factors)[np.ix_(index, index)]
    occ = np.array(states, dtype=float)
    chi = unit_kernel(np.arange(sites)[:, None])
    return kinetic + np.diag(np.einsum("ap,pq,aq->a", occ, chi, occ))


def taylor_propagate(gamma, h, rho0, total_time, order=24):
    """exp(t L) rho0 for L(rho) = -gamma * rho - i [h, rho], by a truncated
    Taylor series on sub-intervals short enough that |dt L| <= 1/2.

    Numpy only, so building references loads nothing the program does not."""
    norm = float(gamma.max()) + 2.0 * float(np.linalg.norm(h, 2))
    substeps = max(1, math.ceil(2.0 * total_time * norm))
    dt = total_time / substeps
    rho = rho0
    for _ in range(substeps):
        term = total = rho
        for k in range(1, order + 1):
            term = (dt / k) * (-gamma * term - 1j * (h @ term - term @ h))
            total = total + term
        rho = total
    return rho


class Evolution(Workload):
    """One op: build a sector, its kernel and generator, then ``evolve`` it.

    A block holds the four combinations of sector (4,3) or (5,3) and noise
    only or noise plus kinetic and interaction Hamiltonians.  Noise-only ops
    start from a fresh random state and are checked against the exact
    rho0 * exp(-Gamma t).  Hamiltonian ops start from a random mixture of a
    few pool states per sector, so their reference is the same mixture of
    the pool states' references, each computed once by a Taylor-series
    propagator from a Hamiltonian and rates built here; neither shares code
    with the library.
    """

    name = "evolution"
    workload_id = 4
    trace_blocks = 6
    SECTORS = ((4, 3), (5, 3))
    POOL = 3
    XI = 1.0
    TOTAL_TIME = 1.0
    STEPS = 400
    STATE_TOL = 1e-8

    def __init__(self, seed):
        super().__init__(seed)
        rng = block_rng(seed, self.workload_id, SHARED_STREAM)
        self.pools = {
            sector: [random_density_matrix(rng, len(sector_states(*sector)))
                     for _ in range(self.POOL)]
            for sector in self.SECTORS
        }

    def make_block(self, index):
        rng = block_rng(self.seed, self.workload_id, index)
        kinds = [(s, h) for s in self.SECTORS for h in (False, True)]
        rng.shuffle(kinds)
        ops = []
        for sector, with_h in kinds:
            if with_h:
                weights = rng.dirichlet(np.ones(self.POOL))
                rho0 = sum(w * p for w, p in zip(weights, self.pools[sector]))
            else:
                weights = None
                rho0 = random_density_matrix(rng, len(sector_states(*sector)))
            ops.append(EvolutionOp(sector, with_h, weights, rho0))
        return ops

    def build_references(self, cc, fixtures):
        refs = {}
        for sites, particles in self.SECTORS:
            h = chain_hamiltonian(sites, particles)
            gamma = chain_dephasing_rates(sites, particles, self.XI)
            finals = [taylor_propagate(gamma, h, rho0, self.TOTAL_TIME)
                      for rho0 in self.pools[(sites, particles)]]
            refs[(sites, particles)] = (gamma, finals)
        return refs

    def run(self, cc, fixtures, op):
        sites, particles = op.sector
        basis = cc.fock.FockBasis(sites, particles)
        lattice = cc.lattice.LatticeSpec.chain(sites)
        kernel = cc.lattice.CouplingKernel(lattice)
        gen = cc.dynamics.NoiseGenerator(basis, kernel, self.XI)
        h = None
        if op.hamiltonian:
            h = (cc.fock.kinetic_hamiltonian(basis, lattice).matrix
                 + cc.fock.interaction_hamiltonian(basis, kernel).matrix)
        config = cc.dynamics.EvolutionConfig(total_time=self.TOTAL_TIME, steps=self.STEPS)
        traj = cc.dynamics.evolve(op.rho0, gen, h, config)
        return basis.states, traj.times, traj.states

    def check(self, references, ops, outputs):
        return [
            None if out is None else evolution_failure(references, op, out, self.STATE_TOL)
            for op, out in zip(ops, outputs)
        ]


def evolution_failure(references, op: EvolutionOp, output, tol) -> str | None:
    states, times, snapshots = output
    if list(states) != sector_states(*op.sector):
        return "basis states are not the sector's occupations in descending order"
    gamma, pool_finals = references[op.sector]
    if op.hamiltonian:
        expected = sum(w * p for w, p in zip(op.weights, pool_finals))
        err = float(np.abs(snapshots[-1] - expected).max())
    else:
        err = max(float(np.abs(state - op.rho0 * np.exp(-t * gamma)).max())
                  for t, state in zip(times, snapshots))
    if not err <= tol:
        return f"state differs from the reference by {err:.2e} (tolerance {tol:g})"
    return None


WORKLOADS = {
    cls.name: cls for cls in (PairDephasing, MonomialRates, CircuitCheck, Evolution)
}
