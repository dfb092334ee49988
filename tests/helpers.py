"""Shared oracles and random-state factories for the test suite."""

import math

import numpy as np

from ccgrav.dynamics import ANCILLA_LEAK_TOL, expm
from ccgrav.errors import QuadratureError, TruncationOverflowError
from ccgrav.lattice import HBAR
from ccgrav.quadrature import adaptive_simpson


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def monomial_matrix(basis, creates, annihilates):
    """Dense matrix of adag_{j1}..adag_{jN} a_{i1}..a_{iN} by ladder algebra."""
    dim = basis.dim
    out = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        vec = list(occ)
        amp = 1.0
        ok = True
        for i in annihilates:
            if vec[i] == 0:
                ok = False
                break
            amp *= math.sqrt(vec[i])
            vec[i] -= 1
        if not ok:
            continue
        for j in creates:
            amp *= math.sqrt(vec[j] + 1)
            vec[j] += 1
        out[basis.index[tuple(vec)], col] += amp
    return out


def double_commutator_generator(matrix, gen):
    """Noise generator by explicit matrix double commutators (independent path)."""
    out = np.zeros_like(matrix, dtype=complex)
    for j in range(gen.num_sites):
        n = np.diag(gen.basis.occupations[:, j]).astype(complex)
        o = np.diag(gen.feedback_diagonals[:, j]).astype(complex)
        out += -0.5 * gen.xi * (n @ n @ matrix - 2 * n @ matrix @ n + matrix @ n @ n)
        out += (-0.5 / gen.xi) * (o @ o @ matrix - 2 * o @ matrix @ o + matrix @ o @ o)
    return out


def excluded_feedback(chi, counts):
    """w_l = sum over k != l of chi_lk c_k by a plain double loop (oracle for
    the self-coupling exclusion)."""
    n = len(counts)
    w = np.zeros(n)
    for l in range(n):
        for k in range(n):
            if k != l:
                w[l] += chi[l, k] * counts[k]
    return w


def pairwise_self_coupling_correction(coords, creates, annihilates):
    """sum over sources l of (v_l - c_l)^2 - v_l^2, v_l = sum_k c_k / (d_lk + 1),
    one pair distance at a time (oracle for the self-coupling correction of the
    infinite-lattice eigenrate, in units of (scale / spacing)^2)."""
    counts = {}
    for s in creates:
        counts[s] = counts.get(s, 0.0) + 1.0
    for s in annihilates:
        counts[s] = counts.get(s, 0.0) - 1.0
    counts = {s: c for s, c in counts.items() if c != 0.0}
    total = 0.0
    for s, c in counts.items():
        v = 0.0
        for s2, c2 in counts.items():
            v += c2 / (float(np.linalg.norm(coords[s] - coords[s2])) + 1.0)
        total += (v - c) ** 2 - v**2
    return total


def choi_matrix(channel, dim):
    """Choi matrix sum_ab |a><b| (x) channel(|a><b|); PSD iff the map is CP."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[a, b] = 1.0
            block = channel(e)
            out[a * dim : (a + 1) * dim, b * dim : (b + 1) * dim] += block
    return out


def rk4_trajectory(rho0, rhs, total_time, steps):
    """States at steps + 1 uniform times by the classical fixed-step RK4
    scheme on d rho / dt = rhs(rho) (oracle for ``evolve``)."""
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
    return np.array(states)


def taylor_reference(gamma, hamiltonian, rho0, times, order=30):
    """exp(t L) rho0 at each of ``times`` for L(rho) = -gamma * rho -
    i [H, rho] / hbar, by a degree-``order`` Taylor series on substeps with
    |dt| (max gamma + 2 ||H||_2 / hbar) <= 1/8, both commutator products
    formed (oracle for the bounded path of ``evolve``)."""
    norm = float(gamma.max()) + 2.0 * float(np.linalg.norm(hamiltonian, 2)) / HBAR
    out = [np.asarray(rho0, dtype=complex)]
    for t0, t1 in zip(times[:-1], times[1:]):
        substeps = max(1, math.ceil(8.0 * (t1 - t0) * norm))
        dt = (t1 - t0) / substeps
        rho = out[-1]
        for _ in range(substeps):
            term = total = rho
            for k in range(1, order + 1):
                term = (dt / k) * (
                    -gamma * term - 1j / HBAR * (hamiltonian @ term - term @ hamiltonian)
                )
                total = total + term
            rho = total
        out.append(rho)
    return np.array(out)


def dense_circuit_step(rho, j, gen, tau, anc):
    """One circuit stage on the dense system x ancilla space: the truncated
    oscillator starts in its vacuum, U1 = exp(-i sqrt(2 xi tau) n_j P) and
    U2 = exp(-i sqrt(2 tau / xi) O_j X) act (eigendecomposition exponentials
    of the Hermitian kron generators), and the ancilla is traced out.
    Raises TruncationOverflowError when more than ANCILLA_LEAK_TOL of the
    population reaches the top two ancilla levels (oracle for the
    closed-form ``circuit_step`` and its guard)."""
    occ = np.diag(gen.basis.occupations[:, j]).astype(complex)
    fbk = np.diag(gen.feedback_diagonals[:, j]).astype(complex)
    u1 = expm(-1j * math.sqrt(2.0 * gen.xi * tau) * np.kron(occ, anc.momentum))
    u2 = expm(-1j * math.sqrt(2.0 * tau / gen.xi) * np.kron(fbk, anc.position))
    u = u2 @ u1
    joint = u @ np.kron(rho, anc.vacuum_projector) @ u.conj().T
    d, nf = gen.dim, anc.levels
    joint = joint.reshape(d, nf, d, nf)
    leak = float(np.einsum("anan->", joint[:, nf - 2 :, :, nf - 2 :]).real)
    if leak > ANCILLA_LEAK_TOL:
        raise TruncationOverflowError(f"population {leak:.2e} in the top two ancilla levels")
    return np.einsum("anbn->ab", joint)


def adaptive_tail(pts, weights, centre, radius, tol):
    """Continuum tail of the lattice sum by adaptive Simpson nested in r,
    theta and phi, one scalar point at a time (oracle for the product rule)."""

    def value(r, theta, phi):
        st = math.sin(theta)
        u = (
            centre[0] + r * st * math.cos(phi),
            centre[1] + r * st * math.sin(phi),
            centre[2] + r * math.cos(theta),
        )
        v = 0.0
        for p, w in zip(pts, weights):
            v += w / (
                math.sqrt(
                    (u[0] - p[0]) ** 2 + (u[1] - p[1]) ** 2 + (u[2] - p[2]) ** 2
                )
                + 1.0
            )
        return v * v

    def shell(r: float) -> float:
        theta_tol = tol * radius / r**4

        def over_theta(theta: float) -> float:
            def over_phi(phi: float) -> float:
                return value(r, theta, phi)

            inner = adaptive_simpson(
                over_phi,
                0.0,
                2.0 * math.pi,
                theta_tol,
                points=(math.pi / 2, math.pi, 3 * math.pi / 2),
                noise_floor=theta_tol / 8.0,
            )
            return math.sin(theta) * inner

        return adaptive_simpson(
            over_theta,
            0.0,
            math.pi,
            theta_tol,
            points=(math.pi / 3, math.pi / 2, 2 * math.pi / 3),
            noise_floor=theta_tol / 4.0,
        )

    def radial(t: float) -> float:
        # r = R / (1 - t)^2 takes [R, inf) to [0, 1); r^2 shell(r) ~ 1/r^2,
        # so the mapped integrand stays bounded and vanishes at t = 1
        if t >= 1.0:
            return 0.0
        r = radius / (1.0 - t) ** 2
        return r * r * shell(r) * 2.0 * radius / (1.0 - t) ** 3

    return adaptive_simpson(
        radial, 0.0, 1.0, tol, points=(0.25, 0.5, 0.75), noise_floor=2.0 * tol
    )


def square_core_sums(pts, weights, centre, radii, windowed=False) -> list[float]:
    """Sum of v(l)^2 over integer points with |l - centre| <= R, per radius,
    by masking the full square of every plane, or with ``windowed`` the sum
    of window(|l - centre| / R) v(l)^2 (oracle for the merged-column core
    pass)."""
    rmax = max(radii)
    cx, cy, cz = centre
    xs = np.arange(math.ceil(cx - rmax), math.floor(cx + rmax) + 1)
    ys = np.arange(math.ceil(cy - rmax), math.floor(cy + rmax) + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    X = X.astype(float)
    Y = Y.astype(float)
    totals = [0.0 for _ in radii]
    z_lo = math.ceil(cz - rmax)
    z_hi = math.floor(cz + rmax)
    r2_limits = [R * R for R in radii]
    for z in range(z_lo, z_hi + 1):
        r2 = (X - cx) ** 2 + (Y - cy) ** 2 + (z - cz) ** 2
        v = np.zeros_like(X)
        for p, w in zip(pts, weights):
            dist = np.sqrt((X - p[0]) ** 2 + (Y - p[1]) ** 2 + (z - p[2]) ** 2)
            v += w / (dist + 1.0)
        v2 = v * v
        for k, lim in enumerate(r2_limits):
            if windowed:
                totals[k] += float((v2 * window(np.sqrt(r2) / radii[k])).sum())
            else:
                totals[k] += float(v2[r2 <= lim].sum())
    return totals


def window(s: np.ndarray) -> np.ndarray:
    """Smooth cutoff in s = r / R: 1 for s <= 1/2, 0 for s >= 1, and the
    C-infinity step exp(-1/(1-t)) / (exp(-1/t) + exp(-1/(1-t))), t = 2s - 1,
    between."""
    t = np.clip(2.0 * np.asarray(s, dtype=float) - 1.0, 0.0, 1.0)
    out = (t <= 0.0).astype(float)
    mid = (t > 0.0) & (t < 1.0)
    a, b = np.exp(-1.0 / t[mid]), np.exp(-1.0 / (1.0 - t[mid]))
    out[mid] = b / (a + b)
    return out


def windowed_tail(pts, weights, centre, radius, tol):
    """Continuum integral of (1 - window(|u - centre| / R)) v(u)^2 by
    Gauss-Legendre in r (on [R/2, R], and on [R, inf) under r = R/(1-t)^2)
    times ``product_sphere_rule``, n doubling from 16 until two estimates
    agree to ``tol`` (oracle for the windowed tail)."""
    rel = np.asarray(pts, dtype=float) - centre
    weights = np.asarray(weights, dtype=float)

    def squared(u):  # u: (..., 3) offsets from the centre
        dist = np.sqrt(((u[..., None, :] - rel) ** 2).sum(axis=-1))
        return (weights / (dist + 1.0)).sum(axis=-1) ** 2

    def estimate(n):
        dirs, w_dir = product_sphere_rule(n)
        x, wx = np.polynomial.legendre.leggauss(n)
        r_in = radius / 4 * (x + 3.0)
        t = (x + 1.0) / 2
        r_out = radius / (1.0 - t) ** 2
        total = 0.0
        for r, jac in (
            (r_in, wx * radius / 4 * (1.0 - window(r_in / radius))),
            (r_out, wx / 2 * 2.0 * radius / (1.0 - t) ** 3),
        ):
            vals = squared(r[:, None, None] * dirs.T[None, :, :])
            total += float((jac * r * r) @ vals @ w_dir)
        return total

    n, prev = 16, estimate(16)
    while True:
        n *= 2
        est = estimate(n)
        if abs(est - prev) <= tol:
            return est
        prev = est


def windowed_direct_sum(pts, weights, radius=30.0, tol=1e-10):
    """The whole multi-source lattice sum about the sources' centroid under
    the smooth cutoff window(|l - c| / radius): the windowed lattice sum over
    the bounding cube plus ``windowed_tail``.  Its truncation error falls
    faster than any power of the radius (converged reference for the sum
    composed from pair terms)."""
    pts = np.asarray(pts, dtype=float)
    centre = pts.mean(axis=0)
    core = square_core_sums(pts, weights, centre, [radius], windowed=True)[0]
    return core + windowed_tail(pts, weights, centre, radius, tol)


def product_sphere_rule(n: int):
    """Unit directions (3, 2 n^2) and weights of the n-point Gauss-Legendre
    rule in cos(theta) times the 2n-point trapezoid rule in phi (oracle for
    the collapsed rule of phi-independent integrands)."""
    x, wx = np.polynomial.legendre.leggauss(n)
    phi = np.arange(2 * n) * (math.pi / n)
    s = np.sqrt(1.0 - x * x)
    dirs = np.array(
        [np.outer(s, np.cos(phi)).ravel(), np.outer(s, np.sin(phi)).ravel(), np.repeat(x, 2 * n)]
    )
    return dirs, np.repeat(wx * (math.pi / n), 2 * n)


def _unmap(r: float) -> float:
    """Inverse of the compression map u -> u / (1 - u)^2 on [0, 1)."""
    if r <= 0:
        return 0.0
    return (2.0 * r + 1.0 - math.sqrt(4.0 * r + 1.0)) / (2.0 * r)


def cylindrical_integral(separation: float, rel_tol: float = 1e-3) -> float:
    """The continuum integral I(D) by nested adaptive Simpson in cylindrical
    coordinates, both half-infinite directions mapped to (0, 1) (oracle for
    the two-centre reduction in ``integral_I``)."""
    D = float(separation)
    d_half = D / 2.0
    z_marks = [z for z in (d_half - 2, d_half - 1, d_half, d_half + 1, d_half + 2, D, 2 * D) if z > 0]
    q_marks = [_unmap(z) for z in z_marks]
    p_marks = [_unmap(r) for r in (0.5, 1.0, 2.0, d_half, D) if r > 0]

    def pair_integrand(rho: float, z: float) -> float:
        d1 = math.hypot(rho, z - d_half)
        d2 = math.hypot(rho, z + d_half)
        ratio = (d1 - d2) / ((1.0 + d1) * (1.0 + d2))
        return ratio * ratio

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
                return pair_integrand(rho, z) * z_jac

            inner = adaptive_simpson(over_z, 0.0, 1.0, inner_tol, points=q_marks)
            return 2.0 * rho * inner * rho_jac

        return 2.0 * math.pi * adaptive_simpson(
            transverse, 0.0, 1.0, outer_tol, points=p_marks, noise_floor=0.3 * outer_tol
        )

    tol = 0.2 * rel_tol * max(0.5 * math.pi**2 * D, 1.0)
    previous = evaluate(tol)
    for _ in range(2):
        tol /= 4.0
        current = evaluate(tol)
        if abs(current - previous) <= rel_tol * abs(current):
            return current
        previous = current
    raise QuadratureError(f"cylindrical integral did not converge at separation {D:g}")


def two_centre_integral_mp(separation: float, dps: int = 30) -> float:
    """I(D) from the two-centre form, by mpmath at ``dps`` digits with the
    closed forms of A and B (reference for the float integrand and its
    series)."""
    import mpmath as mp

    with mp.workdps(dps):
        D = mp.mpf(separation)

        def h(s):
            a = s + 2
            x = D / a
            artanh = mp.atanh(x)
            return a * (artanh - x) - 2 * (s + 1) / a * (x / (1 - x * x) - artanh)

        breaks = [D, D + 1, D + 10, 2 * D, 10 * D, 100 * D, mp.inf]
        return float(8 * mp.pi / D * mp.quad(h, breaks))
