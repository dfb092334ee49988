"""Shared oracles and random-state factories for the test suite."""

import math

import numpy as np

from ccgrav.lattice_sums import _radial_tail
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

    return _radial_tail(shell, radius, tol)


def square_core_sums(pts, weights, centre, radii) -> list[float]:
    """Sum of v(l)^2 over integer points with |l - centre| <= R, per radius,
    by masking the full square of every plane (oracle for the merged-column
    core pass)."""
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
            totals[k] += float(v2[r2 <= lim].sum())
    return totals
