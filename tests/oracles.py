"""Independent reference implementations used to validate the library.

Everything here is deliberately written from first principles (adaptive
Simpson quadrature, dense linear solves, finite differences, exhaustive
vertex enumeration, inverse Hankel quadrature) rather than reusing library
code paths.
"""

import csv
import itertools
import struct
from pathlib import Path

import numpy as np
from scipy.special import j0

from msreg.ladder import node_index
from msreg.spectral import SpectralGrid, compute_spectral_table


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=50):
    """Classic recursive adaptive Simpson quadrature."""

    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return mid, (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi))

    def recurse(lo, hi, whole, eps, depth):
        mid, _ = simpson(lo, hi)
        _, left = simpson(lo, mid)
        _, right = simpson(mid, hi)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(lo, mid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, right, eps / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    _, whole = simpson(a, b)
    return recurse(a, b, whole, tol, max_depth)


def dense_spectral_matrix(nodes, sigma, xi):
    """Symmetric dense matrix of the per-frequency nodal system, assembled
    directly in the physical variables h_k (no g-substitution)."""
    nodes = np.asarray(nodes, dtype=float)
    rho = np.diff(nodes)
    n = rho.size
    chi = chi_gaussian(nodes[:-1], xi)
    coth = np.cosh(sigma * rho) / np.sinh(sigma * rho)
    isnh = 1.0 / np.sinh(sigma * rho)
    mat = np.zeros((n + 1, n + 1))
    mat[0, 0] = -sigma * chi[0] * coth[0]
    mat[0, 1] = sigma * chi[0] * isnh[0]
    for k in range(1, n):
        mat[k, k - 1] = sigma * chi[k - 1] * isnh[k - 1]
        mat[k, k] = -sigma * (chi[k] * coth[k] + chi[k - 1] * coth[k - 1])
        mat[k, k + 1] = sigma * chi[k] * isnh[k]
    mat[n, n - 1] = sigma * chi[n - 1] * isnh[n - 1]
    mat[n, n] = -sigma * chi[n - 1] * coth[n - 1]
    return mat


def dense_spectral_solve(nodes, sigma, xi):
    """All nodal spectra at one frequency via a dense LU solve."""
    mat = dense_spectral_matrix(nodes, sigma, xi)
    rhs = -np.eye(mat.shape[0])
    return np.linalg.solve(mat, rhs)


def per_frequency_spectral_table(nodes, sigma, xis):
    """Spectral values (node, source node, frequency), one frequency at a
    time: the g-substituted tridiagonal system of each frequency assembled
    alone and solved by a scalar Thomas sweep against the unit sources -I.

    The arithmetic is the library's operation for operation, so the batched
    solver must match it bitwise.
    """
    nodes = np.asarray(nodes, dtype=float)
    rho = np.diff(nodes)
    n = rho.size
    n1 = n + 1
    coth = np.cosh(sigma * rho) / np.sinh(sigma * rho)
    isnh = 1.0 / np.sinh(sigma * rho)
    rec = np.concatenate((nodes[:-1], [nodes[-2]]))
    values = np.empty((n1, n1, len(xis)))
    for j, xi in enumerate(xis):
        xi = np.asarray(xi, dtype=float)
        prev, cur = nodes[:-2], nodes[1:-1]
        psi = (cur / prev) ** 2 * np.exp(-2.0 * np.pi**2 * (cur**2 - prev**2) * xi**2)
        psi = np.append(psi, 1.0)
        lower, upper = sigma * isnh, sigma * psi * isnh
        diag = np.empty(n1)
        diag[0] = -sigma * coth[0]
        diag[1:n] = -sigma * (coth[1:] + coth[:-1] * psi[:-1])
        diag[n] = -sigma * coth[n - 1]
        rhs = -np.eye(n1)
        cp = np.empty(n1 - 1)
        dp = np.empty((n1, n1))
        cp[0] = upper[0] / diag[0]
        dp[0] = rhs[0] / diag[0]
        for k in range(1, n1):
            piv = diag[k] - lower[k - 1] * cp[k - 1]
            if k < n1 - 1:
                cp[k] = upper[k] / piv
            dp[k] = (rhs[k] - lower[k - 1] * dp[k - 1]) / piv
        g = np.empty_like(dp)
        g[-1] = dp[-1]
        for k in range(n1 - 2, -1, -1):
            g[k] = dp[k] - cp[k] * g[k + 1]
        khat = 2.0 * np.pi * rec**2 * np.exp(-2.0 * np.pi**2 * rec**2 * xi**2)
        values[:, :, j] = g * khat[:, None]
    return values


def central_difference_gradient(func, x, h=1e-6):
    """Central finite differences of a scalar function of a flat array."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        grad[i] = (func(xp) - func(xm)) / (2.0 * h)
    return grad


def lp_vertex_minimum(c, a_ub, b_ub, tol=1e-9):
    """Minimum of c.x over {a_ub x <= b_ub} by exhaustive vertex enumeration.

    Only for tiny instances; assumes the feasible region is bounded in the
    directions that matter (the epigraph variable is bounded below by the
    data, so the minimum is attained at a vertex).
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    c = np.asarray(c, dtype=float)
    nvar = a_ub.shape[1]
    best = np.inf
    for rows in itertools.combinations(range(a_ub.shape[0]), nvar):
        sub = a_ub[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b_ub[list(rows)])
        if np.all(a_ub.dot(x) <= b_ub + tol):
            best = min(best, c.dot(x))
    return best


def brute_piecewise_integral(nodes, lam1, lam2, r):
    """Piecewise-constant Gaussian scale integral by explicit interval sums."""
    nodes = np.asarray(nodes, dtype=float)
    total = 0.0
    for k in range(nodes.size - 1):
        lo = max(nodes[k], lam1)
        hi = min(nodes[k + 1], lam2)
        if hi > lo:
            total += (hi - lo) * np.exp(-(r**2) / (2.0 * nodes[k] ** 2))
    return total


def chi_gaussian(scale, xi):
    """Reciprocal spectrum 1 / kappa_hat of the planar Gaussian at width
    `scale`.

    Overflows for large scale * xi; the solver never evaluates it there and
    works with the ratios `psi_gaussian` instead.
    """
    scale = np.asarray(scale, dtype=float)
    return np.exp(2.0 * np.pi**2 * scale**2 * np.asarray(xi, dtype=float) ** 2) / (
        2.0 * np.pi * scale**2
    )


class SpectralKernelEvaluator:
    """Real-space kernel backed by a spectral table via inverse Hankel
    quadrature on the plane: kappa(r) = 2 pi * int khat(xi) J0(2 pi r xi) xi dxi.

    Slow compared to the fitted basis; for validation on small inputs.
    """

    def __init__(self, table):
        self.table = table

    def __call__(self, lam, mu, r):
        nodes = self.table.ladder.nodes
        k, k0 = node_index(nodes, lam), node_index(nodes, mu)
        xis = self.table.grid.xis
        khat = self.table.values[k, k0, :]
        r = np.asarray(r, dtype=float)
        integrand = khat * xis * j0(2.0 * np.pi * np.multiply.outer(r, xis))
        return 2.0 * np.pi * np.trapezoid(integrand, xis, axis=-1)


def hankel_kernel(ladder, sigma, r, panels=64, order=16):
    """The exact kernel of the Lebesgue measure sigma on the ladder, at the
    distances r: (nodes, nodes, len(r)), the 2-D Hankel transform
    K(r) = 2 pi int S(xi) J0(2 pi xi r) xi dxi of the spectral solve S over
    [0, 4 / (pi s1)], by Gauss-Legendre quadrature of `order` nodes on each
    of `panels` equal panels.  Not the uniform trapezoid rule: it is only
    second order here, since xi S(xi) J0(2 pi xi r) is odd in xi."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 4.0 / (np.pi * ladder.s1), panels + 1)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    xis, weights = (mid + half * x).ravel(), (half * w).ravel()
    spectra = compute_spectral_table(ladder, sigma, SpectralGrid(xis)).values
    bessel = j0(2.0 * np.pi * np.multiply.outer(xis, np.asarray(r, dtype=float)))
    return 2.0 * np.pi * (spectra * (weights * xis)) @ bessel


def mixture_value(kernel, lam, mu, r):
    """The kernel at scales (lam, mu) and distance(s) r, summed directly from
    its mixture slice: sum_t w[t] exp(-a[t] r^2), one exp per term and
    distance, with no blocks, chunks or buffers."""
    w, a = kernel.slice(lam, mu)
    u = np.asarray(r, dtype=float) ** 2
    return np.exp(-np.multiply.outer(u, a)).dot(w)


def tabulation_tolerance(kernel, scales_i, Xi, scales_j, Xj):
    """The elementwise tolerance of a tabulated kernel, (tol_K, tol_dK):
    1e-12 of the exp sum's K and dK/du, or 1e-13 of the size of its terms,
    sum_t |w[t]| e^{-a[t] u} (times the largest rate for dK/du), whichever
    is larger.  Summed directly, a few rows at a time."""
    u = squared_distances(Xi, Xj)
    tol_k, tol_d = np.empty_like(u), np.empty_like(u)
    for p0 in range(0, u.shape[0], 64):
        rows = slice(p0, p0 + 64)
        for lam in np.unique(scales_i[rows]):
            for mu in np.unique(scales_j):
                w, a = kernel.slice(lam, mu)
                block = np.ix_(np.flatnonzero(scales_i[rows] == lam) + p0,
                               np.flatnonzero(scales_j == mu))
                expo = np.exp(-np.multiply.outer(u[block], a))
                size = expo @ np.abs(w)
                tol_k[block] = np.maximum(1e-12 * np.abs(expo @ w), 1e-13 * size)
                tol_d[block] = np.maximum(1e-12 * np.abs(expo @ (w * a)),
                                          1e-13 * a.max() * size)
    return tol_k, tol_d


def squared_distances(Xi, Xj):
    """u[p, q] = |Xi[p] - Xj[q]|^2, summed one coordinate at a time."""
    u = np.zeros((Xi.shape[0], Xj.shape[0]))
    for d in range(Xi.shape[1]):
        delta = np.subtract.outer(Xi[:, d], Xj[:, d])
        u += delta * delta
    return u


def whole_matrix_chunks(kernel, scales_i, Xi, scales_j, Xj, chunk_elements, upper_only=False):
    """The kernel block loop over a precomputed whole distance matrix: u of
    all rows x columns first, then for each block between runs of equal row
    and column scale, and each row chunk of at most about chunk_elements
    terms x pairs, expo[t] = exp(-a[t] * u[rows, cols]).  The chunks
    partition the blocks exactly as `msreg.flow` does, so its reductions
    see the same operands and may be compared bit for bit."""

    def runs(scales):
        cuts = [0] + [k for k in range(1, scales.size) if scales[k] != scales[k - 1]]
        return [(a, b, scales[a]) for a, b in zip(cuts, cuts[1:] + [scales.size])
                if scales.size]

    u = squared_distances(Xi, Xj)
    for i0, i1, si in runs(scales_i):
        for j0, j1, sj in runs(scales_j):
            if upper_only and j0 < i0:
                continue
            w, a = kernel.slice(si, sj)
            per_row = a.size * (j1 - j0)
            step = min(max(1, chunk_elements // per_row), i1 - i0)
            cols = slice(j0, j1)
            for r0 in range(i0, i1, step):
                rows = slice(r0, min(r0 + step, i1))
                expo = np.exp(-a[:, None, None] * u[rows, cols])
                yield rows, cols, w, a, expo


def whole_matrix_kernel(kernel, scales_i, Xi, scales_j, Xj, chunk_elements, deriv=False,
                        square=False):
    """K (and dK/du) reduced from `whole_matrix_chunks` by one gemv per chunk;
    with square, only the blocks on and above the diagonal are evaluated and
    each one strictly above is mirrored below it."""
    kmat = np.empty((Xi.shape[0], Xj.shape[0]))
    dmat = np.empty_like(kmat)
    chunks = whole_matrix_chunks(kernel, scales_i, Xi, scales_j, Xj, chunk_elements, square)
    for rows, cols, w, a, expo in chunks:
        flat = expo.reshape(a.size, -1)
        kmat[rows, cols] = (w @ flat).reshape(expo.shape[1:])
        dmat[rows, cols] = -((w * a) @ flat).reshape(expo.shape[1:])
        if square and cols.start >= rows.stop:
            kmat[cols, rows] = kmat[rows, cols].T
            dmat[cols, rows] = dmat[rows, cols].T
    return (kmat, dmat) if deriv else kmat


def whole_matrix_velocity(kernel, scales_i, Xi, scales_j, Xj, C, chunk_elements):
    """V = K C from `whole_matrix_chunks`, each chunk reduced over the terms
    first by one gemv and then applied to its columns' vectors."""
    vel = np.zeros((Xi.shape[0], C.shape[1]))
    for rows, cols, w, a, expo in whole_matrix_chunks(
        kernel, scales_i, Xi, scales_j, Xj, chunk_elements
    ):
        flat = expo.reshape(a.size, -1)
        vel[rows] += (w @ flat).reshape(expo.shape[1:]) @ C[cols]
    return vel


def read_spectral_table(path):
    """Fields of a `SpectralTable.save_binary` file, read by its layout: the
    magic, a little-endian (version, dim, n, J, sigma) header, then the n + 1
    nodes, the J frequencies and the (n + 1, n + 1, J) values as float64."""
    blob = Path(path).read_bytes()
    header = struct.Struct("<4siiiid")
    magic, version, dim, n, nxi, sigma = header.unpack_from(blob)
    data = np.frombuffer(blob, dtype="<f8", offset=header.size)
    nodes, xis = data[: n + 1], data[n + 1 : n + 1 + nxi]
    values = data[n + 1 + nxi :].reshape(n + 1, n + 1, nxi)
    return {"magic": magic, "version": version, "dim": dim, "sigma": sigma,
            "nodes": nodes, "xis": xis, "values": values}


def write_field_csv(path, field):
    """A `DeformationField` as a row-by-row `csv.writer` of its numpy values:
    each grid point, its image and its log-Jacobian (empty when absent)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "psi_x", "psi_y", "log_jac"])
        for i in range(field.source.shape[0]):
            row = list(field.source[i]) + list(field.mapped[i])
            row.append("" if field.log_jac is None else field.log_jac.ravel()[i])
            writer.writerow(row)


def difference_form_gradient(kernel, system, trajectory):
    """The adjoint's reverse sweep with each position gradient contracted
    from the P x P x d coordinate differences: sum_q c_pq (x_p - x_q) as one
    einsum over x[:, None] - x[None], and each step's K and dK/du from
    `whole_matrix_kernel` rather than the trajectory's blocks."""
    scales = system.point_scales
    num_steps = trajectory.controls.shape[0]
    dt = 1.0 / num_steps
    grad = np.empty_like(trajectory.controls)
    costate = 2.0 * system.weight * (trajectory.positions[-1] - system.targets)
    for i in range(num_steps - 1, -1, -1):
        pos, ctrl = trajectory.positions[i], trajectory.controls[i]
        kmat, dmat = whole_matrix_kernel(
            kernel, scales, pos, scales, pos, 1 << 16, deriv=True, square=True
        )
        grad[i] = dt * kmat.dot(costate + ctrl)
        cross = costate.dot(ctrl.T)
        coeff = dmat * (cross + cross.T + ctrl.dot(ctrl.T))
        diff = pos[:, None, :] - pos[None, :, :]
        costate = costate + 2.0 * dt * np.einsum("pq,pqd->pd", coeff, diff)
    return grad


def sweep_tolerance(kernel, system, trajectory):
    """A first-order bound, per control component, on how far the reverse
    sweep's gradient moves when each K and dK/du it reads moves anywhere
    within `tabulation_tolerance` of the exp sum.

    K enters each step's gradient linearly; dK/du enters the costate's
    update linearly, and that update is affine in the costate.  So an
    error in step j's dK/du reaches step i's costate through the product
    of the updates' Jacobians between them, and its worst case is that
    product in absolute value times the error's own worst case.  K, dK/du
    and the costates are `whole_matrix_kernel`'s and the sweep's at the
    trajectory's positions."""
    scales = system.point_scales
    num_steps = trajectory.controls.shape[0]
    dt = 1.0 / num_steps
    size = system.points.size
    bound = np.empty_like(trajectory.controls)
    costate = 2.0 * system.weight * (trajectory.positions[-1] - system.targets)
    carried = []  # (Jacobian product since step j, worst costate error from step j)
    for i in range(num_steps - 1, -1, -1):
        pos, ctrl = trajectory.positions[i], trajectory.controls[i]
        kmat, dmat = whole_matrix_kernel(
            kernel, scales, pos, scales, pos, 1 << 16, deriv=True, square=True
        )
        tol_k, tol_d = tabulation_tolerance(kernel, scales, pos, scales, pos)
        err = sum((np.abs(prod).dot(push) for prod, push in carried), np.zeros(size))
        err = err.reshape(costate.shape)
        bound[i] = dt * (tol_k.dot(np.abs(costate + ctrl)) + np.abs(kmat).dot(err))
        rel = pos - pos.mean(0)

        def change(pair):  # the costate's update, given the pair products
            coeff = dmat * pair
            return 2.0 * dt * (rel * coeff.sum(1)[:, None] - coeff.dot(rel))

        cross = costate.dot(ctrl.T)
        pair = cross + cross.T + ctrl.dot(ctrl.T)
        loose = tol_d * np.abs(pair)
        push = 2.0 * dt * (np.abs(rel) * loose.sum(1)[:, None] + loose.dot(np.abs(rel)))
        jac = np.eye(size)
        for k, unit in enumerate(np.eye(size)):
            cross_unit = unit.reshape(costate.shape).dot(ctrl.T)
            jac[:, k] += change(cross_unit + cross_unit.T).ravel()
        # an earlier step's error passes through this update; this step's
        # own error enters after it
        carried = [(jac.dot(prod), push) for prod, push in carried]
        carried.append((np.eye(size), push.ravel()))
        costate = costate + change(pair)
    return bound
