"""Landmark flow integration and grid transport under a multiscale kernel.

The reduced dynamics move a finite set of landmarks, each attached to a base
scale, under the velocity field induced by the kernel and the control
vectors.  Arbitrary grid points can then be transported at any query scale,
forward or backward in time, to obtain per-scale deformations, inverse maps,
inter-scale residuals, and log-Jacobian fields.  The residuals need no
inverse map: each is sampled where the previous scale's deformation sent the
grid, so composing them telescopes exactly.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class LandmarkSystem:
    """Stacked landmarks with per-point base scales and matching targets."""

    point_scales: np.ndarray  # (P,)
    points: np.ndarray  # (P, d) initial positions
    targets: np.ndarray  # (P, d)
    weight: float = 1.0

    def __post_init__(self):
        self.point_scales = np.asarray(self.point_scales, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.points.shape != self.targets.shape:
            raise ValueError("template/target point counts must match")
        if self.point_scales.shape[0] != self.points.shape[0]:
            raise ValueError("one scale per landmark required")

    @classmethod
    def from_groups(cls, groups, weight=1.0):
        """Build from [(base_scale, template_points, target_points), ...]."""
        scales, pts, tgts = [], [], []
        for scale, template, target in groups:
            template = np.asarray(template, dtype=float)
            target = np.asarray(target, dtype=float)
            if template.shape != target.shape:
                raise ValueError("template/target point counts must match")
            scales.append(np.full(template.shape[0], float(scale)))
            pts.append(template)
            tgts.append(target)
        return cls(np.concatenate(scales), np.vstack(pts), np.vstack(tgts), weight)

    @property
    def num_points(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def base_scales(self):
        return np.unique(self.point_scales)

    def zero_controls(self, num_steps):
        return np.zeros((num_steps,) + self.points.shape)


# Elements of the (terms x rows x cols) exponential evaluated at once: big
# enough to amortize numpy call overhead, small enough to stay in cache.
CHUNK_ELEMENTS = 1 << 16

# Largest store of per-step landmark Grams (T x 2 x P x P floats) that a
# forward pass keeps for the adjoint.  A bigger store is not kept: each step
# then forms its Gram K alone and drops it, and the reverse sweep evaluates
# K and dK/du again per step, so memory does not grow with the step count.
MAX_BLOCK_BYTES = 32 << 20


def _scale_runs(scales):
    """Maximal runs of equal scale as (start, stop, scale)."""
    cuts = np.flatnonzero(scales[1:] != scales[:-1]) + 1
    bounds = [0, *cuts.tolist(), scales.size] if scales.size else []
    return [(a, b, scales[a]) for a, b in zip(bounds[:-1], bounds[1:])]


def _kernel_blocks(kernel, scales_i, Xi, scales_j, Xj, deriv=False, upper_only=False):
    """The one kernel evaluation loop, behind `kernel_matrix` and
    `kernel_velocity`.

    Yields (rows, cols, K), or with deriv (rows, cols, K, dK/du) where u is
    the squared distance, for each row chunk of each block between a run of
    equal row scale and a run of equal column scale.  With the mixture
    slice (w, a) of the block, each chunk computes u one coordinate at a
    time, expo[t] = exp(-a[t] * u) term-major as one contiguous pass, and
    reduces over the terms with one gemv each: K = w @ expo, dK/du =
    -((w * a) @ expo).  u and `expo` live in two buffers of about
    CHUNK_ELEMENTS elements, allocated once per call: the coordinate
    differences use the `expo` buffer before the exponentials overwrite it,
    and K takes the u buffer after, so a caller must use each block before
    the next.  This is a lazy kernel reduction in the manner of KeOps
    (Charlier et al., JMLR 2021): no rows x cols array of a whole block and
    no (rows x cols x terms) tensor is ever formed.

    With upper_only the columns must be the rows, and only the blocks whose
    column run starts at or after their row run are yielded, for a caller
    that mirrors the symmetric rest.
    """
    rows_t = Xi.T[:, :, None]  # each row coordinate as a column
    cols_t = Xj.T.copy()  # contiguous coordinates of the columns
    buf = ubuf = np.empty(0)
    runs_i = _scale_runs(scales_i)
    runs_j = runs_i if upper_only else _scale_runs(scales_j)
    for i0, i1, si in runs_i:
        for j0, j1, sj in runs_j:
            if upper_only and j0 < i0:
                continue
            w, a = kernel.slice(si, sj)
            neg_a = -a[:, None, None]
            width = j1 - j0
            per_row = a.size * width
            step = min(max(1, CHUNK_ELEMENTS // per_row), i1 - i0)
            if buf.size < step * per_row:
                buf = np.empty(step * per_row)
            if ubuf.size < step * width:
                ubuf = np.empty(step * width)
            u_rows = ubuf[: step * width].reshape(step, width)
            delta_rows = buf[: step * width].reshape(step, width)
            first, rest = cols_t[0, j0:j1], cols_t[1:, j0:j1]
            cols = slice(j0, j1)
            for r0 in range(i0, i1, step):
                rows = slice(r0, min(r0 + step, i1))
                num = rows.stop - r0
                u, delta = u_rows[:num], delta_rows[:num]
                np.subtract(rows_t[0, rows], first, out=u)
                np.multiply(u, u, out=u)
                for xi, xj in zip(rows_t[1:, rows], rest):
                    np.subtract(xi, xj, out=delta)
                    np.multiply(delta, delta, out=delta)
                    u += delta
                expo = buf[: num * per_row].reshape(a.size, num, width)
                # u and expo are contiguous, so each term is one rows * cols loop
                np.multiply(neg_a, u, out=expo)
                np.exp(expo, out=expo)
                flat = expo.reshape(a.size, -1)
                # K takes the u buffer, whose values the exponentials consumed;
                # np.dot gives the bits of `w @ flat`, and a one-term mixture
                # costs it a scaled copy where matmul is about 3x slower
                np.dot(w, flat, out=u.reshape(-1))
                if deriv:
                    yield rows, cols, u, -np.dot(w * a, flat).reshape(num, width)
                else:
                    yield rows, cols, u


def kernel_matrix(kernel, scales_i, Xi, scales_j=None, Xj=None, deriv=False):
    """Scalar kernel matrix K[p, q] = kappa(scale_p, scale_q, |x_p - x_q|).

    With deriv=True, returns (K, dK/du) where u is the squared distance;
    `coordinate_differences` gives the x_p - x_q that the chain rule needs.
    The matrix is a scatter of the blocks of `_kernel_blocks`.  Without
    columns it is the square Gram of Xi, and each block above the block
    diagonal is copied, transposed, below it.
    """
    square = scales_j is None
    if square:
        scales_j, Xj = scales_i, Xi
    mats = [np.empty((Xi.shape[0], Xj.shape[0])) for _ in range(1 + deriv)]
    for rows, cols, *blocks in _kernel_blocks(
        kernel, scales_i, Xi, scales_j, Xj, deriv=deriv, upper_only=square
    ):
        for mat, block in zip(mats, blocks):
            mat[rows, cols] = block
            if square and cols.start >= rows.stop:  # strictly above the diagonal
                mat[cols, rows] = block.T
    return tuple(mats) if deriv else mats[0]


def coordinate_differences(X):
    """diff[p, q] = X[p] - X[q], filled one coordinate at a time so that
    each pass runs over a whole row of q."""
    diff = np.empty((X.shape[0], X.shape[0], X.shape[1]))
    for d in range(X.shape[1]):
        np.subtract.outer(X[:, d], X[:, d], out=diff[..., d])
    return diff


def kernel_velocity(kernel, scales_i, Xi, scales_j, Xj, C):
    """Velocity V[p] = sum_q K[p, q] C[q] without forming K: each block of
    `_kernel_blocks` is applied to its columns' vectors as it comes."""
    vel = np.zeros((Xi.shape[0], C.shape[1]))
    for rows, cols, kmat in _kernel_blocks(kernel, scales_i, Xi, scales_j, Xj):
        vel[rows] += kmat @ C[cols]
    return vel


@dataclass
class FlowTrajectory:
    """Time-discretized landmark trajectory with the accumulated kernel energy.

    `blocks[i]` holds the landmark Gram K and its derivative dK/du at
    positions[i], for the adjoint sweep to reuse (2 T P^2 floats), or
    `blocks` is None when the forward pass kept none.  The adjoint sweep
    (`Objective.gradient`) consumes them: it sets `blocks` to None.
    """

    positions: np.ndarray  # (T+1, P, d)
    controls: np.ndarray  # (T, P, d)
    energy: float
    step_norms: np.ndarray  # ||v(t_i)||^2 at each step
    blocks: np.ndarray = None  # (T, 2, P, P): K and dK/du per step

    @property
    def num_steps(self):
        return self.controls.shape[0]

    @property
    def dt(self):
        return 1.0 / self.num_steps

    @property
    def endpoints(self):
        return self.positions[-1]


class IntegrationError(RuntimeError):
    def __init__(self, step):
        super().__init__(f"flow blew up at time step {step}")
        self.step = step


def integrate_forward(kernel, system, controls, keep_blocks=True):
    """Explicit Euler integration of the landmark dynamics.

    Each step evaluates the landmark Gram K once and moves the landmarks
    by K a.  With keep_blocks, and while the store fits MAX_BLOCK_BYTES,
    the step also evaluates dK/du and keeps both matrices on the trajectory
    for the adjoint; the store changes memory only, never a value.
    Accumulates the control energy 0.5 * sum_i dt * a^T K(x(t_i)) a.
    """
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 3 or controls.shape[1:] != system.points.shape:
        raise ValueError("controls must have shape (T, P, d)")
    num_steps = controls.shape[0]
    if num_steps < 1:
        raise ValueError("need at least one time step")
    dt = 1.0 / num_steps
    positions = np.empty((num_steps + 1,) + system.points.shape)
    positions[0] = system.points
    step_norms = np.empty(num_steps)
    block_shape = (num_steps, 2) + (system.num_points,) * 2
    blocks = None
    if keep_blocks and 8 * np.prod(block_shape) <= MAX_BLOCK_BYTES:
        # one allocation, which the allocator hands back whole once released;
        # 2T small matrices would leave the heap larger at its next peak
        blocks = np.empty(block_shape)
    energy = 0.0
    scales = system.point_scales
    for i in range(num_steps):
        pos = positions[i]
        if blocks is None:
            kmat = kernel_matrix(kernel, scales, pos)
        else:
            kmat, dmat = blocks[i]
            kmat[...], dmat[...] = kernel_matrix(kernel, scales, pos, deriv=True)
        vel = kmat @ controls[i]
        sq = np.einsum("pd,pd->", controls[i], vel)
        step_norms[i] = sq
        energy += 0.5 * dt * sq
        positions[i + 1] = positions[i] + dt * vel
        if not np.all(np.isfinite(positions[i + 1])):
            raise IntegrationError(i)
    return FlowTrajectory(positions, controls.copy(), energy, step_norms, blocks)


@dataclass
class DeformationField:
    """Transported grid at a query scale, with optional log-Jacobian data."""

    scale: float
    source: np.ndarray  # (M, d)
    mapped: np.ndarray  # (M, d)
    grid_shape: tuple = None
    log_jac: np.ndarray = None
    folded: np.ndarray = None
    min_jacobian: float = None

    @property
    def displacement(self):
        return self.mapped - self.source

    def sup_displacement(self):
        return float(np.abs(self.displacement).max())

    def save_csv(self, path):
        """x, y, psi_x, psi_y, log_jac rows with CRLF line ends; each float
        is spelled by repr (as str(np.float64) does, NaN as nan), and an
        absent log-Jacobian leaves its column empty."""
        columns = [*self.source.T, *self.mapped.T]
        if self.log_jac is not None:
            columns.append(self.log_jac.ravel())
        texts = [map(repr, column.tolist()) for column in columns]
        if self.log_jac is None:
            texts.append([""] * self.source.shape[0])
        with open(path, "w", newline="") as fh:
            fh.write("x,y,psi_x,psi_y,log_jac\r\n")
            fh.writelines(",".join(row) + "\r\n" for row in zip(*texts))


def _transport(kernel, trajectory, system, lam, points, reverse=False):
    pts = np.array(points, dtype=float, copy=True)
    dt = trajectory.dt
    scales = np.full(pts.shape[0], float(lam))
    steps = range(trajectory.num_steps)
    for i in (reversed(steps) if reverse else steps):
        vel = kernel_velocity(
            kernel, scales, pts, system.point_scales, trajectory.positions[i],
            trajectory.controls[i],
        )
        pts += (-dt if reverse else dt) * vel
        if not np.all(np.isfinite(pts)):
            raise IntegrationError(i)
    return pts


def transport_grid(kernel, trajectory, system, lam, grid_points, grid_shape=None):
    """Transport grid points forward at scale lam (passive: the grid does not
    influence the landmark trajectory)."""
    mapped = _transport(kernel, trajectory, system, lam, grid_points)
    return DeformationField(float(lam), np.asarray(grid_points, float), mapped, grid_shape)


def inverse_map(kernel, trajectory, system, lam, grid_points, grid_shape=None):
    """Transport grid points backward in time under the negated velocity:
    an approximation of the inverse deformation at scale lam, not the exact
    inverse of the forward Euler map, which is an open ROADMAP item."""
    mapped = _transport(kernel, trajectory, system, lam, grid_points, reverse=True)
    return DeformationField(float(lam), np.asarray(grid_points, float), mapped, grid_shape)


def residual_maps(grid_points, deformations):
    """Inter-scale residuals rho_k = psi_k o psi_{k-1}^{-1} (psi_0 the
    identity) of `deformations`, the grid transported at each node scale.
    Each is sampled where psi_{k-1} sent the grid: rho_k maps psi_{k-1}(g)
    to psi_k(g), so their composition telescopes to psi_n exactly, with no
    inverse map and no transport of their own.  Deformations with
    log-Jacobians give each residual log det D psi_k - log det D psi_{k-1}
    at the same grid index (the chain rule), NaN where either scale
    folds."""
    fields = []
    source, prev_log_jac = np.asarray(grid_points, dtype=float), 0.0
    for deformation in deformations:
        field = DeformationField(
            deformation.scale, source, deformation.mapped, deformation.grid_shape
        )
        if deformation.log_jac is not None:
            field.log_jac = deformation.log_jac - prev_log_jac
        fields.append(field)
        source, prev_log_jac = deformation.mapped, deformation.log_jac
    return fields


def make_grid(bbox, num):
    """Uniform num x num grid over bbox = (xmin, xmax, ymin, ymax).

    Returns (points, shape, spacing)."""
    xmin, xmax, ymin, ymax = bbox
    xs = np.linspace(xmin, xmax, num)
    ys = np.linspace(ymin, ymax, num)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return pts, (num, num), (xs[1] - xs[0], ys[1] - ys[0])


def bounding_box(points, margin=0.1):
    """Axis-aligned box around the points, padded by a fractional margin of
    each axis's extent; an axis of zero extent is padded by that fraction
    of the largest extent instead."""
    points = np.asarray(points, dtype=float)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = hi - lo
    pad = margin * np.where(extent > 0, extent, extent.max())
    return (lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])


def log_jacobian(field, spacing):
    """Log-determinant of the spatial Jacobian of a transported grid.

    Central differences in the interior, one-sided at the boundary.  Cells
    with nonpositive determinant (folding) are flagged and get NaN.
    Returns the field with log_jac, folded and min_jacobian (the smallest
    determinant, nonpositive where cells fold) filled in.
    """
    det = jacobian_determinant(field, spacing)
    folded = det <= 0
    field.log_jac = np.where(folded, np.nan, np.log(np.where(folded, 1.0, det)))
    field.folded = folded
    field.min_jacobian = float(det.min())
    return field


def jacobian_determinant(field, spacing):
    """Raw determinant grid (no log), for folding diagnostics."""
    if field.grid_shape is None:
        raise ValueError("the Jacobian needs a structured grid")
    nx, ny = field.grid_shape
    d = field.mapped.shape[1]
    mapped = field.mapped.reshape(nx, ny, d)
    jac = np.empty((nx, ny, d, d))
    for comp in range(d):
        gx, gy = np.gradient(mapped[:, :, comp], spacing[0], spacing[1], edge_order=2)
        jac[:, :, comp, 0] = gx
        jac[:, :, comp, 1] = gy
    return np.linalg.det(jac)
