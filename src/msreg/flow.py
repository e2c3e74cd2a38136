"""Landmark flow integration and grid transport under a multiscale kernel.

The reduced dynamics move a finite set of landmarks, each attached to a base
scale, under the velocity field induced by the kernel and the control
vectors.  Arbitrary grid points can then be transported at any query scale,
forward or backward in time, to obtain per-scale deformations, inverse maps,
inter-scale residuals, and log-Jacobian fields.  The residuals need no
inverse map: each is sampled where the previous scale's deformation sent the
grid, so composing them telescopes exactly.
"""

import math
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

# Rows of a CSV file spelled at a time: the Python floats and row strings
# alive at once stay this few, whatever the grid size, and a spelled array
# is kept as a few long strings rather than a string per row.
CSV_ROWS = 1024

# A block reads a Hermite table of its slice, not one exp per term, when
# the slice has at least TABLE_MIN_TERMS terms and the block at least
# TABLE_MIN_ELEMENTS elements.  A table read costs about what 5 or 6
# terms' exp do (on one core, a 4096 x 30 block of 4 terms took 1.03
# times as long from a table, one of 8 terms 0.82 times), and the small
# tabulated blocks of a call share their chunks: the three 30 x 30 blocks
# of a 60-landmark, two-scale Gram with dK/du are one chunk, in about 0.6
# times the time of their exp loop.  But a table costs about a
# millisecond to lay out and fill, which small blocks do not earn back in
# a short run: with tables, runs of 8 landmarks per scale (blocks of 64
# elements, and 640 against a 64-point grid) and `check`'s 1-element
# blocks took longer.
TABLE_MIN_TERMS = 8
TABLE_MIN_ELEMENTS = 768

# Accuracy of a tabulated K: within TABLE_RTOL of it, or TABLE_ATOL of
# sum_t |w[t]| e^{-a[t] u} (the size of its terms, which may cancel), and
# the same for dK/du with TABLE_ATOL times the largest rate.  The nodes sit
# at r = k h up to the R where exp(-(min rate) R^2) = TABLE_TAIL, with h
# chosen so that the quintic's leading error term stays within
# TABLE_MARGIN of that tolerance.  A slice needing TABLE_MAX_NODES nodes
# or more (rates more than about 1e5 apart) is not tabulated.
TABLE_RTOL = 1e-12
TABLE_ATOL = 1e-13
TABLE_TAIL = 1e-16
TABLE_MARGIN = 0.25
TABLE_MAX_NODES = 1 << 17

# On [0, 1], |t^3 (1 - t)^3| peaks at 1/64 and its derivative at 0.0537;
# over 6! they bound the quintic Hermite error in value and slope.
_VALUE_ERROR = 1.0 / (720 * 64)
_SLOPE_ERROR = 0.0537 / 720

# Table nodes filled at a time: each chunk fills its tables through the
# block that holds the node of its largest distance, and the (3 x terms x
# nodes) basis of one fill stays small.
_FILL_NODES = 512


def _scale_runs(scales):
    """Maximal runs of equal scale as (start, stop, scale)."""
    cuts = np.flatnonzero(scales[1:] != scales[:-1]) + 1
    bounds = [0, *cuts.tolist(), scales.size] if scales.size else []
    return [(a, b, scales[a]) for a, b in zip(bounds[:-1], bounds[1:])]


def _table_grid(w, a):
    """(h, N): the node spacing in r and the interval count of a table of
    the mixture (w, a), or None past TABLE_MAX_NODES.

    On an interval of length du in u, the quintic's error is about
    _VALUE_ERROR |f6| du^6 in K and _SLOPE_ERROR |f6| du^5 in dK/du, where
    f6 is the mixture's sixth u-derivative and du = 2 h r.  h is the
    largest spacing that keeps both within TABLE_MARGIN of the tolerance at
    distances 0.25 / sqrt(max rate) apart up to R."""
    radius = np.sqrt(np.log(1.0 / TABLE_TAIL) / a.min())
    count = int(min(4.0 * radius * np.sqrt(a.max()), TABLE_MAX_NODES))
    r = np.linspace(0.0, radius, count + 1)[1:]
    expo = np.exp(-np.multiply.outer(r * r, a))
    value, slope, size, f6 = (expo @ np.array([w, w * a, np.abs(w), w * a**6]).T).T
    with np.errstate(all="ignore"):
        tol_value = np.maximum(TABLE_RTOL * np.abs(value), TABLE_ATOL * size)
        tol_slope = np.maximum(TABLE_RTOL * np.abs(slope), TABLE_ATOL * a.max() * size)
        f6 = np.abs(f6)
        steps = np.concatenate([
            (TABLE_MARGIN * tol_value / (_VALUE_ERROR * f6)) ** (1 / 6) / (2 * r),
            (TABLE_MARGIN * tol_slope / (_SLOPE_ERROR * f6)) ** 0.2 / (2 * r),
        ])
        step = min(steps.min(), radius)  # NaN if any is: 0 / 0 or inf / inf
        num = np.ceil(radius / step)
    return (step, int(num)) if num < TABLE_MAX_NODES else None


def _hermite_basis(x):
    """(3,) + x.shape: the coefficients c_3, c_4, c_5 of the quintic in t
    that matches exp(-x t) with its first two derivatives at t = 0 and
    t = 1 (c_0, c_1, c_2 are 1, -x, x^2 / 2).  They are combinations of
    the mismatches at t = 1, formed through expm1 so that a small x does
    not lose them to cancellation."""
    em = np.expm1(-x)
    half_x2 = 0.5 * x * x
    return np.array([
        em * (10.0 + 4.0 * x + half_x2) + x * (10.0 - x),
        half_x2 - 15.0 * x - em * (15.0 + 7.0 * x + 2.0 * half_x2),
        em * (6.0 + 3.0 * x + half_x2) + 6.0 * x,
    ])


class HermiteTable:
    """A mixture slice tabulated in u = r^2 as a C^2 piecewise quintic.

    Node k holds u_k = (k h)^2 and the coefficients D_0..D_5 of
    sum_j D_j (u - u_k)^j on [u_k, u_{k+1}]: 7 floats.  The interval of u
    is the node floor(sqrt(u) / h), so no search is needed.  K and dK/du
    (the polynomial's own derivative, finite at r = 0) are within the
    TABLE_RTOL / TABLE_ATOL tolerance of the exp sum.  Beyond R, where the
    sum is below TABLE_TAIL sum_t |w[t]|, both are exactly 0.

    The coefficients are summed per term, C_j = sum_t w[t] e^{-a[t] u_k}
    c_j(a[t] du_k), and scaled by du_k^-j: coefficients fitted to the
    summed values lose dK/du near r = 0 to the cancellation between the
    terms.  `KernelBlocks` fills each chunk's tables up to the node of the
    chunk's largest distance before reading them, so a table is filled as
    far as the distances read, not out to R."""

    def __init__(self, w, a, step, num):
        self.w, self.a, self.step, self.num = w.copy(), a.copy(), step, num
        self.radius = num * step  # R
        self.inv_step = 1.0 / step
        self.rows = np.zeros((7, num + 1))  # column num, beyond R, stays 0
        self.filled = 0
        # any u at or above this reads column num, infinity included, and
        # no u reads past it
        self.cap = ((num + 0.5) * step) ** 2

    def fill(self, top):
        """Fill the nodes up to node `top`, a block of _FILL_NODES at a time.
        The blocks are aligned, so a node's bits never depend on which
        distances were read first."""
        step, w, a = self.step, self.w, self.a
        stop = min(self.num, (top // _FILL_NODES + 1) * _FILL_NODES)
        for k0 in range(self.filled, stop, _FILL_NODES):
            k = np.arange(k0, min(k0 + _FILL_NODES, stop), dtype=float)
            uk, du = (k * step) ** 2, step * step * (2.0 * k + 1.0)
            expo = np.exp(-np.multiply.outer(a, uk))
            high = _hermite_basis(np.multiply.outer(a, du)) * expo
            rows = self.rows[:, k0 : k0 + k.size]
            rows[0] = uk
            rows[1] = w @ expo
            rows[2] = -((w * a) @ expo)
            rows[3] = (0.5 * w * a * a) @ expo
            rows[4:] = (w @ high) / du ** np.arange(3, 6)[:, None]
        self.filled = max(self.filled, stop)


def _quintic(u, s, g, deriv):
    """K over u, written into u, from the node rows `g` (7, n) gathered at
    each element's interval; `s` is a float buffer of u's size.  Returns
    dK/du, written into g[0], with deriv, else None."""
    np.subtract(u, g[0], out=s)
    p = np.multiply(g[6], s, out=u)
    p += g[5]
    dp = np.multiply(g[6], s, out=g[0]) if deriv else None  # g[0] is spent
    if deriv:
        dp += p
    for coeff in g[4:1:-1]:  # Horner for p and for p' together
        p *= s
        p += coeff
        if deriv:
            dp *= s
            dp += p
    p *= s
    p += g[1]
    return dp


def hermite_table(kernel, w, a):
    """The Hermite table of the mixture (w, a), memoised on the kernel by
    the mixture's values, so one is built per kernel and slice; None past
    TABLE_MAX_NODES."""
    memo = vars(kernel).setdefault("_hermite_tables", {})
    key = (w.tobytes(), a.tobytes())
    if key not in memo:
        grid = _table_grid(w, a)
        memo[key] = None if grid is None else HermiteTable(w, a, *grid)
    return memo[key]


def _squared_distances(u, scratch, xi, xj):
    """u[p, q] = |xi[:, p] - xj[:, q]|^2, summed one coordinate at a time;
    xi holds each row coordinate as a column, and `scratch` is a buffer of
    u's shape."""
    np.subtract(xi[0], xj[0], out=u)
    np.multiply(u, u, out=u)
    for a, b in zip(xi[1:], xj[1:]):
        np.subtract(a, b, out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        u += scratch


class _TableRows:
    """A rectangle of rows x columns whose tabulated blocks are read
    together, cut into row chunks of `starts.step` rows; `tables` holds the
    blocks' tables, each once.

    A rectangle of one block reads its `table` directly, with the table's
    cap and inverse node step, in row chunks of at most CHUNK_ELEMENTS / 7
    elements.  A rectangle of several blocks holds at most that many, so it
    is one chunk, and reads the call's stack of tables: per element, it
    holds `ids`, the index of the element's table in the stacked tables,
    that table's cap and inverse node step and, from each restack, the
    table's offset in the stack.  An element outside the blocks reads the
    first block's table, and nothing yields it."""

    def __init__(self, rows, cols, blocks, tables):
        width = cols.stop - cols.start
        step = min(max(1, CHUNK_ELEMENTS // (7 * width)), rows.stop - rows.start)
        self.starts, self.stop, self.cols = range(rows.start, rows.stop, step), rows.stop, cols
        self.size = step * width
        self.tables = list(dict.fromkeys(table for _, _, table in blocks))
        if len(blocks) == 1:
            self.table = self.tables[0]
            self.cap, self.inv_step = self.table.cap, self.table.inv_step
            # (rows, or None for the chunk's own, cols, view of the chunk)
            self.blocks = [(None, cols, (slice(None), slice(None)))]
            return
        self.table, self.blocks = None, []
        tables += [table for table in self.tables if table not in tables]
        self.ids = np.full((rows.stop - rows.start, width), tables.index(self.tables[0]))
        for block_rows, block_cols, table in blocks:
            at = (slice(block_rows.start - rows.start, block_rows.stop - rows.start),
                  slice(block_cols.start - cols.start, block_cols.stop - cols.start))
            self.ids[at] = tables.index(table)
            self.blocks.append((block_rows, block_cols, at))
        self.cap = np.array([t.cap for t in tables])[self.ids]
        self.inv_step = np.array([t.inv_step for t in tables])[self.ids]


class KernelBlocks:
    """The one kernel evaluation loop, set up once for fixed row and column
    scales and then run at any positions: `kernel_matrix`, the forward pass
    and every transport evaluate the kernel here.

    A kernel is any object whose `slice(lam, mu)` returns the mixture
    (w, a) of the scale pair: the kernel value at squared distance u is
    sum_t w[t] exp(-a[t] u).  The arrays may be shared between calls and
    with the kernel, so they must not be modified.  This loop is the only
    code that sums a slice.

    The set-up, done once per forward pass or transport and reused by all
    its steps, finds the runs of equal row scale and of equal column scale,
    takes the mixture slice of each block between a row run and a column
    run, chooses how the block is evaluated, lays out its chunks, and
    allocates the buffers of about CHUNK_ELEMENTS elements that every chunk
    of every step reuses.  A block whose slice has at least TABLE_MIN_TERMS
    terms and which holds at least TABLE_MIN_ELEMENTS elements reads the
    slice's `HermiteTable`, memoised on the kernel (`hermite_table`); every
    other block sums the exp terms.  No |K| exceeds `bound`, the largest
    sum_t |w[t]| of a block's slice, since every rate is positive.

    Calling it at row positions Xi and column positions Xj yields (rows,
    cols, K), or with deriv (rows, cols, K, dK/du) where u is the squared
    distance, for each row chunk of each block: first the exp blocks, then
    the tabulated ones.  K (and dK/du) is a view of a buffer that the next
    chunk overwrites, so a caller must use each block before the next.

    An exp block is cut into row chunks.  Each chunk computes u one
    coordinate at a time, expo[t] = exp(-a[t] * u) term-major as one
    contiguous pass, and reduces over the terms with one gemv each: K =
    w @ expo, dK/du = -((w * a) @ expo).  The coordinate differences use
    the `expo` buffer before the exponentials overwrite it, and K takes the
    u buffer after.

    Consecutive tabulated blocks whose bounding rectangle holds at most
    CHUNK_ELEMENTS / 7 elements (a table read gathers 7 floats per
    element) are one chunk, read from a stack of their tables, memoised on
    the kernel: the filled nodes side by side (`_TableRows`, `_restack`).
    So the three blocks of a two-scale Gram of up to 96 landmarks are one
    chunk.  A larger block reads its own table in row chunks of that size.
    Both follow one fill rule: once u is computed, each chunk fills every
    one of its tables up to the node that its largest u (NaN ignored)
    reads in that table, and a chunk whose stack lacks filled nodes
    restacks.  A chunk makes one pass over its rectangle for u, one for
    each element's interval, one gather of every element's node and one
    Horner pass for K and dK/du (`_quintic`).  This is a lazy kernel
    reduction in the manner of KeOps (Charlier et al., JMLR 2021): no rows
    x cols array of a whole call and no (rows x cols x terms) tensor is
    ever formed.

    Without column scales the blocks are those of the square Gram of the
    rows: only the blocks whose column run starts at or after their row run
    are yielded, for a caller that mirrors the symmetric rest.
    """

    def __init__(self, kernel, scales_i, scales_j=None):
        self.square = scales_j is None
        runs_i = _scale_runs(scales_i)
        runs_j = runs_i if self.square else _scale_runs(scales_j)
        self.shape = (scales_i.size, (scales_i if self.square else scales_j).size)
        blocks, rects, size, u_size, self.bound = [], [], 0, 0, 0.0
        for i0, i1, si in runs_i:
            for j0, j1, sj in runs_j:
                if self.square and j0 < i0:
                    continue
                w, a = kernel.slice(si, sj)
                self.bound = max(self.bound, float(np.abs(w).sum()))
                table = None
                if a.size >= TABLE_MIN_TERMS and (i1 - i0) * (j1 - j0) >= TABLE_MIN_ELEMENTS:
                    table = hermite_table(kernel, w, a)
                rows, cols = slice(i0, i1), slice(j0, j1)
                if table is not None:
                    # consecutive tabulated blocks whose bounding rectangle
                    # fits one chunk are read together
                    if rects:
                        last_rows, last_cols, members = rects[-1]
                        span = (slice(min(i0, last_rows.start), max(i1, last_rows.stop)),
                                slice(min(j0, last_cols.start), max(j1, last_cols.stop)))
                        height, width = (x.stop - x.start for x in span)
                        if 7 * height * width <= CHUNK_ELEMENTS:
                            rects[-1] = [*span, members + [(rows, cols, table)]]
                            continue
                    rects.append([rows, cols, [(rows, cols, table)]])
                    continue
                width = j1 - j0
                step = min(max(1, CHUNK_ELEMENTS // (a.size * width)), i1 - i0)
                blocks.append((range(i0, i1, step), i1, cols, w, w * a, -a[:, None, None]))
                size = max(size, step * width * a.size)
                u_size = max(u_size, step * width)
        self._blocks, self._tables = blocks, []  # the tables of the stack
        self._rects = [_TableRows(*rect, self._tables) for rect in rects]
        t_size = max((rect.size for rect in self._rects), default=0)
        self._buf = np.empty(max(size, 7 * t_size))
        self._ubuf = np.empty(max(u_size, t_size))
        self._sbuf, self._ibuf = np.empty(t_size), np.empty(t_size, dtype=np.intp)
        if self._tables:
            self._stacks = vars(kernel).setdefault("_hermite_stacks", {})
            self._restack()

    def _restack(self):
        """Point each rectangle of several blocks at its table's nodes in the
        stack of `_tables`: their filled nodes side by side, column num of a
        full table included, memoised on the kernel as the tables are and
        rebuilt once they fill more.  Filled nodes never change, so a stack
        that lacks a table's later fills still reads its earlier ones."""
        widths = [t.filled + 1 for t in self._tables]
        key = tuple(self._tables)
        if key not in self._stacks or self._stacks[key].shape[1] < sum(widths):
            self._stacks[key] = np.concatenate(
                [t.rows[:, :width] for t, width in zip(self._tables, widths)], axis=1)
        self._stack, offsets = self._stacks[key], np.cumsum([0] + widths)
        for rect in self._rects:
            if rect.table is None:
                rect.offset = offsets[rect.ids]

    def __call__(self, Xi, Xj=None, deriv=False):
        rows_t = Xi.T[:, :, None]  # each row coordinate as a column
        cols_t = (Xi if Xj is None else Xj).T.copy()  # contiguous column coordinates
        buf, ubuf = self._buf, self._ubuf
        for starts, i1, cols, w, wa, neg_a in self._blocks:
            width, xj = cols.stop - cols.start, cols_t[:, cols]
            for r0 in starts:
                rows = slice(r0, min(r0 + starts.step, i1))
                num = rows.stop - r0
                u = ubuf[: num * width].reshape(num, width)
                delta = buf[: num * width].reshape(num, width)
                _squared_distances(u, delta, rows_t[:, rows], xj)
                expo = buf[: neg_a.size * num * width].reshape(neg_a.size, num, width)
                # u and expo are contiguous, so each term is one rows * cols loop
                np.multiply(neg_a, u, out=expo)
                np.exp(expo, out=expo)
                flat = expo.reshape(neg_a.size, -1)
                # K takes the u buffer, whose values the exponentials consumed;
                # np.dot gives the bits of `w @ flat`, and a one-term mixture
                # costs it a scaled copy where matmul is about 3x slower
                np.dot(w, flat, out=u.reshape(-1))
                if deriv:
                    yield rows, cols, u, -np.dot(wa, flat).reshape(num, width)
                else:
                    yield rows, cols, u
        for rect in self._rects:
            cols = rect.cols
            for r0 in rect.starts:
                rows = slice(r0, min(r0 + rect.starts.step, rect.stop))
                shape = (rows.stop - r0, cols.stop - cols.start)
                n = shape[0] * shape[1]
                u, s = ubuf[:n].reshape(shape), self._sbuf[:n].reshape(shape)
                _squared_distances(u, s, rows_t[:, rows], cols_t[:, cols])
                # fill each table to the node of the chunk's largest u: the
                # same operations below take no element's u past it
                top = np.fmax.reduce(u, axis=None)  # NaN only if every u is
                if not math.isnan(top):
                    for table in rect.tables:
                        node = int(math.sqrt(min(top, table.cap)) * table.inv_step)
                        if node >= table.filled:
                            table.fill(node)
                # u's interval is floor(sqrt(u) / h), a node of its table
                np.minimum(u, rect.cap, out=u)
                np.sqrt(u, out=s)
                s *= rect.inv_step
                index = self._ibuf[:n].reshape(shape)
                np.copyto(index, s, casting="unsafe")
                if rect.table is None:
                    # restack fills since the last, this chunk's or another set-up's
                    if self._stack.shape[1] < sum(t.filled + 1 for t in self._tables):
                        self._restack()
                    index += rect.offset
                nodes = self._stack if rect.table is None else rect.table.rows
                g = np.take(nodes, index.reshape(-1), axis=1, mode="clip",
                            out=buf[: 7 * n].reshape(7, n))
                dk = _quintic(u.reshape(-1), s.reshape(-1), g, deriv)
                dk = dk.reshape(shape) if deriv else None
                for block_rows, block_cols, at in rect.blocks:
                    block_rows = rows if block_rows is None else block_rows
                    if deriv:
                        yield block_rows, block_cols, u[at], dk[at]
                    else:
                        yield block_rows, block_cols, u[at]

    def matrix(self, Xi, Xj=None, deriv=False, out=None):
        """K, or with deriv (K, dK/du), scattered from the blocks into new
        matrices or into `out`, a sequence of as many; the square Gram copies
        each block above the block diagonal, transposed, below it."""
        mats = [np.empty(self.shape) for _ in range(1 + deriv)] if out is None else out
        for rows, cols, *blocks in self(Xi, Xj, deriv):
            for mat, block in zip(mats, blocks):
                mat[rows, cols] = block
                if self.square and cols.start >= rows.stop:  # strictly above the diagonal
                    mat[cols, rows] = block.T
        return tuple(mats) if deriv else mats[0]

    def velocity(self, Xi, Xj, C):
        """Velocity V[p] = sum_q K[p, q] C[q] without forming K: each block is
        applied to its columns' vectors as it comes, and in the square Gram
        each block above the block diagonal also stands, transposed, for
        its mirror below it."""
        vel = np.zeros((Xi.shape[0], C.shape[1]))
        for rows, cols, kmat in self(Xi, Xj):
            vel[rows] += kmat @ C[cols]
            if self.square and cols.start >= rows.stop:  # strictly above the diagonal
                vel[cols] += kmat.T @ C[rows]
        return vel


def kernel_matrix(kernel, scales_i, Xi, scales_j=None, Xj=None, deriv=False):
    """Scalar kernel matrix K[p, q] = kappa(scale_p, scale_q, |x_p - x_q|).

    With deriv=True, returns (K, dK/du) where u is the squared distance;
    the caller applies the chain rule dK/dx_p = 2 dK/du (x_p - x_q).
    Without columns it is the square Gram of Xi.  One call sets up its own
    `KernelBlocks`; a caller evaluating many steps sets one up itself.
    """
    return KernelBlocks(kernel, scales_i, scales_j).matrix(Xi, Xj, deriv)


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

    Each step evaluates the landmark Gram K once, with one `KernelBlocks`
    set up for the whole pass, and moves the landmarks by K a.  With
    keep_blocks, and while the store fits MAX_BLOCK_BYTES, the step also
    evaluates dK/du and keeps both matrices on the trajectory for the
    adjoint; the store changes memory only, never a value.
    Accumulates the control energy 0.5 * sum_i dt * a^T K(x(t_i)) a; a step
    whose a^T K a is below -(TABLE_RTOL + 4 P eps) W (sum |a|)^2, W the Gram's
    `bound`, raises FloatingPointError.  That slack covers each element's
    error (at most TABLE_RTOL W, tabulated or an exp sum of under ~4000
    terms) and the rounding of the sums over P landmarks.
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
    block_shape = (num_steps, 2) + (system.num_points,) * 2
    blocks = None
    if keep_blocks and 8 * np.prod(block_shape) <= MAX_BLOCK_BYTES:
        # one allocation, which the allocator hands back whole once released;
        # 2T small matrices would leave the heap larger at its next peak
        blocks = np.empty(block_shape)
    energy = 0.0
    gram = KernelBlocks(kernel, system.point_scales)
    # u overflows to inf far apart, where K is 0; an overflowed step raises
    with np.errstate(over="ignore", invalid="ignore"):
        slack = (TABLE_RTOL + 4 * system.num_points * np.finfo(float).eps) * gram.bound
        floors = -slack * np.abs(controls).sum(axis=(1, 2)) ** 2  # per step
        for i in range(num_steps):
            if blocks is None:
                kmat = gram.matrix(positions[i])
            else:
                kmat = gram.matrix(positions[i], deriv=True, out=blocks[i])[0]
            vel = kmat @ controls[i]
            aka = np.einsum("pd,pd->", controls[i], vel)
            if aka < floors[i]:
                raise FloatingPointError(f"negative kernel energy {aka:.3e} at time step {i}")
            energy += 0.5 * dt * aka
            positions[i + 1] = positions[i] + dt * vel
            if not np.all(np.isfinite(positions[i + 1])):
                raise IntegrationError(i)
    return FlowTrajectory(positions, controls.copy(), energy, blocks)


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

    def save_csv(self, path, spelled=()):
        """x, y, psi_x, psi_y, log_jac rows with CRLF line ends; each float
        is spelled by repr (as str(np.float64) does, NaN as nan), and an
        absent log-Jacobian leaves its column empty.

        Spelling is most of the cost, and fields share point arrays (each
        residual starts on the previous scale's deformed grid), so `spelled`
        takes the (array, text) pairs that earlier calls returned: a point
        array of this field found there, by identity, is not spelled again,
        so it must not have changed since.  Returns the pairs of this
        field's source and mapped points.
        """
        known = {id(array): text for array, text in spelled}
        arrays = (self.source, self.mapped, self.log_jac)
        texts = [known.get(id(array)) or _spell(array, len(self.source)) for array in arrays]
        with open(path, "w", newline="") as fh:
            fh.write("x,y,psi_x,psi_y,log_jac\r\n")
            for chunks in zip(*texts):
                rows = zip(*(chunk.split("\n") for chunk in chunks))
                fh.writelines(f"{a},{b},{c}\r\n" for a, b, c in rows)
        return tuple(zip(arrays[:2], texts[:2]))


def _spell(array, rows):
    """The text of an array of `rows` rows, one string per CSV_ROWS rows:
    each row is its floats by repr, comma-joined, and the rows are joined
    by newlines.  Without an array every row is empty."""
    starts = range(0, rows, CSV_ROWS)
    if array is None:
        return ["\n" * (min(rows - r0, CSV_ROWS) - 1) for r0 in starts]
    values = np.reshape(array, (rows, -1))
    return [
        "\n".join(map(",".join, zip(*(map(repr, column) for column in chunk.T.tolist()))))
        for chunk in (values[r0 : r0 + CSV_ROWS] for r0 in starts)
    ]


def _transport(kernel, trajectory, system, lam, points, reverse=False):
    pts = np.array(points, dtype=float, copy=True)
    dt = trajectory.dt
    blocks = KernelBlocks(kernel, np.full(pts.shape[0], float(lam)), system.point_scales)
    steps = range(trajectory.num_steps)
    # u overflows to inf far apart, where K is 0; an overflowed step raises
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (reversed(steps) if reverse else steps):
            vel = blocks.velocity(pts, trajectory.positions[i], trajectory.controls[i])
            pts += (-dt if reverse else dt) * vel
            if not np.all(np.isfinite(pts)):
                raise IntegrationError(i)
    return pts


def transport_grid(kernel, trajectory, system, lam, grid_points, grid_shape=None):
    """Transport grid points forward at scale lam (passive: the grid does not
    influence the landmark trajectory)."""
    mapped = _transport(kernel, trajectory, system, lam, grid_points)
    return DeformationField(float(lam), np.asarray(grid_points, float), mapped, grid_shape)


def inverse_map(kernel, trajectory, system, lam, grid_points):
    """Transport grid points backward in time under the negated velocity:
    an approximation of the inverse deformation at scale lam, not the exact
    inverse of the forward Euler map, which is an open ROADMAP item."""
    mapped = _transport(kernel, trajectory, system, lam, grid_points, reverse=True)
    return DeformationField(float(lam), np.asarray(grid_points, float), mapped)


def residual_maps(grid_points, deformations):
    """Inter-scale residuals rho_k = psi_k o psi_{k-1}^{-1} (psi_0 the
    identity) of `deformations`, the grid transported at each node scale.
    Each is sampled where psi_{k-1} sent the grid: rho_k maps psi_{k-1}(g)
    to psi_k(g), so their composition telescopes to psi_n exactly, with no
    inverse map and no transport of their own.  Deformations with
    log-Jacobians give each residual log det D psi_k - log det D psi_{k-1}
    at the same grid index (the chain rule), NaN where either scale
    folds."""
    grid = np.asarray(grid_points, dtype=float)
    chain = [DeformationField(0.0, grid, grid, log_jac=0.0), *deformations]  # psi_0 first
    return [
        DeformationField(psi.scale, phi.mapped, psi.mapped, psi.grid_shape,
                         None if psi.log_jac is None else psi.log_jac - phi.log_jac)
        for phi, psi in zip(chain, chain[1:])
    ]


def make_grid(bbox, num):
    """Uniform num x num grid over bbox = (xmin, xmax, ymin, ymax).

    Returns (points, shape, spacing), spacing being each axis's first node
    step; on a box a few ulps wide the steps round to 0 or unevenly."""
    xmin, xmax, ymin, ymax = bbox
    xs = np.linspace(xmin, xmax, num)
    ys = np.linspace(ymin, ymax, num)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return pts, (num, num), (xs[1] - xs[0], ys[1] - ys[0])


def bounding_box(points, margin=0.1):
    """Axis-aligned box around the points, padded by a fractional margin of
    each axis's extent; an axis of zero extent is padded by that fraction
    of the largest extent instead.  An extent that overflows leaves the box
    not finite."""
    points = np.asarray(points, dtype=float)
    lo, hi = points.min(axis=0), points.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        extent = hi - lo
        pad = margin * np.where(extent > 0, extent, extent.max())
    return (lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])


def log_jacobian(field, spacing):
    """Log-determinant of the spatial Jacobian of a transported grid.

    Central differences in the interior, one-sided at the boundary, over
    one `spacing` step per axis, so the grid's nodes must be evenly spaced.
    Cells with nonpositive determinant (folding) are flagged and get NaN.
    Returns the field with log_jac, folded and min_jacobian (the smallest
    determinant, nonpositive where cells fold) filled in.  A determinant
    that is not finite (differences that overflow, or a spacing that
    underflows to 0) raises FloatingPointError.
    """
    with np.errstate(all="ignore"):
        det = jacobian_determinant(field, spacing)
    if not np.all(np.isfinite(det)):
        raise FloatingPointError(f"Jacobian determinant not finite at scale {field.scale:g}")
    folded = det <= 0
    field.log_jac = np.where(folded, np.nan, np.log(np.where(folded, 1.0, det)))
    field.folded = folded
    field.min_jacobian = float(det.min())
    return field


def jacobian_determinant(field, spacing):
    """Raw determinant grid (no log), for folding diagnostics: the planar
    2 x 2 determinant of D psi in closed form."""
    if field.grid_shape is None:
        raise ValueError("the Jacobian needs a structured grid")
    mapped = field.mapped.reshape(*field.grid_shape, 2)
    xx, xy = np.gradient(mapped[:, :, 0], *spacing, edge_order=2)
    yx, yy = np.gradient(mapped[:, :, 1], *spacing, edge_order=2)
    return xx * yy - xy * yx
