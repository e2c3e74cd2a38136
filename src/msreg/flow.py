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


def _quintic(u, s, g, dk):
    """K over u, written into u, from the node rows `g` (7, n) gathered at
    each element's interval; `s` is a float buffer of u's size.  Returns
    dK/du, written into `dk` (g[0] may be it), or None without dk."""
    np.subtract(u, g[0], out=s)
    p = np.multiply(g[6], s, out=u)
    p += g[5]
    if dk is not None:
        np.multiply(g[6], s, out=dk)  # g[0] is spent
        dk += p
    for coeff in g[4:1:-1]:  # Horner for p and for p' together
        p *= s
        p += coeff
        if dk is not None:
            dk *= s
            dk += p
    p *= s
    p += g[1]
    return dk


def _exp_sum(u, buf, w, wa, neg_a, deriv, out=None):
    """K over the flat squared distances u, written into u, from the exp
    terms of (w, a), neg_a = -a as a column, term-major in `buf`; with
    deriv, returns dK/du, written into `out` or a new array."""
    expo = buf[: neg_a.size * u.size].reshape(neg_a.size, u.size)
    np.exp(np.multiply(neg_a, u, out=expo), out=expo)
    # np.dot gives the bits of `w @ expo`, and a one-term mixture costs it
    # a scaled copy where matmul is about 3x slower
    np.dot(w, expo, out=u)
    return np.negative(np.dot(wa, expo, out=out), out=out) if deriv else None


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


def _elements(rows, cols):
    """(2, n): the row and column index of each element of rows x cols, row
    by row."""
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    return np.indices(shape).reshape(2, -1) + [[rows.start], [cols.start]]


class _TableReads:
    """Elements read together from the stack, `tables` each once: per
    element, the index `ids` of its table in the stacked tables, that
    table's cap and inverse node step, and its offset in the stack."""

    table = None  # the stack, not a table of its own, is read

    def __init__(self, ids, stacked):
        self.tables = [stacked[k] for k in np.unique(ids)]
        self.ids, self.offset = ids, np.empty_like(ids)
        self.cap = np.array([t.cap for t in stacked])[ids]
        self.inv_step = np.array([t.inv_step for t in stacked])[ids]


class _TableRows:
    """A tabulated block of a rectangular set-up, read from its `table` in
    row chunks of at most CHUNK_ELEMENTS / 7 elements."""

    def __init__(self, rows, cols, table):
        width = cols.stop - cols.start
        step = min(max(1, CHUNK_ELEMENTS // (7 * width)), rows.stop - rows.start)
        self.starts, self.stop, self.cols = range(rows.start, rows.stop, step), rows.stop, cols
        self.size = step * width
        self.table, self.tables, self.cap, self.inv_step = table, [table], table.cap, table.inv_step


class KernelBlocks:
    """The one kernel evaluation loop, set up once for fixed row and column
    scales and then run at any positions: `kernel_matrix`, the forward pass
    and every transport evaluate the kernel here.

    A kernel is any object whose `slice(lam, mu)` returns the mixture
    (w, a) of the scale pair: the kernel value at squared distance u is
    sum_t w[t] exp(-a[t] u).  The arrays may be shared between calls and
    with the kernel, so they must not be modified.  This loop is the only
    code that sums a slice.

    The set-up, done once per `Objective`, forward pass or transport,
    takes the mixture slice of each block between a run of equal row scale
    and one of equal column scale, lays out its chunks and allocates the
    buffers that every call reuses.  A block whose slice has at least
    TABLE_MIN_TERMS terms and which holds at least TABLE_MIN_ELEMENTS
    elements (rows x cols, on a square Gram's diagonal too) reads the
    slice's `HermiteTable`, memoised on the kernel (`hermite_table`); every
    other block sums its exp terms in row chunks of about CHUNK_ELEMENTS
    terms x elements (`_exp_sum`).  A chunk of table reads gathers 7 floats
    per element, from its table or from the stack of the set-up's tables,
    memoised on the kernel (`_restack`), after it fills each of its tables
    up to the node that its largest u (NaN ignored) reads (`_read`).  This
    is a lazy kernel reduction in the manner of KeOps (Charlier et al.,
    JMLR 2021): no (rows x cols x terms) tensor is ever formed.  No |K|
    exceeds `bound`, the largest sum_t |w[t]| of a block's slice.

    With column scales, calling it at row positions Xi and column positions
    Xj yields (rows, cols, K), or with deriv (rows, cols, K, dK/du) where u
    is the squared distance, for each row chunk of each block: first the
    exp blocks, then the tabulated ones, each from its own table
    (`_TableRows`).  K (and dK/du) is a view of a buffer that the next
    chunk overwrites, so a caller must use each block before the next.

    Without column scales it is the symmetric Gram of the rows.  Calling it
    at Xi returns (K,), or (K, dK/du), on one flat list of elements, from
    which `matrix` gathers the Gram.  The list holds the exp blocks on and
    above the block diagonal, whole and in a rectangular call's row chunks
    (the gemv gives the last elements mod 4 of a call other bits), then the
    tabulated blocks' i <= j pairs, read from the stack in chunks of
    CHUNK_ELEMENTS / 7.  `exp_terms` and `table_reads` count, over all
    calls, the elements times terms summed by exp and the elements read
    from tables.
    """

    def __init__(self, kernel, scales_i, scales_j=None):
        self.square = scales_j is None
        runs_i = _scale_runs(scales_i)
        runs_j = runs_i if self.square else _scale_runs(scales_j)
        self.shape = (scales_i.size, (scales_i if self.square else scales_j).size)
        blocks, tabulated, size, u_size, self.bound = [], [], 0, 0, 0.0
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
                    tabulated.append((rows, cols, table))
                    continue
                width = j1 - j0
                step = min(max(1, CHUNK_ELEMENTS // (a.size * width)), i1 - i0)
                blocks.append((range(i0, i1, step), i1, cols, w, w * a, -a[:, None]))
                size = max(size, step * width * a.size)
                u_size = max(u_size, step * width)
        self._blocks, self._tables = blocks, []  # the tables of the stack
        if self.square:
            t_size = self._lay_out_pairs(tabulated)
        else:
            self._rects = [_TableRows(*block) for block in tabulated]
            t_size = max((rect.size for rect in self._rects), default=0)
            self._ubuf, self._sbuf = np.empty(max(u_size, t_size)), np.empty(t_size)
        self._buf = np.empty(max(size, 7 * t_size))
        self._ibuf = np.empty(t_size, dtype=np.intp)
        if self._tables:
            self._stacks = vars(kernel).setdefault("_hermite_stacks", {})
            self._restack()

    def _lay_out_pairs(self, tabulated):
        """The square Gram's list of elements (`_pi`, `_pj`), its chunks of
        table reads, the index in the list of each Gram element (`_gather`)
        and the work of a call; returns the size of a chunk of table reads."""
        self._tables = list(dict.fromkeys(table for _, _, table in tabulated))
        exp = [_elements(slice(starts.start, i1), cols) for starts, i1, cols, *_ in self._blocks]
        pairs = [_elements(rows, cols) for rows, cols, _ in tabulated]
        pairs = [pq[:, pq[0] <= pq[1]] for pq in pairs]  # i <= j
        self._pi, self._pj = np.concatenate([np.empty((2, 0), dtype=np.intp), *exp, *pairs], 1)
        count = np.arange(self._pi.size)
        self._gather = np.empty(self.shape, dtype=np.intp)
        self._gather[self._pj, self._pi] = count  # below the diagonal, unless
        self._gather[self._pi, self._pj] = count  # the element is its own
        ids = np.repeat(np.array([self._tables.index(t) for *_, t in tabulated], dtype=np.intp),
                        [p.shape[1] for p in pairs])
        first, step = self._pi.size - ids.size, CHUNK_ELEMENTS // 7
        self._chunks = [(first + c, _TableReads(ids[c : c + step], self._tables))
                        for c in range(0, ids.size, step)]
        self._u, self._s, self._dk = np.empty((3, self._pi.size))
        self.exp_terms, self.table_reads = 0, 0
        self._work = (sum(e.shape[1] * b[-1].size for e, b in zip(exp, self._blocks)), ids.size)
        return min(step, ids.size)

    def _restack(self):
        """Point each chunk of reads from the stack at its elements' tables'
        nodes in the stack of `_tables`: their filled nodes side by side,
        column num of a full table included (one table is its own stack),
        memoised on the kernel as the tables are and rebuilt once they fill
        more.  Filled nodes never change, so a stack that lacks a table's
        later fills still reads its earlier ones."""
        widths = [t.filled + 1 for t in self._tables]
        key = tuple(self._tables)
        if key not in self._stacks or self._stacks[key].shape[1] < sum(widths):
            self._stacks[key] = key[0].rows if len(key) == 1 else np.concatenate(
                [t.rows[:, :width] for t, width in zip(self._tables, widths)], axis=1)
        self._stack, offsets = self._stacks[key], np.cumsum([0] + widths)
        for _, reads in self._chunks:
            np.take(offsets, reads.ids, out=reads.offset)

    def _read(self, u, s, reads, deriv, out=None):
        """K at the flat squared distances u of a chunk of table reads,
        written into u; with deriv, returns dK/du, written into `out` or a
        buffer.  s is a float buffer of u's size."""
        # fill each table to the node of the chunk's largest u: the same
        # operations below take no element's u past it
        top = np.fmax.reduce(u)  # NaN only if every u is
        if not math.isnan(top):
            for table in reads.tables:
                node = int(math.sqrt(min(top, table.cap)) * table.inv_step)
                if node >= table.filled:
                    table.fill(node)
        # u's interval is floor(sqrt(u) / h), a node of its table
        np.minimum(u, reads.cap, out=u)
        np.sqrt(u, out=s)
        s *= reads.inv_step
        index = self._ibuf[: u.size]
        np.copyto(index, s, casting="unsafe")
        if reads.table is None:
            # restack fills since the last, this chunk's or another set-up's
            if self._stack.shape[1] < sum(t.filled + 1 for t in self._tables):
                self._restack()
            index += reads.offset
        nodes = self._stack if reads.table is None else reads.table.rows
        g = np.take(nodes, index, axis=1, mode="clip", out=self._buf[: 7 * u.size].reshape(7, -1))
        return _quintic(u, s, g, (g[0] if out is None else out) if deriv else None)

    def __call__(self, Xi, Xj=None, deriv=False):
        return self._pairs(Xi, deriv) if self.square else self._chunks_of(Xi, Xj, deriv)

    def _pairs(self, Xi, deriv):
        self.exp_terms += self._work[0]
        self.table_reads += self._work[1]
        u, s, dk = self._u, self._s, self._dk
        _squared_distances(u, s, *(np.take(Xi, ends, axis=0).T for ends in (self._pi, self._pj)))
        r0 = 0
        for starts, i1, cols, w, wa, neg_a in self._blocks:
            for row in starts:
                r1 = r0 + (min(row + starts.step, i1) - row) * (cols.stop - cols.start)
                _exp_sum(u[r0:r1], self._buf, w, wa, neg_a, deriv, dk[r0:r1])
                r0 = r1
        for r0, reads in self._chunks:
            r1 = r0 + reads.ids.size
            self._read(u[r0:r1], s[r0:r1], reads, deriv, dk[r0:r1])
        return (u, dk) if deriv else (u,)

    def _chunks_of(self, Xi, Xj, deriv):
        rows_t = Xi.T[:, :, None]  # each row coordinate as a column
        cols_t = (Xi if Xj is None else Xj).T.copy()  # contiguous column coordinates
        buf, ubuf = self._buf, self._ubuf
        for starts, i1, cols, w, wa, neg_a in self._blocks:
            width, xj = cols.stop - cols.start, cols_t[:, cols]
            for r0 in starts:
                rows = slice(r0, min(r0 + starts.step, i1))
                shape = (rows.stop - r0, width)
                u = ubuf[: shape[0] * width].reshape(shape)
                _squared_distances(u, buf[: u.size].reshape(shape), rows_t[:, rows], xj)
                dk = _exp_sum(u.reshape(-1), buf, w, wa, neg_a, deriv)
                yield (rows, cols, u, dk.reshape(shape)) if deriv else (rows, cols, u)
        for rect in self._rects:
            cols = rect.cols
            for r0 in rect.starts:
                rows = slice(r0, min(r0 + rect.starts.step, rect.stop))
                shape = (rows.stop - r0, cols.stop - cols.start)
                n = shape[0] * shape[1]
                u, s = ubuf[:n].reshape(shape), self._sbuf[:n].reshape(shape)
                _squared_distances(u, s, rows_t[:, rows], cols_t[:, cols])
                dk = self._read(u.reshape(-1), s.reshape(-1), rect, deriv)
                yield (rows, cols, u, dk.reshape(shape)) if deriv else (rows, cols, u)

    def matrix(self, Xi, Xj=None, deriv=False, out=None):
        """K, or with deriv (K, dK/du), into new matrices or into `out`, a
        sequence of as many: scattered from the blocks, or in the square
        Gram gathered from its list of elements."""
        mats = [np.empty(self.shape) for _ in range(1 + deriv)] if out is None else out
        if self.square:
            for mat, values in zip(mats, self(Xi, None, deriv)):
                np.take(values, self._gather, out=mat, mode="clip")
        else:
            for rows, cols, *blocks in self(Xi, Xj, deriv):
                for mat, block in zip(mats, blocks):
                    mat[rows, cols] = block
        return tuple(mats) if deriv else mats[0]

    def velocity(self, Xi, Xj, C):
        """Velocity V[p] = sum_q K[p, q] C[q]: a rectangular set-up applies
        each block to its columns' vectors as it comes, without forming K;
        the square Gram is formed whole."""
        if self.square:
            return self.matrix(Xi) @ C
        vel = np.zeros((Xi.shape[0], C.shape[1]))
        for rows, cols, kmat in self(Xi, Xj):
            vel[rows] += kmat @ C[cols]
        return vel


def kernel_matrix(kernel, scales_i, Xi, scales_j=None, Xj=None, deriv=False):
    """Scalar kernel matrix K[p, q] = kappa(scale_p, scale_q, |x_p - x_q|).

    With deriv=True, returns (K, dK/du) where u is the squared distance;
    the caller applies the chain rule dK/dx_p = 2 dK/du (x_p - x_q).
    Without columns it is the square Gram of Xi, each unordered pair of a
    tabulated block evaluated once.  One call sets up its own
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


def integrate_forward(kernel, system, controls, keep_blocks=True, gram=None, store=None):
    """Explicit Euler integration of the landmark dynamics.

    Each step evaluates the landmark Gram K once, through `gram` (a caller's
    `KernelBlocks` of the point scales, or one set up for the pass), and
    moves the landmarks by K a.  With keep_blocks, and while the store fits
    MAX_BLOCK_BYTES, the step also evaluates dK/du and keeps both matrices
    on the trajectory for the adjoint, in `store` (an earlier pass's
    blocks) if it has the store's shape; the store changes memory only.
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
        blocks = store if getattr(store, "shape", None) == block_shape else np.empty(block_shape)
    energy = 0.0
    gram = KernelBlocks(kernel, system.point_scales) if gram is None else gram
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
