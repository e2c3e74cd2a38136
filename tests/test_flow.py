"""Flow integration, grid transport, and Jacobian diagnostics."""

import tracemalloc

import numpy as np
import pytest

from msreg import flow
from msreg.flow import (
    DeformationField,
    IntegrationError,
    KernelBlocks,
    LandmarkSystem,
    bounding_box,
    integrate_forward,
    inverse_map,
    jacobian_determinant,
    kernel_matrix,
    log_jacobian,
    make_grid,
    residual_maps,
    transport_grid,
)
from msreg.ladder import DiracMeasure, ScaleLadder
from msreg.scale_kernels import DiracPiecewiseKernel
from oracles import (
    mixture_value,
    tabulation_tolerance,
    whole_matrix_kernel,
    whole_matrix_velocity,
    write_field_csv,
)

LADDER = ScaleLadder.uniform(0.1, 2.0, 20)
KERNEL = DiracPiecewiseKernel(DiracMeasure(0.5), LADDER)


def two_scale_system(rng, num=4):
    pts = rng.normal(scale=0.5, size=(2 * num, 2))
    tgts = pts + rng.normal(scale=0.2, size=pts.shape)
    scales = np.array([0.1] * num + [2.0] * num)
    return LandmarkSystem(scales, pts, tgts)


class TestLandmarkSystem:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LandmarkSystem(np.ones(2), np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            LandmarkSystem(np.ones(3), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_from_groups_stacks_in_order(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.5, 0.5]])
        sys0 = LandmarkSystem.from_groups([(0.1, a, a + 1), (2.0, b, b)], weight=2.0)
        assert sys0.num_points == 3
        assert sys0.dim == 2
        assert list(sys0.point_scales) == [0.1, 0.1, 2.0]
        assert list(sys0.base_scales) == [0.1, 2.0]
        assert sys0.weight == 2.0
        assert np.array_equal(sys0.points, np.vstack([a, b]))

    def test_from_groups_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            LandmarkSystem.from_groups([(0.1, np.zeros((2, 2)), np.zeros((1, 2)))])

    def test_zero_controls(self):
        sys0 = two_scale_system(np.random.default_rng(0))
        assert sys0.zero_controls(5).shape == (5, 8, 2)


@pytest.fixture(params=["table", "dirac"])
def mixture(request):
    """A mixture kernel and the two ladder ends it knows."""
    if request.param == "table":
        return request.getfixturevalue("small_kernel"), (0.1, 1.0)
    return KERNEL, (0.1, 2.0)


class TestKernelMatrix:
    def test_matches_elementwise_evaluation(self):
        rng = np.random.default_rng(1)
        sys0 = two_scale_system(rng, num=3)
        kmat = kernel_matrix(KERNEL, sys0.point_scales, sys0.points)
        for p in range(6):
            for q in range(6):
                r = np.linalg.norm(sys0.points[p] - sys0.points[q])
                ref = float(mixture_value(KERNEL, sys0.point_scales[p], sys0.point_scales[q], r))
                assert kmat[p, q] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("row_runs", [(2, 1, 2, 1), (1000, 300, 100, 100)])
    def test_interleaved_scales_and_chunks_match_elementwise(self, mixture, row_runs):
        kernel, (lo, hi) = mixture
        rng = np.random.default_rng(sum(row_runs))
        # runs of rows and of 6 columns alternate between the two scales
        scales_i = np.array([hi, lo, hi, lo]).repeat(row_runs)
        scales_j = np.array([lo, hi, lo, hi]).repeat(6)
        rows = scales_i.size
        xi = rng.normal(scale=0.5, size=(rows, 2))
        xj = rng.normal(scale=0.5, size=(scales_j.size, 2))
        kmat, dmat = kernel_matrix(kernel, scales_i, xi, scales_j, xj, deriv=True)
        slices = {(s, t): kernel.slice(s, t) for s in (lo, hi) for t in (lo, hi)}
        if rows > 100:
            # the first run's block against a column run spans two row chunks
            assert row_runs[0] * 6 * slices[hi, hi][1].size > flow.CHUNK_ELEMENTS
        term_sums = np.empty_like(kmat)
        for p in range(rows):
            for q in range(scales_j.size):
                r = np.linalg.norm(xi[p] - xj[q])
                w, a = slices[scales_i[p], scales_j[q]]
                expo = np.exp(-a * r * r)
                ref = float(mixture_value(kernel, scales_i[p], scales_j[q], r))
                # rounding is relative to the terms, which may cancel
                term_sums[p, q] = np.dot(np.abs(w), expo)
                tol = 1e-13 * term_sums[p, q]
                assert kmat[p, q] == pytest.approx(ref, rel=1e-12, abs=tol)
                dref = -np.dot(w * a, expo)
                assert dmat[p, q] == pytest.approx(dref, rel=1e-12, abs=tol * a.max())
        # the fused reduction agrees with the matrix it never forms
        controls = rng.normal(size=(scales_j.size, 2))
        vel = KernelBlocks(kernel, scales_i, scales_j).velocity(xi, xj, controls)
        bound = 1e-13 * term_sums.dot(np.abs(controls))
        assert np.all(np.abs(vel - kmat.dot(controls)) <= bound)

    @pytest.mark.parametrize("runs", [(2, 1, 2, 1), (7, 5, 3, 9), (300, 60, 20, 40)])
    def test_square_gram_mirrors_the_blocks_above_the_diagonal(self, mixture, runs):
        kernel, (lo, hi) = mixture
        rng = np.random.default_rng(sum(runs))
        scales = np.array([hi, lo, hi, lo]).repeat(runs)
        x = rng.normal(scale=0.5, size=(scales.size, 2))
        square = kernel_matrix(kernel, scales, x, deriv=True)
        rect = kernel_matrix(kernel, scales, x, scales, x, deriv=True)
        u = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        bounds = np.cumsum((0,) + runs)
        blocks = [slice(b0, b1) for b0, b1 in zip(bounds[:-1], bounds[1:])]
        for b, rows in enumerate(blocks):
            for c, cols in enumerate(blocks):
                w, a = kernel.slice(scales[rows.start], scales[cols.start])
                term_sums = np.exp(-np.multiply.outer(u[rows, cols], a)).dot(np.abs(w))
                for sq, re, rate in zip(square[:2], rect[:2], (1.0, a.max())):
                    if c >= b:  # evaluated as in the rectangular call
                        assert np.array_equal(sq[rows, cols], re[rows, cols])
                    else:  # the transpose of its partner above the diagonal
                        assert np.array_equal(sq[rows, cols], sq[cols, rows].T)
                        err = np.abs(sq[rows, cols] - re[rows, cols])
                        assert np.all(err <= 1e-13 * rate * term_sums)

    @pytest.mark.parametrize("runs", [(5, 5), (3, 400, 2), (700,)])
    def test_square_velocity_is_the_square_gram_times_the_controls(self, mixture, runs):
        kernel, (lo, hi) = mixture
        rng = np.random.default_rng(sum(runs))
        scales = np.array([lo, hi, lo][: len(runs)]).repeat(runs)
        x = rng.normal(scale=0.5, size=(scales.size, 2))
        controls = rng.normal(size=(scales.size, 2))
        vel = KernelBlocks(kernel, scales).velocity(x, None, controls)
        kmat = kernel_matrix(kernel, scales, x)
        bound = 1e-13 * np.abs(kmat).dot(np.abs(controls))
        assert np.all(np.abs(vel - kmat.dot(controls)) <= bound)

    def test_rectangular_and_derivative(self):
        rng = np.random.default_rng(2)
        xi = rng.normal(size=(4, 2))
        xj = rng.normal(size=(3, 2))
        si = np.full(4, 0.4)
        sj = np.full(3, 1.3)
        kmat, dmat = kernel_matrix(KERNEL, si, xi, sj, xj, deriv=True)
        assert kmat.shape == (4, 3) and dmat.shape == (4, 3)
        # dmat is d/du of the mixture; check against finite differences
        h = 1e-7
        for p in range(4):
            for q in range(3):
                u = np.sum((xi[p] - xj[q]) ** 2)
                up = float(mixture_value(KERNEL, 0.4, 1.3, np.sqrt(u + h)))
                dn = float(mixture_value(KERNEL, 0.4, 1.3, np.sqrt(max(u - h, 0.0))))
                assert dmat[p, q] == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        sys0 = two_scale_system(rng)
        kmat = kernel_matrix(KERNEL, sys0.point_scales, sys0.points)
        assert np.abs(kmat - kmat.T).max() <= 1e-13


class TestAgainstWholeMatrixOracle:
    """Bit for bit the block loop over a precomputed whole distance matrix
    (`tests/oracles.py`), which the per-chunk distances replaced, in every
    block evaluated by exp; within the tabulation's elementwise tolerance
    in the blocks read from a table."""

    # (row run lengths, column run lengths, dimension); the runs alternate
    # between the two ladder ends
    CASES = {
        "uneven_runs": ((7, 130, 3, 41), (5, 1, 9), 2),
        "rows_off_the_chunk": ((1001, 301), (400, 13), 2),
        "wide_columns": ((3, 2), (5000,), 2),
        "three_dims": ((40, 9, 23), (6, 11), 3),
        "zero_rows": ((0,), (5, 4), 2),
    }

    @staticmethod
    def make_case(ends, runs_i, runs_j, dim, seed):
        lo, hi = ends
        rng = np.random.default_rng(seed)
        scales_i = np.array([hi, lo] * 4)[: len(runs_i)].repeat(runs_i)
        scales_j = np.array([lo, hi] * 4)[: len(runs_j)].repeat(runs_j)
        xi = rng.normal(scale=0.5, size=(scales_i.size, dim))
        xj = rng.normal(scale=0.5, size=(scales_j.size, dim))
        return scales_i, xi, scales_j, xj, rng.normal(size=(scales_j.size, dim))

    @staticmethod
    def tabulated(kernel, runs_i, scales_i, runs_j, scales_j, square):
        """Mask of the elements in blocks that read a table: a slice of at
        least TABLE_MIN_TERMS terms and a block of at least
        TABLE_MIN_ELEMENTS elements (in the square Gram, the blocks on and
        above the diagonal and their mirrors)."""
        if square:
            runs_j, scales_j = runs_i, scales_i
        bounds_i, bounds_j = np.cumsum((0,) + runs_i), np.cumsum((0,) + runs_j)
        mask = np.zeros((scales_i.size, scales_j.size), dtype=bool)
        for b, (i0, i1) in enumerate(zip(bounds_i[:-1], bounds_i[1:])):
            for c, (j0, j1) in enumerate(zip(bounds_j[:-1], bounds_j[1:])):
                if i1 == i0 or j1 == j0 or (square and c < b):
                    continue
                terms = kernel.slice(scales_i[i0], scales_j[j0])[1].size
                size = (i1 - i0) * (j1 - j0)
                if terms >= flow.TABLE_MIN_TERMS and size >= flow.TABLE_MIN_ELEMENTS:
                    mask[i0:i1, j0:j1] = True
                    if square:
                        mask[j0:j1, i0:i1] = True
        return mask

    @pytest.mark.parametrize("case", list(CASES))
    def test_kernel_matrix_and_velocity_are_bitwise_the_oracle(self, mixture, case):
        kernel, ends = mixture
        runs_i, runs_j, dim = self.CASES[case]
        si, xi, sj, xj, controls = self.make_case(ends, runs_i, runs_j, dim, len(case))
        if case == "rows_off_the_chunk":
            # the first block spans several row chunks, the last one partial
            step = flow.CHUNK_ELEMENTS // (kernel.slice(si[0], sj[0])[1].size * runs_j[0])
            assert runs_i[0] > step and runs_i[0] % step
        chunk = flow.CHUNK_ELEMENTS
        tol_rect = tabulation_tolerance(kernel, si, xi, sj, xj)
        tol_square = tabulation_tolerance(kernel, si, xi, si, xi)
        for deriv in (False, True):
            rect = kernel_matrix(kernel, si, xi, sj, xj, deriv=deriv)
            ref = whole_matrix_kernel(kernel, si, xi, sj, xj, chunk, deriv=deriv)
            square = kernel_matrix(kernel, si, xi, deriv=deriv)
            ref_square = whole_matrix_kernel(kernel, si, xi, si, xi, chunk, deriv=deriv,
                                             square=True)
            for got, want, tols, is_square in ((rect, ref, tol_rect, False),
                                               (square, ref_square, tol_square, True)):
                got, want = (got, want) if deriv else ((got,), (want,))
                assert len(got) == len(want)
                table = self.tabulated(kernel, runs_i, si, runs_j, sj, is_square)
                for mat, ref_mat, tol in zip(got, want, tols):
                    assert mat.shape == ref_mat.shape
                    assert np.array_equal(mat[~table], ref_mat[~table])
                    assert np.all(np.abs(mat - ref_mat)[table] <= tol[table])
        vel = KernelBlocks(kernel, si, sj).velocity(xi, xj, controls)
        ref_vel = whole_matrix_velocity(kernel, si, xi, sj, xj, controls, chunk)
        table = self.tabulated(kernel, runs_i, si, runs_j, sj, False)
        if table.any():
            # the tabulated elements' tolerance, and rounding in the sums
            bound = (tol_rect[0] * table).dot(np.abs(controls))
            bound += 1e-14 * np.abs(ref[0]).dot(np.abs(controls))
            assert np.all(np.abs(vel - ref_vel) <= bound)
        else:
            assert np.array_equal(vel, ref_vel)

    def test_large_grid_velocity_stays_in_chunk_sized_memory(self, small_kernel):
        # 65536 grid points x 60 landmarks: one distance matrix alone would
        # be 31 MB; the velocity itself is 1 MB
        rng = np.random.default_rng(7)
        grid = make_grid((-1.0, 1.0, -1.0, 1.0), 256)[0]
        scales = np.full(grid.shape[0], 0.25)
        landmark_scales = np.repeat([0.1, 1.0], 30)
        landmarks = rng.normal(scale=0.5, size=(60, 2))
        controls = rng.normal(size=(60, 2))
        tracemalloc.start()
        try:
            blocks = KernelBlocks(small_kernel, scales, landmark_scales)
            vel = blocks.velocity(grid, landmarks, controls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vel.shape == grid.shape and np.all(np.isfinite(vel))
        assert peak < 4 * 2**20


class Mixture:
    """A kernel whose every slice is the same mixture (w, a)."""

    def __init__(self, w, a):
        self.mixture = np.asarray(w, float), np.asarray(a, float)

    def slice(self, lam, mu):
        return self.mixture


class TestHermiteTable:
    """Blocks of many terms and many elements read a quintic Hermite table
    of their slice; every other block sums its exp terms."""

    @staticmethod
    def column(kernel, lam, mu, r):
        """K and dK/du at distances r, as one tall block of a rectangular
        kernel matrix (rows at (r, 0), one column at the origin)."""
        points = np.stack([r, np.zeros_like(r)], axis=1)
        kmat, dmat = kernel_matrix(kernel, np.full(r.size, lam), points, np.array([mu]),
                                   np.zeros((1, 2)), deriv=True)
        return kmat[:, 0], dmat[:, 0]

    @pytest.mark.parametrize(
        "which, lam, mu",
        [("experiment", 0.1, 0.1), ("experiment", 1.5, 1.5), ("experiment", 0.1, 2.0),
         ("experiment", 2.0, 2.0), ("dirac", 2.0, 2.0), ("dirac", 1.2, 1.2)],
    )
    def test_meets_the_elementwise_tolerance_and_is_zero_beyond_r(self, experiment_kernel,
                                                                   which, lam, mu):
        kernel = experiment_kernel if which == "experiment" else DiracPiecewiseKernel(
            DiracMeasure(0.5), LADDER)
        w, a = kernel.slice(lam, mu)
        assert w.size >= flow.TABLE_MIN_TERMS
        table = flow.hermite_table(kernel, w, a)
        h, radius = table.step, table.radius
        nodes = np.arange(round(radius / h)) * h
        r = np.concatenate([
            [0.0], np.linspace(0.0, 1.0, 4001),
            nodes, nodes + 0.25 * h, nodes + 0.5 * h, nodes + 0.75 * h,
            radius * (1.0 - np.geomspace(1e-6, 1e-14, 5)),
        ])
        kvals, dvals = self.column(kernel, lam, mu, r)
        expo = np.exp(-np.multiply.outer(r * r, a))
        size = expo @ np.abs(w)
        ref = mixture_value(kernel, lam, mu, r)
        dref = -(expo @ (w * a))
        assert np.all(np.abs(kvals - ref) <= np.maximum(1e-12 * np.abs(ref), 1e-13 * size))
        tol = np.maximum(1e-12 * np.abs(dref), 1e-13 * a.max() * size)
        assert np.all(np.abs(dvals - dref) <= tol)
        # beyond R the table reads exactly 0, where the sum is below 1e-16 of its weights
        far = radius * np.array([1.0 + 1e-9, 1.5, 10.0, 1e100] * 600)
        kvals, dvals = self.column(kernel, lam, mu, far)
        assert not kvals.any() and not dvals.any()
        assert np.abs(mixture_value(kernel, lam, mu, far[:1])) < 1e-16 * np.abs(w).sum()

    @pytest.mark.parametrize(
        "terms, rows, cols, square, tabulated",
        [
            (8, 32, 64, False, True),  # 2048 elements
            (8, 23, 89, False, False),  # 2047 elements
            (7, 64, 64, False, False),
            (7, 600, 600, True, False),
            (20, 2048, 1, False, True),
            (20, 30, 30, True, False),  # a 60-landmark Gram of two scales
            (20, 45, 45, True, False),  # 2025 elements
            (20, 46, 46, True, True),  # 2116 elements
        ],
    )
    def test_the_rule_reads_the_term_count_and_the_block_size(self, terms, rows, cols,
                                                              square, tabulated):
        kernel = Mixture(np.linspace(1.0, 0.2, terms), np.geomspace(0.1, 50.0, terms))
        rng = np.random.default_rng(terms + rows)
        xi, xj = rng.normal(size=(rows, 2)), rng.normal(size=(cols, 2))
        si, sj = np.full(rows, 0.5), np.full(cols, 0.5)
        if square:
            got = kernel_matrix(kernel, si, xi, deriv=True)
            want = whole_matrix_kernel(kernel, si, xi, si, xi, flow.CHUNK_ELEMENTS, deriv=True)
        else:
            got = kernel_matrix(kernel, si, xi, sj, xj, deriv=True)
            want = whole_matrix_kernel(kernel, si, xi, sj, xj, flow.CHUNK_ELEMENTS, deriv=True)
        # the exp loop gives the oracle's bits; a table, almost never
        assert all(np.array_equal(g, w) for g, w in zip(got, want)) is not tabulated

    def test_grid_transport_and_forward_pass_match_the_exp_loop(self, experiment_kernel,
                                                                 monkeypatch):
        # 64 landmarks at each of two scales: 64 x 64 Gram blocks and
        # 4096 x 64 grid blocks, all read from tables
        rng = np.random.default_rng(19)
        scales = np.repeat([0.1, 2.0], 64)
        points = rng.normal(scale=0.6, size=(128, 2))
        sys0 = LandmarkSystem(scales, points, points)
        controls = 0.3 * rng.normal(size=(4, 128, 2))
        grid = make_grid((-1.5, 1.5, -1.5, 1.5), 64)[0]
        lam = 1.0
        vel = KernelBlocks(experiment_kernel, np.full(4096, lam), scales).velocity(
            grid, points, controls[0])
        ref = whole_matrix_velocity(experiment_kernel, np.full(4096, lam), grid, scales,
                                    points, controls[0], flow.CHUNK_ELEMENTS)
        assert np.abs(vel - ref).max() <= 1e-12 * np.abs(ref).max()
        traj = integrate_forward(experiment_kernel, sys0, controls)
        moved = transport_grid(experiment_kernel, traj, sys0, lam, grid).displacement
        # the same run with every block on the exp loop
        monkeypatch.setattr(flow, "TABLE_MIN_TERMS", 10**9)
        exp_traj = integrate_forward(experiment_kernel, sys0, controls)
        exp_moved = transport_grid(experiment_kernel, exp_traj, sys0, lam, grid).displacement
        moves = exp_traj.positions - exp_traj.positions[0]
        assert np.abs(traj.positions - exp_traj.positions).max() <= 1e-12 * np.abs(moves).max()
        assert traj.energy == pytest.approx(exp_traj.energy, rel=1e-12)
        assert np.abs(moved - exp_moved).max() <= 1e-12 * np.abs(exp_moved).max()
        assert not np.array_equal(moved, exp_moved)  # the tables were read

    def test_fill_order_leaves_no_trace(self, experiment_kernel):
        w, a = experiment_kernel.slice(0.1, 0.1)
        r = np.linspace(0.0, 30.0, 3000)
        # one kernel reads near distances first, the other everything at once
        tables = [Mixture(w, a), Mixture(w, a)]
        self.column(tables[0], 0.1, 0.1, np.linspace(0.0, 0.5, 2048))
        first, second = (self.column(kernel, 0.1, 0.1, r) for kernel in tables)
        assert all(np.array_equal(f, s) for f, s in zip(first, second))
        table = flow.hermite_table(tables[0], w, a)
        assert table.filled == table.rows.shape[1] - 1

    def test_a_table_is_7_floats_per_node_and_filled_only_as_far_as_read(self,
                                                                         experiment_kernel):
        w, a = experiment_kernel.slice(0.1, 0.1)
        kernel = Mixture(w, a)
        tracemalloc.start()
        try:
            self.column(kernel, 0.1, 0.1, np.linspace(0.0, 1.0, 2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = flow.hermite_table(kernel, w, a)
        num = table.rows.shape[1] - 1
        assert table.rows.shape == (7, num + 1) and table.rows.nbytes == 56 * (num + 1)
        # the table, and scratch that does not grow with it: chunk buffers and one fill
        assert peak <= table.rows.nbytes + 2 * 2**20
        # r <= 1 reads about 1 / R of the nodes; the rest wait unfilled
        assert table.filled < num // 8
        assert not table.rows[:, table.filled:].any()


class TestVelocity:
    """The velocity field, seen as the displacement of one transport step."""

    def test_zero_controls_give_zero_velocity(self):
        rng = np.random.default_rng(4)
        sys0 = two_scale_system(rng)
        traj = integrate_forward(KERNEL, sys0, sys0.zero_controls(1))
        field = transport_grid(KERNEL, traj, sys0, 0.5, sys0.points)
        assert np.abs(field.displacement).max() == 0.0

    def test_single_landmark_closed_form(self):
        sys0 = LandmarkSystem(
            np.array([0.5]), np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])
        )
        a = np.array([[0.3, -0.2]])
        query = np.array([[0.7, 0.1]])
        traj = integrate_forward(KERNEL, sys0, a[None])
        field = transport_grid(KERNEL, traj, sys0, 0.5, query)
        r = np.linalg.norm(query[0])
        # displacement = dt * K * a with a single step, dt = 1
        assert traj.dt == 1.0
        assert np.allclose(field.displacement[0], float(mixture_value(KERNEL, 0.5, 0.5, r)) * a[0])


class TestIntegrateForward:
    def test_zero_controls_are_stationary(self):
        rng = np.random.default_rng(6)
        sys0 = two_scale_system(rng)
        traj = integrate_forward(KERNEL, sys0, sys0.zero_controls(8))
        assert traj.energy == 0.0
        assert np.array_equal(traj.endpoints, sys0.points)
        assert traj.num_steps == 8
        assert traj.dt == pytest.approx(0.125)

    def test_rejects_bad_control_shapes(self):
        rng = np.random.default_rng(7)
        sys0 = two_scale_system(rng)
        with pytest.raises(ValueError):
            integrate_forward(KERNEL, sys0, np.zeros((5, 3, 2)))
        with pytest.raises(ValueError):
            integrate_forward(KERNEL, sys0, np.zeros((0, 8, 2)))

    def test_energy_is_the_quadrature_of_the_oracle_grams(self):
        # 0.5 dt sum_i a_i^T K(x_i) a_i, with each K recomputed by the
        # whole-matrix oracle at the stored positions
        rng = np.random.default_rng(8)
        sys0 = two_scale_system(rng)
        controls = 0.3 * rng.normal(size=(6, 8, 2))
        traj = integrate_forward(KERNEL, sys0, controls)
        scales = sys0.point_scales
        terms = []
        for pos, ctrl in zip(traj.positions[:-1], controls):
            kmat = whole_matrix_kernel(KERNEL, scales, pos, scales, pos, 1 << 16)
            terms.append(np.sum(ctrl * (kmat @ ctrl)))
        assert min(terms) > 0.0
        assert traj.energy == pytest.approx(0.5 * traj.dt * sum(terms), rel=1e-12)

    def test_euler_self_convergence(self):
        rng = np.random.default_rng(9)
        sys0 = two_scale_system(rng)
        controls = 0.5 * rng.normal(size=(10, 8, 2))
        endpoints = {}
        for factor in (1, 2, 4):
            up = np.repeat(controls, factor, axis=0)
            endpoints[factor] = integrate_forward(KERNEL, sys0, up).endpoints
        err1 = np.abs(endpoints[1] - endpoints[4]).max()
        err2 = np.abs(endpoints[2] - endpoints[4]).max()
        assert err2 < err1  # first-order: halving dt shrinks the error

    def test_blowup_is_reported(self):
        rng = np.random.default_rng(10)
        sys0 = two_scale_system(rng)
        controls = np.full((4, 8, 2), np.nan)
        with pytest.raises(IntegrationError):
            integrate_forward(KERNEL, sys0, controls)


class TestTransport:
    @staticmethod
    def make_case(seed=11, num_steps=10):
        rng = np.random.default_rng(seed)
        sys0 = two_scale_system(rng)
        controls = 0.4 * rng.normal(size=(num_steps, 8, 2))
        traj = integrate_forward(KERNEL, sys0, controls)
        return sys0, traj

    def test_landmarks_ride_their_own_flow(self):
        sys0, traj = self.make_case()
        # transporting each landmark at its own base scale reproduces the
        # integrated trajectory endpoint
        for scale in (0.1, 2.0):
            mask = sys0.point_scales == scale
            field = transport_grid(KERNEL, traj, sys0, scale, sys0.points[mask])
            assert np.abs(field.mapped - traj.endpoints[mask]).max() <= 1e-10

    def test_inverse_map_round_trip_improves_with_dt(self):
        errs = {}
        for num_steps in (10, 20, 40):
            sys0, traj = self.make_case(seed=12, num_steps=num_steps)
            pts = np.random.default_rng(13).normal(size=(15, 2))
            fwd = transport_grid(KERNEL, traj, sys0, 0.7, pts)
            back = inverse_map(KERNEL, traj, sys0, 0.7, fwd.mapped)
            errs[num_steps] = np.abs(back.mapped - pts).max()
        assert errs[40] < errs[20] < errs[10]
        assert errs[40] <= 0.05

    def test_residual_fields_match_public_transports(self, monkeypatch):
        sys0, traj = self.make_case(seed=14)
        pts = np.random.default_rng(15).normal(size=(10, 2))
        node_scales = [0.1, 0.7, 1.4, 2.0]
        deformations = [transport_grid(KERNEL, traj, sys0, s, pts) for s in node_scales]
        assert all(f.log_jac is None for f in residual_maps(pts, deformations))
        for k, d in enumerate(deformations):
            d.log_jac = np.random.default_rng(16 + k).normal(size=len(pts))
        deformations[1].log_jac[3] = np.nan  # a folded cell at the second node

        def forbidden(*args, **kwargs):
            raise AssertionError("_transport called")

        # the residuals take no transport of their own
        monkeypatch.setattr(flow, "_transport", forbidden)
        fields = residual_maps(pts, deformations)
        assert [f.scale for f in fields] == node_scales
        # the first residual starts on the grid; each later one starts where
        # the previous one ended, so their composition telescopes
        assert np.array_equal(fields[0].source, pts)
        for prev, f in zip(fields[:-1], fields[1:]):
            assert np.array_equal(f.source, prev.mapped)
        for f, d in zip(fields, deformations):
            assert np.array_equal(f.mapped, d.mapped)
        # their log-Jacobians follow the chain rule
        assert np.array_equal(fields[0].log_jac, deformations[0].log_jac)
        for k in range(1, len(node_scales)):
            diff = deformations[k].log_jac - deformations[k - 1].log_jac
            assert np.array_equal(fields[k].log_jac, diff, equal_nan=True)
        assert np.isnan(fields[1].log_jac[3]) and np.isnan(fields[2].log_jac[3])

    def test_velocity_paths_never_form_the_kernel_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("kernel_matrix called")

        # the forward pass forms each step's Gram by design; transports do not
        sys0, traj = self.make_case(seed=19)
        monkeypatch.setattr(flow, "kernel_matrix", forbidden)
        pts = np.random.default_rng(20).normal(size=(7, 2))
        fields = [transport_grid(KERNEL, traj, sys0, s, pts) for s in (0.1, 2.0)]
        back = inverse_map(KERNEL, traj, sys0, 2.0, pts)
        assert all(np.all(np.isfinite(f.mapped)) for f in fields + [back])

    def test_translation_equivariance(self):
        sys0, traj = self.make_case(seed=16)
        shift = np.array([1.3, -0.6])
        shifted = LandmarkSystem(
            sys0.point_scales, sys0.points + shift, sys0.targets + shift
        )
        traj_s = integrate_forward(KERNEL, shifted, traj.controls)
        assert np.abs(traj_s.endpoints - (traj.endpoints + shift)).max() <= 1e-12
        pts = np.random.default_rng(17).normal(size=(6, 2))
        f = transport_grid(KERNEL, traj, sys0, 1.0, pts)
        fs = transport_grid(KERNEL, traj_s, shifted, 1.0, pts + shift)
        assert np.abs(fs.mapped - (f.mapped + shift)).max() <= 1e-12

    def test_rotation_equivariance(self):
        sys0, traj = self.make_case(seed=18)
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        rotated = LandmarkSystem(
            sys0.point_scales, sys0.points.dot(rot.T), sys0.targets.dot(rot.T)
        )
        controls_r = traj.controls.dot(rot.T)
        traj_r = integrate_forward(KERNEL, rotated, controls_r)
        assert np.abs(traj_r.endpoints - traj.endpoints.dot(rot.T)).max() <= 1e-10
        assert traj_r.energy == pytest.approx(traj.energy, rel=1e-10)


class TestJacobian:
    @staticmethod
    def analytic_field(fun, bbox=(-1, 1, -1, 1), num=41):
        pts, shape, spacing = make_grid(bbox, num)
        mapped = np.stack([fun(p) for p in pts])
        return DeformationField(1.0, pts, mapped, grid_shape=shape), spacing

    def test_identity_is_zero(self):
        field, spacing = self.analytic_field(lambda p: p)
        log_jacobian(field, spacing)
        assert np.abs(field.log_jac).max() <= 1e-12
        assert not field.folded.any()

    def test_linear_scaling(self):
        field, spacing = self.analytic_field(lambda p: 2.0 * p)
        log_jacobian(field, spacing)
        assert np.abs(field.log_jac - 2.0 * np.log(2.0)).max() <= 1e-10

    def test_nonlinear_map_second_order(self):
        fun = lambda p: np.array([p[0] + 0.1 * np.sin(p[1]), p[1] + 0.1 * p[0] ** 2])
        errs = []
        for num in (21, 41):
            field, spacing = self.analytic_field(fun, num=num)
            log_jacobian(field, spacing)
            det_ref = np.array(
                [
                    1.0 * (1.0) - 0.1 * np.cos(p[1]) * 0.2 * p[0]
                    for p in field.source
                ]
            ).reshape(field.grid_shape)
            errs.append(np.abs(field.log_jac - np.log(det_ref)).max())
        assert errs[1] <= 0.3 * errs[0]  # roughly O(h^2)

    def test_folding_flagged(self):
        # map folds along x = 0: x -> -x^3 has det < 0 nowhere but
        # x -> (x^2, y) has det = 2x <= 0 for x <= 0
        field, spacing = self.analytic_field(lambda p: np.array([p[0] ** 2, p[1]]))
        log_jacobian(field, spacing)
        assert field.folded.any()
        assert np.isnan(field.log_jac[field.folded]).all()
        dets = jacobian_determinant(field, spacing)
        assert field.min_jacobian == dets.min() < 0

    def test_closed_form_is_the_lu_determinant_on_a_transported_grid(self):
        sys0, traj = TestTransport.make_case()
        pts, shape, spacing = make_grid(bounding_box(sys0.points, 0.3), 33)
        field = transport_grid(KERNEL, traj, sys0, 0.5, pts, shape)
        mapped = field.mapped.reshape(*shape, 2)
        jac = np.empty(shape + (2, 2))
        for comp in range(2):
            jac[:, :, comp] = np.stack(
                np.gradient(mapped[:, :, comp], *spacing, edge_order=2), axis=-1
            )
        lu = np.linalg.det(jac)
        assert np.abs(lu - 1.0).max() > 0.1  # the grid is deformed
        np.testing.assert_allclose(jacobian_determinant(field, spacing), lu, rtol=1e-15, atol=0)

    def test_requires_structured_grid(self):
        field = DeformationField(1.0, np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            log_jacobian(field, (0.1, 0.1))


class TestGridHelpers:
    def test_make_grid(self):
        pts, shape, spacing = make_grid((-1.0, 1.0, 0.0, 4.0), 5)
        assert shape == (5, 5)
        assert pts.shape == (25, 2)
        assert spacing[0] == pytest.approx(0.5)
        assert spacing[1] == pytest.approx(1.0)
        assert list(pts[0]) == [-1.0, 0.0]
        assert list(pts[-1]) == [1.0, 4.0]

    def test_bounding_box_margin(self):
        pts = np.array([[0.0, 0.0], [2.0, 1.0]])
        bbox = bounding_box(pts, margin=0.25)
        assert bbox == (-0.5, 2.5, -0.25, 1.25)
        # an axis of zero extent is padded by the fraction of the largest one
        flat = np.array([[0.0, 1.0], [2.0, 1.0]])
        assert bounding_box(flat, margin=0.25) == (-0.5, 2.5, 0.5, 1.5)


class TestDeformationFieldIO:
    @staticmethod
    def small_field():
        pts, shape, spacing = make_grid((0.0, 1.0, 0.0, 1.0), 4)
        mapped = pts + 0.1
        field = DeformationField(0.5, pts, mapped, grid_shape=shape)
        return log_jacobian(field, spacing)

    def test_csv_export(self, tmp_path, monkeypatch):
        # 16 rows spelled 5 at a time: three whole chunks and a partial one
        monkeypatch.setattr(flow, "CSV_ROWS", 5)
        # one case with a log-Jacobian holding NaN, -0.0 and 1e16, one without
        for with_log_jac in (True, False):
            field = self.small_field()
            field.mapped[:3] = [[-0.0, 1e16], [1e-5, np.nan], [-1e-300, 123456789.0]]
            if with_log_jac:
                field.log_jac.flat[:3] = [np.nan, -0.0, 1e16]
            else:
                field.log_jac = None
            path = tmp_path / f"field_{with_log_jac}.csv"
            spelled = field.save_csv(path)
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "x,y,psi_x,psi_y,log_jac"
            assert len(lines) == 17
            assert lines[1].split(",")[2] == "-0.0"
            # byte for byte what a row-by-row writer of the numpy values gives
            reference = tmp_path / f"reference_{with_log_jac}.csv"
            write_field_csv(reference, field)
            assert path.read_bytes() == reference.read_bytes()
            # the texts of its points, which a field sharing them reuses
            assert [id(array) for array, _ in spelled] == [id(field.source), id(field.mapped)]
            swapped = DeformationField(field.scale, field.mapped, field.source,
                                       field.grid_shape, field.log_jac)
            spelling, spell = [], flow._spell
            monkeypatch.setattr(flow, "_spell",
                                lambda *args: spelling.append(args) or spell(*args))
            swapped.save_csv(tmp_path / "swapped.csv", spelled)
            monkeypatch.setattr(flow, "_spell", spell)
            # only the log-Jacobian is spelled again
            assert len(spelling) == 1 and spelling[0][0] is field.log_jac
            write_field_csv(reference, swapped)
            assert (tmp_path / "swapped.csv").read_bytes() == reference.read_bytes()

    def test_displacement(self):
        field = self.small_field()
        assert field.sup_displacement() == pytest.approx(0.1)
