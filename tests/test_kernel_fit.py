"""Minimax Gaussian-basis fitting and positivity certification."""

import struct

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs
from scipy.special import j0

from msreg import kernel_fit
from msreg.kernel_fit import (
    HankelBasis,
    KernelTable,
    _MinimaxModel,
    _solve_minimax,
    certify_pairwise_positivity,
    fit_kernel_table,
    repair_nonnegative,
    repair_pairwise,
)
from msreg.ladder import ScaleLadder
from msreg.spectral import SpectralGrid, compute_spectral_table

from oracles import SpectralKernelEvaluator, adaptive_simpson, lp_vertex_minimum, mixture_value


class TestHankelBasis:
    def test_log_spaced_brackets_the_ladder(self):
        basis = HankelBasis.log_spaced(0.1, 2.0, 20)
        assert basis.size == 20
        assert basis.taus[0] == pytest.approx(0.1 / np.sqrt(2.0))
        assert basis.taus[-1] == pytest.approx(2.0 * np.sqrt(2.0))

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            HankelBasis(np.array([0.5, 0.0]))

    def test_spectral_is_fourier_pair_of_spatial(self):
        basis = HankelBasis(np.array([0.4, 1.1]))
        for qi, tau in enumerate(basis.taus):
            for xi in (0.0, 0.6, 1.5):
                integrand = lambda r: (
                    np.exp(-(r**2) / (2 * tau**2)) * r * j0(2 * np.pi * r * xi)
                )
                # panelled quadrature so the narrow Gaussian peak is seen
                cuts = np.linspace(0.0, 10.0 * tau, 9)
                ref = 2.0 * np.pi * sum(
                    adaptive_simpson(integrand, a, b, tol=1e-14)
                    for a, b in zip(cuts[:-1], cuts[1:])
                )
                assert basis.spectral(np.array([xi]))[0, qi] == pytest.approx(
                    ref, rel=1e-8
                )

    def test_shapes(self):
        basis = HankelBasis(np.array([0.3, 0.9, 2.0]))
        assert basis.spectral(np.linspace(0, 1, 7)).shape == (7, 3)
        assert np.all(basis.spectral(np.linspace(0, 3, 7)) > 0)


def fit_nonnegative(target, design):
    """The diagonal pairs' LP: spectrum >= 0."""
    nj = design.shape[0]
    return _solve_minimax(_MinimaxModel(design), target, np.zeros(nj), np.full(nj, np.inf))


class TestFitDiagonal:
    XIS = np.linspace(0.0, 3.0, 40)

    def test_representable_target_fits_exactly(self):
        basis = HankelBasis(np.array([0.3, 0.8, 1.5]))
        design = basis.spectral(self.XIS)
        target = design.dot(np.array([0.5, 0.0, 1.2]))
        row, resid = fit_nonnegative(target, design)
        assert resid <= 1e-9 * target.max()
        fitted = design.dot(row)
        assert np.abs(fitted - target).max() <= 1e-8 * target.max()

    def test_negative_target_hits_the_constraint(self):
        # a single basis function cannot represent -h_hat without going
        # negative, so the constrained optimum is beta = 0 with residual
        # equal to the target peak
        basis = HankelBasis(np.array([0.7]))
        target = -basis.spectral(self.XIS)[:, 0]
        row, resid = fit_nonnegative(target, basis.spectral(self.XIS))
        assert resid == pytest.approx(np.abs(target).max(), rel=1e-9)
        assert np.abs(row[0]) <= 1e-9

    def test_lp_optimum_matches_vertex_enumeration(self):
        basis = HankelBasis(np.array([0.4, 1.3]))
        xis = np.linspace(0.0, 2.0, 5)
        design = basis.spectral(xis)
        rng = np.random.default_rng(0)
        target = design.dot(rng.uniform(0.2, 1.0, 2)) + rng.normal(0, 0.05, 5)
        row, resid = fit_nonnegative(target, design)
        ones = np.ones((5, 1))
        a_ub = np.vstack(
            [
                np.hstack([design, -ones]),
                np.hstack([-design, -ones]),
                np.hstack([-design, np.zeros((5, 1))]),
                [[0.0, 0.0, -1.0]],
            ]
        )
        b_ub = np.concatenate([target, -target, np.zeros(5), [0.0]])
        ref = lp_vertex_minimum(np.array([0.0, 0.0, 1.0]), a_ub, b_ub)
        assert resid == pytest.approx(ref, abs=1e-9)


class TestFitOffdiagonal:
    XIS = np.linspace(0.0, 3.0, 40)

    def test_zero_bound_forces_zero_spectrum(self):
        basis = HankelBasis(np.array([0.3, 0.8]))
        design = basis.spectral(self.XIS)
        target = design.dot(np.array([0.4, 0.1]))
        zero = np.zeros(self.XIS.size)
        row, resid = _solve_minimax(_MinimaxModel(design), target, zero, zero)
        assert np.abs(design.dot(row)).max() <= 1e-9
        assert resid == pytest.approx(target.max(), rel=1e-6)

    def test_generous_bound_recovers_unconstrained_fit(self):
        basis = HankelBasis(np.array([0.3, 0.8, 1.5]))
        coef = np.array([0.5, 0.2, 0.9])
        design = basis.spectral(self.XIS)
        target = design.dot(coef)
        bound = 10.0 * target + 1.0
        row, resid = _solve_minimax(_MinimaxModel(design), target, -bound, bound)
        assert resid <= 1e-7 * target.max()


class TestRepairs:
    def test_repair_nonnegative_noop_on_feasible_row(self):
        basis = HankelBasis(np.array([0.4, 1.0]))
        design = basis.spectral(np.linspace(0, 2, 9))
        row = np.array([0.3, 0.7])
        assert np.array_equal(repair_nonnegative(row, design), row)

    def test_repair_nonnegative_lifts_violations(self):
        basis = HankelBasis(np.array([1.0, 0.3]))
        design = basis.spectral(np.linspace(0, 4, 21))
        row = np.array([0.0, 1.0])
        row[0] = -1e-4  # simulate a solver-tolerance violation
        repaired = repair_nonnegative(row, design)
        assert design.dot(repaired).min() >= 0.0
        assert repaired[1] == row[1]

    def test_repair_pairwise_noop_within_tolerance(self):
        basis = HankelBasis(np.array([0.5]))
        design = basis.spectral(np.linspace(0, 2, 9))
        diag = design[:, 0]
        row = np.array([0.5])
        out = repair_pairwise(row, diag, diag, design)
        assert np.array_equal(out, row)

    def test_repair_pairwise_shrinks_violations(self):
        basis = HankelBasis(np.array([0.5]))
        design = basis.spectral(np.linspace(0, 2, 9))
        diag = 0.25 * design[:, 0]
        row = np.array([1.0])
        out = repair_pairwise(row, diag, diag, design)
        off = design.dot(out)
        assert np.all(off**2 - diag * diag <= 1e-12)
        assert out[0] < row[0]


class TestFitKernelTable:
    def test_report_contents(self, small_kernel):
        report = small_kernel.report
        assert report["num_scales"] == 5
        assert report["num_basis"] == 16
        assert report["max_residual"] >= 0
        assert report["min_diagonal_margin"] >= 0.0
        assert np.asarray(report["residuals"]).shape == (5, 5)
        assert report["lp_solves"] == 15
        assert report["simplex_iterations"] > 0
        assert report["cold_retries"] == 0
        beta = small_kernel.beta
        ratios = np.abs(beta).sum(axis=2) / np.abs(beta.sum(axis=2))
        assert report["max_cancellation_ratio"] == ratios.max() >= 1.0

    def test_beta_symmetry(self, small_kernel):
        assert np.array_equal(small_kernel.beta, np.swapaxes(small_kernel.beta, 0, 1))

    def test_diagonal_spectra_nonnegative(self, small_kernel, small_spectral):
        design = small_kernel.basis.spectral(small_spectral.grid.xis)
        for k in range(small_kernel.scales.size):
            assert (design @ small_kernel.beta[k, k]).min() >= 0.0

    def test_pairwise_determinants_nonnegative(self, small_kernel, small_spectral):
        design = small_kernel.basis.spectral(small_spectral.grid.xis)
        beta = small_kernel.beta
        for k in range(beta.shape[0]):
            for l in range(k + 1, beta.shape[0]):
                dk = design @ beta[k, k]
                dl = design @ beta[l, l]
                off = design @ beta[k, l]
                assert (dk * dl - off**2).min() >= -1e-12

    def test_each_pair_is_one_lp_with_its_bounds(self, small_spectral, monkeypatch):
        # diagonals: spectrum >= 0; off-diagonals, row by row: |spectrum| <= b,
        # b = max(c (1 - rel) - abs max c, 1e-14 max c), c = sqrt(S_kk S_ll)
        calls = []
        solve = kernel_fit._solve_minimax

        def recorded(model, target, lower, upper):
            calls.append((lower, upper))
            return solve(model, target, lower, upper)

        monkeypatch.setattr(kernel_fit, "_solve_minimax", recorded)
        table = fit_kernel_table(small_spectral, num_basis=16)
        m = table.scales.size
        assert len(calls) == m * (m + 1) // 2
        for lower, upper in calls[:m]:
            assert np.all(lower == 0.0) and np.all(upper == np.inf)
        design = table.basis.spectral(small_spectral.grid.xis)
        diag = design.dot(table.beta[np.arange(m), np.arange(m)].T)
        pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
        floored = 0
        for (k, l), (lower, upper) in zip(pairs, calls[m:]):
            c = np.sqrt(np.maximum(diag[:, k] * diag[:, l], 0.0))
            shrunk = c * (1.0 - kernel_fit._REL_MARGIN) - kernel_fit._ABS_MARGIN * c.max()
            assert np.array_equal(upper, np.maximum(shrunk, 1e-14 * c.max()))
            assert np.array_equal(lower, -upper)
            floored += np.sum(shrunk < 1e-14 * c.max())
        assert floored > 0  # the floor is reached, not only the shrunk bound

    def test_matches_inverse_hankel_evaluation(self, small_kernel, small_spectral):
        ev = SpectralKernelEvaluator(small_spectral)
        scales = small_kernel.scales
        for lam, mu in ((scales[0], scales[0]), (scales[1], scales[3])):
            for r in (0.0, 0.3, 1.0):
                a = float(mixture_value(small_kernel, lam, mu, r))
                b = float(ev(lam, mu, r))
                ref = max(abs(float(ev(lam, lam, 0.0))), abs(b))
                # loose: the two disagree through quadrature truncation of
                # the spectral tail, worst at r = 0 on the finest scale
                assert abs(a - b) <= 5e-2 * ref


def cold_minimax(design, target, lower, upper):
    """The minimax LP in inequality form, solved cold by linprog."""
    nj, nq = design.shape
    ones, zeros = np.ones((nj, 1)), np.zeros((nj, 1))
    hi, lo = np.isfinite(upper), np.isfinite(lower)
    a_ub = np.vstack(
        [
            np.hstack([design, -ones]),
            np.hstack([-design, -ones]),
            np.hstack([design, zeros])[hi],
            np.hstack([-design, zeros])[lo],
        ]
    )
    b_ub = np.concatenate([target, -target, upper[hi], -lower[lo]])
    res = linprog(
        np.r_[np.zeros(nq), 1.0],
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * nq + [(0.0, None)],
        method="highs",
    )
    assert res.success
    return res.x[:nq], res.x[nq]


class _NeverOptimal(_Highs):
    def getModelStatus(self):
        return HighsModelStatus.kInfeasible


class _Aborted(_Highs):
    """Every run stops with an error, as HiGHS does on numerical trouble:
    no model status and an iteration count of -1."""

    def run(self):
        self.clearSolver()
        return HighsStatus.kError


class _CountedPasses(_Highs):
    def __init__(self):
        super().__init__()
        self.passes = 0

    def passModel(self, lp):
        self.passes += 1
        return super().passModel(lp)


def assert_warm_never_above_cold(spectral, num_basis, pairs, every, tol, monkeypatch):
    """Fit the table recording every LP, then solve every `every`-th LP cold
    and require the warm objective within `tol` of the target peak above it."""
    calls = []
    solve = kernel_fit._solve_minimax

    def recorded(model, target, lower, upper):
        result = solve(model, target, lower, upper)
        calls.append((model.design, target, lower, upper, result[1]))
        return result

    monkeypatch.setattr(kernel_fit, "_solve_minimax", recorded)
    fit_kernel_table(spectral, num_basis=num_basis)
    assert len(calls) == pairs
    for design, target, lower, upper, warm in calls[::every]:
        _, cold = cold_minimax(design, target, lower, upper)
        assert warm <= cold + tol * np.abs(target).max()


class TestWarmStart:
    def test_warm_objective_never_above_cold(self, small_spectral, monkeypatch):
        assert_warm_never_above_cold(small_spectral, 16, 15, 1, 1e-9, monkeypatch)

    def test_warm_objective_never_above_cold_on_experiment_table(
        self, experiment_spectral, monkeypatch
    ):
        # warm starts of the coarsest off-diagonal pairs (k >= 15) stop up to
        # 7e-8 of the target peak above the cold optimum: inside HiGHS's
        # default optimality tolerance of 1e-7, not inside 1e-9
        assert_warm_never_above_cold(experiment_spectral, 20, 210, 10, 1e-7, monkeypatch)

    @pytest.mark.parametrize("highs", [_Highs, _NeverOptimal], ids=["warm", "cold_retry"])
    def test_epigraph_bound_is_the_true_residual(self, monkeypatch, highs):
        # a near-interpolating table: 16 basis widths for 40 frequencies
        monkeypatch.setattr(kernel_fit, "_Highs", highs)
        ladder = ScaleLadder(np.linspace(0.1, 1.0, 4))
        spectral = compute_spectral_table(ladder, 0.5, SpectralGrid.default(0.1, num=40))
        calls = []
        solve = kernel_fit._solve_minimax

        def recorded(model, target, lower, upper):
            result = solve(model, target, lower, upper)
            calls.append((model.design, target, result))
            return result

        monkeypatch.setattr(kernel_fit, "_solve_minimax", recorded)
        report = fit_kernel_table(spectral, num_basis=16).report
        assert report["cold_retries"] == (len(calls) if highs is _NeverOptimal else 0)
        for design, target, (beta, t) in calls:
            residual = np.abs(design.dot(beta) - target).max()
            assert residual - t <= 1e-6 * np.abs(target).max()

    def test_one_model_per_table(self, small_spectral, monkeypatch):
        models = []

        class Counted(kernel_fit._MinimaxModel):
            def __init__(self, design):
                super().__init__(design)
                models.append(self)

        monkeypatch.setattr(kernel_fit, "_MinimaxModel", Counted)
        monkeypatch.setattr(kernel_fit, "_Highs", _CountedPasses)
        report = fit_kernel_table(small_spectral, num_basis=16).report
        assert len(models) == 1
        assert report["lp_solves"] == models[0].solves == 15
        # the model goes to HiGHS once; the solves change only column bounds
        assert models[0]._highs.passes == 1

    def test_non_optimal_warm_solve_falls_back_to_cold(self, small_spectral, monkeypatch):
        monkeypatch.setattr(kernel_fit, "_Highs", _NeverOptimal)
        basis = HankelBasis(np.array([0.3, 0.8, 1.5]))
        xis = np.linspace(0.0, 3.0, 40)
        design = basis.spectral(xis)
        target = design.dot(np.array([0.5, -0.2, 0.9])) + 0.01 * np.sin(5 * xis)
        row, resid = fit_nonnegative(target, design)
        ref_row, ref_resid = cold_minimax(design, target, np.zeros(40), np.full(40, np.inf))
        assert np.array_equal(row, ref_row) and resid == ref_resid
        cj = 0.5 * np.abs(target) + 0.01
        model = _MinimaxModel(design)
        row, resid = _solve_minimax(model, target, -cj, cj)
        ref_row, ref_resid = cold_minimax(design, target, -cj, cj)
        assert np.array_equal(row, ref_row) and resid == ref_resid
        assert (model.solves, model.cold_retries) == (1, 1)
        report = fit_kernel_table(small_spectral, num_basis=16).report
        assert report["lp_solves"] == report["cold_retries"] == 15

    def test_aborted_runs_count_no_iterations(self, small_spectral, monkeypatch):
        monkeypatch.setattr(kernel_fit, "_Highs", _Aborted)
        report = fit_kernel_table(small_spectral, num_basis=16).report
        assert report["lp_solves"] == report["cold_retries"] == 15
        assert report["simplex_iterations"] == 0


class TestPartialFit:
    """`scales` stops the fit after the last pair of two of their nodes."""

    @staticmethod
    def prefix_mask(m, wanted):
        """The pairs of the fit order up to the last pair within `wanted`."""
        order = [(k, k) for k in range(m)] + [(k, l) for k in range(m) for l in range(k + 1, m)]
        last = max(i for i, (k, l) in enumerate(order) if k in wanted and l in wanted)
        mask = np.zeros((m, m), dtype=bool)
        for k, l in order[: last + 1]:
            mask[k, l] = mask[l, k] = True
        return mask

    def test_first_and_last_scales_fit_the_diagonals_and_the_first_row(self, small_spectral,
                                                                      small_kernel):
        nodes = small_spectral.ladder.nodes
        m = nodes.size
        table = fit_kernel_table(small_spectral, num_basis=16, scales=[nodes[0], nodes[-1]])
        assert table.report["lp_solves"] == m + (m - 1)
        expected = np.eye(m, dtype=bool)
        expected[0] = expected[:, 0] = True
        assert np.array_equal(table.fitted, expected)
        assert np.array_equal(table.beta[expected], small_kernel.beta[expected])
        assert not table.beta[~expected].any()

    @pytest.mark.parametrize(
        "scales, lp_solves", [([0.1, 2.0], 39), ([2.0, 1.0, 0.1, 1.0], 165), ([0.5], 5)]
    )
    def test_experiment_rows_are_the_full_fits_bits(self, experiment_spectral,
                                                     experiment_kernel, scales, lp_solves):
        nodes = experiment_spectral.ladder.nodes
        table = fit_kernel_table(experiment_spectral, scales=scales)
        assert table.report["lp_solves"] == lp_solves
        wanted = {int(np.argmin(np.abs(nodes - s))) for s in scales}
        mask = self.prefix_mask(nodes.size, wanted)
        assert np.array_equal(table.fitted, mask)
        assert np.array_equal(table.beta[mask], experiment_kernel.beta[mask])
        for lam in scales:
            for mu in scales:
                assert np.array_equal(table.slice(lam, mu)[0], experiment_kernel.slice(lam, mu)[0])

    def test_slice_of_a_pair_left_out_is_a_key_error(self, small_spectral):
        nodes = small_spectral.ladder.nodes
        table = fit_kernel_table(small_spectral, num_basis=16, scales=[nodes[0], nodes[-1]])
        table.slice(nodes[2], nodes[2])
        table.slice(nodes[3], nodes[0])
        with pytest.raises(KeyError, match="not fitted"):
            table.slice(nodes[1], nodes[3])
        with pytest.raises(KeyError, match="not fitted"):
            table.slice(nodes[4], nodes[2])

    def test_off_ladder_scales_are_skipped(self, small_spectral, small_kernel):
        nodes = small_spectral.ladder.nodes
        table = fit_kernel_table(small_spectral, num_basis=16, scales=[nodes[1], 0.5, np.nan])
        assert table.report["lp_solves"] == 2
        assert np.array_equal(table.beta[:2, :2][np.eye(2, dtype=bool)],
                              small_kernel.beta[:2, :2][np.eye(2, dtype=bool)])
        for scales in ([0.5], []):
            empty = fit_kernel_table(small_spectral, num_basis=16, scales=scales)
            assert empty.report["lp_solves"] == 0 and not empty.fitted.any()
            assert empty.report["max_relative_residual"] == 0.0
            with pytest.raises(KeyError):
                empty.slice(nodes[0], nodes[0])

    def test_report_covers_the_fitted_pairs_only(self, small_spectral, small_kernel):
        nodes = small_spectral.ladder.nodes
        m = nodes.size
        table = fit_kernel_table(small_spectral, num_basis=16, scales=[nodes[1], nodes[2]])
        fitted, report = table.fitted, table.report
        full = np.array(small_kernel.report["residuals"])
        residuals = report["residuals"]
        for k in range(m):
            for l in range(m):
                assert residuals[k][l] == (full[k, l] if fitted[k, l] else None)
        assert report["max_residual"] == full[fitted].max() < full.max()
        peaks = np.abs(small_spectral.values).max(axis=2)
        assert report["max_relative_residual"] == (full / peaks)[fitted].max()
        # the margins of the fitted pairs, recomputed from their rows
        design = table.basis.spectral(small_spectral.grid.xis)
        spectra = {(k, l): design.dot(table.beta[k, l]) for k in range(m) for l in range(k, m)}
        diagonal = min(spectra[k, k].min() for k in range(m) if fitted[k, k])
        offdiagonal = min(
            (np.sqrt(spectra[k, k] * spectra[l, l]) - np.abs(spectra[k, l])).min()
            for k in range(m) for l in range(k + 1, m) if fitted[k, l]
        )
        # positive, so a zero of a pair left out would show; to rounding,
        # as the fit forms the diagonal spectra in one product
        assert diagonal > 1e-13 and offdiagonal > 1e-13
        assert report["min_diagonal_margin"] == pytest.approx(diagonal, rel=1e-3)
        assert report["min_offdiagonal_margin"] == pytest.approx(offdiagonal, rel=1e-3)
        beta = table.beta[fitted]
        assert report["max_cancellation_ratio"] == (
            np.abs(beta).sum(axis=1) / np.abs(beta.sum(axis=1))
        ).max()

    def test_a_partial_table_is_not_saved(self, small_spectral, tmp_path):
        nodes = small_spectral.ladder.nodes
        table = fit_kernel_table(small_spectral, num_basis=16, scales=[nodes[0]])
        with pytest.raises(ValueError, match="every scale pair"):
            table.save_binary(tmp_path / "partial.bin")
        assert not (tmp_path / "partial.bin").exists()


class TestKernelTable:
    def test_index_lookup(self, small_kernel):
        assert np.array_equal(small_kernel.slice(0.45, 0.1)[0], small_kernel.beta[2, 0])
        with pytest.raises(KeyError):
            small_kernel.slice(0.5, 0.1)

    def test_zero_distance_is_coefficient_sum(self, small_kernel):
        lam = small_kernel.scales[1]
        k = 1
        assert float(mixture_value(small_kernel, lam, lam, 0.0)) == pytest.approx(
            small_kernel.beta[k, k].sum()
        )

    def test_binary_round_trip(self, small_kernel, tmp_path):
        path = tmp_path / "kernel.mskt"
        small_kernel.save_binary(path)
        # the header's dimension field, after the magic and the version
        assert struct.unpack_from("<i", path.read_bytes(), 8) == (2,)
        loaded = KernelTable.load_binary(path)
        assert np.array_equal(loaded.scales, small_kernel.scales)
        assert np.array_equal(loaded.basis.taus, small_kernel.basis.taus)
        assert np.array_equal(loaded.beta, small_kernel.beta)

    def test_binary_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError):
            KernelTable.load_binary(path)

    def test_binary_rejects_asymmetric_coefficients(self, small_kernel, tmp_path):
        beta = small_kernel.beta.copy()
        beta[0, 1, 0] += 1e-9
        path = tmp_path / "asymmetric.mskt"
        KernelTable(small_kernel.scales, beta, small_kernel.basis).save_binary(path)
        with pytest.raises(ValueError, match="symmetric"):
            KernelTable.load_binary(path)

    def test_csv_and_report_export(self, small_kernel, tmp_path):
        csv_path = tmp_path / "kernel.csv"
        small_kernel.save_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        m, q = small_kernel.scales.size, small_kernel.basis.size
        assert len(lines) == 1 + m * m * q
        report_path = tmp_path / "report.json"
        small_kernel.save_report(report_path)
        import json

        report = json.loads(report_path.read_text())
        assert report["num_scales"] == m


class TestCertification:
    def test_pairwise_certificate_passes(self, small_kernel):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(12, 2))
        result = certify_pairwise_positivity(small_kernel, pts)
        assert result["pass"]
        assert result["worst_eig_ratio"] >= -result["tolerance"]
        m = small_kernel.scales.size
        assert len(result["pairs"]) == m * (m + 1) // 2

    def test_restricted_pairs(self, small_kernel):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(8, 2))
        result = certify_pairwise_positivity(small_kernel, pts, scale_pairs=[(0, 3)])
        assert len(result["pairs"]) == 1
        assert result["pairs"][0]["pair"] == [0, 3]

    def test_eigenvalues_match_elementwise_gram(self, small_kernel):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(7, 2))
        k, l = 1, 3
        result = certify_pairwise_positivity(small_kernel, pts, scale_pairs=[(k, l)])
        lams = np.repeat(small_kernel.scales[[k, l]], len(pts))
        coords = np.vstack([pts, pts])
        dist = np.linalg.norm(coords[:, None] - coords[None], axis=-1)
        gram = np.array(
            [
                [float(mixture_value(small_kernel, lams[p], lams[q], dist[p, q]))
                 for q in range(len(coords))]
                for p in range(len(coords))
            ]
        )
        eigs = np.linalg.eigvalsh(gram)
        pair = result["pairs"][0]
        assert pair["min_eig"] == pytest.approx(eigs[0], rel=1e-12)
        assert pair["max_eig"] == pytest.approx(eigs[-1], rel=1e-12)
