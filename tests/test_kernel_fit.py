"""Minimax Gaussian-basis fitting and positivity certification."""

import numpy as np
import pytest
from scipy.special import j0

from msreg.kernel_fit import (
    HankelBasis,
    KernelTable,
    certify_pairwise_positivity,
    fit_diagonal,
    fit_kernel_table,
    fit_offdiagonal,
    repair_nonnegative,
    repair_pairwise,
)
from msreg.spectral import SpectralKernelEvaluator

from oracles import adaptive_simpson, lp_vertex_minimum


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


class TestFitDiagonal:
    XIS = np.linspace(0.0, 3.0, 40)

    def test_representable_target_fits_exactly(self):
        basis = HankelBasis(np.array([0.3, 0.8, 1.5]))
        design = basis.spectral(self.XIS)
        target = design.dot(np.array([0.5, 0.0, 1.2]))
        row, resid = fit_diagonal(target, design)
        assert resid <= 1e-9 * target.max()
        fitted = design.dot(row)
        assert np.abs(fitted - target).max() <= 1e-8 * target.max()

    def test_negative_target_hits_the_constraint(self):
        # a single basis function cannot represent -h_hat without going
        # negative, so the constrained optimum is beta = 0 with residual
        # equal to the target peak
        basis = HankelBasis(np.array([0.7]))
        target = -basis.spectral(self.XIS)[:, 0]
        row, resid = fit_diagonal(target, basis.spectral(self.XIS))
        assert resid == pytest.approx(np.abs(target).max(), rel=1e-9)
        assert np.abs(row[0]) <= 1e-9

    def test_rejects_length_mismatch(self):
        basis = HankelBasis(np.array([0.7]))
        with pytest.raises(ValueError):
            fit_diagonal(np.zeros(5), basis.spectral(self.XIS))

    def test_lp_optimum_matches_vertex_enumeration(self):
        basis = HankelBasis(np.array([0.4, 1.3]))
        xis = np.linspace(0.0, 2.0, 5)
        design = basis.spectral(xis)
        rng = np.random.default_rng(0)
        target = design.dot(rng.uniform(0.2, 1.0, 2)) + rng.normal(0, 0.05, 5)
        row, resid = fit_diagonal(target, design)
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
        row, resid = fit_offdiagonal(target, np.zeros(self.XIS.size), design)
        assert np.abs(design.dot(row)).max() <= 1e-9
        assert resid == pytest.approx(target.max(), rel=1e-6)

    def test_generous_bound_recovers_unconstrained_fit(self):
        basis = HankelBasis(np.array([0.3, 0.8, 1.5]))
        coef = np.array([0.5, 0.2, 0.9])
        design = basis.spectral(self.XIS)
        target = design.dot(coef)
        row, resid = fit_offdiagonal(target, 10.0 * target + 1.0, design)
        assert resid <= 1e-7 * target.max()

    def test_rejects_negative_bounds(self):
        basis = HankelBasis(np.array([0.5]))
        with pytest.raises(ValueError):
            fit_offdiagonal(
                np.zeros(3), np.array([1.0, -0.1, 1.0]), basis.spectral(np.arange(3.0))
            )


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

    def test_beta_symmetry(self, small_kernel):
        assert np.array_equal(small_kernel.beta, np.swapaxes(small_kernel.beta, 0, 1))

    def test_diagonal_spectra_nonnegative(self, small_kernel, small_spectral):
        xis = small_spectral.grid.xis
        for k, lam in enumerate(small_kernel.scales):
            assert small_kernel.spectrum(lam, lam, xis).min() >= 0.0

    def test_pairwise_determinants_nonnegative(self, small_kernel, small_spectral):
        xis = small_spectral.grid.xis
        scales = small_kernel.scales
        for k in range(scales.size):
            for l in range(k + 1, scales.size):
                dk = small_kernel.spectrum(scales[k], scales[k], xis)
                dl = small_kernel.spectrum(scales[l], scales[l], xis)
                off = small_kernel.spectrum(scales[k], scales[l], xis)
                assert (dk * dl - off**2).min() >= -1e-12

    def test_workers_give_identical_tables(self, small_spectral):
        serial = fit_kernel_table(small_spectral, num_basis=16, workers=1)
        threaded = fit_kernel_table(small_spectral, num_basis=16, workers=3)
        assert np.abs(serial.beta - threaded.beta).max() <= 1e-12

    def test_matches_inverse_hankel_evaluation(self, small_kernel, small_spectral):
        ev = SpectralKernelEvaluator(small_spectral)
        scales = small_kernel.scales
        for lam, mu in ((scales[0], scales[0]), (scales[1], scales[3])):
            for r in (0.0, 0.3, 1.0):
                a = float(small_kernel(lam, mu, r))
                b = float(ev(lam, mu, r))
                ref = max(abs(float(ev(lam, lam, 0.0))), abs(b))
                # loose: the two disagree through quadrature truncation of
                # the spectral tail, worst at r = 0 on the finest scale
                assert abs(a - b) <= 5e-2 * ref


class TestKernelTable:
    def test_index_lookup(self, small_kernel):
        assert small_kernel.index_of(0.45) == 2
        with pytest.raises(KeyError):
            small_kernel.index_of(0.5)

    def test_zero_distance_is_coefficient_sum(self, small_kernel):
        lam = small_kernel.scales[1]
        k = 1
        assert float(small_kernel(lam, lam, 0.0)) == pytest.approx(
            small_kernel.beta[k, k].sum()
        )

    def test_binary_round_trip(self, small_kernel, tmp_path):
        path = tmp_path / "kernel.mskt"
        small_kernel.save_binary(path)
        loaded = KernelTable.load_binary(path)
        assert np.array_equal(loaded.scales, small_kernel.scales)
        assert np.array_equal(loaded.basis.taus, small_kernel.basis.taus)
        assert np.array_equal(loaded.beta, small_kernel.beta)

    def test_binary_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError):
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
        gram = np.array(
            [
                [
                    float(small_kernel(lams[p], lams[q], np.linalg.norm(coords[p] - coords[q])))
                    for q in range(len(coords))
                ]
                for p in range(len(coords))
            ]
        )
        eigs = np.linalg.eigvalsh(gram)
        pair = result["pairs"][0]
        assert pair["min_eig"] == pytest.approx(eigs[0], rel=1e-12)
        assert pair["max_eig"] == pytest.approx(eigs[-1], rel=1e-12)
