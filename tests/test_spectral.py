"""Spectral solver against a dense first-principles oracle."""

import numpy as np
import pytest

from msreg import spectral
from msreg.ladder import ScaleLadder
from msreg.spectral import (
    SpectralGrid,
    compute_spectral_table,
    kappa_hat_gaussian,
    psi_gaussian,
)

from oracles import (
    SpectralKernelEvaluator,
    adaptive_simpson,
    chi_gaussian,
    dense_spectral_solve,
    per_frequency_spectral_table,
    read_spectral_table,
)


class TestSpectra:
    def test_kappa_hat_is_fourier_transform(self):
        # 2-d radial transform at a few frequencies via Hankel quadrature
        scale = 0.7
        for xi in (0.0, 0.3, 1.1):
            from scipy.special import j0

            ref = (
                2.0
                * np.pi
                * adaptive_simpson(
                    lambda r: np.exp(-(r**2) / (2 * scale**2))
                    * r
                    * j0(2 * np.pi * r * xi),
                    0.0,
                    12.0,
                    tol=1e-13,
                )
            )
            assert kappa_hat_gaussian(scale, xi) == pytest.approx(ref, rel=1e-9)

    def test_chi_is_reciprocal(self):
        for scale, xi in ((0.1, 0.0), (0.5, 2.0), (1.5, 0.7)):
            prod = chi_gaussian(scale, xi) * kappa_hat_gaussian(scale, xi)
            assert prod == pytest.approx(1.0, rel=1e-13)

    def test_chi_zero_frequency_value(self):
        assert chi_gaussian(1.0, 0.0) == pytest.approx(1.0 / (2.0 * np.pi))

    def test_psi_matches_chi_ratio(self):
        for prev, cur, xi in ((0.1, 0.2, 1.3), (0.5, 1.7, 0.4)):
            ref = chi_gaussian(prev, xi) / chi_gaussian(cur, xi)
            assert psi_gaussian(prev, cur, xi) == pytest.approx(ref, rel=1e-12)

    def test_psi_identity_and_range(self):
        assert psi_gaussian(0.5, 0.5, 1.0) == pytest.approx(1.0)
        # coarser current scale at positive frequency shrinks the ratio of
        # exponentials faster than the polynomial factor grows
        assert psi_gaussian(0.1, 2.0, 5.0) < 1e-30


class TestAgainstDenseOracle:
    def test_all_sources_match_dense_solve(self):
        nodes = np.array([0.1, 0.3, 0.55, 0.8, 1.2, 1.6, 2.0])
        sigma = 0.7
        grid = SpectralGrid(np.array([0.0, 0.4, 1.3, 3.0]))
        table = compute_spectral_table(ScaleLadder(nodes), sigma, grid)
        for j, xi in enumerate(grid.xis):
            dense = dense_spectral_solve(nodes, sigma, xi)
            # each source node's column against its own peak
            err = np.abs(table.values[:, :, j] - dense).max(axis=0)
            bound = 1e-10 * np.maximum(np.abs(dense).max(axis=0), 1.0)
            assert np.all(err <= bound)

    def test_table_matches_dense_solve(self):
        nodes = np.array([0.1, 0.4, 0.9, 1.5])
        grid = SpectralGrid(np.linspace(0.0, 1.2, 7))
        table = compute_spectral_table(ScaleLadder(nodes), 1.0, grid)
        for j, xi in enumerate(grid.xis):
            dense = dense_spectral_solve(nodes, 1.0, xi)
            assert np.abs(table.values[:, :, j] - dense).max() <= 1e-10 * max(
                np.abs(dense).max(), 1.0
            )


class TestAgainstPerFrequencyLoop:
    """The sweep over all frequencies at once is the per-frequency loop,
    bit for bit."""

    def test_experiment_ladder_is_bitwise_equal(self, experiment_spectral):
        table = experiment_spectral
        ref = per_frequency_spectral_table(table.ladder.nodes, table.sigma, table.grid.xis)
        assert table.values.tobytes() == ref.tobytes()

    def test_uneven_explicit_ladder_is_bitwise_equal(self):
        nodes = np.array([0.05, 0.06, 0.2, 0.21, 0.5, 1.3, 1.35, 4.0])
        grid = SpectralGrid.default(nodes[0], num=97)
        table = compute_spectral_table(ScaleLadder(nodes), 1.7, grid)
        ref = per_frequency_spectral_table(nodes, 1.7, grid.xis)
        assert table.values.tobytes() == ref.tobytes()

    def test_singular_pivot_names_the_first_singular_frequency(self, small_ladder,
                                                              monkeypatch):
        assemble = spectral._assemble_coefficients

        def singular(ladder, sigma, xis):
            lower, diag, upper = assemble(ladder, sigma, xis)
            diag[0, 7] = 0.0  # the first pivot, at frequency 7
            # the fourth pivot is diag[3] - lower[2] * upper[2] / (third pivot):
            # zero at an earlier frequency
            upper[2, 5] = diag[3, 5] = 0.0
            return lower, diag, upper

        monkeypatch.setattr(spectral, "_assemble_coefficients", singular)
        grid = SpectralGrid(np.linspace(0.0, 3.0, 10))
        with pytest.raises(ArithmeticError, match="at frequency index 5$"):
            compute_spectral_table(small_ladder, 1.0, grid)


class TestTableProperties:
    def test_symmetry(self, small_spectral):
        vals = small_spectral.values
        swap = np.swapaxes(vals, 0, 1)
        assert np.abs(vals - swap).max() <= 1e-9 * np.abs(vals).max()

    def test_high_frequency_decay(self, small_spectral):
        vals = small_spectral.values
        assert np.abs(vals[:, :, -1]).max() <= 1e-10 * np.abs(vals[:, :, 0]).max()

    def test_diagonal_spectra_nonnegative(self, small_spectral):
        n1 = small_spectral.ladder.nodes.size
        for k in range(n1):
            assert small_spectral.values[k, k, :].min() >= -1e-12

    def test_larger_sigma_lowers_the_kernel(self, small_ladder):
        grid = SpectralGrid(np.linspace(0.0, 2.0, 8))
        lo = compute_spectral_table(small_ladder, 0.5, grid)
        hi = compute_spectral_table(small_ladder, 2.0, grid)
        # more penalty mass on the scale axis shrinks the reproducing kernel
        assert np.all(hi.values[:, :, 0] < lo.values[:, :, 0])

    def test_refinement_continuity(self):
        # halving every interval perturbs the shared-node values mildly and
        # by a roughly constant factor (first-order interface consistency)
        coarse = ScaleLadder(np.linspace(0.2, 1.0, 5))
        fine = ScaleLadder(np.linspace(0.2, 1.0, 9))
        grid = SpectralGrid(np.array([0.0, 0.5]))
        tc = compute_spectral_table(coarse, 1.0, grid)
        tf = compute_spectral_table(fine, 1.0, grid)
        jump = np.abs(tf.values[::2, ::2, 0] - tc.values[:, :, 0]).max()
        finer = ScaleLadder(np.linspace(0.2, 1.0, 17))
        tff = compute_spectral_table(finer, 1.0, grid)
        jump2 = np.abs(tff.values[::4, ::4, 0] - tc.values[:, :, 0]).max()
        assert jump2 <= 1.6 * jump


class TestPersistence:
    def test_binary_round_trip(self, small_spectral, tmp_path):
        path = tmp_path / "table.msks"
        small_spectral.save_binary(path)
        loaded = read_spectral_table(path)
        assert (loaded["magic"], loaded["version"]) == (spectral._MAGIC, spectral._VERSION)
        assert loaded["sigma"] == small_spectral.sigma
        assert loaded["dim"] == 2
        assert np.array_equal(loaded["nodes"], small_spectral.ladder.nodes)
        assert np.array_equal(loaded["xis"], small_spectral.grid.xis)
        assert np.array_equal(loaded["values"], small_spectral.values)


class TestEvaluator:
    def test_zero_distance_is_spectral_mass(self, small_spectral):
        ev = SpectralKernelEvaluator(small_spectral)
        lam = small_spectral.ladder.nodes[1]
        xis = small_spectral.grid.xis
        khat = small_spectral.values[1, 1, :]
        ref = 2.0 * np.pi * np.trapezoid(khat * xis, xis)
        assert ev(lam, lam, 0.0) == pytest.approx(ref, rel=1e-12)

    def test_decay_with_distance(self, small_spectral):
        ev = SpectralKernelEvaluator(small_spectral)
        lam = small_spectral.ladder.nodes[0]
        v0 = float(ev(lam, lam, 0.0))
        v2 = float(ev(lam, lam, 2.0))
        assert v0 > 0 and abs(v2) < 0.2 * v0

    def test_rejects_off_node_scale(self, small_spectral):
        ev = SpectralKernelEvaluator(small_spectral)
        with pytest.raises(KeyError):
            ev(0.1234, 0.1, 0.5)


class TestGridValidation:
    def test_rejects_short_or_unsorted(self):
        with pytest.raises(ValueError):
            SpectralGrid(np.array([1.0]))
        with pytest.raises(ValueError):
            SpectralGrid(np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError):
            SpectralGrid(np.array([-0.5, 1.0]))

    def test_default_range(self):
        grid = SpectralGrid.default(0.1, num=64)
        assert grid.xis[0] == 0.0
        assert grid.xis[-1] == pytest.approx(4.0 / (np.pi * 0.1))
        assert grid.xis.size == 64

    def test_table_rejects_nonpositive_sigma(self, small_ladder):
        grid = SpectralGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            compute_spectral_table(small_ladder, 0.0, grid)
