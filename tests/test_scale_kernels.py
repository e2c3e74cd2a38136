"""Closed-form kernel constructions against quadrature and hand values."""

import numpy as np
import pytest

from msreg.ladder import DiracMeasure, ScaleLadder
from msreg.scale_kernels import (
    DiracPiecewiseKernel,
    dirac_kernel,
    gauss_scale_integral,
    piecewise_weights,
    sum_dirac_kernel_hat,
)

from oracles import adaptive_simpson, brute_piecewise_integral, mixture_value

LADDER6 = ScaleLadder.uniform(0.1, 2.0, 20)


def gaussian(scale, r):
    return np.exp(-(r**2) / (2.0 * scale**2))


def node_scale(lam):
    """Width of the piecewise-constant kernel governing scale lam."""
    return LADDER6.nodes[LADDER6.interval_index(lam)]


def piecewise_integral(lam1, lam2, r):
    """Piecewise-constant scale integral over [lam1, lam2] from its weights."""
    scales, weights = piecewise_weights(LADDER6, lam1, lam2)
    return float(np.dot(weights, gaussian(scales, r)))


class TestGaussScaleIntegral:
    def test_empty_interval(self):
        assert gauss_scale_integral(LADDER6, 0.5, 0.5, 1.3) == 0.0

    def test_zero_distance_gives_length(self):
        assert gauss_scale_integral(LADDER6, 0.1, 2.0, 0.0) == pytest.approx(1.9)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            gauss_scale_integral(LADDER6, 1.0, 0.2, 0.7)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            gauss_scale_integral(LADDER6, 0.2, 1.0, -0.1)

    def test_matches_adaptive_quadrature(self):
        value = gauss_scale_integral(LADDER6, 0.2, 1.0, 0.7)
        ref = adaptive_simpson(lambda mu: np.exp(-0.245 / mu**2), 0.2, 1.0)
        assert value == pytest.approx(ref, rel=1e-10)

    def test_random_windows_match_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            lam1, lam2 = np.sort(rng.uniform(0.1, 2.0, 2))
            r = rng.uniform(0.0, 3.0)
            value = gauss_scale_integral(LADDER6, lam1, lam2, r)
            ref = adaptive_simpson(
                lambda mu: np.exp(-(r**2) / (2.0 * mu**2)), lam1, lam2
            )
            assert value == pytest.approx(ref, rel=1e-8, abs=1e-14)


class TestPiecewiseScaleIntegral:
    def test_empty_interval(self):
        assert piecewise_integral(0.5, 0.5, 1.0) == 0.0

    def test_zero_distance_gives_length(self):
        r3, r5 = LADDER6.nodes[2], LADDER6.nodes[4]
        assert piecewise_integral(r3, r5, 0.0) == pytest.approx(r5 - r3)

    def test_partial_intervals_match_brute_force(self):
        value = piecewise_integral(0.15, 0.95, 0.5)
        ref = brute_piecewise_integral(LADDER6.nodes, 0.15, 0.95, 0.5)
        assert value == pytest.approx(ref, rel=1e-12)

    def test_random_windows_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            lam1, lam2 = np.sort(rng.uniform(0.1, 2.0, 2))
            r = rng.uniform(0.0, 2.5)
            value = piecewise_integral(lam1, lam2, r)
            ref = brute_piecewise_integral(LADDER6.nodes, lam1, lam2, r)
            assert value == pytest.approx(ref, rel=1e-10, abs=1e-15)

    def test_weights_reproduce_integral(self):
        scales, weights = piecewise_weights(LADDER6, 0.33, 1.47)
        assert np.all(np.isin(scales, LADDER6.nodes)) and np.all(np.diff(scales) > 0)
        assert np.all(weights > 0) and weights.sum() == pytest.approx(1.47 - 0.33)
        r = 0.8
        direct = brute_piecewise_integral(LADDER6.nodes, 0.33, 1.47, r)
        assert np.dot(weights, gaussian(scales, r)) == pytest.approx(direct)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            piecewise_weights(LADDER6, 1.0, 0.2)


class TestDiracKernel:
    MEASURE = DiracMeasure(0.5, sigma=2.0)

    def test_atom_at_query_collapses_to_leading_term(self):
        kern = DiracPiecewiseKernel(self.MEASURE, LADDER6)
        for lam in (0.1, 0.7, 2.0):
            value = mixture_value(kern, lam, 0.5, 1.1)
            expected = np.exp(-(1.1**2) / (2.0 * node_scale(0.5) ** 2)) / 2.0
            assert value == pytest.approx(expected)

    def test_atom_at_coarse_end(self):
        # atom at s2: value = kappa_{s2}(r)/sigma + (1/sigma) int_{max}^{s2}
        measure = DiracMeasure(2.0, sigma=1.5)
        lam, lam0, r = 0.8, 1.3, 0.6
        value = dirac_kernel(measure, LADDER6, lam, lam0, r)
        expected = np.exp(-(r**2) / 8.0) / 1.5 + gauss_scale_integral(
            LADDER6, max(lam, lam0), 2.0, r
        ) / 1.5
        assert value == pytest.approx(expected, rel=1e-12)

    def test_experiment_hand_value(self):
        measure = DiracMeasure(0.1, sigma=1.0)
        piecewise = mixture_value(DiracPiecewiseKernel(measure, LADDER6), 2.0, 2.0, 0.0)
        for value in (piecewise, dirac_kernel(measure, LADDER6, 2.0, 2.0, 0.0)):
            assert value == pytest.approx(2.9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        kern = DiracPiecewiseKernel(self.MEASURE, LADDER6)
        for _ in range(20):
            lam, lam0 = rng.uniform(0.1, 2.0, 2)
            r = rng.uniform(0.0, 3.0)
            value = mixture_value(kern, lam, lam0, r)
            assert abs(value - mixture_value(kern, lam0, lam, r)) <= 1e-12

    def test_gauss_method_matches_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            lam, lam0 = rng.uniform(0.1, 2.0, 2)
            r = rng.uniform(0.0, 2.0)
            value = dirac_kernel(self.MEASURE, LADDER6, lam, lam0, r)
            s0 = 0.5
            xc = min(max(lam, min(s0, lam0)), max(s0, lam0))
            lo, hi = min(s0, xc), max(s0, xc)
            orient = 1.0 if xc >= s0 else -1.0
            window = adaptive_simpson(
                lambda mu: np.exp(-(r**2) / (2.0 * mu**2)), lo, hi
            )
            ref = (
                np.exp(-(r**2) / (2.0 * s0**2)) / 2.0
                + np.sign(lam0 - s0) * orient * window / 2.0
            )
            assert value == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_mixture_slice_agrees_with_scalar_path(self):
        kern = DiracPiecewiseKernel(self.MEASURE, LADDER6)
        s0, sigma = 0.5, 2.0
        # the last pair puts lam0 on the atom, where the window term vanishes
        for lam, lam0 in ((0.3, 1.7), (1.1, 0.2), (0.5, 0.5)):
            xc = min(max(lam, min(s0, lam0)), max(s0, lam0))
            lo, hi = min(s0, xc), max(s0, xc)
            orient = 1.0 if xc >= s0 else -1.0
            for r in (0.0, 0.4, 1.9):
                window = brute_piecewise_integral(LADDER6.nodes, lo, hi, r)
                direct = (
                    np.exp(-(r**2) / (2.0 * node_scale(s0) ** 2))
                    + np.sign(lam0 - s0) * orient * window
                ) / sigma
                assert mixture_value(kern, lam, lam0, r) == pytest.approx(direct)

    def test_monotone_in_distance(self):
        kern = DiracPiecewiseKernel(self.MEASURE, LADDER6)
        rs = np.linspace(0.0, 4.0, 60)
        for lam, lam0 in ((0.1, 2.0), (0.7, 0.7), (1.3, 0.4)):
            vals = mixture_value(kern, lam, lam0, rs)
            assert np.all(np.diff(vals) <= 1e-14)

    def test_gram_positivity(self):
        rng = np.random.default_rng(21)
        kern = DiracPiecewiseKernel(self.MEASURE, LADDER6)
        pts = rng.normal(size=(25, 2))
        lams = rng.choice(LADDER6.nodes, size=25)
        gram = np.empty((25, 25))
        for i in range(25):
            for j in range(25):
                r = np.linalg.norm(pts[i] - pts[j])
                gram[i, j] = mixture_value(kern, lams[i], lams[j], r)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] >= -1e-8 * eigs[-1]

    def test_requires_dirac_measure(self):
        from msreg.ladder import LebesgueMeasure

        with pytest.raises(TypeError):
            dirac_kernel(LebesgueMeasure(), LADDER6, 0.5, 0.5, 1.0)
        with pytest.raises(TypeError):
            DiracPiecewiseKernel(LebesgueMeasure(), LADDER6)


class TestSumDiracKernelHat:
    def test_fine_end_formula(self):
        chi1, chi2, xs2 = 2.0, 3.0, 1.0
        value = sum_dirac_kernel_hat(chi1, chi2, lambda lam: 0.0, 0.1, 0.1, x_s2=xs2)
        expected = (1.0 + chi2 * xs2) / (chi1 + chi2 + chi1 * chi2 * xs2)
        assert value == pytest.approx(expected)

    def test_hand_case(self):
        # linear X with X(s2) = 1, both scales at the coarse end
        value = sum_dirac_kernel_hat(2.0, 3.0, lambda lam: 1.0, 2.0, 2.0, x_s2=1.0)
        assert abs(value - 3.0 / 11.0) <= 1e-14

    def test_symmetry(self):
        xfun = lambda lam: (lam - 0.1) / 1.9
        a = sum_dirac_kernel_hat(2.0, 3.0, xfun, 0.4, 1.6, x_s2=1.0)
        b = sum_dirac_kernel_hat(2.0, 3.0, xfun, 1.6, 0.4, x_s2=1.0)
        assert a == pytest.approx(b)

    def test_rejects_nonpositive_chi(self):
        with pytest.raises(ValueError):
            sum_dirac_kernel_hat(0.0, 3.0, lambda lam: 0.0, 0.5, 0.5, x_s2=1.0)
