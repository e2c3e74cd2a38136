"""Closed-form multiscale kernels for the Dirac scale measure.

Per-scale kernels are Gaussians kappa_s(r) = exp(-r^2 / (2 s^2)), either
varying continuously with scale or, in the piecewise-constant regime,
frozen on each ladder interval [r_k, r_{k+1}) at its left node r_k.  For a
Dirac scale measure the scale-space kernel has a closed form built from
the integral of the per-scale kernels over one window of the scale axis:
`DiracPiecewiseKernel` takes the piecewise-constant family and feeds the
flow engine, and `dirac_kernel` integrates the continuous family by its
erf closed form.
`sum_dirac_kernel_hat` is the spectral formula for the sum of two Diracs
at the ladder ends.

The kernel that feeds the flow engine is represented as a finite mixture
of spatial Gaussians for each scale pair, so that values and spatial
derivatives have a closed form; `flow.KernelBlocks` evaluates it, summing
the exp terms, or, for a slice of many terms in a large block, reading a
quintic Hermite table of the slice that stays within 1e-12 of that sum.
"""

import math

import numpy as np

from .ladder import DiracMeasure


def gauss_scale_integral(ladder, lam1, lam2, r):
    """Integral of exp(-c / mu^2) over mu in [lam1, lam2], with c = r^2 / 2.

    Closed form in terms of the error function; the scale kernel varies
    continuously with mu here: the ladder only bounds the window.
    """
    if lam2 < lam1:
        raise ValueError("reversed scale bounds")
    lam1 = ladder.clamp(lam1)
    lam2 = ladder.clamp(lam2)
    if r < 0:
        raise ValueError("distance must be nonnegative")
    c = 0.5 * r * r
    if c == 0.0:
        return lam2 - lam1
    sc = math.sqrt(c)
    return (
        lam2 * math.exp(-c / lam2**2)
        - lam1 * math.exp(-c / lam1**2)
        + math.sqrt(c * math.pi) * (math.erf(sc / lam2) - math.erf(sc / lam1))
    )


def piecewise_weights(ladder, lam1, lam2):
    """Decompose the scale window [lam1, lam2] against the ladder.

    Returns (scales, weights) such that the piecewise-constant scale
    integral of the kernel over [lam1, lam2] equals
    sum_k weights[k] * exp(-r^2 / (2 scales[k]^2)) for any distance r.
    """
    if lam2 < lam1:
        raise ValueError("reversed scale bounds")
    lam1 = ladder.clamp(lam1)
    lam2 = ladder.clamp(lam2)
    if lam1 == lam2:
        return np.empty(0), np.empty(0)
    k1 = ladder.interval_index(lam1)
    k2 = ladder.interval_index(lam2)
    nodes = ladder.nodes
    scales, weights = [], []
    for k in range(k1, k2 + 1):
        lo = max(nodes[k], lam1)
        hi = min(nodes[k + 1], lam2)
        if hi > lo:
            scales.append(nodes[k])
            weights.append(hi - lo)
    return np.asarray(scales), np.asarray(weights)


def _dirac_window(s0, lam, lam0):
    """Signed scale window (coeff, lo, hi) of the Dirac closed form.

    The kernel at (lam, lam0) adds coeff / sigma times the scale integral
    of kappa_mu(r) over [lo, hi], where lam is clamped into the span
    between s0 and lam0; coeff is +-1 (the sign of lam0 - s0 times the
    window's orientation), or 0 when lam0 == s0.
    """
    sign = np.sign(lam0 - s0)
    xc = min(max(lam, min(s0, lam0)), max(s0, lam0))
    orient = 1.0 if xc >= s0 else -1.0
    return sign * orient, min(s0, xc), max(s0, xc)


class DiracPiecewiseKernel:
    """Closed-form kernel for rho = sigma * delta_{s0}, piecewise family.

    value(lam, lam0, r) = kappa_{s0}(r) / sigma
        + sign(lam0 - s0) / sigma * integral of kappa_mu(r) over the window
    where the window endpoint is lam clamped into [min(s0, lam0),
    max(s0, lam0)].  The leading term carries the 1/sigma factor forced by
    the constraint v(s0) = K_{s0}(., x0) a / sigma.
    """

    def __init__(self, measure, ladder):
        if not isinstance(measure, DiracMeasure):
            raise TypeError("DiracPiecewiseKernel requires a Dirac scale measure")
        s0 = ladder.clamp(measure.s0)
        self.measure = measure
        self.ladder = ladder
        self._s0 = s0
        self._slices = {}

    def slice(self, lam, mu):
        key = (lam, mu)
        if key not in self._slices:
            self._slices[key] = self._mixture(lam, mu)
        return self._slices[key]

    def _mixture(self, lam, mu):
        ladder, measure = self.ladder, self.measure
        lam = ladder.clamp(lam)
        lam0 = ladder.clamp(mu)
        s0 = self._s0
        inv_sigma = 1.0 / measure.sigma
        scales = [ladder.nodes[ladder.interval_index(s0)]]
        weights = [inv_sigma]
        coeff, lo, hi = _dirac_window(s0, lam, lam0)
        if coeff:
            ws, ww = piecewise_weights(ladder, lo, hi)
            scales.extend(ws)
            weights.extend(coeff * inv_sigma * ww)
        scales = np.asarray(scales)
        weights = np.asarray(weights)
        rates = 1.0 / (2.0 * scales**2)
        return weights, rates


def dirac_kernel(measure, ladder, lam, lam0, r):
    """Closed-form Dirac-measure kernel value at (lam, lam0, r), integrating
    the continuously varying Gaussian over the scale window via the erf
    closed form (`DiracPiecewiseKernel` is the piecewise-constant family)."""
    if not isinstance(measure, DiracMeasure):
        raise TypeError("dirac_kernel requires a Dirac scale measure")
    lam = ladder.clamp(lam)
    lam0 = ladder.clamp(lam0)
    s0 = ladder.clamp(measure.s0)
    value = float(np.exp(-np.asarray(r, dtype=float) ** 2 / (2.0 * s0**2))) / measure.sigma
    coeff, lo, hi = _dirac_window(s0, lam, lam0)
    if coeff:
        value += coeff / measure.sigma * gauss_scale_integral(ladder, lo, hi, r)
    return value


def sum_dirac_kernel_hat(chi_s1, chi_s2, xfun, lam, lam0, x_s2):
    """Spectral kernel for rho = delta_{s1} + delta_{s2} at one frequency.

    chi_s1, chi_s2 are the reciprocal per-scale spectra at the endpoints and
    xfun(lam) is the antiderivative of 1/chi_mu from s1 (so xfun(s1) = 0 and
    xfun is nondecreasing); x_s2 = xfun(s2).
    """
    if chi_s1 <= 0 or chi_s2 <= 0:
        raise ValueError("chi values must be positive")
    x_hi = xfun(max(lam, lam0))
    x_lo = xfun(min(lam, lam0))
    num = (1.0 + chi_s2 * (x_s2 - x_hi)) * (1.0 + chi_s1 * x_lo)
    den = chi_s1 + chi_s2 + chi_s1 * chi_s2 * x_s2
    return num / den
