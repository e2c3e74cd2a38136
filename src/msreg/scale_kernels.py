"""Closed-form multiscale kernels for measures with explicit solutions.

Per-scale kernels are Gaussians, either varying continuously with scale or
held piecewise constant on the ladder intervals.  For a Dirac scale measure
the scale-space kernel has a closed form built from integrals of the
per-scale kernels over windows of the scale axis; those integrals are
computed here, together with the sum-of-Diracs spectral formula and the
atom-integrated Dirac kernel.

Every kernel that feeds the flow engine is represented as a finite mixture
of spatial Gaussians for each scale pair, so that values and spatial
derivatives are cheap and exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ladder import DiracMeasure, ScaleLadder


@dataclass(frozen=True)
class GaussianScaleFamily:
    """Per-scale Gaussian kernels kappa_s(z) = exp(-|z|^2 / (2 s^2)).

    In the piecewise-constant regime the kernel on interval [r_k, r_{k+1})
    is frozen at the left node scale r_k.
    """

    ladder: ScaleLadder
    dim: int = 2

    def node_scale(self, lam):
        """Width of the piecewise-constant kernel governing scale lam."""
        return float(self.ladder.nodes[self.ladder.interval_index(lam)])

    @staticmethod
    def kappa(scale, r):
        return np.exp(-np.asarray(r, dtype=float) ** 2 / (2.0 * scale**2))


def gauss_scale_integral(family, lam1, lam2, r):
    """Integral of exp(-c / mu^2) over mu in [lam1, lam2], with c = r^2 / 2.

    Closed form in terms of the error function; the scale kernel varies
    continuously with mu here (no ladder discretization).
    """
    if lam2 < lam1:
        raise ValueError("reversed scale bounds")
    lam1 = family.ladder.clamp(lam1)
    lam2 = family.ladder.clamp(lam2)
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


def gauss_scale_integral_dsq(family, lam1, lam2, r):
    """Derivative of `gauss_scale_integral` with respect to u = r^2.

    The closed form collapses to sqrt(pi/c) (erf(sqrt(c)/lam2) -
    erf(sqrt(c)/lam1)) / 4 after cancellation; a series expansion covers
    small c.
    """
    if lam2 < lam1:
        raise ValueError("reversed scale bounds")
    c = 0.5 * r * r
    if c < 1e-12:
        # erf(x)/x ~ (2/sqrt(pi)) (1 - x^2/3), difference of the two scales
        return 0.25 * (
            2.0 * (1.0 / lam2 - 1.0 / lam1)
            - (2.0 / 3.0) * c * (1.0 / lam2**3 - 1.0 / lam1**3)
        )
    sc = math.sqrt(c)
    return 0.25 * math.sqrt(math.pi / c) * (math.erf(sc / lam2) - math.erf(sc / lam1))


def piecewise_weights(family, lam1, lam2):
    """Decompose the scale window [lam1, lam2] against the ladder.

    Returns (scales, weights) such that the piecewise-constant scale
    integral of the kernel over [lam1, lam2] equals
    sum_k weights[k] * kappa_{scales[k]}(r) for any distance r.
    """
    if lam2 < lam1:
        raise ValueError("reversed scale bounds")
    ladder = family.ladder
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


def piecewise_scale_integral(family, lam1, lam2, r):
    """Scale integral of the piecewise-constant kernel over [lam1, lam2]."""
    scales, weights = piecewise_weights(family, lam1, lam2)
    if scales.size == 0:
        return 0.0
    return float(np.dot(weights, GaussianScaleFamily.kappa(scales, r)))


class MixtureKernel:
    """Scale-pair kernels representable as finite Gaussian mixtures in space.

    Subclasses provide ``slice(lam, mu) -> (weights, rates)`` with
    value(u) = sum_i weights[i] * exp(-rates[i] * u) at squared distance u.
    The returned arrays may be shared between calls; callers must not
    modify them.  Immutable after construction apart from slice memos;
    safe for concurrent reads.
    """

    def slice(self, lam, mu):
        raise NotImplementedError

    def __call__(self, lam, mu, r):
        w, a = self.slice(lam, mu)
        u = np.asarray(r, dtype=float) ** 2
        return np.exp(-np.multiply.outer(u, a)).dot(w)


class DiracPiecewiseKernel(MixtureKernel):
    """Closed-form kernel for rho = sigma * delta_{s0}, piecewise family.

    value(lam, lam0, r) = kappa_{s0}(r) / sigma
        + sign(lam0 - s0) / sigma * integral of kappa_mu(r) over the window
    where the window endpoint is lam clamped into [min(s0, lam0),
    max(s0, lam0)].  The leading term carries the 1/sigma factor forced by
    the constraint v(s0) = K_{s0}(., x0) a / sigma.
    """

    def __init__(self, measure, family):
        if not isinstance(measure, DiracMeasure):
            raise TypeError("DiracPiecewiseKernel requires a Dirac scale measure")
        s0 = family.ladder.clamp(measure.s0)
        self.measure = measure
        self.family = family
        self._s0 = s0
        self._slices = {}

    def slice(self, lam, mu):
        key = (lam, mu)
        if key not in self._slices:
            self._slices[key] = self._mixture(lam, mu)
        return self._slices[key]

    def _mixture(self, lam, mu):
        family, measure = self.family, self.measure
        lam = family.ladder.clamp(lam)
        lam0 = family.ladder.clamp(mu)
        s0 = self._s0
        inv_sigma = 1.0 / measure.sigma
        scales = [family.node_scale(s0)]
        weights = [inv_sigma]
        sign = np.sign(lam0 - s0)
        if sign != 0.0:
            xc = min(max(lam, min(s0, lam0)), max(s0, lam0))
            lo, hi = min(s0, xc), max(s0, xc)
            orient = 1.0 if xc >= s0 else -1.0
            ws, ww = piecewise_weights(family, lo, hi)
            scales.extend(ws)
            weights.extend(sign * orient * inv_sigma * ww)
        scales = np.asarray(scales)
        weights = np.asarray(weights)
        rates = 1.0 / (2.0 * scales**2)
        return weights, rates


def dirac_kernel(measure, family, lam, lam0, r, method="piecewise"):
    """Closed-form Dirac-measure kernel value at (lam, lam0, r).

    method="piecewise" evaluates the per-scale kernels as piecewise constant
    on the ladder; method="gauss" integrates the continuously varying
    Gaussian via the erf closed form.
    """
    if not isinstance(measure, DiracMeasure):
        raise TypeError("dirac_kernel requires a Dirac scale measure")
    if method == "piecewise":
        kern = DiracPiecewiseKernel(measure, family)
        return float(kern(lam, lam0, r))
    if method != "gauss":
        raise ValueError(f"unknown method {method!r}")
    ladder = family.ladder
    lam = ladder.clamp(lam)
    lam0 = ladder.clamp(lam0)
    s0 = ladder.clamp(measure.s0)
    value = float(GaussianScaleFamily.kappa(s0, r)) / measure.sigma
    sign = np.sign(lam0 - s0)
    if sign != 0.0:
        xc = min(max(lam, min(s0, lam0)), max(s0, lam0))
        lo, hi = min(s0, xc), max(s0, xc)
        orient = 1.0 if xc >= s0 else -1.0
        value += sign * orient / measure.sigma * gauss_scale_integral(family, lo, hi, r)
    return value


def sum_dirac_kernel_hat(chi_s1, chi_s2, xfun, lam, lam0, x_s2=None):
    """Spectral kernel for rho = delta_{s1} + delta_{s2} at one frequency.

    chi_s1, chi_s2 are the reciprocal per-scale spectra at the endpoints and
    xfun(lam) is the antiderivative of 1/chi_mu from s1 (so xfun(s1) = 0 and
    xfun is nondecreasing).  x_s2 = xfun(s2) may be passed explicitly;
    otherwise it is read from the `x_s2` attribute of xfun (see
    `make_sum_dirac_xfun`).
    """
    if chi_s1 <= 0 or chi_s2 <= 0:
        raise ValueError("chi values must be positive")
    if x_s2 is None:
        x_s2 = xfun.x_s2
    x_hi = xfun(max(lam, lam0))
    x_lo = xfun(min(lam, lam0))
    num = (1.0 + chi_s2 * (x_s2 - x_hi)) * (1.0 + chi_s1 * x_lo)
    den = chi_s1 + chi_s2 + chi_s1 * chi_s2 * x_s2
    return num / den


def make_sum_dirac_xfun(family, xi):
    """Build X(lam) = integral of kappa_hat_mu(xi) from s1 to lam.

    Uses the piecewise-constant family, so X is piecewise linear and exact.
    Returns a callable with attribute x_s2 = X(s2).
    """
    from .spectral import kappa_hat_gaussian

    ladder = family.ladder
    nodes = ladder.nodes
    khat = kappa_hat_gaussian(nodes[:-1], xi, family.dim)
    cum = np.concatenate(([0.0], np.cumsum(ladder.widths * khat)))

    def xfun(lam):
        lam = ladder.clamp(lam)
        k = ladder.interval_index(lam)
        return float(cum[k] + (lam - nodes[k]) * khat[k])

    xfun.x_s2 = float(cum[-1])
    return xfun


def integrated_dirac_weights(family, lam, lam0):
    """Mixture weights for the Dirac kernels integrated over their atom.

    The integrand weight is 1 plus a linear ramp (mu - s1)/(s2 - s1) below
    min(lam, lam0) and (s2 - mu)/(s2 - s1) above max(lam, lam0); with the
    piecewise-constant family the integral is exact per ladder interval.
    """
    ladder = family.ladder
    lam = ladder.clamp(lam)
    lam0 = ladder.clamp(lam0)
    s1, s2 = ladder.s1, ladder.s2
    span = s2 - s1
    m, mm = min(lam, lam0), max(lam, lam0)
    nodes = ladder.nodes
    cuts = np.unique(np.concatenate((nodes, [m, mm])))
    scales, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        w = b - a
        if b <= m:
            # ramp (mu - s1) / span
            w += ((b - s1) ** 2 - (a - s1) ** 2) / (2.0 * span)
        if a >= mm:
            # ramp (s2 - mu) / span
            w += ((s2 - a) ** 2 - (s2 - b) ** 2) / (2.0 * span)
        scales.append(family.node_scale(0.5 * (a + b)))
        weights.append(w)
    return np.asarray(scales), np.asarray(weights)


def integrated_dirac_kernel(family, lam, lam0, r):
    """Kernel obtained by integrating the Dirac closed forms over the atom
    location, with sigma = s2 - s1."""
    scales, weights = integrated_dirac_weights(family, lam, lam0)
    return float(np.dot(weights, GaussianScaleFamily.kappa(scales, r)))


class IntegratedDiracKernel(MixtureKernel):
    """Mixture-backed evaluator for `integrated_dirac_kernel`."""

    def __init__(self, family):
        self.family = family

    def slice(self, lam, mu):
        scales, weights = integrated_dirac_weights(self.family, lam, mu)
        return weights, 1.0 / (2.0 * scales**2)
