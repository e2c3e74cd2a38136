"""Fourier-domain kernel solver for the Lebesgue scale measure, on the plane.

With rho = sigma^2 * Lebesgue and piecewise-constant Gaussian scale kernels,
the spectral kernel kappa_hat(lam, lam0, xi) satisfies, for each frequency,
a linear two-point problem whose nodal values solve a tridiagonal system.
The solver works in the rescaled variables g_k = chi_k * h_k, which keeps
every coefficient bounded even when the reciprocal spectra chi explode at
high frequency.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .ladder import ScaleLadder

_MAGIC = b"MSKS"
_VERSION = 1


def kappa_hat_gaussian(scale, xi):
    """Fourier transform of exp(-|z|^2 / (2 scale^2)) on R^2 at radial frequency xi."""
    scale = np.asarray(scale, dtype=float)
    return 2.0 * np.pi * scale**2 * np.exp(
        -2.0 * np.pi**2 * scale**2 * np.asarray(xi, dtype=float) ** 2
    )


def psi_gaussian(scale_prev, scale_cur, xi):
    """Stable ratio chi_{k-1} / chi_k of the reciprocal Gaussian spectra
    chi = 1 / kappa_hat, which themselves overflow at large scale * xi."""
    return (scale_cur / scale_prev) ** 2 * np.exp(
        -2.0 * np.pi**2 * (scale_cur**2 - scale_prev**2) * np.asarray(xi, float) ** 2
    )


def _coth(x):
    return np.cosh(x) / np.sinh(x)


def _inv_sinh(x):
    return 1.0 / np.sinh(x)


@dataclass(frozen=True)
class SpectralGrid:
    """Radial frequency samples xi_1..xi_J, shared by solver and fitter."""

    xis: np.ndarray

    def __post_init__(self):
        xis = np.asarray(self.xis, dtype=float)
        object.__setattr__(self, "xis", xis)
        if xis.size < 2 or xis[0] < 0 or np.any(np.diff(xis) <= 0):
            raise ValueError("frequencies must be nonnegative and increasing")

    @classmethod
    def default(cls, s1, num=256):
        """Uniform grid on [0, 4 / (pi * s1)], wide enough for the finest
        Gaussian spectrum to decay below 1e-12 of its peak."""
        return cls(np.linspace(0.0, 4.0 / (np.pi * s1), num))


def _assemble_coefficients(ladder, sigma, xis):
    """Tridiagonal coefficients (lower, diag, upper) at every frequency.

    `lower` has shape (n,) since it does not depend on the frequency;
    `diag` (n+1, J) and `upper` (n, J) carry the frequencies on the last axis.
    """
    nodes = ladder.nodes
    rho = ladder.widths  # length n
    n = rho.size
    # chi_k lives on interval k (scale nodes[k]); psi[k] = chi_k / chi_{k+1},
    # and psi[n-1] = 1 because the last node reuses the last interval's chi
    psi = np.ones((n, xis.size))
    psi[:-1] = psi_gaussian(nodes[:-2, None], nodes[1:-1, None], xis)
    coth = _coth(sigma * rho)[:, None]
    isnh = _inv_sinh(sigma * rho)
    diag = np.empty((n + 1, xis.size))
    diag[0] = -sigma * coth[0]
    diag[1:n] = -sigma * (coth[1:] + coth[:-1] * psi[:-1])
    diag[n] = -sigma * coth[n - 1]
    return sigma * isnh, diag, sigma * psi * isnh[:, None]


def _thomas(lower, diag, upper, out):
    """Thomas algorithm for the right-hand side -I at every frequency.

    Sweeps the nodes with all frequencies on the last axis and writes the
    solution into `out`, shape (node, source node, frequency).  The assembled
    systems are column diagonally dominant, so elimination without pivoting
    is stable; a vanishing pivot is still reported, at the first frequency
    that has one.
    """
    n1 = diag.shape[0]
    cp = np.empty((n1 - 1, diag.shape[1]))
    singular = np.zeros(diag.shape[1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        piv = diag[0]
        singular |= piv == 0.0
        cp[0] = upper[0] / piv
        out[0] = -0.0  # rhs_0 = -e_0, signed zeros as in -I
        out[0, 0] = -1.0
        out[0] /= piv
        for k in range(1, n1):
            piv = diag[k] - lower[k - 1] * cp[k - 1]
            singular |= piv == 0.0
            if k < n1 - 1:
                cp[k] = upper[k] / piv
            # (rhs_k - lower_{k-1} * dp_{k-1}) / piv, with rhs_k = -e_k
            np.multiply(out[k - 1], -lower[k - 1], out=out[k])
            out[k, k] -= 1.0
            out[k] /= piv
    if singular.any():
        raise ArithmeticError(f"solver failure at frequency index {np.argmax(singular)}")
    for k in range(n1 - 2, -1, -1):
        out[k] -= cp[k] * out[k + 1]


@dataclass
class SpectralTable:
    """kappa_hat values on (node, source node, frequency) for one ladder."""

    ladder: ScaleLadder
    sigma: float
    grid: SpectralGrid
    values: np.ndarray  # shape (n+1, n+1, J)

    def save_binary(self, path):
        nodes, xis = self.ladder.nodes, self.grid.xis
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            # (version, dimension, intervals, frequencies, sigma); the solver is planar
            fh.write(struct.pack("<iiiid", _VERSION, 2, nodes.size - 1, xis.size, self.sigma))
            nodes.astype("<f8").tofile(fh)
            xis.astype("<f8").tofile(fh)
            np.ascontiguousarray(self.values, dtype="<f8").tofile(fh)


def compute_spectral_table(ladder, sigma, grid):
    """Solve the per-frequency systems for every source node.

    The coefficients of every frequency are assembled at once and one
    tridiagonal sweep solves them against the full set of unit sources;
    spectral values are recovered as h_k = g_k * kappa_hat_k (h_{n+1} uses
    the last interval's spectrum).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    nodes = ladder.nodes
    n1 = nodes.size
    values = np.empty((n1, n1, grid.xis.size))
    _thomas(*_assemble_coefficients(ladder, sigma, grid.xis), values)
    # per-node recovery spectra: interval scale r_k for k < n, r_n for the
    # last node (right-closure of the last interval)
    rec_scales = np.concatenate((nodes[:-1], [nodes[-2]]))
    values *= kappa_hat_gaussian(rec_scales[:, None], grid.xis)[:, None, :]
    return SpectralTable(ladder, sigma, grid, values)
