"""Fourier-domain kernel solver for the Lebesgue scale measure.

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

from .ladder import ScaleLadder, node_index

_MAGIC = b"MSKS"
_VERSION = 1


def kappa_hat_gaussian(scale, xi, dim):
    """Fourier transform of exp(-|z|^2 / (2 scale^2)) at radial frequency xi."""
    scale = np.asarray(scale, dtype=float)
    return (2.0 * np.pi * scale**2) ** (dim / 2.0) * np.exp(
        -2.0 * np.pi**2 * scale**2 * np.asarray(xi, dtype=float) ** 2
    )


def chi_gaussian(scale, xi, dim):
    """Reciprocal spectrum 1 / kappa_hat of the Gaussian at width `scale`.

    Overflows for large scale * xi; the solver never evaluates it there and
    works with the ratios `psi_gaussian` instead.
    """
    scale = np.asarray(scale, dtype=float)
    return (2.0 * np.pi * scale**2) ** (-dim / 2.0) * np.exp(
        2.0 * np.pi**2 * scale**2 * np.asarray(xi, dtype=float) ** 2
    )


def psi_gaussian(scale_prev, scale_cur, xi, dim):
    """Stable ratio chi_{k-1} / chi_k for Gaussian spectra."""
    return (scale_cur / scale_prev) ** dim * np.exp(
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
    dim: int = 2

    def __post_init__(self):
        xis = np.asarray(self.xis, dtype=float)
        object.__setattr__(self, "xis", xis)
        if xis.size < 2 or xis[0] < 0 or np.any(np.diff(xis) <= 0):
            raise ValueError("frequencies must be nonnegative and increasing")

    @classmethod
    def default(cls, s1, num=256, dim=2):
        """Uniform grid on [0, 4 / (pi * s1)], wide enough for the finest
        Gaussian spectrum to decay below 1e-12 of its peak."""
        return cls(np.linspace(0.0, 4.0 / (np.pi * s1), num), dim)


def _assemble_coefficients(ladder, sigma, xi, dim):
    """Tridiagonal coefficients (lower, diag, upper) at one frequency."""
    nodes = ladder.nodes
    rho = ladder.widths  # length n
    n = rho.size
    # chi_k lives on interval k (scale nodes[k]); psi[k] = chi_k / chi_{k+1},
    # and psi[n-1] = 1 because the last node reuses the last interval's chi
    psi = np.append(psi_gaussian(nodes[:-2], nodes[1:-1], xi, dim), 1.0)
    coth = _coth(sigma * rho)
    isnh = _inv_sinh(sigma * rho)
    diag = np.empty(n + 1)
    diag[0] = -sigma * coth[0]
    diag[1:n] = -sigma * (coth[1:] + coth[:-1] * psi[:-1])
    diag[n] = -sigma * coth[n - 1]
    return sigma * isnh, diag, sigma * psi * isnh


def _thomas(lower, diag, upper):
    """Thomas algorithm for the right-hand side -I, one column per source
    node.  The assembled systems are column diagonally dominant, so
    elimination without pivoting is stable; a vanishing pivot is still
    reported."""
    n1 = diag.size
    rhs = -np.eye(n1)
    cp = np.empty(n1 - 1)
    dp = np.empty((n1, n1))
    piv = diag[0]
    if piv == 0.0:
        raise ArithmeticError("singular pivot in tridiagonal solve")
    cp[0] = upper[0] / piv
    dp[0] = rhs[0] / piv
    for k in range(1, n1):
        piv = diag[k] - lower[k - 1] * cp[k - 1]
        if piv == 0.0:
            raise ArithmeticError(f"singular pivot at row {k}")
        if k < n1 - 1:
            cp[k] = upper[k] / piv
        dp[k] = (rhs[k] - lower[k - 1] * dp[k - 1]) / piv
    x = np.empty_like(dp)
    x[-1] = dp[-1]
    for k in range(n1 - 2, -1, -1):
        x[k] = dp[k] - cp[k] * x[k + 1]
    return x


@dataclass
class SpectralTable:
    """kappa_hat values on (node, source node, frequency) for one ladder."""

    ladder: ScaleLadder
    sigma: float
    grid: SpectralGrid
    values: np.ndarray  # shape (n+1, n+1, J)

    @property
    def dim(self):
        return self.grid.dim

    def save_binary(self, path):
        nodes = self.ladder.nodes
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(
                struct.pack(
                    "<iiiid",
                    _VERSION,
                    self.dim,
                    nodes.size - 1,
                    self.grid.xis.size,
                    self.sigma,
                )
            )
            nodes.astype("<f8").tofile(fh)
            self.grid.xis.astype("<f8").tofile(fh)
            np.ascontiguousarray(self.values, dtype="<f8").tofile(fh)

    @classmethod
    def load_binary(cls, path):
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise ValueError("not a spectral table file")
            header = fh.read(struct.calcsize("<iiiid"))
            version, dim, n, nxi, sigma = struct.unpack("<iiiid", header)
            if version != _VERSION:
                raise ValueError(f"unsupported version {version}")
            nodes = np.fromfile(fh, dtype="<f8", count=n + 1)
            xis = np.fromfile(fh, dtype="<f8", count=nxi)
            values = np.fromfile(fh, dtype="<f8").reshape(n + 1, n + 1, nxi)
        return cls(ScaleLadder(nodes), sigma, SpectralGrid(xis, dim), values)


def compute_spectral_table(ladder, sigma, grid):
    """Solve the per-frequency systems for every source node.

    For each frequency the coefficients are assembled once and factored
    against the full set of unit sources; spectral values are recovered as
    h_k = g_k * kappa_hat_k (h_{n+1} uses the last interval's spectrum).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    nodes = ladder.nodes
    n1 = nodes.size
    values = np.empty((n1, n1, grid.xis.size))
    # per-node recovery spectra: interval scale r_k for k < n, r_n for the
    # last node (right-closure of the last interval)
    rec_scales = np.concatenate((nodes[:-1], [nodes[-2]]))
    for j, xi in enumerate(grid.xis):
        lower, diag, upper = _assemble_coefficients(ladder, sigma, xi, grid.dim)
        try:
            g = _thomas(lower, diag, upper)
        except ArithmeticError as err:
            raise ArithmeticError(f"solver failure at frequency index {j}") from err
        khat = kappa_hat_gaussian(rec_scales, xi, grid.dim)
        values[:, :, j] = g * khat[:, None]
    return SpectralTable(ladder, sigma, grid, values)


class SpectralKernelEvaluator:
    """Real-space kernel backed by a spectral table via inverse Hankel
    quadrature (d = 2 only): kappa(r) = 2 pi * int khat(xi) J0(2 pi r xi) xi dxi.

    Slow compared to the fitted basis; intended for validation and small
    evaluations, not for flow integration.
    """

    def __init__(self, table):
        if table.dim != 2:
            raise ValueError("inverse Hankel evaluation implemented for d=2 only")
        self.table = table

    def __call__(self, lam, mu, r):
        from scipy.special import j0

        nodes = self.table.ladder.nodes
        k, k0 = node_index(nodes, lam), node_index(nodes, mu)
        xis = self.table.grid.xis
        khat = self.table.values[k, k0, :]
        r = np.asarray(r, dtype=float)
        integrand = khat * xis * j0(2.0 * np.pi * np.multiply.outer(r, xis))
        return 2.0 * np.pi * np.trapezoid(integrand, xis, axis=-1)
