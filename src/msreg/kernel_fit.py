"""Minimax fitting of spectral kernels to a positive Gaussian basis.

The spectral solver produces kappa_hat(s_k, s_l, .) on a frequency grid;
here each of those profiles is approximated by a nonnegative-certified
combination of Gaussian Hankel pairs.  Diagonal profiles are fitted first
under a nonnegative-spectrum constraint; off-diagonal profiles are then
fitted under the two-sided bound |spectrum| <= sqrt(diag_k * diag_l),
which makes every 2x2 spectral sub-matrix positive semidefinite.  Both
steps are Chebyshev (minimax) problems solved as linear programs in
epigraph form.
"""

import csv
import json
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .flow import kernel_matrix
from .ladder import node_index
from .scale_kernels import MixtureKernel
from .spectral import kappa_hat_gaussian

_MAGIC = b"MSKT"
_VERSION = 1


@dataclass(frozen=True)
class HankelBasis:
    """Gaussian basis h_q(r) = exp(-r^2 / (2 tau_q^2)) and its exact radial
    Fourier (Hankel) pair."""

    taus: np.ndarray
    dim: int = 2

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        if np.any(taus <= 0):
            raise ValueError("basis widths must be positive")

    @classmethod
    def log_spaced(cls, s1, s2, num=20, dim=2):
        """Widths log-spaced on [s1/sqrt(2), sqrt(2)*s2], bracketing every
        per-scale Gaussian in the ladder."""
        return cls(np.geomspace(s1 / np.sqrt(2.0), np.sqrt(2.0) * s2, num), dim)

    @property
    def size(self):
        return self.taus.size

    def spectral(self, xi):
        """Matrix h_hat_q(xi_j), shape (len(xi), Q); strictly positive."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return np.stack(
            [kappa_hat_gaussian(tau, xi, self.dim) for tau in self.taus], axis=-1
        )


def _solve_minimax(design, target, extra_a=None, extra_b=None):
    """minimize max_j |target_j - design_j . beta| subject to optional extra
    rows extra_a . beta <= extra_b.  Returns (beta, residual)."""
    nj, nq = design.shape
    # variables: beta (free), t >= 0
    c = np.zeros(nq + 1)
    c[-1] = 1.0
    ones = np.ones((nj, 1))
    a_ub = [np.hstack([design, -ones]), np.hstack([-design, -ones])]
    b_ub = [target, -target]
    if extra_a is not None:
        a_ub.append(np.hstack([extra_a, np.zeros((extra_a.shape[0], 1))]))
        b_ub.append(extra_b)
    bounds = [(None, None)] * nq + [(0.0, None)]
    a_ub = np.vstack(a_ub)
    b_ub = np.concatenate(b_ub)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        # presolve can misreport feasible problems as infeasible when the
        # constraint matrix spans hundreds of orders of magnitude (decayed
        # spectra); retry without it, then with the dual simplex
        for method in ("highs", "highs-ds"):
            res = linprog(
                c,
                A_ub=a_ub,
                b_ub=b_ub,
                bounds=bounds,
                method=method,
                options={"presolve": False},
            )
            if res.success:
                break
    if not res.success:
        raise RuntimeError(f"minimax LP failed: {res.message}")
    return res.x[:nq], float(res.x[nq])


# Off-diagonal bounds are shrunk by these margins so the certified
# inequalities survive the LP solver's feasibility tolerance.
_REL_MARGIN = 1e-6
_ABS_MARGIN = 1e-7


def fit_diagonal(target, design):
    """Minimax fit of a diagonal spectral profile with the nonnegative
    spectrum constraint design . beta >= 0, where `design` holds the basis
    spectra (`HankelBasis.spectral`) at the profile's frequencies.

    The LP enforces the constraint to solver tolerance only; callers that
    need exact nonnegativity repair the row with `repair_nonnegative`.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (design.shape[0],):
        raise ValueError("target length must match the frequency grid")
    return _solve_minimax(design, target, extra_a=-design, extra_b=np.zeros(target.size))


def repair_nonnegative(row, design):
    """Lift a fitted spectrum to be nonnegative at every sampled frequency.

    Adds a multiple of the first basis function (the widest spectrum, so its
    tail dominates every other column) just large enough to cancel any
    solver-tolerance constraint violation; a no-op for feasible rows.
    """
    row = np.array(row, dtype=float, copy=True)
    spectrum = design.dot(row)
    scale = 1.5
    while spectrum.min() < 0.0:
        lift = scale * np.max(-spectrum / design[:, 0])
        row[0] += lift
        spectrum = design.dot(row)
        scale *= 2.0
    return row


def fit_offdiagonal(target, cj, design):
    """Minimax fit of an off-diagonal profile under |spectrum| <= c_j,
    where c_j is the geometric mean of the two fitted diagonal spectra and
    `design` holds the basis spectra at the profile's frequencies.
    """
    target = np.asarray(target, dtype=float)
    cj = np.asarray(cj, dtype=float)
    if np.any(cj < 0):
        raise ValueError("pairwise bounds must be nonnegative")
    # keep a tiny positive floor: zero bounds turn the rows into equalities,
    # which the LP solver's presolve can misreport as infeasible
    floor = 1e-14 * cj.max() if cj.size and cj.max() > 0 else 0.0
    cj = np.maximum(cj * (1.0 - _REL_MARGIN) - _ABS_MARGIN * cj.max(), floor)
    extra_a = np.vstack([design, -design])
    extra_b = np.concatenate([cj, cj])
    return _solve_minimax(design, target, extra_a=extra_a, extra_b=extra_b)


def repair_pairwise(row, diag_k, diag_l, design, tol=1e-13):
    """Scale an off-diagonal row so every 2x2 spectral determinant is clean.

    Solver-tolerance violations of |spectrum| <= sqrt(diag_k * diag_l) are
    removed by shrinking the row toward zero; frequencies where both spectra
    have decayed below `tol` are ignored (their determinants are O(tol)).
    """
    row = np.asarray(row, dtype=float)
    off = design.dot(row)
    excess = off**2 - diag_k * diag_l
    bad = excess > tol
    if not np.any(bad):
        return row
    gamma = np.sqrt(np.maximum(diag_k[bad] * diag_l[bad], 0.0) / off[bad] ** 2).min()
    return gamma * row


@dataclass
class KernelTable(MixtureKernel):
    """Fitted kernel coefficients beta_q(s_k, s_l) over a Gaussian basis.

    Evaluation at (lam1, lam2, r) is an O(Q) mixture sum.  Only the fitted
    ladder scales can be evaluated, since only their beta rows carry the
    positivity certificate; any other scale raises a lookup error.
    """

    scales: np.ndarray
    beta: np.ndarray  # shape (m, m, Q), symmetric in the first two axes
    basis: HankelBasis
    report: dict = field(default_factory=dict)

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=float)
        self._rates = 1.0 / (2.0 * self.basis.taus**2)

    def index_of(self, lam):
        return node_index(self.scales, lam)

    def slice(self, lam, mu):
        return self.beta[self.index_of(lam), self.index_of(mu)], self._rates

    def spectrum(self, lam1, lam2, xis):
        """Fitted spectral profile at the given frequencies."""
        row = self.beta[self.index_of(lam1), self.index_of(lam2)]
        return self.basis.spectral(xis).dot(row)

    def save_binary(self, path):
        m, q = self.scales.size, self.basis.size
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<iiii", _VERSION, self.basis.dim, m, q))
            self.scales.astype("<f8").tofile(fh)
            self.basis.taus.astype("<f8").tofile(fh)
            np.ascontiguousarray(self.beta, dtype="<f8").tofile(fh)

    @classmethod
    def load_binary(cls, path):
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise ValueError("not a kernel table file")
            version, dim, m, q = struct.unpack("<iiii", fh.read(16))
            if version != _VERSION:
                raise ValueError(f"unsupported version {version}")
            scales = np.fromfile(fh, dtype="<f8", count=m)
            taus = np.fromfile(fh, dtype="<f8", count=q)
            beta = np.fromfile(fh, dtype="<f8").reshape(m, m, q)
        return cls(scales, beta, HankelBasis(taus, dim))

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "l", "q", "scale_k", "scale_l", "tau_q", "beta"])
            m, q = self.scales.size, self.basis.size
            for k in range(m):
                for l in range(m):
                    for qi in range(q):
                        writer.writerow(
                            [
                                k,
                                l,
                                qi,
                                self.scales[k],
                                self.scales[l],
                                self.basis.taus[qi],
                                self.beta[k, l, qi],
                            ]
                        )

    def save_report(self, path):
        with open(path, "w") as fh:
            json.dump(self.report, fh, indent=2, sort_keys=True)


def fit_kernel_table(spectral_table, num_basis=20, workers=1):
    """Fit every scale pair of a spectral table.

    Diagonals first (nonnegative spectra), then off-diagonals constrained by
    the geometric means of the fitted diagonals.  Returns a KernelTable with
    a per-pair residual report.  Each fit is independent within its phase,
    so `workers` > 1 fans the linear programs out over a thread pool.
    """
    from concurrent.futures import ThreadPoolExecutor

    scales = spectral_table.ladder.nodes
    values = spectral_table.values
    basis = HankelBasis.log_spaced(scales[0], scales[-1], num_basis, spectral_table.dim)
    m = scales.size
    design = basis.spectral(spectral_table.grid.xis)
    beta = np.zeros((m, m, basis.size))
    residuals = np.zeros((m, m))
    margins = np.zeros((m, m))

    def _fill(pairs, job):
        """Run one fit job per pair; each returns (row, residual, margin)."""
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(job, pairs))
        else:
            results = [job(pair) for pair in pairs]
        for (k, l), (row, residual, margin) in zip(pairs, results):
            beta[k, l] = beta[l, k] = row
            residuals[k, l] = residuals[l, k] = residual
            margins[k, l] = margins[l, k] = margin

    def _diag_job(pair):
        target = values[pair[0], pair[0]]
        row, _ = fit_diagonal(target, design)
        row = repair_nonnegative(row, design)
        spectrum = design.dot(row)
        return row, np.abs(spectrum - target).max(), spectrum.min()

    _fill([(k, k) for k in range(m)], _diag_job)
    diag_spec = design.dot(beta[np.arange(m), np.arange(m)].T)  # (J, m)

    def _offdiag_job(pair):
        k, l = pair
        target = 0.5 * (values[k, l] + values[l, k])
        cj = np.sqrt(np.maximum(diag_spec[:, k] * diag_spec[:, l], 0.0))
        row, _ = fit_offdiagonal(target, cj, design)
        row = repair_pairwise(row, diag_spec[:, k], diag_spec[:, l], design)
        spectrum = design.dot(row)
        return row, np.abs(spectrum - target).max(), (cj - np.abs(spectrum)).min()

    _fill([(k, l) for k in range(m) for l in range(k + 1, m)], _offdiag_job)
    peaks = np.abs(values).max(axis=2)
    report = {
        "num_scales": int(m),
        "num_basis": int(basis.size),
        "max_residual": float(residuals.max()),
        "max_relative_residual": float((residuals / np.maximum(peaks, 1e-300)).max()),
        "min_diagonal_margin": float(np.diag(margins).min()),
        "min_offdiagonal_margin": float(
            margins[~np.eye(m, dtype=bool)].min() if m > 1 else 0.0
        ),
        "residuals": residuals.tolist(),
    }
    return KernelTable(scales.copy(), beta, basis, report)


def certify_pairwise_positivity(table, sample_points, scale_pairs=None, tol=1e-8):
    """Assemble Gram matrices from the fitted kernel on random point samples
    restricted to pairs of scales, and report the worst eigenvalue ratio.

    The Gram matrices come from `flow.kernel_matrix`, the evaluator the flow
    energy uses, so the certificate is about the kernel the energy sees.
    Report-only: three or more scales are not certified by the pairwise fit.
    """
    pts = np.asarray(sample_points, dtype=float)
    n = pts.shape[0]
    coords = np.vstack([pts, pts])
    if scale_pairs is None:
        m = table.scales.size
        scale_pairs = [(k, l) for k in range(m) for l in range(k, m)]
    worst = np.inf
    details = []
    for k, l in scale_pairs:
        gram = kernel_matrix(table, np.repeat(table.scales[[k, l]], n), coords)
        gram = 0.5 * (gram + gram.T)
        eigs = np.linalg.eigvalsh(gram)
        ratio = eigs[0] / max(eigs[-1], 1e-300)
        worst = min(worst, ratio)
        details.append(
            {"pair": [int(k), int(l)], "min_eig": float(eigs[0]), "max_eig": float(eigs[-1])}
        )
    return {
        "pass": bool(worst >= -tol),
        "worst_eig_ratio": float(worst),
        "tolerance": tol,
        "pairs": details,
    }
