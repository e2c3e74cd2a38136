"""Minimax fitting of spectral kernels to a positive Gaussian basis.

The spectral solver produces kappa_hat(s_k, s_l, .) on a frequency grid;
here each of those profiles is approximated by a nonnegative-certified
combination of Gaussian Hankel pairs.  `fit_kernel_table` makes one
`_solve_minimax` call per scale pair: a Chebyshev (minimax) LP in epigraph
form on one HiGHS model, warm-started from pair to pair.  The diagonal
pairs come first, with the spectrum bounded to [0, inf); each off-diagonal
pair then gets |spectrum| <= sqrt(diag_k * diag_l), which makes every 2x2
spectral sub-matrix positive semidefinite.  A fit for a few scales stops
early in that fixed order, so each pair it fits has the full fit's bits.
"""

import csv
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsLp, HighsModelStatus, MatrixFormat, _Highs
from scipy.sparse import bmat, identity

from .flow import kernel_matrix
from .ladder import node_index
from .spectral import kappa_hat_gaussian

_MAGIC = b"MSKT"
_VERSION = 1


@dataclass(frozen=True)
class HankelBasis:
    """Gaussian basis h_q(r) = exp(-r^2 / (2 tau_q^2)) and its exact radial
    Fourier (Hankel) pair."""

    taus: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        if taus.size == 0:
            raise ValueError("the basis needs at least one width")
        if not np.all((taus > 0) & np.isfinite(taus)):
            raise ValueError("basis widths must be positive and finite")

    @classmethod
    def log_spaced(cls, s1, s2, num=20):
        """Widths log-spaced on [s1/sqrt(2), sqrt(2)*s2], bracketing every
        per-scale Gaussian in the ladder."""
        return cls(np.geomspace(s1 / np.sqrt(2.0), np.sqrt(2.0) * s2, num))

    @property
    def size(self):
        return self.taus.size

    def spectral(self, xi):
        """Matrix h_hat_q(xi_j), shape (len(xi), Q); strictly positive."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return kappa_hat_gaussian(self.taus, xi[:, None])


class _MinimaxModel:
    """A persistent HiGHS model of the minimax LP over one design matrix A.

    Over (beta free, t >= 0, w, e) it minimises t subject to three row
    blocks with constant bounds,

        A beta - w + t >= 0,   A beta - w - t <= 0,   A beta - e = 0,

    where the columns w are fixed at the target and lower <= e <= upper.  So
    a diagonal fit (lower = 0) and an off-diagonal fit (|A beta| <= c) are
    two bound patterns on the same 2J columns.  The model is passed to HiGHS
    once; each solve changes those column bounds in one call and reruns the
    dual simplex from the live basis and factorisation (Huangfu & Hall,
    Math. Prog. Comp. 2018).

    A beta stays in the first two blocks: with e there instead, A enters the
    matrix once, but the residual is then bounded only through equality
    rows that hold to the solver's tolerance, and near-interpolating fits
    come back with coefficients near 1e15 and residuals far above the LP's t.
    """

    def __init__(self, design):
        self.design = design
        nj, nq = design.shape
        ones, eye = np.ones((nj, 1)), identity(nj)
        matrix = bmat(
            [
                [design, ones, -eye, None],
                [design, -ones, -eye, None],
                [design, None, None, -eye],
            ],
            format="csc",
        )
        free = np.full(nj, np.inf)
        lp = HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = nq + 1 + 2 * nj
        lp.num_row_ = lp.a_matrix_.num_row_ = 3 * nj
        lp.col_cost_ = np.r_[np.zeros(nq), 1.0, np.zeros(2 * nj)]
        lp.col_lower_ = np.r_[np.full(nq, -np.inf), 0.0, np.zeros(2 * nj)]
        lp.col_upper_ = np.r_[np.full(nq, np.inf), np.inf, np.zeros(2 * nj)]
        lp.row_lower_ = np.r_[np.zeros(nj), -free, np.zeros(nj)]
        lp.row_upper_ = np.r_[free, np.zeros(2 * nj)]
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        self._highs = _Highs()
        self._highs.setOptionValue("output_flag", False)
        # Presolve would run on the first solve only, the one without a
        # basis.  On this form it removes the fixed w columns, and on a
        # near-interpolating table postsolve returned coefficients of 1e6
        # whose true residual was 80 times the LP's t.
        self._highs.setOptionValue("presolve", "off")
        self._highs.passModel(lp)
        # the w and e columns, whose bounds carry every per-solve quantity
        self._bounded = np.arange(nq + 1, nq + 1 + 2 * nj, dtype=np.int32)
        self.solves = 0
        self.iterations = 0
        self.cold_retries = 0

    def solve(self, target, lower, upper):
        """(beta, t) for these bounds, or None unless HiGHS reports optimal."""
        highs = self._highs
        highs.changeColsBounds(
            self._bounded.size,
            self._bounded,
            np.concatenate([target, lower]),
            np.concatenate([target, upper]),
        )
        highs.run()
        self.solves += 1
        # a run that stops with an error reports -1 iterations
        self.iterations += max(highs.getInfo().simplex_iteration_count, 0)
        if highs.getModelStatus() != HighsModelStatus.kOptimal:
            return None
        nq = self.design.shape[1]
        x = np.array(highs.getSolution().col_value[: nq + 1])
        return x[:-1], float(x[-1])


def _solve_minimax(model, target, lower, upper):
    """minimize max_j |target_j - design_j . beta| subject to
    lower <= design . beta <= upper, where `design` is the model's.

    Warm-starts `model`; if HiGHS does not report optimal, the LP is solved
    again cold by `linprog`.  Returns (beta, residual).
    """
    solution = model.solve(target, lower, upper)
    if solution is not None:
        return solution
    model.cold_retries += 1
    design = model.design
    nj, nq = design.shape
    # variables: beta (free), t >= 0
    c = np.zeros(nq + 1)
    c[-1] = 1.0
    ones = np.ones((nj, 1))
    zeros = np.zeros((nj, 1))
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
    bounds = [(None, None)] * nq + [(0.0, None)]
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

_REPAIR_TOL = 1e-13  # 2x2 determinant excess that `repair_pairwise` ignores
_CERTIFY_TOL = 1e-8  # eigenvalue ratio down to -_CERTIFY_TOL passes the certificate


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


def repair_pairwise(row, diag_k, diag_l, design):
    """Scale an off-diagonal row so every 2x2 spectral determinant is clean.

    Solver-tolerance violations of |spectrum| <= sqrt(diag_k * diag_l) are
    removed by shrinking the row toward zero; frequencies where both spectra
    have decayed below _REPAIR_TOL are ignored (their determinants are
    O(_REPAIR_TOL)).
    """
    row = np.asarray(row, dtype=float)
    off = design.dot(row)
    excess = off**2 - diag_k * diag_l
    bad = excess > _REPAIR_TOL
    if not np.any(bad):
        return row
    gamma = np.sqrt(np.maximum(diag_k[bad] * diag_l[bad], 0.0) / off[bad] ** 2).min()
    return gamma * row


@dataclass
class KernelTable:
    """Fitted kernel coefficients beta_q(s_k, s_l) over a Gaussian basis.

    Each scale pair's slice is the Q-term mixture (beta row, basis rates).
    Only the fitted pairs of ladder scales have a slice, since only their
    beta rows carry the positivity certificate; any other scale or pair
    raises a lookup error.
    """

    scales: np.ndarray
    beta: np.ndarray  # shape (m, m, Q), symmetric in the first two axes
    basis: HankelBasis
    report: dict = field(default_factory=dict)
    fitted: np.ndarray = None  # (m, m) bool, symmetric: the pairs with a fit; None is all

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=float)
        if self.fitted is None:
            self.fitted = np.ones((self.scales.size,) * 2, dtype=bool)
        self._rates = 1.0 / (2.0 * self.basis.taus**2)
        self._slices = {}

    def slice(self, lam, mu):
        key = (lam, mu)
        if key not in self._slices:
            k, l = node_index(self.scales, lam), node_index(self.scales, mu)
            if not self.fitted[k, l]:
                raise KeyError(f"the scale pair ({lam}, {mu}) was not fitted")
            self._slices[key] = self.beta[k, l], self._rates
        return self._slices[key]

    def save_binary(self, path):
        # the file has no room for unfitted pairs, whose zeros would read as a kernel
        if not self.fitted.all():
            raise ValueError("only a table of every scale pair is saved")
        m, q = self.scales.size, self.basis.size
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<iiii", _VERSION, 2, m, q))  # 2: the dimension
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
            if dim != 2:
                raise ValueError(f"the table is for dimension {dim}; msreg registers in 2")
            if m < 1 or q < 1:
                raise ValueError("the table needs at least one scale and one basis term")
            # checked before reading, so a header's sizes never size an allocation
            size, expected = os.fstat(fh.fileno()).st_size, 20 + 8 * (m + q + m * m * q)
            if size != expected:
                raise ValueError(
                    f"{size} bytes, but {m} scales and {q} basis terms take {expected}"
                )
            scales = np.fromfile(fh, dtype="<f8", count=m)
            taus = np.fromfile(fh, dtype="<f8", count=q)
            beta = np.fromfile(fh, dtype="<f8").reshape(m, m, q)
        if not (np.all(np.isfinite(scales)) and np.all(np.isfinite(beta))):
            raise ValueError("scales and coefficients must be finite")
        # the landmark Gram mirrors its blocks above the diagonal
        if not np.array_equal(beta, beta.transpose(1, 0, 2)):
            raise ValueError("coefficients are not symmetric in the scale pair")
        with np.errstate(divide="ignore", over="ignore"):
            table = cls(scales, beta, HankelBasis(taus))
        if not np.all(np.isfinite(table._rates)):
            raise ValueError("a basis width is so small that its rate 1 / (2 tau^2) overflows")
        return table

    def save_csv(self, path):
        m, q = self.scales.size, self.basis.size
        scales = [str(s) for s in self.scales]
        taus = [str(tau) for tau in self.basis.taus]
        beta = self.beta.reshape(m * m, q).tolist()
        rows = (
            (k, l, qi, scales[k], scales[l], taus[qi], value)
            for k in range(m)
            for l in range(m)
            for qi, value in enumerate(beta[k * m + l])
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "l", "q", "scale_k", "scale_l", "tau_q", "beta"])
            writer.writerows(rows)

    def save_report(self, path):
        with open(path, "w") as fh:
            json.dump(self.report, fh, indent=2, sort_keys=True)


def _extreme(reduce, values):
    """reduce(values) as a float, or 0.0 over no values."""
    return float(reduce(values)) if values.size else 0.0


def fit_kernel_table(spectral_table, num_basis=20, scales=None):
    """Fit the scale pairs of a spectral table in a fixed order: the
    diagonals, then the off-diagonals (k, l > k) row by row, each by one
    `_solve_minimax` call on one warm-started `_MinimaxModel`.  Returns a
    KernelTable with a per-pair residual report and the LP work it took.

    With `scales`, the fit stops after the last pair whose two nodes are
    both among them, so every pair that a kernel on those scales evaluates
    is fitted, each bitwise as in the full fit, and the table's `slice`
    raises KeyError on the pairs left out.  Scales off the ladder are
    skipped.  The report's figures cover the fitted pairs only, and its
    `residuals` hold None for the others.
    """
    nodes = spectral_table.ladder.nodes
    values = spectral_table.values
    basis = HankelBasis.log_spaced(nodes[0], nodes[-1], num_basis)
    m = nodes.size
    order = [(k, k) for k in range(m)] + [(k, l) for k in range(m) for l in range(k + 1, m)]
    if scales is not None:
        wanted = set()
        for scale in np.unique(scales):
            try:
                wanted.add(node_index(nodes, scale))
            except KeyError:
                pass
        last = max((i for i, (k, l) in enumerate(order) if {k, l} <= wanted), default=-1)
        order = order[: last + 1]
    design = basis.spectral(spectral_table.grid.xis)
    model = _MinimaxModel(design)
    beta = np.zeros((m, m, basis.size))
    residuals = np.zeros((m, m))
    margins = np.zeros((m, m))
    fitted = np.zeros((m, m), dtype=bool)
    for k, _ in order[:m]:
        target = values[k, k]
        # spectrum >= 0, to the LP's tolerance; repair_nonnegative makes it exact
        row, _ = _solve_minimax(model, target, np.zeros(target.size), np.full(target.size, np.inf))
        beta[k, k] = repair_nonnegative(row, design)
        spectrum = design.dot(beta[k, k])
        residuals[k, k] = np.abs(spectrum - target).max()
        margins[k, k] = spectrum.min()
        fitted[k, k] = True
    diag_spec = design.dot(beta[np.arange(m), np.arange(m)].T)  # (J, m)
    for k, l in order[m:]:
        target = 0.5 * (values[k, l] + values[l, k])
        c = np.sqrt(np.maximum(diag_spec[:, k] * diag_spec[:, l], 0.0))
        # |spectrum| <= c, shrunk by the margins; the tiny positive floor
        # keeps zero bounds from turning the rows into equalities, which
        # the cold retry's presolve can misreport as infeasible
        bound = np.maximum(c * (1.0 - _REL_MARGIN) - _ABS_MARGIN * c.max(), 1e-14 * c.max())
        row, _ = _solve_minimax(model, target, -bound, bound)
        row = repair_pairwise(row, diag_spec[:, k], diag_spec[:, l], design)
        spectrum = design.dot(row)
        beta[k, l] = beta[l, k] = row
        residuals[k, l] = residuals[l, k] = np.abs(spectrum - target).max()
        margins[k, l] = margins[l, k] = (c - np.abs(spectrum)).min()
        fitted[k, l] = fitted[l, k] = True
    peaks = np.abs(values).max(axis=2)
    # sum |beta| / |sum beta|: how many digits a kernel value at r = 0 loses
    cancellation = np.abs(beta).sum(axis=2) / np.maximum(np.abs(beta.sum(axis=2)), 1e-300)
    offdiagonal = fitted & ~np.eye(m, dtype=bool)
    report = {
        "num_scales": int(m),
        "num_basis": int(basis.size),
        "max_residual": _extreme(np.max, residuals[fitted]),
        "max_relative_residual": _extreme(
            np.max, (residuals / np.maximum(peaks, 1e-300))[fitted]
        ),
        "min_diagonal_margin": _extreme(np.min, np.diag(margins)[np.diag(fitted)]),
        "min_offdiagonal_margin": _extreme(np.min, margins[offdiagonal]),
        "max_cancellation_ratio": _extreme(np.max, cancellation[fitted]),
        "residuals": np.where(fitted, residuals, None).tolist(),
        "lp_solves": model.solves,
        "simplex_iterations": model.iterations,
        "cold_retries": model.cold_retries,
    }
    return KernelTable(nodes.copy(), beta, basis, report, fitted)


def certify_pairwise_positivity(table, sample_points, scale_pairs=None):
    """Assemble Gram matrices from the fitted kernel on random point samples
    restricted to pairs of scales, and report the worst eigenvalue ratio,
    which passes down to -_CERTIFY_TOL.

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
        "pass": bool(worst >= -_CERTIFY_TOL),
        "worst_eig_ratio": float(worst),
        "tolerance": _CERTIFY_TOL,
        "pairs": details,
    }
