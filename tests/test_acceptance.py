"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line with the measured quantity, so a full run doubles as a report.
"""

import numpy as np
import pytest

from msreg import shapes
from msreg.flow import (
    LandmarkSystem,
    bounding_box,
    integrate_forward,
    inverse_map,
    jacobian_determinant,
    kernel_matrix,
    log_jacobian,
    make_grid,
    transport_grid,
)
from msreg.ladder import DiracMeasure, ScaleLadder
from msreg.registration import Objective, optimize
from msreg.scale_kernels import (
    DiracPiecewiseKernel,
    dirac_kernel,
    gauss_scale_integral,
    sum_dirac_kernel_hat,
)
from msreg.spectral import SpectralGrid, compute_spectral_table

from conftest import EXPERIMENT_SIGMA
from oracles import (
    adaptive_simpson,
    brute_piecewise_integral,
    central_difference_gradient,
    dense_spectral_solve,
)


def report(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bumpy_registration(experiment_kernel):
    """Shared two-scale registration used by the experiment criteria."""
    circ = shapes.circle(num=30)
    bump = shapes.bumpy_ellipse(num=30)
    system = LandmarkSystem.from_groups([(0.1, circ, bump), (2.0, circ, bump)])
    result = optimize(
        Objective(experiment_kernel, system, num_steps=20), max_iters=500, tol=1e-10
    )
    trajectory = integrate_forward(experiment_kernel, system, result.controls)
    return system, result, trajectory


class TestCriterion1AdjointGradient:
    def test_gradient_matches_finite_differences(self, experiment_kernel):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            num_scales = int(rng.integers(1, 3))
            bases = rng.choice([0.1, 2.0], size=num_scales, replace=False)
            groups = []
            for base in bases:
                n = int(rng.integers(1, 6))
                pts = rng.normal(scale=0.6, size=(n, 2))
                groups.append((base, pts, pts + rng.normal(scale=0.25, size=(n, 2))))
            system = LandmarkSystem.from_groups(
                groups, weight=float(rng.uniform(0.5, 2.0))
            )
            steps = int(rng.integers(1, 11))
            objective = Objective(experiment_kernel, system, num_steps=steps)
            controls = 0.4 * rng.normal(size=(steps, system.num_points, 2))
            grad = objective.gradient(controls)

            def scalar(flat):
                return objective.evaluate(flat.reshape(controls.shape))[0]

            fd = central_difference_gradient(scalar, controls.ravel(), h=1e-6)
            scale = max(np.abs(fd).max(), 1.0)
            worst = max(worst, np.abs(grad.ravel() - fd).max() / scale)
        report("criterion 1 adjoint gradient", worst <= 1e-5, f"max rel err {worst:.2e}")


class TestCriterion2SpectralSolver:
    def test_solver_matches_dense_oracle(self, experiment_ladder, experiment_spectral):
        nodes = experiment_ladder.nodes
        # frequencies kept low enough that the oracle's reciprocal spectra
        # stay within double range
        grid = SpectralGrid(np.linspace(0.0, 2.5, 16))
        table = compute_spectral_table(experiment_ladder, EXPERIMENT_SIGMA, grid)
        worst = 0.0
        for j, xi in enumerate(grid.xis):
            dense = dense_spectral_solve(nodes, EXPERIMENT_SIGMA, xi)
            norm = max(np.abs(dense).max(), 1.0)
            worst = max(worst, np.abs(table.values[:, :, j] - dense).max() / norm)
        vals = experiment_spectral.values
        asym = np.abs(vals - np.swapaxes(vals, 0, 1)).max() / np.abs(vals).max()
        passed = worst <= 1e-10 and asym <= 1e-9
        report(
            "criterion 2 spectral solver",
            passed,
            f"max rel err vs dense {worst:.2e}, asymmetry {asym:.2e}",
        )


class TestCriterion3ClosedForms:
    def test_closed_forms_match_quadrature(self, experiment_ladder):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            lam, lam0 = rng.uniform(0.1, 2.0, 2)
            s0 = float(rng.uniform(0.1, 2.0))
            sigma = float(rng.uniform(0.5, 2.0))
            r = float(rng.uniform(0.0, 2.5))
            measure = DiracMeasure(s0, sigma)
            value = dirac_kernel(measure, experiment_ladder, lam, lam0, r)
            xc = min(max(lam, min(s0, lam0)), max(s0, lam0))
            lo, hi = min(s0, xc), max(s0, xc)
            orient = 1.0 if xc >= s0 else -1.0
            window = adaptive_simpson(
                lambda mu: np.exp(-(r**2) / (2.0 * mu**2)), lo, hi
            )
            ref = (
                np.exp(-(r**2) / (2.0 * s0**2)) + np.sign(lam0 - s0) * orient * window
            ) / sigma
            worst = max(worst, abs(value - ref))
            # the piecewise kernel as the flow evaluates it: a 1 x 1 block
            pw = kernel_matrix(
                DiracPiecewiseKernel(measure, experiment_ladder),
                np.array([lam]), np.zeros((1, 2)), np.array([lam0]), np.array([[r, 0.0]]),
            )[0, 0]
            pw_window = brute_piecewise_integral(experiment_ladder.nodes, lo, hi, r)
            pw_scale = experiment_ladder.nodes[experiment_ladder.interval_index(s0)]
            pw_ref = (
                np.exp(-(r**2) / (2.0 * pw_scale**2))
                + np.sign(lam0 - s0) * orient * pw_window
            ) / sigma
            worst = max(worst, abs(pw - pw_ref))
        hand = sum_dirac_kernel_hat(2.0, 3.0, lambda lam: 1.0, 2.0, 2.0, x_s2=1.0)
        hand_err = abs(hand - 3.0 / 11.0)
        passed = worst <= 1e-8 and hand_err <= 1e-14
        report(
            "criterion 3 closed-form kernels",
            passed,
            f"max quadrature err {worst:.2e}, endpoint case err {hand_err:.2e}",
        )


class TestCriterion4KernelFit:
    def test_fit_quality_and_positivity(self, experiment_kernel, experiment_spectral):
        report_data = experiment_kernel.report
        rel = report_data["max_relative_residual"]
        xis = experiment_spectral.grid.xis
        design = experiment_kernel.basis.spectral(xis)
        m = experiment_kernel.scales.size
        diag = np.stack(
            [design.dot(experiment_kernel.beta[k, k]) for k in range(m)]
        )
        min_diag = diag.min()
        min_det = np.inf
        for k in range(m):
            for l in range(k + 1, m):
                off = design.dot(experiment_kernel.beta[k, l])
                min_det = min(min_det, (diag[k] * diag[l] - off**2).min())
        passed = rel <= 1e-2 and min_diag >= 0.0 and min_det >= -1e-12
        report(
            "criterion 4 kernel fit",
            passed,
            f"rel residual {rel:.2e}, min diag spectrum {min_diag:.2e}, "
            f"min 2x2 det {min_det:.2e}",
        )


class TestCriterion5Experiment:
    def test_matching_accuracy_and_diffeomorphism(
        self, experiment_kernel, experiment_ladder, bumpy_registration
    ):
        system, result, trajectory = bumpy_registration
        bump = system.targets[system.point_scales == 0.1]
        diam = np.linalg.norm(bump.max(0) - bump.min(0))
        rmse_pct = {}
        for scale in (0.1, 2.0):
            mask = system.point_scales == scale
            err = trajectory.endpoints[mask] - system.targets[mask]
            rmse_pct[scale] = 100.0 * np.sqrt((err**2).sum(-1).mean()) / diam
        bbox = bounding_box(np.vstack([system.points, system.targets]))
        grid_pts, grid_shape, spacing = make_grid(bbox, 64)
        field = transport_grid(
            experiment_kernel, trajectory, system, 2.0, grid_pts, grid_shape
        )
        log_jacobian(field, spacing)
        folded = int(field.folded.sum())
        finite = bool(np.isfinite(field.log_jac).all())
        # residual-chain reconstruction across every ladder node
        small_pts, _, _ = make_grid(bbox, 16)
        composed = small_pts.copy()
        prev = None
        for scale in experiment_ladder.nodes:
            pulled = (
                composed
                if prev is None
                else inverse_map(
                    experiment_kernel, trajectory, system, prev, composed
                ).mapped
            )
            composed = transport_grid(
                experiment_kernel, trajectory, system, scale, pulled
            ).mapped
            prev = scale
        direct = transport_grid(
            experiment_kernel, trajectory, system, 2.0, small_pts
        ).mapped
        comp_err = np.abs(composed - direct).max()
        inv = inverse_map(experiment_kernel, trajectory, system, 2.0, small_pts).mapped
        roundtrip = transport_grid(
            experiment_kernel, trajectory, system, 2.0, inv
        ).mapped
        single_err = np.abs(roundtrip - small_pts).max()
        passed = (
            rmse_pct[0.1] <= 2.0
            and rmse_pct[2.0] <= 2.0
            and finite
            and folded == 0
            and comp_err <= 10.0 * single_err
        )
        report(
            "criterion 5 experiment protocol",
            passed,
            f"rmse {rmse_pct[0.1]:.2f}%/{rmse_pct[2.0]:.2f}% of diameter, "
            f"folded cells {folded}, composition err {comp_err:.2e} vs "
            f"{single_err:.2e} single-inverse",
        )


class TestCriterion6ScaleDampening:
    def test_displacement_decays_away_from_the_base_scale(self, experiment_kernel):
        circ = shapes.circle(num=30)
        bump = shapes.bumpy_ellipse(num=30)
        bbox = bounding_box(np.vstack([circ, bump]))
        pts, _, _ = make_grid(bbox, 16)
        sup = {}
        for base in (0.1, 2.0):
            system = LandmarkSystem.from_groups([(base, circ, bump)])
            result = optimize(
                Objective(experiment_kernel, system, num_steps=20),
                max_iters=300,
                tol=1e-9,
            )
            trajectory = integrate_forward(experiment_kernel, system, result.controls)
            for query in (0.1, 2.0):
                sup[(base, query)] = transport_grid(
                    experiment_kernel, trajectory, system, query, pts
                ).sup_displacement()
        fine_ok = sup[(0.1, 2.0)] < sup[(0.1, 0.1)]
        coarse_ok = sup[(2.0, 0.1)] < sup[(2.0, 2.0)]
        report(
            "criterion 6 scale dampening",
            fine_ok and coarse_ok,
            f"base 0.1: {sup[(0.1, 0.1)]:.3f}@0.1 vs {sup[(0.1, 2.0)]:.3f}@2.0; "
            f"base 2.0: {sup[(2.0, 2.0)]:.3f}@2.0 vs {sup[(2.0, 0.1)]:.3f}@0.1",
        )


class TestCriterion7Equivariance:
    def test_flows_commute_with_rigid_motions(self, experiment_kernel):
        rng = np.random.default_rng(3)
        pts = np.array([[0.2, -0.1], [-0.4, 0.5]])
        tgts = pts + np.array([[0.3, 0.1], [-0.1, 0.2]])
        system = LandmarkSystem(np.array([0.1, 2.0]), pts, tgts)
        controls = 0.5 * rng.normal(size=(10, 2, 2))
        trajectory = integrate_forward(experiment_kernel, system, controls)
        query = rng.normal(size=(8, 2))
        base_field = transport_grid(
            experiment_kernel, trajectory, system, 1.0, query
        ).mapped
        grad = Objective(experiment_kernel, system, 10).gradient(controls)
        shift = np.array([0.8, -1.1])
        theta = 0.6
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        worst = 0.0
        # translation
        sys_t = LandmarkSystem(system.point_scales, pts + shift, tgts + shift)
        traj_t = integrate_forward(experiment_kernel, sys_t, controls)
        worst = max(
            worst, np.abs(traj_t.endpoints - (trajectory.endpoints + shift)).max()
        )
        field_t = transport_grid(
            experiment_kernel, traj_t, sys_t, 1.0, query + shift
        ).mapped
        worst = max(worst, np.abs(field_t - (base_field + shift)).max())
        grad_t = Objective(experiment_kernel, sys_t, 10).gradient(controls)
        worst = max(worst, np.abs(grad_t - grad).max())
        # rotation
        sys_r = LandmarkSystem(system.point_scales, pts.dot(rot.T), tgts.dot(rot.T))
        traj_r = integrate_forward(experiment_kernel, sys_r, controls.dot(rot.T))
        worst = max(
            worst, np.abs(traj_r.endpoints - trajectory.endpoints.dot(rot.T)).max()
        )
        field_r = transport_grid(
            experiment_kernel, traj_r, sys_r, 1.0, query.dot(rot.T)
        ).mapped
        worst = max(worst, np.abs(field_r - base_field.dot(rot.T)).max())
        grad_r = Objective(experiment_kernel, sys_r, 10).gradient(controls.dot(rot.T))
        worst = max(worst, np.abs(grad_r - grad.dot(rot.T)).max())
        report(
            "criterion 7 rigid-motion equivariance",
            worst <= 1e-10,
            f"max deviation {worst:.2e}",
        )


class TestCriterion8Convergence:
    def test_euler_endpoint_self_convergence(
        self, experiment_kernel, bumpy_registration
    ):
        system, result, _ = bumpy_registration
        ends = {}
        for factor, steps in ((1, 20), (2, 40), (4, 80)):
            controls = np.repeat(result.controls, factor, axis=0)
            ends[steps] = integrate_forward(
                experiment_kernel, system, controls
            ).endpoints
        err_coarse = np.abs(ends[20] - ends[40]).max()
        err_fine = np.abs(ends[40] - ends[80]).max()
        ratio = err_coarse / err_fine
        report(
            "criterion 8a Euler endpoint convergence",
            1.7 <= ratio <= 2.3,
            f"error ratio {ratio:.3f} (first order doubles)",
        )

    def test_time_refinement_reduces_worst_compression(
        self, experiment_kernel, experiment_ladder
    ):
        circ = shapes.circle(num=30)
        fl_fine = shapes.flower(num=30, petals=5, inner_radius=0.45, outer_radius=1.2)
        fl_coarse = shapes.flower(
            num=30, petals=5, inner_radius=0.45, outer_radius=1.2,
            phase=2.0 * np.pi / 5.0,
        )
        system = LandmarkSystem.from_groups([(0.1, circ, fl_fine), (2.0, circ, fl_coarse)])
        bbox = bounding_box(np.vstack([system.points, system.targets]))
        grid_pts, grid_shape, spacing = make_grid(bbox, 64)
        min_jac = {}
        for steps in (20, 40):
            result = optimize(
                Objective(experiment_kernel, system, num_steps=steps),
                max_iters=400,
                tol=1e-9,
            )
            trajectory = integrate_forward(experiment_kernel, system, result.controls)
            min_jac[steps] = min(
                jacobian_determinant(
                    transport_grid(
                        experiment_kernel, trajectory, system, scale,
                        grid_pts, grid_shape,
                    ),
                    spacing,
                ).min()
                for scale in experiment_ladder.nodes
            )
        report(
            "criterion 8b time-refined Jacobian floor",
            min_jac[40] > min_jac[20],
            f"min grid Jacobian {min_jac[20]:.4f} at 20 steps vs "
            f"{min_jac[40]:.4f} at 40 steps",
        )
