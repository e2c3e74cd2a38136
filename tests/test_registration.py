"""Registration objective, adjoint gradient, and the optimizer."""

import weakref

import numpy as np
import pytest

from msreg import flow, registration
from msreg.flow import LandmarkSystem, integrate_forward, kernel_matrix
from msreg.ladder import DiracMeasure, ScaleLadder
from msreg.registration import Objective, optimize
from msreg.scale_kernels import DiracPiecewiseKernel

from oracles import (
    central_difference_gradient,
    difference_form_gradient,
    mixture_value,
    sweep_tolerance,
    tabulation_tolerance,
    whole_matrix_kernel,
)

LADDER = ScaleLadder.uniform(0.1, 2.0, 20)
KERNEL = DiracPiecewiseKernel(DiracMeasure(0.5), LADDER)


def experiment_case():
    """60 landmarks split between scales 0.1 and 2.0 and 16 steps of seeded
    controls."""
    rng = np.random.default_rng(11)
    return random_system(rng, num=30), 0.3 * rng.normal(size=(16, 60, 2))


def random_system(rng, num=3, weight=1.0):
    pts = rng.normal(scale=0.5, size=(2 * num, 2))
    tgts = pts + rng.normal(scale=0.3, size=pts.shape)
    scales = np.array([0.1] * num + [2.0] * num)
    return LandmarkSystem(scales, pts, tgts, weight=weight)


class TestEvaluate:
    def test_zero_controls_give_pure_mismatch(self):
        rng = np.random.default_rng(0)
        sys0 = random_system(rng, weight=1.5)
        obj = Objective(KERNEL, sys0, num_steps=5)
        value, energy, match, traj = obj.evaluate(sys0.zero_controls(5))
        assert energy == 0.0 == traj.energy
        assert np.array_equal(traj.endpoints, sys0.points)
        ref = 1.5 * np.sum((sys0.points - sys0.targets) ** 2)
        assert match == pytest.approx(ref)
        assert value == pytest.approx(ref)

    def test_matched_targets_zero_controls_is_global_minimum(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(4, 2))
        sys0 = LandmarkSystem(np.full(4, 0.5), pts, pts.copy())
        obj = Objective(KERNEL, sys0, num_steps=4)
        value, energy, match, _ = obj.evaluate(sys0.zero_controls(4))
        assert value == 0.0
        # any nonzero control costs energy
        controls = 0.1 * rng.normal(size=(4, 4, 2))
        value2, _, _, _ = obj.evaluate(controls)
        assert value2 > 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        sys0 = random_system(rng)
        obj = Objective(KERNEL, sys0, num_steps=6)
        controls = rng.normal(size=(6, 6, 2))
        first, second = obj.evaluate(controls), obj.evaluate(controls)
        assert first[:3] == second[:3]
        assert np.array_equal(first[3].positions, second[3].positions)

    def test_scores_its_own_forward_pass(self):
        rng = np.random.default_rng(4)
        sys0 = random_system(rng, weight=0.7)
        obj = Objective(KERNEL, sys0, num_steps=6)
        controls = 0.3 * rng.normal(size=(6, 6, 2))
        value, energy, match, traj = obj.evaluate(controls)
        ref = integrate_forward(KERNEL, sys0, controls)
        assert np.array_equal(traj.positions, ref.positions)
        assert np.array_equal(traj.controls, controls)
        assert traj.blocks.shape == (6, 2, 6, 6)  # kept for the gradient
        assert energy == ref.energy
        assert match == pytest.approx(0.7 * np.sum((ref.endpoints - sys0.targets) ** 2))
        assert value == energy + match

    def test_stops_early_only_with_a_positive_weight(self):
        # a negative match could pull a value above the bound back under it
        rng = np.random.default_rng(4)
        controls = 0.3 * rng.normal(size=(6, 6, 2))
        for weight in (0.0, -1.0, np.nan):
            obj = Objective(KERNEL, random_system(rng, weight=weight), num_steps=6)
            assert obj.evaluate(controls, bound=-np.inf)[1] > 0
        obj = Objective(KERNEL, random_system(rng, weight=1e-300), num_steps=6)
        with pytest.raises(flow.EnergyAboveBound):
            obj.evaluate(controls, bound=-np.inf)

    def test_copies_step_0_from_its_first_kept_store(self, experiment_kernel, monkeypatch):
        sys0, controls = experiment_case()
        want = kernel_matrix(experiment_kernel, sys0.point_scales, sys0.points, deriv=True)
        obj = Objective(experiment_kernel, sys0, num_steps=16)
        obj.evaluate(controls)
        traj = obj.evaluate(0.5 * controls)[3]
        assert all(np.array_equal(mat, ref) for mat, ref in zip(traj.blocks[0], want))
        assert obj.gram.evaluations == 16 + 15
        # without a store every pass evaluates its step 0
        monkeypatch.setattr(flow, "MAX_BLOCK_BYTES", 0)
        obj = Objective(experiment_kernel, sys0, num_steps=16)
        obj.evaluate(controls)
        obj.evaluate(0.5 * controls)
        assert obj.gram.evaluations == 16 + 16


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            num = int(rng.integers(1, 4))
            steps = int(rng.integers(1, 6))
            sys0 = random_system(rng, num=num, weight=float(rng.uniform(0.5, 2.0)))
            obj = Objective(KERNEL, sys0, num_steps=steps)
            controls = 0.5 * rng.normal(size=(steps, 2 * num, 2))
            grad = obj.gradient(controls)

            def scalar(flat):
                return obj.evaluate(flat.reshape(controls.shape))[0]

            fd = central_difference_gradient(scalar, controls.ravel(), h=1e-6)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(grad.ravel() - fd).max() <= 1e-5 * scale

    def test_single_landmark_closed_form(self):
        # one landmark, one step: positions never move before the control
        # acts, so grad = dt * K (costate + a) with K the self-kernel value
        sys0 = LandmarkSystem(
            np.array([0.5]), np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])
        )
        obj = Objective(KERNEL, sys0, num_steps=1)
        a = np.array([[[0.2, -0.1]]])
        k0 = float(mixture_value(KERNEL, 0.5, 0.5, 0.0))
        endpoint = sys0.points + k0 * a[0]
        costate = 2.0 * (endpoint - sys0.targets)
        expected = 1.0 * k0 * (costate + a[0])
        grad = obj.gradient(a)
        assert np.abs(grad[0] - expected).max() <= 1e-12

    def test_reuses_the_forward_pass_kernel_blocks(self, monkeypatch):
        rng = np.random.default_rng(14)
        sys0 = random_system(rng)
        obj = Objective(KERNEL, sys0, num_steps=5)
        controls = 0.3 * rng.normal(size=(5, 6, 2))
        _, _, _, traj = obj.evaluate(controls)
        fresh = obj.gradient(controls)
        blockless = integrate_forward(KERNEL, sys0, controls)
        assert blockless.blocks.shape == (5, 2, 6, 6)
        blockless.blocks = None

        def forbidden(*args, **kwargs):
            raise AssertionError("kernel evaluated")

        # every kernel evaluation runs a `KernelBlocks`
        monkeypatch.setattr(flow.KernelBlocks, "__call__", forbidden)
        assert np.array_equal(obj.gradient(controls, trajectory=traj), fresh)
        assert traj.blocks is None  # the sweep consumed them
        monkeypatch.undo()
        # without blocks the sweep evaluates the same Grams itself
        assert np.array_equal(obj.gradient(controls, trajectory=blockless), fresh)

    def test_keeps_blocks_only_within_the_memory_budget(self, monkeypatch):
        rng = np.random.default_rng(15)
        sys0 = random_system(rng)
        obj = Objective(KERNEL, sys0, num_steps=5)
        controls = 0.3 * rng.normal(size=(5, 6, 2))
        store = 5 * 2 * 6 * 6 * 8
        monkeypatch.setattr(flow, "MAX_BLOCK_BYTES", store)
        kept = integrate_forward(KERNEL, sys0, controls)
        assert kept.blocks.shape == (5, 2, 6, 6)
        assert integrate_forward(KERNEL, sys0, controls, keep_blocks=False).blocks is None
        monkeypatch.setattr(flow, "MAX_BLOCK_BYTES", store - 1)
        over = integrate_forward(KERNEL, sys0, controls)
        assert over.blocks is None
        # both passes move the landmarks by the same K a
        assert np.array_equal(over.positions, kept.positions)
        assert over.energy == kept.energy
        grad_kept = obj.gradient(controls, trajectory=kept)
        grad_over = obj.gradient(controls, trajectory=over)
        assert np.array_equal(grad_over, grad_kept)
        # optimize runs the same over budget
        result = optimize(obj, max_iters=5)
        monkeypatch.undo()
        within = optimize(obj, max_iters=5)
        assert result.trajectory.blocks is None
        assert result.value == within.value
        assert np.array_equal(result.controls, within.controls)

    def test_dropping_the_blocks_changes_no_value(self):
        rng = np.random.default_rng(16)
        sys0 = random_system(rng)
        controls = 0.3 * rng.normal(size=(5, 6, 2))
        kept = integrate_forward(KERNEL, sys0, controls)
        dropped = integrate_forward(KERNEL, sys0, controls, keep_blocks=False)
        assert kept.blocks is not None and dropped.blocks is None
        assert np.array_equal(dropped.positions, kept.positions)
        assert dropped.energy == kept.energy

    def test_a_pass_takes_the_store_from_the_trajectory_that_held_it(self):
        rng = np.random.default_rng(17)
        sys0 = random_system(rng)
        obj = Objective(KERNEL, sys0, num_steps=5)
        controls_a, controls_b = 0.3 * rng.normal(size=(2, 5, 6, 2))
        traj_a = obj.evaluate(controls_a)[3]
        store = traj_a.blocks
        traj_b = obj.evaluate(controls_b)[3]
        assert traj_a.blocks is None and traj_b.blocks is store  # one store, reused
        fresh = obj.gradient(controls_a)
        assert traj_b.blocks is store  # a gradient's own pass keeps its own blocks
        # A's sweep evaluates its Grams again, to the bits of A's own pass
        assert np.array_equal(obj.gradient(controls_a, trajectory=traj_a), fresh)

    @pytest.mark.parametrize("keep_blocks", [True, False], ids=["kept_blocks", "no_blocks"])
    def test_matches_the_difference_form_oracle(self, experiment_kernel, keep_blocks,
                                                monkeypatch):
        # every block on the exp loop, which the oracle matches to rounding;
        # the tabulated sweep is bounded against this one below
        monkeypatch.setattr(flow, "TABLE_MIN_TERMS", 10**9)
        sys0, controls = experiment_case()
        traj = integrate_forward(experiment_kernel, sys0, controls, keep_blocks=keep_blocks)
        assert (traj.blocks is not None) == keep_blocks
        ref = difference_form_gradient(experiment_kernel, sys0, traj)
        grad = Objective(experiment_kernel, sys0, num_steps=16).gradient(controls, trajectory=traj)
        assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_tabulated_sweep_is_within_the_tolerance_of_the_exp_sweep(self, experiment_kernel,
                                                                      monkeypatch):
        sys0, controls = experiment_case()
        traj = integrate_forward(experiment_kernel, sys0, controls, keep_blocks=False)
        obj = Objective(experiment_kernel, sys0, num_steps=16)
        tabulated = obj.gradient(controls, trajectory=traj)  # the sweep's Grams read tables
        monkeypatch.setattr(flow, "TABLE_MIN_TERMS", 10**9)
        summed = obj.gradient(controls, trajectory=traj)
        # first order in the elements' tolerance, and rounding
        bound = sweep_tolerance(experiment_kernel, sys0, traj) + 1e-14 * np.abs(summed).max()
        assert np.all(np.abs(tabulated - summed) <= bound)
        assert not np.array_equal(tabulated, summed)

    def test_far_translation_changes_the_gradient_by_rounding_only(self, experiment_kernel):
        # the sweep contracts about the centroid (drift 6.0e-12 of the sup);
        # about the origin its two terms grow with the shift and cancel to
        # a drift of 6.5e-11
        sys0, controls = experiment_case()
        far = LandmarkSystem(sys0.point_scales, sys0.points + 1e4, sys0.targets + 1e4)
        grad = Objective(experiment_kernel, sys0, num_steps=16).gradient(controls)
        grad_far = Objective(experiment_kernel, far, num_steps=16).gradient(controls)
        assert np.abs(grad_far - grad).max() <= 2e-11 * np.abs(grad).max()


class TestExperimentGram:
    """The landmark Gram of `experiment_case`: 30 landmarks at each of two
    scales, whose three blocks read tables of 20-term slices in one chunk."""

    @pytest.fixture
    def grams(self, experiment_kernel):
        sys0, controls = experiment_case()
        traj = integrate_forward(experiment_kernel, sys0, controls, keep_blocks=False)
        gram = flow.KernelBlocks(experiment_kernel, sys0.point_scales)
        return [(pos, gram.matrix(pos, deriv=True)) for pos in traj.positions]

    def test_is_bitwise_symmetric(self, grams):
        for _, (kmat, dmat) in grams:
            assert np.array_equal(kmat, kmat.T) and np.array_equal(dmat, dmat.T)

    def test_is_bitwise_each_block_read_alone(self, experiment_kernel, grams):
        scales = experiment_case()[0].point_scales
        runs = (slice(0, 30), slice(30, 60))
        for pos, mats in grams:
            for rows in runs:
                for cols in runs:
                    alone = flow.kernel_matrix(experiment_kernel, scales[rows], pos[rows],
                                               scales[cols], pos[cols], deriv=True)
                    assert all(np.array_equal(mat[rows, cols], block)
                               for mat, block in zip(mats, alone))

    def test_is_within_the_tabulation_tolerance_of_the_exp_sum(self, experiment_kernel, grams):
        scales = experiment_case()[0].point_scales
        for pos, mats in grams:
            want = whole_matrix_kernel(experiment_kernel, scales, pos, scales, pos, 1 << 16,
                                       deriv=True, square=True)
            tols = tabulation_tolerance(experiment_kernel, scales, pos, scales, pos)
            for mat, ref, tol in zip(mats, want, tols):
                assert np.all(np.abs(mat - ref) <= tol)
                assert not np.array_equal(mat, ref)


    def test_evaluates_each_unordered_pair_once(self, experiment_kernel, monkeypatch):
        sys0 = experiment_case()[0]
        elements = []
        quintic = flow._quintic
        monkeypatch.setattr(flow, "_quintic",
                            lambda u, *args: elements.append(u.size) or quintic(u, *args))
        gram = flow.KernelBlocks(experiment_kernel, sys0.point_scales)
        gram.matrix(sys0.points, deriv=True)
        # the i <= j pairs of the two 30 x 30 diagonal blocks and the 30 x 30 block between
        assert sum(elements) == 465 + 900 + 465
        assert gram.table_reads == sum(elements) and gram.exp_terms == 0


class TestOptimize:
    def test_descent_property(self):
        rng = np.random.default_rng(5)
        sys0 = random_system(rng)
        obj = Objective(KERNEL, sys0, num_steps=8)
        result = optimize(obj, max_iters=30)
        values = [value for value, *_ in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(values[:-1], values[1:]))
        assert result.value < values[0]

    def test_reaches_high_match_accuracy(self):
        rng = np.random.default_rng(6)
        pts = np.array([[0.0, 0.0], [0.6, 0.1]])
        tgts = pts + np.array([[0.15, 0.05], [-0.1, 0.12]])
        sys0 = LandmarkSystem(np.array([0.1, 2.0]), pts, tgts, weight=50.0)
        obj = Objective(KERNEL, sys0, num_steps=10)
        result = optimize(obj, max_iters=300, tol=1e-12)
        traj = integrate_forward(KERNEL, sys0, result.controls)
        rmse0 = np.sqrt(np.mean((pts - tgts) ** 2))
        rmse = np.sqrt(np.mean((traj.endpoints - tgts) ** 2))
        assert rmse <= 0.05 * rmse0

    def test_zero_weight_keeps_controls_at_zero(self):
        rng = np.random.default_rng(7)
        sys0 = random_system(rng, weight=1e-14)
        obj = Objective(KERNEL, sys0, num_steps=5)
        result = optimize(obj, max_iters=50)
        assert result.value <= 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        sys0 = random_system(rng, num=2)
        perm = np.array([2, 0, 3, 1])
        sys_p = LandmarkSystem(
            sys0.point_scales[perm], sys0.points[perm], sys0.targets[perm]
        )
        res_a = optimize(Objective(KERNEL, sys0, num_steps=6), max_iters=40)
        res_b = optimize(Objective(KERNEL, sys_p, num_steps=6), max_iters=40)
        assert res_a.value == pytest.approx(res_b.value, rel=1e-8)
        assert np.abs(res_a.controls[:, perm, :] - res_b.controls).max() <= 1e-6

    def test_rejects_non_finite_start(self):
        pts = np.random.default_rng(11).normal(size=(4, 2))
        # the match at the zero controls, 1e308 * 4 * 2 * 10^2, overflows
        sys0 = LandmarkSystem(np.array([0.1, 0.1, 2.0, 2.0]), pts, pts + 10.0, weight=1e308)
        obj = Objective(KERNEL, sys0, num_steps=3)
        with pytest.raises(FloatingPointError, match="initial objective"):
            optimize(obj, max_iters=5)

    def test_one_forward_pass_per_line_search_evaluation(self, monkeypatch):
        calls = {"forward": 0, "evaluate": 0, "gradient": 0}

        def counting_forward(*args):
            calls["forward"] += 1
            return integrate_forward(*args)

        class CountingObjective(Objective):
            def evaluate(self, *args, **kwargs):
                calls["evaluate"] += 1
                return super().evaluate(*args, **kwargs)

            def gradient(self, *args, **kwargs):
                calls["gradient"] += 1
                return super().gradient(*args, **kwargs)

        monkeypatch.setattr(registration, "integrate_forward", counting_forward)
        sys0 = random_system(np.random.default_rng(13))
        result = optimize(CountingObjective(KERNEL, sys0, num_steps=6), max_iters=25)
        accepted = len(result.history) - 1
        assert calls["evaluate"] > accepted > 0  # some steps were halved
        # the start is scored through `evaluate` like every trial
        assert calls["forward"] == calls["evaluate"] == result.forward_passes
        assert calls["gradient"] == 1 + accepted == result.gradient_passes
        final = integrate_forward(KERNEL, sys0, result.controls)
        assert np.array_equal(result.trajectory.positions, final.positions)
        assert result.trajectory.energy == final.energy

    def test_at_most_one_trajectory_keeps_kernel_blocks(self, monkeypatch):
        made = []

        def recording_forward(*args):
            # every earlier pass is gone or has released its blocks
            for ref in made:
                traj = ref()
                assert traj is None or traj.blocks is None
            traj = integrate_forward(*args)
            made.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(registration, "integrate_forward", recording_forward)
        sys0 = random_system(np.random.default_rng(13))
        result = optimize(Objective(KERNEL, sys0, num_steps=6), max_iters=25)
        assert result.line_search_halvings > 0
        # a pass stopped early makes no trajectory
        assert result.trials_stopped_early > 0
        assert len(made) == result.forward_passes - result.trials_stopped_early
        assert result.trajectory.blocks is None

    def test_sets_up_one_square_gram_per_objective(self, monkeypatch, forward_stops):
        made = []
        init = flow.KernelBlocks.__init__

        def recording_init(blocks, kernel, scales_i, scales_j=None):
            made.append(scales_j is None)
            init(blocks, kernel, scales_i, scales_j)

        monkeypatch.setattr(flow.KernelBlocks, "__init__", recording_init)
        sys0 = random_system(np.random.default_rng(13))
        obj = Objective(KERNEL, sys0, num_steps=6)
        result = optimize(obj, max_iters=25)
        assert result.forward_passes > 1
        assert made == [True]
        # its Grams: step 0 once, then steps 1-5 of each pass run to the end
        # and steps 1 to i of each pass stopped after step i
        assert result.trials_stopped_early == len(forward_stops) > 0
        full = result.forward_passes - len(forward_stops)
        assert obj.gram.evaluations == 1 + 5 * full + sum(forward_stops)
        # each of three 3 x 3 blocks summed whole by exp
        terms = [KERNEL.slice(lam, mu)[1].size for lam, mu in [(0.1, 0.1), (0.1, 2.0), (2.0, 2.0)]]
        assert obj.gram.exp_terms == obj.gram.evaluations * 9 * sum(terms)
        assert obj.gram.table_reads == 0
