"""Optimal-control landmark registration with adjoint gradients.

The objective is the discretized control energy plus a weighted squared
endpoint mismatch.  Gradients are exact for the discretized problem: a
reverse sweep through the explicit Euler steps (discretize-then-
differentiate), which agrees with the continuous costate equations as the
step count grows.  Optimization uses two-loop L-BFGS with Armijo
backtracking.
"""

from dataclasses import dataclass, field

import numpy as np

from .flow import KernelBlocks, integrate_forward, kernel_matrix

MAX_HALVINGS = 40  # Armijo backtracking halvings before a line search fails


@dataclass
class Objective:
    """Registration objective: energy + weight * sum of squared endpoint errors.

    `gram`, the landmark Gram's `KernelBlocks`, is set up once and serves
    every forward pass.  The passes of `evaluate` also share one store of
    per-step Grams: before a pass writes into it, the trajectory that held
    it loses its blocks, so that trajectory's gradient evaluates its own."""

    kernel: object
    system: object
    num_steps: int = 20

    def __post_init__(self):
        self.gram = KernelBlocks(self.kernel, self.system.point_scales)
        self._store = self._holder = None

    def evaluate(self, controls):
        """Returns (value, energy, match, trajectory): the forward pass of
        `controls` and its score; deterministic for fixed inputs."""
        if self._holder is not None:
            self._holder.blocks = None  # this pass overwrites them
        trajectory = integrate_forward(self.kernel, self.system, controls, True, self.gram,
                                       self._store)
        self._store, self._holder = trajectory.blocks, trajectory
        mismatch = trajectory.endpoints - self.system.targets
        match = self.system.weight * float(np.einsum("pd,pd->", mismatch, mismatch))
        return trajectory.energy + match, trajectory.energy, match, trajectory

    def gradient(self, controls, trajectory=None):
        """Exact gradient of the discretized objective with respect to every
        control vector, by reverse sweep through the Euler steps.

        `trajectory`, if given, must be the forward pass of `controls`; it
        replaces integrating them again.  The sweep reads each step's Gram
        and dK/du from the trajectory's kept blocks, so it evaluates no
        kernel, and then releases the blocks (sets them to None).  For a
        trajectory without blocks it evaluates each step's Gram itself.
        """
        if trajectory is None:
            trajectory = integrate_forward(self.kernel, self.system, controls, True, self.gram)
        system = self.system
        scales = system.point_scales
        blocks = trajectory.blocks
        num_steps = trajectory.num_steps
        dt = trajectory.dt
        grad = np.empty_like(trajectory.controls)
        # costate of the discrete problem: derivative of downstream cost
        # with respect to the step-i positions
        costate = 2.0 * system.weight * (trajectory.endpoints - system.targets)
        for i in range(num_steps - 1, -1, -1):
            pos = trajectory.positions[i]
            ctrl = trajectory.controls[i]
            if blocks is None:
                kmat, dmat = kernel_matrix(self.kernel, scales, pos, deriv=True)
            else:
                kmat, dmat = blocks[i]
            grad[i] = dt * kmat.dot(costate + ctrl)
            # position gradient of b^T K(x) a is 2 sum_q c_pq (x_p - x_q) with
            # c = dK/du * (b_p.a_q + a_p.b_q), that is 2 (x_p sum_q c_pq -
            # (c x)_p); x relative to the centroid keeps the two terms as
            # small as the differences, whatever the translation
            cross = costate.dot(ctrl.T)
            coeff = dmat * (cross + cross.T + ctrl.dot(ctrl.T))
            rel = pos - pos.mean(0)
            costate = costate + 2.0 * dt * (rel * coeff.sum(1)[:, None] - coeff.dot(rel))
        trajectory.blocks = None
        return grad


@dataclass
class OptimizeResult:
    controls: np.ndarray
    value: float
    energy: float
    match: float
    history: list = field(default_factory=list)  # (value, energy, match, step), the start first
    converged: bool = False
    line_search_failed: bool = False
    trajectory: object = None  # forward pass of `controls`
    forward_passes: int = 0
    gradient_passes: int = 0
    line_search_halvings: int = 0
    gradient_sup_norm: float = np.inf  # at the returned controls


def optimize(objective, max_iters=1000, tol=1e-8, memory=10):
    """Minimize the registration objective over control trajectories,
    starting from zero controls.

    Stops on relative objective decrease < tol or gradient sup-norm < tol.
    A failed line search returns the best iterate with a warning flag; a
    starting value that is not finite (say, an overflowing match weight)
    raises FloatingPointError before any sweep, and so does a gradient that
    is not finite, at the start or at an accepted step, or whose squared
    norm overflows.
    Every forward pass goes through `objective.evaluate`, and each accepted
    point's pass feeds its gradient, so the run takes one forward pass per
    evaluation: the start plus one per line-search trial.
    The gradient releases a trajectory's kernel blocks, and a rejected
    trial is dropped before the next trial, so at most one set of blocks is
    alive at a time.
    """
    controls = objective.system.zero_controls(objective.num_steps)
    shape = controls.shape
    x = controls.ravel()
    value, energy, match, trajectory = objective.evaluate(controls)
    if not np.isfinite(value):
        raise FloatingPointError("initial objective value is not finite")
    g = objective.gradient(controls, trajectory=trajectory).ravel()
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("initial gradient is not finite")
    history = [(value, energy, match, 0.0)]
    s_mem, y_mem = [], []
    result = OptimizeResult(
        controls, value, energy, match, history, forward_passes=1, gradient_passes=1
    )
    for _ in range(max_iters):
        if np.abs(g).max() < tol:
            result.converged = True
            break
        # a finite gradient can still overflow these products; that is
        # reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            direction = -_lbfgs_direction(g, s_mem, y_mem)
            descent = direction.dot(g)
            if not descent < 0:  # stale curvature pairs or an overflow: steepest descent
                direction = -g
                descent = -g.dot(g)
        if not np.isfinite(descent):
            raise FloatingPointError("the line search slope g . d is not finite")
        step = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            x_new = x + step * direction
            result.forward_passes += 1
            try:
                value_new, energy_new, match_new, traj_new = objective.evaluate(
                    x_new.reshape(shape)
                )
            except RuntimeError:
                value_new = np.inf
            if value_new <= value + 1e-4 * step * descent:
                accepted = True
                break
            step *= 0.5
            result.line_search_halvings += 1
            traj_new = None  # release the rejected trial's blocks
        if not accepted:
            result.line_search_failed = True
            break
        g_new = objective.gradient(x_new.reshape(shape), trajectory=traj_new).ravel()
        result.gradient_passes += 1
        if not np.all(np.isfinite(g_new)):
            raise FloatingPointError("gradient is not finite")
        s_vec = x_new - x
        y_vec = g_new - g
        if s_vec.dot(y_vec) > 1e-12 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            s_mem.append(s_vec)
            y_mem.append(y_vec)
            if len(s_mem) > memory:
                s_mem.pop(0)
                y_mem.pop(0)
        rel_decrease = (value - value_new) / max(abs(value), 1e-300)
        x, g, trajectory = x_new, g_new, traj_new
        value, energy, match = value_new, energy_new, match_new
        history.append((value, energy, match, step))
        if rel_decrease < tol:
            result.converged = True
            break
    result.controls = x.reshape(shape)
    result.value, result.energy, result.match = value, energy, match
    result.trajectory = trajectory
    result.gradient_sup_norm = float(np.abs(g).max())
    return result


def _lbfgs_direction(g, s_mem, y_mem):
    """Two-loop recursion returning an approximation of H^{-1} g."""
    q = g.copy()
    alphas = []
    for s_vec, y_vec in zip(reversed(s_mem), reversed(y_mem)):
        rho = 1.0 / y_vec.dot(s_vec)
        alpha = rho * s_vec.dot(q)
        alphas.append((alpha, rho, s_vec, y_vec))
        q -= alpha * y_vec
    if s_mem:
        y_last = y_mem[-1]
        q *= s_mem[-1].dot(y_last) / y_last.dot(y_last)
    for alpha, rho, s_vec, y_vec in reversed(alphas):
        beta = rho * y_vec.dot(q)
        q += (alpha - beta) * s_vec
    return q
