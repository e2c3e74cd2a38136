"""Seeded workload generators for the msreg benchmark.

Each workload turns a seed into one experiment config (plain JSON data); the
program under test only ever sees that config.  Shape parameters are drawn
from fixed, narrow ranges so that every seed asks for about the same amount
of work; landmark counts, grid sizes and iteration caps are fixed per
workload.
"""

from dataclasses import dataclass

import numpy as np

# Reserved for checking a claimed gain on inputs nobody tuned against.  The
# benchmark accepts it like any other seed; do not use it while developing.
HELD_OUT_SEED = 90210

LEBESGUE_KERNEL = {
    "ladder": {"s1": 0.1, "s2": 2.0, "num_nodes": 20},
    "measure": {"type": "lebesgue", "sigma": 0.5},
    "kernel": {"backend": "fitted", "num_basis": 20, "num_frequencies": 256},
}

DIRAC_KERNEL = {
    "ladder": {"s1": 0.1, "s2": 2.0, "num_nodes": 20},
    "measure": {"type": "dirac", "s0": 0.5},
    "kernel": {"backend": "dirac_closed_form"},
}


def _circle(num):
    return {"type": "circle", "num": num}


def _bumpy_ellipse(rng, num):
    return {
        "type": "bumpy_ellipse",
        "num": num,
        "semi_axes": [float(rng.uniform(1.49, 1.51)), float(rng.uniform(0.79, 0.81))],
        "amplitude": float(rng.uniform(0.148, 0.152)),
        "phase": float(rng.uniform(0.0, 0.01)),
    }


def _flower(rng, num):
    return {
        "type": "flower",
        "num": num,
        "petals": 5,
        "inner_radius": float(rng.uniform(0.595, 0.605)),
        "outer_radius": float(rng.uniform(0.995, 1.005)),
        "phase": float(rng.uniform(0.0, 0.01)),
    }


def _groups(rng, target, num=30):
    return [
        {"scale": scale, "template": _circle(num), "target": target(rng, num)}
        for scale in (0.1, 2.0)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fitted: bool  # Lebesgue measure: spectral table + kernel fit in every verb
    rmse_bound: float  # endpoint_rmse_max must stay below this
    base: dict
    target: object  # rng, num -> target shape spec

    def config(self, seed, output_dir):
        """The experiment config for one seed."""
        rng = np.random.default_rng(seed)
        return {
            "name": self.name,
            **self.base,
            "shapes": _groups(rng, self.target),
            "seed": int(seed),
            "output_dir": str(output_dir),
        }

    def warmup_config(self, output_dir):
        """A tiny config of the same measure that runs the same code paths."""
        kernel = (
            {
                "ladder": {"s1": 0.1, "s2": 2.0, "num_nodes": 6},
                "measure": {"type": "lebesgue", "sigma": 0.5},
                "kernel": {"backend": "fitted", "num_basis": 12, "num_frequencies": 112},
            }
            if self.fitted
            else {**DIRAC_KERNEL, "ladder": {"s1": 0.1, "s2": 2.0, "num_nodes": 6}}
        )
        return {
            "name": f"{self.name}-warmup",
            **kernel,
            "shapes": _groups(np.random.default_rng(0), self.target, num=8),
            "time_steps": 4,
            "optimizer": {"method": "lbfgs", "max_iters": 3, "tol": 1e-8, "memory": 10},
            "grid": {"size": 8, "margin": 0.1},
            "export_scales": [0.1, 2.0],
            "output_dir": str(output_dir),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="register-lebesgue",
            why="kernel fits and the landmark solver do the work (100 L-BFGS "
            "iterations, just short of convergence); grid export is tiny",
            fitted=True,
            rmse_bound=0.1,
            base={
                **LEBESGUE_KERNEL,
                "time_steps": 16,
                "optimizer": {"method": "lbfgs", "max_iters": 100, "tol": 1e-8, "memory": 10},
                "grid": {"size": 16, "margin": 0.1},
                "export_scales": [0.1, 2.0],
            },
            target=_bumpy_ellipse,
        ),
        Workload(
            name="export-lebesgue",
            why="tall grid transports, inverse and residual maps, log-Jacobians "
            "and CSV output dominate; registration is capped and cheap",
            fitted=True,
            rmse_bound=0.3,
            base={
                **LEBESGUE_KERNEL,
                "time_steps": 5,
                "optimizer": {"method": "lbfgs", "max_iters": 5, "tol": 1e-8, "memory": 10},
                "grid": {"size": 64, "margin": 0.1},
                "export_scales": [0.1, 1.0, 2.0],
            },
            target=_bumpy_ellipse,
        ),
        Workload(
            name="dirac-closed-form",
            why="closed-form Dirac kernel: no spectral table or fit, and a "
            "few-term mixture recomputed on every slice",
            fitted=False,
            rmse_bound=0.2,
            base={
                **DIRAC_KERNEL,
                "time_steps": 20,
                "optimizer": {"method": "lbfgs", "max_iters": 40, "tol": 1e-8, "memory": 10},
                "grid": {"size": 32, "margin": 0.1},
                "export_scales": [0.1, 0.5, 2.0],
            },
            target=_flower,
        ),
    )
}
