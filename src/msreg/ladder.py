"""Scale interval discretization and scale measures.

The scale axis is a positive interval [s1, s2] discretized by an increasing
sequence of nodes r_1 < ... < r_{n+1} with r_1 = s1 and r_{n+1} = s2.  Most
constructions in this package are piecewise constant on the resulting
intervals, so the ladder is the shared configuration object they all consume.
"""

from dataclasses import dataclass, field

import numpy as np

# Queries this close outside [s1, s2] are clamped rather than rejected, to
# absorb floating-point ladder arithmetic.
SCALE_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class ScaleLadder:
    """Increasing scale nodes r_1..r_{n+1} on a positive interval."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("ladder needs at least two nodes")
        if nodes[0] <= 0:
            raise ValueError("scales must be positive (s1 > 0)")
        if not np.all(np.isfinite(nodes)) or np.any(np.diff(nodes) <= 0):
            raise ValueError("ladder nodes must be finite and strictly increasing")

    @classmethod
    def uniform(cls, s1, s2, num_nodes):
        """Ladder with `num_nodes` equally spaced nodes from s1 to s2."""
        if not (0 < s1 < s2 < np.inf):
            raise ValueError("need 0 < s1 < s2 < inf")
        return cls(np.linspace(s1, s2, num_nodes))

    @property
    def s1(self):
        return float(self.nodes[0])

    @property
    def s2(self):
        return float(self.nodes[-1])

    @property
    def num_intervals(self):
        return self.nodes.size - 1

    @property
    def widths(self):
        """Interval widths rho_k = r_{k+1} - r_k."""
        return np.diff(self.nodes)

    def clamp(self, lam):
        """Return lam clamped into [s1, s2]; reject excursions beyond tolerance."""
        if not self.s1 - SCALE_CLAMP_TOL <= lam <= self.s2 + SCALE_CLAMP_TOL:
            raise ValueError(f"scale {lam} outside [{self.s1}, {self.s2}]")
        return min(max(lam, self.s1), self.s2)

    def interval_index(self, lam):
        """Index k (0-based) such that lam is in [r_k, r_{k+1}); last interval
        is closed on the right."""
        lam = self.clamp(lam)
        k = int(np.searchsorted(self.nodes, lam, side="right")) - 1
        return min(k, self.num_intervals - 1)


@dataclass(frozen=True)
class DiracMeasure:
    """rho = sigma * delta_{s0}: all scale penalty mass at a single scale."""

    s0: float
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class LebesgueMeasure:
    """rho = sigma^2 * Lebesgue, with constant density weight sigma."""

    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
