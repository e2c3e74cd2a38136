"""Shared fixtures; the experiment-sized kernel objects are built once."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from msreg import ScaleLadder, flow, registration
from msreg.kernel_fit import fit_kernel_table
from msreg.spectral import SpectralGrid, compute_spectral_table

EXPERIMENT_SIGMA = 0.5


@pytest.fixture(scope="session")
def experiment_ladder():
    return ScaleLadder.uniform(0.1, 2.0, 20)


@pytest.fixture(scope="session")
def experiment_spectral(experiment_ladder):
    grid = SpectralGrid.default(experiment_ladder.s1, num=256)
    return compute_spectral_table(experiment_ladder, EXPERIMENT_SIGMA, grid)


@pytest.fixture(scope="session")
def experiment_kernel(experiment_spectral):
    return fit_kernel_table(experiment_spectral)


@pytest.fixture(scope="session")
def small_ladder():
    return ScaleLadder(np.array([0.1, 0.25, 0.45, 0.7, 1.0]))


@pytest.fixture(scope="session")
def small_spectral(small_ladder):
    grid = SpectralGrid(np.linspace(0.0, 4.0 / (np.pi * small_ladder.s1), 160))
    return compute_spectral_table(small_ladder, 1.0, grid)


@pytest.fixture(scope="session")
def small_kernel(small_spectral):
    return fit_kernel_table(small_spectral, num_basis=16)


@pytest.fixture
def forward_stops(monkeypatch):
    """The step after which each forward pass of `registration` stopped
    early (`flow.EnergyAboveBound`), in the order the passes ran."""
    stops = []
    integrate_forward = flow.integrate_forward

    def recording_forward(*args):
        try:
            return integrate_forward(*args)
        except flow.EnergyAboveBound as err:
            stops.append(err.step)
            raise

    monkeypatch.setattr(registration, "integrate_forward", recording_forward)
    return stops
