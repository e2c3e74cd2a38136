"""Scale ladder and scale measure contracts."""

import numpy as np
import pytest

from msreg.ladder import DiracMeasure, LebesgueMeasure, ScaleLadder


class TestScaleLadder:
    def test_uniform_endpoints(self):
        lad = ScaleLadder.uniform(0.1, 2.0, 20)
        assert lad.s1 == pytest.approx(0.1)
        assert lad.s2 == pytest.approx(2.0)
        assert lad.nodes.size == 20
        assert lad.num_intervals == 19
        assert np.all(lad.widths > 0)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            ScaleLadder(np.array([1.0]))

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            ScaleLadder(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            ScaleLadder.uniform(-0.1, 2.0, 5)

    def test_rejects_nonincreasing_nodes(self):
        with pytest.raises(ValueError):
            ScaleLadder(np.array([0.1, 0.1, 0.3]))
        with pytest.raises(ValueError):
            ScaleLadder(np.array([0.1, 0.5, 0.3]))

    def test_clamp_tolerates_tiny_excursions(self):
        lad = ScaleLadder.uniform(0.1, 2.0, 5)
        assert lad.clamp(0.1 - 1e-13) == pytest.approx(0.1)
        assert lad.clamp(2.0 + 1e-13) == pytest.approx(2.0)
        assert lad.clamp(1.3) == pytest.approx(1.3)

    def test_clamp_rejects_large_excursions(self):
        lad = ScaleLadder.uniform(0.1, 2.0, 5)
        with pytest.raises(ValueError):
            lad.clamp(0.05)
        with pytest.raises(ValueError):
            lad.clamp(2.1)

    def test_interval_index(self):
        lad = ScaleLadder(np.array([0.1, 0.2, 0.3, 0.4]))
        assert lad.interval_index(0.1) == 0
        assert lad.interval_index(0.15) == 0
        assert lad.interval_index(0.2) == 1
        assert lad.interval_index(0.35) == 2
        # last interval is closed on the right
        assert lad.interval_index(0.4) == 2


class TestMeasures:
    def test_dirac_requires_positive_weight(self):
        with pytest.raises(ValueError):
            DiracMeasure(0.5, sigma=0.0)
        assert DiracMeasure(0.5).sigma == 1.0

    def test_lebesgue_requires_positive_density(self):
        with pytest.raises(ValueError):
            LebesgueMeasure(0.0)
        assert LebesgueMeasure().sigma == 1.0
