"""Shape generators and experiment configuration handling."""

from pathlib import Path

import numpy as np
import pytest

from msreg import shapes
from msreg.config import ConfigError, ExperimentConfig
from msreg.ladder import DiracMeasure, LebesgueMeasure

CONFIG_DIR = Path(__file__).parent.parent / "configs"


class TestShapes:
    def test_circle_geometry(self):
        pts = shapes.circle(num=16, center=(1.0, -2.0), radius=0.5)
        assert pts.shape == (16, 2)
        radii = np.hypot(pts[:, 0] - 1.0, pts[:, 1] + 2.0)
        assert np.abs(radii - 0.5).max() <= 1e-12

    def test_ellipse_geometry(self):
        pts = shapes.ellipse(num=12, semi_axes=(2.0, 1.0))
        val = (pts[:, 0] / 2.0) ** 2 + pts[:, 1] ** 2
        assert np.abs(val - 1.0).max() <= 1e-12

    def test_bumpy_ellipse_stays_near_the_ellipse(self):
        smooth = shapes.ellipse(num=40)
        bumpy = shapes.bumpy_ellipse(num=40, amplitude=0.15)
        assert np.abs(np.linalg.norm(bumpy - smooth, axis=1)).max() <= 0.15 + 1e-12
        assert not np.allclose(bumpy, smooth)

    def test_flower_radius_range(self):
        pts = shapes.flower(num=200, petals=5, inner_radius=0.45, outer_radius=1.2)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert radii.min() >= 0.45 - 1e-9
        assert radii.max() <= 1.2 + 1e-9
        assert radii.max() == pytest.approx(1.2, abs=1e-3)

    def test_flower_phase_rotates(self):
        a = shapes.flower(num=30, phase=0.0)
        b = shapes.flower(num=30, phase=2.0 * np.pi / 5.0)
        assert not np.allclose(a, b)
        assert np.hypot(a[:, 0], a[:, 1]) == pytest.approx(
            np.hypot(b[:, 0], b[:, 1]), abs=1e-9
        )

    def test_schematic_human_parts_and_params(self):
        base = shapes.schematic_human(num=30)
        assert base.shape[0] >= 24
        raised = shapes.schematic_human(num=30, arm_angle=1.2)
        assert not np.allclose(base, raised)
        # arms move, head stays
        assert np.allclose(base[:10], raised[:10])
        squashed = shapes.schematic_human(num=30, head_squash=0.4)
        assert squashed[:, 1].max() < base[:, 1].max()

    def test_generate_dispatch(self):
        pts = shapes.generate({"type": "circle", "num": 8, "radius": 2.0})
        assert pts.shape == (8, 2)
        pts = shapes.generate(
            {"type": "ellipse", "num": 8, "semi_axes": [2.0, 1.0], "center": [1, 1]}
        )
        assert pts.shape == (8, 2)

    def test_generate_unknown_type(self):
        with pytest.raises(ValueError):
            shapes.generate({"type": "pentagon"})

    def test_generate_does_not_mutate_spec(self):
        spec = {"type": "circle", "num": 8}
        shapes.generate(spec)
        assert spec == {"type": "circle", "num": 8}


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg["ladder"] == {"s1": 0.1, "s2": 2.0, "num_nodes": 20}
        assert cfg["measure"] == {"type": "lebesgue", "sigma": 0.5}
        assert cfg["shapes"] == []
        assert "base_scales" not in cfg.data
        assert cfg["time_steps"] == 20
        assert cfg["weight"] == 1.0
        assert cfg["kernel"]["num_basis"] == 20

    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig({"name": "trip", "weight": 2.5})
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg
        assert ExperimentConfig.loads(cfg.dumps()) == cfg

    def test_override_dotted_paths(self):
        cfg = ExperimentConfig()
        out = cfg.override(["optimizer.max_iters=50", "name=quick", "weight=0.5"])
        assert out["optimizer"]["max_iters"] == 50
        assert out["name"] == "quick"
        assert out["weight"] == 0.5
        # original untouched
        assert cfg["optimizer"]["max_iters"] == 1000

    def test_override_requires_assignment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().override(["oops"])

    def test_rejects_bad_version(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"version": 99})

    def test_rejects_off_ladder_base_scale(self):
        # a shape's scale is its landmarks' base scale
        entry = {
            "template": {"type": "circle", "num": 5},
            "target": {"type": "circle", "num": 5},
        }
        ExperimentConfig({"shapes": [dict(entry, scale=0.1)]})
        with pytest.raises(ConfigError):
            ExperimentConfig({"shapes": [dict(entry, scale=0.1234)]})

    def test_rejects_incomplete_shape_entry(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                {"shapes": [{"scale": 0.1, "template": {"type": "circle", "num": 5}}]}
            )

    def test_rejects_shape_count_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                {
                    "shapes": [
                        {
                            "scale": 0.1,
                            "template": {"type": "circle", "num": 5},
                            "target": {"type": "circle", "num": 6},
                        }
                    ]
                }
            )

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"kernel": {"backend": "magic"}})

    def test_closed_form_backend_needs_dirac_measure(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"kernel": {"backend": "dirac_closed_form"}})
        cfg = ExperimentConfig(
            {
                "kernel": {"backend": "dirac_closed_form"},
                "measure": {"type": "dirac", "s0": 0.5},
            }
        )
        assert isinstance(cfg.measure(), DiracMeasure)

    def test_measure_builders(self):
        assert isinstance(ExperimentConfig().measure(), LebesgueMeasure)
        assert ExperimentConfig().measure().sigma == 0.5
        with pytest.raises(ConfigError):
            ExperimentConfig({"measure": {"type": "uniform"}}).measure()

    def test_ladder_builders(self):
        lad = ExperimentConfig().ladder()
        assert lad.nodes.size == 20
        assert lad.s1 == pytest.approx(0.1) and lad.s2 == pytest.approx(2.0)
        entry = {
            "scale": 0.5,
            "template": {"type": "circle", "num": 5},
            "target": {"type": "circle", "num": 5},
        }
        cfg = ExperimentConfig({"ladder": {"nodes": [0.1, 0.5, 2.0]}, "shapes": [entry]})
        assert list(cfg.ladder().nodes) == [0.1, 0.5, 2.0]
        with pytest.raises(ConfigError):
            ExperimentConfig({"ladder": {"nodes": [0.1, 0.6, 2.0]}, "shapes": [entry]})

    def test_landmark_groups(self):
        cfg = ExperimentConfig(
            {
                "shapes": [
                    {
                        "scale": 0.1,
                        "template": {"type": "circle", "num": 6},
                        "target": {"type": "circle", "num": 6, "radius": 1.2},
                    }
                ]
            }
        )
        groups = cfg.landmark_groups()
        assert len(groups) == 1
        scale, template, target = groups[0]
        assert scale == 0.1
        assert template.shape == target.shape == (6, 2)

    def test_export_scales(self):
        cfg = ExperimentConfig()
        lad = cfg.ladder()
        assert cfg.export_scales(lad) == list(lad.nodes)
        cfg2 = ExperimentConfig({"export_scales": [0.1, 2.0]})
        assert cfg2.export_scales(lad) == [0.1, 2.0]


class TestBundledConfigs:
    def test_all_bundled_configs_validate(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) == 5
        for path in paths:
            cfg = ExperimentConfig.load(path)
            groups = cfg.landmark_groups()
            assert groups, path.name
            base = [g[0] for g in groups]
            assert set(base) <= set(cfg.ladder().nodes.tolist()), path.name

    def test_flower_config_uses_rotated_target(self):
        cfg = ExperimentConfig.load(CONFIG_DIR / "example3_flower_rotate.json")
        groups = cfg.landmark_groups()
        scales = [g[0] for g in groups]
        assert set(scales) == {0.1, 2.0}
