"""Experiment configuration: JSON schema, validation, and object builders."""

import copy
import json

import numpy as np

from . import shapes
from .ladder import DiracMeasure, LebesgueMeasure, ScaleLadder, SumDiracMeasure

CONFIG_VERSION = 1

DEFAULTS = {
    "version": CONFIG_VERSION,
    "name": "experiment",
    "ladder": {"s1": 0.1, "s2": 2.0, "num_nodes": 20},
    "measure": {"type": "lebesgue", "sigma": 0.5},
    "kernel": {"backend": "fitted", "num_basis": 20, "num_frequencies": 256},
    "shapes": [],
    "time_steps": 20,
    "weight": 1.0,
    "optimizer": {"method": "lbfgs", "max_iters": 1000, "tol": 1e-8, "memory": 10},
    "grid": {"size": 64, "margin": 0.1},
    "export_scales": "all",
    "seed": 0,
    "output_dir": "msreg_out",
}


class ConfigError(ValueError):
    pass


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


class ExperimentConfig:
    """Validated experiment description; round-trips through JSON."""

    def __init__(self, data=None):
        self.data = _merge(DEFAULTS, data or {})
        self.validate()

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    @classmethod
    def loads(cls, text):
        return cls(json.loads(text))

    def dumps(self):
        return json.dumps(self.data, indent=2, sort_keys=True)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.data == other.data

    def __getitem__(self, key):
        return self.data[key]

    def override(self, assignments):
        """Apply 'dotted.path=json_value' overrides and revalidate."""
        data = copy.deepcopy(self.data)
        for item in assignments:
            if "=" not in item:
                raise ConfigError(f"override {item!r} must be path=value")
            path, raw = item.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            node = data
            keys = path.split(".")
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = value
        return ExperimentConfig(data)

    def validate(self):
        """Check the config and build what it describes; every failure is a
        ConfigError."""
        try:
            self._validate()
        except KeyError as err:
            raise ConfigError(f"missing config key {err}") from err
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err)) from err

    def _validate(self):
        data = self.data
        if data["version"] != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {data['version']}")
        ladder = self.ladder()
        self.measure()
        self.export_scales(ladder)
        steps = data["time_steps"]
        if not isinstance(steps, int) or steps < 1:
            raise ConfigError(f"time_steps must be an integer >= 1, got {steps!r}")
        weight = data["weight"]
        if not isinstance(weight, (int, float)) or not weight > 0:
            raise ConfigError(f"weight must be positive, got {weight!r}")
        for entry in data["shapes"]:
            if "scale" not in entry or "template" not in entry or "target" not in entry:
                raise ConfigError("each shape entry needs scale, template, target")
            if np.abs(ladder.nodes - entry["scale"]).min() > 1e-9:
                raise ConfigError(f"shape scale {entry['scale']} is not a ladder node")
            template = shapes.generate(entry["template"])
            target = shapes.generate(entry["target"])
            if template.shape != target.shape:
                raise ConfigError(
                    f"template/target point counts differ at scale {entry['scale']}"
                )
        backend = data["kernel"]["backend"]
        if backend not in ("fitted", "dirac_closed_form"):
            raise ConfigError(f"unknown kernel backend {backend!r}")
        if backend == "dirac_closed_form" and data["measure"]["type"] != "dirac":
            raise ConfigError("dirac_closed_form backend requires a dirac measure")

    def ladder(self):
        spec = self.data["ladder"]
        if "nodes" in spec:
            return ScaleLadder(np.asarray(spec["nodes"], dtype=float))
        return ScaleLadder.uniform(spec["s1"], spec["s2"], spec["num_nodes"])

    def measure(self):
        spec = self.data["measure"]
        kind = spec["type"]
        if kind == "lebesgue":
            return LebesgueMeasure(spec.get("sigma", 1.0))
        if kind == "dirac":
            return DiracMeasure(spec["s0"], spec.get("sigma", 1.0))
        if kind == "sum_dirac":
            return SumDiracMeasure(spec.get("weight_s1", 1.0), spec.get("weight_s2", 1.0))
        raise ConfigError(f"unknown measure type {kind!r}")

    def landmark_groups(self):
        """[(base_scale, template, target), ...] from the shape entries."""
        return [
            (
                float(entry["scale"]),
                shapes.generate(entry["template"]),
                shapes.generate(entry["target"]),
            )
            for entry in self.data["shapes"]
        ]

    def export_scales(self, ladder):
        spec = self.data["export_scales"]
        if spec == "all":
            return list(ladder.nodes)
        return [ladder.clamp(s) for s in spec]
