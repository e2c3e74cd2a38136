"""Experiment configuration: JSON schema, validation, and object builders."""

import copy
import json

import numpy as np

from . import shapes
from .ladder import DiracMeasure, LebesgueMeasure, ScaleLadder, node_index

CONFIG_VERSION = 1

# The schema: a config may set only these keys (and OPTIONAL_KEYS), each to a
# value of its default's JSON type; export_scales may also be a nonempty list
# of numbers.
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

# Keys DEFAULTS lacks that a config may add, with a value of the type shown:
# explicit ladder nodes, and the atom of a Dirac measure.
OPTIONAL_KEYS = {"ladder.nodes": [], "measure.s0": 0.0}

CHOICES = {
    "measure.type": ("lebesgue", "dirac"),
    "kernel.backend": ("fitted", "dirac_closed_form"),
    "optimizer.method": ("lbfgs",),
}

MINIMUM = {
    "ladder.num_nodes": 2,
    "kernel.num_basis": 1,
    "kernel.num_frequencies": 2,
    "time_steps": 1,
    "optimizer.max_iters": 0,
    "optimizer.memory": 1,
    # the Jacobian's second-order one-sided differences take 3 points per axis
    "grid.size": 3,
    "grid.margin": 0,
    "seed": 0,
    "shapes.num": 1,
}

# Upper bounds on the sizes a run allocates, so that a huge value is a config
# error rather than a MemoryError.  Validation allocates the uniform ladder's
# nodes.  In both tables "shapes.num" stands for each template's and target's
# point count.
MAXIMUM = {
    "ladder.num_nodes": 1000,
    "kernel.num_basis": 200,
    "kernel.num_frequencies": 8192,
    "time_steps": 10000,
    "grid.size": 1024,
    "shapes.num": 10000,
}


# The Lebesgue spectral table holds (ladder nodes)^2 * kernel.num_frequencies
# floats; this caps it at 1 GiB, for a uniform ladder and an explicit one.
MAX_SPECTRAL_FLOATS = 2**27

# The square landmark Gram, its derivative and the gradient's coefficient
# matrix hold P^2 floats each, with P the total landmark count over all
# shapes; this caps P^2 at 1 GiB of floats (P <= 11585).
MAX_GRAM_FLOATS = 2**27


class ConfigError(ValueError):
    pass


def _require_node(ladder, scale, what):
    try:
        node_index(ladder.nodes, scale)
    except KeyError:
        raise ConfigError(f"{what} {scale} is not a ladder node") from None


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _same_type(value, default):
    """JSON type match; an int may stand for a float, a bool never for a number."""
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _check_range(path, value):
    if path in MINIMUM and not value >= MINIMUM[path]:
        raise ConfigError(f"{path} must be >= {MINIMUM[path]}, got {value!r}")
    if path in MAXIMUM and not value <= MAXIMUM[path]:
        raise ConfigError(f"{path} must be <= {MAXIMUM[path]}, got {value!r}")


def _check_schema(node, schema, prefix=""):
    for key, value in node.items():
        path = prefix + key
        if key in schema:
            default = schema[key]
        elif path in OPTIONAL_KEYS and (path != "measure.s0" or node["type"] == "dirac"):
            default = OPTIONAL_KEYS[path]
        else:
            raise ConfigError(f"unknown config key {path!r}")
        if path == "export_scales":
            if value != "all" and not (
                isinstance(value, list) and value and all(_same_type(s, 0.0) for s in value)
            ):
                raise ConfigError(
                    f'export_scales must be "all" or a nonempty list of numbers, got {value!r}'
                )
            continue
        if not _same_type(value, default):
            raise ConfigError(f"{path} must be {type(default).__name__}, got {value!r}")
        if isinstance(default, dict):
            _check_schema(value, default, path + ".")
        elif path in CHOICES and value not in CHOICES[path]:
            raise ConfigError(f"{path} must be one of {CHOICES[path]}, got {value!r}")
        else:
            _check_range(path, value)


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
                if not isinstance(node, dict):
                    raise ConfigError(f"override {path!r} goes through a non-object")
            node[keys[-1]] = value
        return ExperimentConfig(data)

    def validate(self):
        """Check the config and build what it describes; every failure is a
        ConfigError."""
        try:
            self._validate()
        except KeyError as err:
            raise ConfigError(f"missing config key {err}") from err
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(str(err)) from err

    def _validate(self):
        data = self.data
        _check_schema(data, DEFAULTS)
        if data["version"] != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {data['version']}")
        name = data["name"]
        if name in ("", ".", "..") or "/" in name or "\0" in name:
            raise ConfigError(f"name must be a single plain path component, got {name!r}")
        ladder = self.ladder()
        measure = self.measure()
        export_scales = self.export_scales(ladder)
        # each export scale names its output files
        names = [f"{scale:g}" for scale in export_scales]
        if len(set(names)) < len(names):
            raise ConfigError(f"export scales must have distinct file names, got {names}")
        if isinstance(measure, DiracMeasure):
            ladder.clamp(measure.s0)
        else:
            # the fitted kernel holds the ladder nodes only
            for scale in export_scales:
                _require_node(ladder, scale, "export scale")
            floats = ladder.nodes.size**2 * data["kernel"]["num_frequencies"]
            if floats > MAX_SPECTRAL_FLOATS:
                raise ConfigError(
                    f"spectral table of {floats} floats (ladder nodes squared times "
                    f"kernel.num_frequencies) exceeds {MAX_SPECTRAL_FLOATS}"
                )
        weight = data["weight"]
        if not weight > 0:
            raise ConfigError(f"weight must be positive, got {weight!r}")
        num_points = 0
        for entry in data["shapes"]:
            if "scale" not in entry or "template" not in entry or "target" not in entry:
                raise ConfigError("each shape entry needs scale, template, target")
            _require_node(ladder, entry["scale"], "shape scale")
            for spec in (entry["template"], entry["target"]):
                if isinstance(spec, dict) and "num" in spec:
                    if not _same_type(spec["num"], 0):
                        raise ConfigError(f"shapes.num must be int, got {spec['num']!r}")
                    _check_range("shapes.num", spec["num"])
            template = shapes.generate(entry["template"])
            target = shapes.generate(entry["target"])
            if template.shape != target.shape:
                raise ConfigError(
                    f"template/target point counts differ at scale {entry['scale']}"
                )
            num_points += template.shape[0]
            if num_points**2 > MAX_GRAM_FLOATS:
                raise ConfigError(
                    f"landmark Gram of {num_points}^2 floats (total landmarks squared) "
                    f"exceeds {MAX_GRAM_FLOATS}"
                )
        backend = data["kernel"]["backend"]
        if backend == "dirac_closed_form" and not isinstance(measure, DiracMeasure):
            raise ConfigError("dirac_closed_form backend requires a dirac measure")

    def ladder(self):
        spec = self.data["ladder"]
        if "nodes" in spec:
            return ScaleLadder(np.asarray(spec["nodes"], dtype=float))
        return ScaleLadder.uniform(spec["s1"], spec["s2"], spec["num_nodes"])

    def measure(self):
        spec = self.data["measure"]
        if spec["type"] == "dirac":
            return DiracMeasure(spec["s0"], spec["sigma"])
        return LebesgueMeasure(spec["sigma"])

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
