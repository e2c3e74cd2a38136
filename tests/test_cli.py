"""Command-line interface, exercised in process via main()."""

import csv
import inspect
import json
import random
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from msreg import cli, flow, kernel_fit, shapes, spectral
from msreg.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_THRESHOLD,
    build_kernel,
    main,
)
from msreg.config import (
    DEFAULTS,
    MAX_GRAM_FLOATS,
    MAX_SPECTRAL_FLOATS,
    ConfigError,
    ExperimentConfig,
)
from msreg.kernel_fit import HankelBasis, KernelTable, fit_kernel_table
from msreg.registration import Objective
from msreg.scale_kernels import DiracPiecewiseKernel
from oracles import write_field_csv

SMALL_CONFIG = {
    "name": "cli-test",
    "ladder": {"s1": 0.1, "s2": 2.0, "num_nodes": 6},
    "measure": {"type": "lebesgue", "sigma": 0.5},
    "kernel": {"backend": "fitted", "num_basis": 12, "num_frequencies": 112},
    "shapes": [
        {
            "scale": 0.1,
            "template": {"type": "circle", "num": 8},
            "target": {"type": "circle", "num": 8, "radius": 1.15},
        },
        {
            "scale": 2.0,
            "template": {"type": "circle", "num": 8},
            "target": {"type": "circle", "num": 8, "radius": 1.15},
        },
    ],
    "time_steps": 6,
    "optimizer": {"method": "lbfgs", "max_iters": 30, "tol": 1e-8, "memory": 10},
    "grid": {"size": 12, "margin": 0.1},
    "export_scales": [0.1, 2.0],
}

DIRAC_CONFIG = {
    "name": "cli-dirac",
    "ladder": {"s1": 0.1, "s2": 2.0, "num_nodes": 6},
    "measure": {"type": "dirac", "s0": 0.48},
    "kernel": {"backend": "dirac_closed_form"},
    "shapes": SMALL_CONFIG["shapes"],
    "time_steps": 6,
    "optimizer": {"method": "lbfgs", "max_iters": 20, "tol": 1e-8, "memory": 10},
    "grid": {"size": 10, "margin": 0.1},
    "export_scales": [0.1, 2.0],
}


def write_config(tmp_path, data, name="config.json"):
    data = dict(data)
    data["output_dir"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_dir_of(capsys):
    return Path(capsys.readouterr().out.strip().splitlines()[-1])


# Code point ranges that drawn text takes its characters from, each range
# equally likely: printable ASCII (twice), control characters, Latin-1, the
# rest of the Basic Multilingual Plane on either side of the surrogates, and
# the astral planes.
TEXT_RANGES = [(0x20, 0x7E), (0x20, 0x7E), (0x00, 0x1F), (0xA0, 0xFF), (0x100, 0xD7FF),
               (0xE000, 0xFFFD), (0x10000, 0x10FFFF)]

FLOAT_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
               -1.7976931348623157e308]


def draw_text(rng, max_size):
    """A string of up to `max_size` characters from TEXT_RANGES."""
    return "".join(chr(rng.randint(*rng.choice(TEXT_RANGES)))
                   for _ in range(rng.randint(0, max_size)))


def draw_float(rng, lo=None, hi=None):
    """A float in [lo, hi]: an endpoint, a zero or a uniform draw.  With no
    bounds, an edge value (NaN and the infinities among them), a draw from
    [-10, 10] or any 64-bit pattern."""
    roll = rng.random()
    if lo is not None:
        if roll < 0.2:
            return rng.choice([v for v in (lo, hi, 0.0, -0.0) if lo <= v <= hi])
        return rng.uniform(lo, hi)
    if roll < 0.3:
        return rng.choice(FLOAT_EDGES)
    if roll < 0.65:
        return rng.uniform(-10.0, 10.0)
    return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]


def draw_int(rng):
    """An integer of up to 8, 16, 32, 64 or 128 bits, of either sign."""
    bound = 2 ** rng.choice([8, 16, 32, 64, 128])
    return rng.randint(-bound, bound)


class TestArgumentHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.json"), "check"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "check"]) == EXIT_CONFIG

    def test_invalid_override(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "--set", "nonsense", "check"]) == EXIT_CONFIG

    def test_semantically_bad_config(self, tmp_path, capsys):
        bad = dict(SMALL_CONFIG)
        bad["shapes"] = [dict(SMALL_CONFIG["shapes"][0], scale=0.123)]
        path = write_config(tmp_path, bad)
        assert main(["--config", str(path), "check"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "config, override",
        [
            pytest.param(SMALL_CONFIG, "ladder.s1=-1", id="s1"),
            pytest.param(SMALL_CONFIG, "measure.sigma=-1", id="sigma"),
            pytest.param(SMALL_CONFIG, "export_scales=[3.0]", id="export_scales"),
            pytest.param(DIRAC_CONFIG, "export_scales=[]", id="export_scales_empty"),
            pytest.param(SMALL_CONFIG, "export_scales=[0.15]", id="export_scale_off_node"),
            pytest.param(SMALL_CONFIG, "time_steps=0", id="time_steps"),
            pytest.param(SMALL_CONFIG, "weight=-1", id="weight"),
            pytest.param(SMALL_CONFIG, "measure.type=dirac", id="no_s0"),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.15, "template": {"type": "circle", "num": 8},'
                ' "target": {"type": "circle", "num": 8}}]',
                id="shape_scale",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": "a", "template": {"type": "circle", "num": 8},'
                ' "target": {"type": "circle", "num": 8}}]',
                id="shape_scale_type",
            ),
            pytest.param(DIRAC_CONFIG, "measure.s0=5", id="s0_off_ladder"),
            pytest.param(SMALL_CONFIG, "grid.size=2", id="grid_size_2"),
            pytest.param(SMALL_CONFIG, "grid.size=1", id="grid_size_1"),
            pytest.param(SMALL_CONFIG, "grid.size=0", id="grid_size_0"),
            pytest.param(SMALL_CONFIG, "grid.size=2.5", id="grid_size_float"),
            pytest.param(SMALL_CONFIG, "optimizer.method=gd", id="method_gd"),
            pytest.param(SMALL_CONFIG, "optimizer.method=LBFGS", id="method_case"),
            pytest.param(SMALL_CONFIG, "optimiser.max_iters=5", id="misspelt_key"),
            pytest.param(SMALL_CONFIG, "time_steps=true", id="time_steps_bool"),
            pytest.param(SMALL_CONFIG, "weight=true", id="weight_bool"),
            pytest.param(SMALL_CONFIG, "optimizer.tol=abc", id="tol_string"),
            pytest.param(SMALL_CONFIG, "optimizer.max_iters=2.5", id="max_iters_float"),
            pytest.param(SMALL_CONFIG, "kernel.num_basis=0", id="num_basis"),
            pytest.param(SMALL_CONFIG, "kernel.num_frequencies=1", id="num_frequencies"),
            pytest.param(SMALL_CONFIG, "seed=-1", id="seed"),
            pytest.param(SMALL_CONFIG, f"ladder.num_nodes={10**12}", id="num_nodes_huge"),
            pytest.param(SMALL_CONFIG, f"ladder.nodes=[0.1, {10**400}]", id="node_overflow"),
            pytest.param(SMALL_CONFIG, "ladder.s2=Infinity", id="s2_infinite"),
            pytest.param(SMALL_CONFIG, "measure.sigma=NaN", id="sigma_nan"),
            pytest.param(DIRAC_CONFIG, "measure.s0=NaN", id="s0_nan"),
            pytest.param(SMALL_CONFIG, "measure.type=sum_dirac", id="sum_dirac"),
            pytest.param(SMALL_CONFIG, "name=../../x", id="name_escape"),
            pytest.param(SMALL_CONFIG, "time_steps.x=1", id="through_number"),
            pytest.param(SMALL_CONFIG, "shapes.0.scale=0.5", id="through_list"),
            pytest.param(DIRAC_CONFIG, "export_scales=[true]", id="export_scale_bool"),
            # two export scales with one file name, deformation_0.1.csv
            pytest.param(DIRAC_CONFIG, "export_scales=[0.1, 0.1]", id="export_scales_equal"),
            pytest.param(
                DIRAC_CONFIG,
                "export_scales=[0.1, 0.1000000001, 2.0]",
                id="export_scales_one_name",
            ),
            pytest.param(SMALL_CONFIG, "grid.size=200000", id="grid_size_huge"),
            pytest.param(SMALL_CONFIG, "time_steps=10001", id="time_steps_huge"),
            pytest.param(SMALL_CONFIG, "kernel.num_frequencies=8193", id="num_frequencies_huge"),
            pytest.param(SMALL_CONFIG, "kernel.num_basis=201", id="num_basis_huge"),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": 10001},'
                ' "target": {"type": "circle", "num": 10001}}]',
                id="shape_num_huge",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": 0},'
                ' "target": {"type": "circle", "num": 0}}]',
                id="shape_num_zero",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": [1]},'
                ' "target": {"type": "circle", "num": [1]}}]',
                id="shape_num_list",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": "a"},'
                ' "target": {"type": "circle", "num": "a"}}]',
                id="shape_num_string",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": 2.5},'
                ' "target": {"type": "circle", "num": 2.5}}]',
                id="shape_num_float",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": true},'
                ' "target": {"type": "circle", "num": true}}]',
                id="shape_num_bool",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": 8, "center": [1]},'
                ' "target": {"type": "circle", "num": 8}}]',
                id="shape_center_short",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "ellipse", "num": 8},'
                ' "target": {"type": "ellipse", "num": 8, "semi_axes": [1]}}]',
                id="shape_semi_axes_short",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": 8,'
                ' "center": [1, 2, 3]}, "target": {"type": "circle", "num": 8}}]',
                id="shape_center_long",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": 8},'
                ' "target": {"type": "circle", "num": 8, "radius": NaN}}]',
                id="shape_radius_nan",
            ),
            # a list radius broadcasts: to no point, or to a stack of contours
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": 1, "radius": []},'
                ' "target": {"type": "circle", "num": 1, "radius": []}}]',
                id="shape_radius_empty",
            ),
            pytest.param(
                SMALL_CONFIG,
                'shapes=[{"scale": 0.1, "template": {"type": "circle", "num": 3,'
                ' "radius": [[1], [2]]}, "target": {"type": "circle", "num": 3,'
                ' "radius": [[1], [2]]}}]',
                id="shape_radius_nested",
            ),
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, request, config, override):
        path = write_config(tmp_path, config)
        assert main(["--config", str(path), "--set", override, "register"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        if request.node.callspec.id.startswith("shape_num"):
            assert "shapes.num must be" in err
        # no run directory, inside output_dir or anywhere a name could lead
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert not list(tmp_path.parent.glob("x-*"))

    @pytest.mark.parametrize(
        "ladder",
        [
            pytest.param({"s1": 0.1, "s2": 2.0, "num_nodes": 1000}, id="uniform"),
            pytest.param(
                {"s1": 0.1, "s2": 2.0, "num_nodes": 6,
                 "nodes": np.linspace(0.1, 2.0, 5000).tolist()},
                id="explicit",
            ),
        ],
    )
    def test_oversized_spectral_table_is_a_config_error(self, tmp_path, capsys, ladder):
        # 1000^2 nodes x 8192 frequencies would be a 65.5 GB spectral table
        kernel = dict(SMALL_CONFIG["kernel"], num_frequencies=8192)
        path = write_config(tmp_path, dict(SMALL_CONFIG, ladder=ladder, kernel=kernel))
        tracemalloc.start()
        try:
            code = main(["--config", str(path), "fit-kernel"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert "spectral table" in capsys.readouterr().err
        assert peak < 2**24

    def test_spectral_table_cap_is_inclusive(self):
        # 512^2 nodes x 512 frequencies is exactly MAX_SPECTRAL_FLOATS
        data = dict(SMALL_CONFIG, kernel=dict(SMALL_CONFIG["kernel"], num_frequencies=512))
        data["ladder"] = {"s1": 0.1, "s2": 2.0, "num_nodes": 512}
        assert 512**3 == MAX_SPECTRAL_FLOATS
        ExperimentConfig(data)
        data["ladder"] = {"s1": 0.1, "s2": 2.0, "num_nodes": 513}
        with pytest.raises(ConfigError, match="spectral table"):
            ExperimentConfig(data)

    @staticmethod
    def circles(*counts):
        return [
            {"scale": 0.1, "template": {"type": "circle", "num": num},
             "target": {"type": "circle", "num": num, "radius": 1.1}}
            for num in counts
        ]

    def test_oversized_landmark_gram_is_a_config_error(self, tmp_path, capsys):
        # 20000 landmarks would need Grams of 3.2 GB each
        path = write_config(tmp_path, dict(SMALL_CONFIG, shapes=self.circles(10000, 10000)))
        tracemalloc.start()
        try:
            code = main(["--config", str(path), "register"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert "landmark Gram" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert peak < 2**24

    def test_landmark_gram_cap_is_inclusive(self):
        assert 11585**2 <= MAX_GRAM_FLOATS < 11586**2
        ExperimentConfig(dict(SMALL_CONFIG, shapes=self.circles(10000, 1585)))
        with pytest.raises(ConfigError, match="landmark Gram"):
            ExperimentConfig(dict(SMALL_CONFIG, shapes=self.circles(10000, 1586)))

    def test_oversized_controls_file_is_a_config_error(self, tmp_path, capsys):
        # a controls file is capped like the config's shapes: the forward
        # pass of 11586 landmarks would form Grams of 1.07 GB each
        path = write_config(tmp_path, DIRAC_CONFIG)
        num = 11586
        points = [[k / num, (k % 2) / num] for k in range(num)]
        controls = {
            "point_scales": [0.1] * num,
            "points": points,
            "targets": points,
            "weight": 1.0,
            "controls": [[[0.0, 0.0]] * num],
        }
        controls_path = tmp_path / "controls.json"
        controls_path.write_text(json.dumps(controls))
        args = ["--config", str(path), "export-fields", "--controls", str(controls_path)]
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert "landmark Gram" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*/deformation_*.csv"))
        assert peak < 2**24

    @staticmethod
    def known_paths():
        def dotted(node, prefix=""):
            for key, val in node.items():
                yield prefix + key
                if isinstance(val, dict):
                    yield from dotted(val, prefix + key + ".")

        # output_dir is left out: a drawn string would put run directories
        # wherever it points
        known = [p for p in dotted(DEFAULTS) if p != "output_dir"]
        return known + ["ladder.nodes", "measure.s0"]

    @staticmethod
    def fuzz(tmp_path, tmp_path_factory, capsys, draw, verbs, exits, num_examples,
             documents=False, config=DIRAC_CONFIG):
        """Every verb, run in turn on the config (the Dirac one by default)
        for each of `num_examples` examples, ends in one of `exits`.  The
        examples come from `draw(rng)` on one seeded `random.Random`, so
        they are the same on every run.  An example is a list of --set
        overrides or, with `documents`, a document written to the file that
        "{document}" in a verb names: bytes as they are, anything else as
        JSON."""
        path = write_config(tmp_path, config)
        document = tmp_path_factory.mktemp("documents") / "document"
        rng = random.Random(0)
        for _ in range(num_examples):
            example = draw(rng)
            args = ["--config", str(path)]
            if not documents:
                for item in example:
                    args += ["--set", item]
            elif isinstance(example, bytes):
                document.write_bytes(example)
            else:
                document.write_text(json.dumps(example))
            for verb in verbs:
                verb = [arg.format(document=document) for arg in verb]
                assert main(args + verb) in exits, (verb, example)
            capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]

    def test_fuzzed_overrides_end_in_ok_or_config_error(self, tmp_path, tmp_path_factory,
                                                         capsys):
        known = self.known_paths()
        misspelt = ["optimiser.max_iters", "ladder.num_node", "grids.size", "Seed",
                    "measure.s00", "kernel.basis", ""]
        through = ["time_steps.x", "shapes.0.scale", "name.first", "export_scales.0",
                   "ladder.num_nodes.y", "measure.type.z", "kernel.backend.q"]
        edges = [0, -1, 1, 2, 999, 1000, 1001, 2**31, 2**63, 2**64, 10**30, 10**400,
                -10**400, 1e300, -1e300, 5e-324]
        words = ["", "all", "dirac", "fitted", "lbfgs", ".", "..", "a/b", "../x"]

        def number(rng):
            return rng.choice([lambda: rng.randint(-3, 30), lambda: draw_int(rng),
                               lambda: draw_float(rng), lambda: rng.choice(edges)])()

        def document(rng, leaves):
            # a JSON value of at most `leaves` leaves, nested in lists and dicts
            roll = rng.random()
            if leaves > 1 and roll < 0.2:
                return [document(rng, leaves // 3) for _ in range(rng.randint(0, 3))]
            if leaves > 1 and roll < 0.4:
                return {draw_text(rng, 6): document(rng, leaves // 3)
                        for _ in range(rng.randint(0, 3))}
            return rng.choice([lambda: None, lambda: rng.random() < 0.5, lambda: number(rng),
                               lambda: draw_text(rng, 8), lambda: rng.choice(words)])()

        def assignment(rng):
            path = rng.choice(known if rng.random() < 0.5 else known + misspelt + through)
            # numbers twice as often as documents, so that runs often get past validation
            roll = rng.random()
            if roll < 0.2:
                value = draw_text(rng, 8)
            elif roll < 0.73:
                value = json.dumps(number(rng))
            else:
                value = json.dumps(document(rng, 6))
            return f"{path}={value}"

        self.fuzz(tmp_path, tmp_path_factory, capsys,
                  lambda rng: [assignment(rng) for _ in range(rng.randint(1, 2))],
                  [["fit-kernel"]], (EXIT_OK, EXIT_CONFIG), num_examples=400)

    def test_fuzzed_register_and_export_end_in_a_documented_code(self, tmp_path,
                                                                   tmp_path_factory, capsys):
        # validation comes before any verb and the test above fuzzes it, so
        # these draws aim at configs that pass it: known paths and numbers,
        # with the sizes of the work (steps, grid, iterations, nodes, basis,
        # frequencies) small enough that an example takes milliseconds
        sizes = {"time_steps", "grid.size", "optimizer.max_iters", "ladder.num_nodes",
                 "kernel.num_basis", "kernel.num_frequencies"}
        known = self.known_paths()
        words = ["all", "dirac", "lebesgue", "fitted", "dirac_closed_form"]

        def number(rng):
            return rng.choice([lambda: rng.randint(-3, 30), lambda: draw_float(rng),
                               lambda: draw_float(rng, 0.0, 3.0)])()

        def assignment(rng):
            path = rng.choice(known)
            if path in sizes:
                value = rng.randint(-1, 12)
            else:
                value = rng.choice([lambda: number(rng), lambda: rng.choice(words),
                                    lambda: [number(rng) for _ in range(rng.randint(1, 3))]])()
            return f"{path}={json.dumps(value)}"

        self.fuzz(tmp_path, tmp_path_factory, capsys,
                  lambda rng: [assignment(rng) for _ in range(rng.randint(1, 2))],
                  [["register"], ["export-fields", "--svg"]],
                  (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), num_examples=150)

    def test_fuzzed_shape_specs_end_in_ok_or_config_error(self, tmp_path, tmp_path_factory,
                                                            capsys):
        # each generator's parameters, and one type that names none
        params = {
            kind: list(inspect.signature(getattr(shapes, kind)).parameters)
            for kind in ("circle", "ellipse", "bumpy_ellipse", "flower", "schematic_human")
        }
        params["spiral"] = ["num", "center", "radius"]
        edges = [np.nan, np.inf, -np.inf, 1e308, -1e308, True, False]
        words = ["", "a", "1", "1.5", "NaN", "circle"]

        def number(rng):
            return rng.choice([lambda: rng.randint(-3, 40), lambda: draw_float(rng, -3.0, 3.0),
                               lambda: rng.choice(edges)])()

        def value(rng, pair):
            # a list, a number or a word; a pair parameter draws lists more often
            roll = rng.random()
            if roll < (0.5 if pair else 0.33):
                return [number(rng) for _ in range(rng.randint(0, 3))]
            return number(rng) if roll < 0.75 else rng.choice(words)

        def spec(rng, kind):
            # each parameter drawn one time in five, so that some specs are valid
            drawn = {"type": kind}
            for name in params[kind]:
                if rng.random() < 0.2:
                    drawn[name] = value(rng, name in ("center", "semi_axes"))
            return drawn

        def assignment(rng):
            kind = rng.choice(sorted(params))
            entry = {"scale": 0.1, "template": spec(rng, kind), "target": spec(rng, kind)}
            return f"shapes={json.dumps([entry])}"

        self.fuzz(tmp_path, tmp_path_factory, capsys,
                  lambda rng: [assignment(rng) for _ in range(rng.randint(1, 2))],
                  [["fit-kernel"]], (EXIT_OK, EXIT_CONFIG), num_examples=80)

    def test_fuzzed_controls_files_end_in_a_documented_code(self, tmp_path,
                                                              tmp_path_factory, capsys):
        edges = [np.nan, np.inf, -np.inf, 1e308, -1.0, 0.0, True]
        words = ["", "a", "0.1", "NaN"]

        def array(shape, number):
            if not shape:
                return number()
            return [array(shape[1:], number) for _ in range(shape[0])]

        def junk(rng):
            return rng.choice([lambda: None, lambda: rng.choice(words), lambda: rng.choice(edges),
                               lambda: [draw_float(rng, -2.0, 2.0)
                                        for _ in range(rng.randint(0, 2))]])()

        def document(rng):
            # a well-formed document with at most one key dropped, replaced
            # by junk, nested one level deeper, cut short, or with its first
            # number replaced by an edge value
            steps, num = rng.randint(1, 2), rng.randint(1, 3)

            def finite():
                return draw_float(rng, -2.0, 2.0)

            doc = {
                "point_scales": array((num,), lambda: rng.choice([0.1, 2.0, 0.5])),
                "points": array((num, 2), finite),
                "targets": array((num, 2), finite),
                "controls": array((steps, num, 2), finite),
                "weight": finite(),
            }
            key = rng.choice(["controls", "points", "targets", "point_scales", "weight"])
            how = rng.choice(["keep", "edge", "junk", "nest", "cut", "drop"])
            if how == "drop":
                del doc[key]
            elif how == "junk":
                doc[key] = junk(rng)
            elif how == "nest":
                doc[key] = [doc[key]]
            elif how == "cut" and isinstance(doc[key], list):
                doc[key] = doc[key][:-1]
            elif how == "edge":
                node, index = doc, key
                while isinstance(node[index], list) and node[index]:
                    node, index = node[index], 0
                node[index] = rng.choice(edges)
            return doc

        self.fuzz(tmp_path, tmp_path_factory, capsys, document,
                  [["export-fields", "--controls", "{document}"]],
                  (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), num_examples=70, documents=True)

    def test_fuzzed_kernel_tables_end_in_a_documented_code(self, tmp_path, tmp_path_factory,
                                                            capsys):
        # a valid table of the shape scales, 0.1 and 2.0, with 2 basis terms
        beta = np.array([[[1.0, 0.5], [0.3, 0.1]], [[0.3, 0.1], [1.0, 0.5]]])
        table = KernelTable(np.array([0.1, 2.0]), beta, HankelBasis(np.array([0.3, 1.0])))
        table_path = tmp_path_factory.mktemp("table") / "table.bin"
        table.save_binary(table_path)
        valid = table_path.read_bytes()
        values = np.frombuffer(valid, dtype="<f8", offset=20)  # scales, taus, beta

        def mutation(rng):
            kind = rng.choice(["header", "length", "value", "asymmetric", "scale"])
            if kind == "header":
                return kind, rng.randint(0, 3), rng.choice([0, -1, 2**31 - 1])
            if kind == "length":
                return kind, 0, rng.choice([-9, -8, -1, 1, 8, 16])
            if kind == "value":
                return kind, rng.randrange(values.size), rng.choice(
                    ["negate", 1e300, 5e-324, np.nan, np.inf, -np.inf])
            if kind == "asymmetric":
                return kind, rng.randint(0, 1), 0
            return kind, rng.randint(0, 1), rng.choice([0.15, 0.5, 3.0])

        def document(rng):
            header = list(struct.unpack_from("<iiii", valid, 4))
            data, length = values.copy(), len(valid)
            for kind, index, value in (mutation(rng) for _ in range(rng.randint(1, 2))):
                if kind == "header":
                    header[index] = value
                elif kind == "length":
                    length += value
                elif kind == "value":
                    data[index] = -data[index] if value == "negate" else value
                    if index >= 4:  # beta[k, l, q]: its mirror beta[l, k, q] too
                        k, l, q = np.unravel_index(index - 4, beta.shape)
                        data[4 + np.ravel_multi_index((l, k, q), beta.shape)] = data[index]
                elif kind == "asymmetric":
                    data[6 + index] += 0.25  # beta[0, 1, index], not beta[1, 0, index]
                else:  # a scale off the ladder, or off the shapes' scales
                    data[index] = value
            blob = valid[:4] + struct.pack("<iiii", *header) + data.astype("<f8").tobytes()
            return blob[:length].ljust(length, b"\x00")

        self.fuzz(tmp_path, tmp_path_factory, capsys, document,
                  [["--set", "optimizer.max_iters=3", "register", "--kernel-table",
                    "{document}"]],
                  (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), num_examples=80,
                  documents=True, config=SMALL_CONFIG)

    @pytest.mark.parametrize(
        "verb",
        [
            pytest.param(["export-fields", "--controls", "{tmp}/missing.json"],
                         id="controls_missing"),
            pytest.param(["export-fields", "--controls", "{tmp}/no_scales.json"],
                         id="controls_no_scales"),
            pytest.param(["export-fields", "--controls", "{tmp}/points_3d.json"],
                         id="controls_points_3d"),
            pytest.param(["export-fields", "--controls", "{tmp}/points_1d.json"],
                         id="controls_points_1d"),
            pytest.param(["export-fields", "--controls", "{tmp}/scales_2d.json"],
                         id="controls_scales_2d"),
            pytest.param(["export-fields", "--controls", "{tmp}/nan_control.json"],
                         id="controls_nan_control"),
            pytest.param(["export-fields", "--controls", "{tmp}/inf_point.json"],
                         id="controls_inf_point"),
            pytest.param(["export-fields", "--controls", "{tmp}/nan_target.json"],
                         id="controls_nan_target"),
            pytest.param(["register", "--kernel-table", "{tmp}/foreign.bin"],
                         id="table_foreign"),
            pytest.param(["register", "--kernel-table", "{tmp}/asymmetric.bin"],
                         id="table_asymmetric"),
            pytest.param(["register", "--kernel-table", "{tmp}/no_terms.bin"],
                         id="table_no_terms"),
            pytest.param(["register", "--kernel-table", "{tmp}/nan_width.bin"],
                         id="table_nan_width"),
            pytest.param(["register", "--kernel-table", "{tmp}/inf_coefficient.bin"],
                         id="table_inf_coefficient"),
            pytest.param(["register", "--kernel-table", "{tmp}/huge_header.bin"],
                         id="table_huge_header"),
            pytest.param(["register", "--kernel-table", "{tmp}/tiny_width.bin"],
                         id="table_tiny_width"),
            pytest.param(["register", "--kernel-table", "{tmp}/dim_zero.bin"],
                         id="table_dim_zero"),
            pytest.param(["register", "--kernel-table", "{tmp}/dim_negative.bin"],
                         id="table_dim_negative"),
            pytest.param(["register", "--kernel-table", "{tmp}/dim_huge.bin"],
                         id="table_dim_huge"),
            pytest.param(["register", "--kernel-table", "{tmp}/table.bin"],
                         id="table_lacks_shape_scale"),
            pytest.param(["export-fields", "--kernel-table", "{tmp}/table.bin",
                          "--controls", "{tmp}/controls.json"],
                         id="table_lacks_export_scale"),
        ],
    )
    def test_bad_input_files_are_config_errors(self, tmp_path, capsys, verb):
        # a Dirac config may export at 0.15, which the one-scale table lacks
        path = write_config(tmp_path, dict(DIRAC_CONFIG, export_scales=[0.15]))
        controls = {
            "point_scales": [0.1],
            "points": [[0.0, 0.0]],
            "targets": [[0.1, 0.0]],
            "weight": 1.0,
            "controls": [[[0.0, 0.0]]],
        }
        (tmp_path / "controls.json").write_text(json.dumps(controls))
        # consistent among themselves, but not planar or not one scale per point
        for name, changes in (
            ("points_3d", {"points": [[0.0, 0.0, 0.0]], "targets": [[0.1, 0.0, 0.0]],
                           "controls": [[[0.0, 0.0, 0.0]]]}),
            ("points_1d", {"points": [[0.0]], "targets": [[0.1]], "controls": [[[0.0]]]}),
            ("scales_2d", {"point_scales": [[0.1]]}),
        ):
            (tmp_path / f"{name}.json").write_text(json.dumps(dict(controls, **changes)))
        # well shaped, with one value that is not finite
        non_finite = {
            "nan_control": {"controls": [[[np.nan, 0.0]]]},
            "inf_point": {"points": [[np.inf, 0.0]]},
            "nan_target": {"targets": [[0.1, np.nan]]},
        }
        for name, changes in non_finite.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(dict(controls, **changes)))
        del controls["point_scales"]
        (tmp_path / "no_scales.json").write_text(json.dumps(controls))
        (tmp_path / "foreign.bin").write_bytes(b"XXXX" + b"\x00" * 32)
        table = KernelTable(np.array([0.1]), np.ones((1, 1, 1)), HankelBasis(np.array([0.5])))
        table.save_binary(tmp_path / "table.bin")
        beta = np.arange(8.0).reshape(2, 2, 2)
        asymmetric = KernelTable(np.array([0.1, 2.0]), beta, HankelBasis(np.array([0.5, 1.0])))
        asymmetric.save_binary(tmp_path / "asymmetric.bin")
        # symmetric tables of both shape scales that `save_binary` cannot
        # write, since their basis or coefficients are invalid
        inf_beta = np.ones((2, 2, 2))
        inf_beta[0, 0, 1] = np.inf
        for name, taus, beta in (
            ("no_terms", [], np.ones((2, 2, 0))),
            ("nan_width", [0.5, np.nan], np.ones((2, 2, 2))),
            ("inf_coefficient", [0.5, 1.0], inf_beta),
            # a valid width whose rate 1 / (2 tau^2) overflows
            ("tiny_width", [0.5, 1e-300], np.ones((2, 2, 2))),
        ):
            header = struct.pack("<4siiii", b"MSKT", 1, 2, 2, len(taus))
            values = np.concatenate([[0.1, 2.0], taus, beta.ravel()]).astype("<f8")
            (tmp_path / f"{name}.bin").write_bytes(header + values.tobytes())
        # valid tables of both shape scales, but for another dimension
        for name, dim in (("dim_zero", 0), ("dim_negative", -1), ("dim_huge", 2**31 - 1)):
            header = struct.pack("<4siiii", b"MSKT", 1, dim, 2, 2)
            values = np.concatenate([[0.1, 2.0], [0.5, 1.0], np.ones(8)]).astype("<f8")
            (tmp_path / f"{name}.bin").write_bytes(header + values.tobytes())
        # a header that claims 2^30 scales, 8 GiB of them, in a 300-byte file
        header = struct.pack("<4siiii", b"MSKT", 1, 2, 2**30, 1)
        (tmp_path / "huge_header.bin").write_bytes(header.ljust(300, b"\x00"))
        args = [arg.format(tmp=tmp_path) for arg in verb]
        tracemalloc.start()
        try:
            code = main(["--config", str(path)] + args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert peak < 2**24
        err = capsys.readouterr().err
        assert "config error" in err
        for name, changes in non_finite.items():
            if args[-1].endswith(f"/{name}.json"):
                (key,) = changes
                assert f"{key} holds a value that is not finite" in err
        if "/dim_" in args[-1]:
            assert "dimension" in err


class TestFitKernel:
    def test_dirac_backend_writes_summary_only(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_OK
        root = run_dir_of(capsys)
        summary = json.loads((root / "kernel_summary.json").read_text())
        assert summary == {"backend": "dirac_closed_form", "fitted": False}
        manifest = json.loads((root / "manifest.json").read_text())
        assert "kernel_summary.json" in manifest["files"]
        assert "config.json" in manifest["files"]

    def test_lebesgue_backend_writes_tables(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_OK
        root = run_dir_of(capsys)
        for name in (
            "spectral_table.bin",
            "kernel_table.bin",
            "kernel_table.csv",
            "fit_report.json",
            "manifest.json",
            "config.json",
        ):
            assert (root / name).exists(), name
        report = json.loads((root / "fit_report.json").read_text())
        assert report["max_relative_residual"] <= 1e-2

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CONFIG)
        runs = []
        for _ in range(2):
            for verb in (["fit-kernel"], ["register"], ["export-fields", "--svg"]):
                assert main(["--config", str(path), *verb]) == EXIT_OK
            root = run_dir_of(capsys)
            runs.append((root, {f.name: f.read_bytes() for f in root.iterdir()}))
        (root, first), (root2, second) = runs
        assert root2 == root
        assert "shapes_2.svg" in first and "residual_2.csv" in first
        assert second.keys() == first.keys()
        for name, blob in first.items():
            assert second[name] == blob, name

    def test_starved_basis_trips_the_threshold(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CONFIG)
        code = main(
            ["--config", str(path), "--set", "kernel.num_basis=3", "fit-kernel"]
        )
        assert code == EXIT_THRESHOLD
        assert "exceeds" in capsys.readouterr().err

    def test_solver_failure_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        assemble = spectral._assemble_coefficients

        def singular_above_zero(ladder, sigma, xis):
            lower, diag, upper = assemble(ladder, sigma, xis)
            diag[:, xis > 0.0] = 0.0
            return lower, diag, upper

        monkeypatch.setattr(spectral, "_assemble_coefficients", singular_above_zero)
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: solver failure at frequency index 1" in err

    def test_override_changes_run_dir(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_OK
        root = run_dir_of(capsys)
        assert main(["--config", str(path), "--set", "weight=2.0", "fit-kernel"]) == EXIT_OK
        root2 = run_dir_of(capsys)
        assert root != root2


class TestRegister:
    def test_register_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        root = run_dir_of(capsys)
        summary = json.loads((root / "register_summary.json").read_text())
        assert summary["value"] >= 0
        assert set(summary["endpoint_rmse"]) == {"0.1", "2"}
        hist = (root / "history.csv").read_text().strip().splitlines()
        assert hist[0] == "iter,value,energy,match,step"
        assert len(hist) >= 2
        controls = json.loads((root / "controls.json").read_text())
        assert np.asarray(controls["controls"]).shape == (6, 16, 2)

    def test_summary_counts_the_kernel_work_of_the_forward_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        summary = json.loads((run_dir_of(capsys) / "register_summary.json").read_text())
        kernel = build_kernel(ExperimentConfig(DIRAC_CONFIG))[0]
        terms = [kernel.slice(lam, mu)[1].size for lam, mu in [(0.1, 0.1), (0.1, 2.0), (2.0, 2.0)]]
        # 6 steps per pass, each of three 8 x 8 blocks summed whole by exp
        per_pass = 6 * 64 * sum(terms)
        assert summary["kernel_exp_terms"] == summary["forward_passes"] * per_pass
        assert summary["kernel_table_reads"] == 0

    def test_history_rows_format(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        root = run_dir_of(capsys)
        with open(root / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "value", "energy", "match", "step"]
        assert rows[1][0] == "0" and rows[1][4] == "0.0"
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(len(rows) - 1)]
        assert all(len(row) == 5 for row in rows)

    def test_register_reduces_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        main(["--config", str(path), "register"])
        root = run_dir_of(capsys)
        summary = json.loads((root / "register_summary.json").read_text())
        hist = (root / "history.csv").read_text().strip().splitlines()
        first_value = float(hist[1].split(",")[1])
        assert summary["value"] < first_value

    @pytest.mark.parametrize(
        "radius, swept",
        [
            # the match term fits in a double but its gradient overflows
            pytest.param(1.15, True, id="gradient_overflows"),
            # the match term itself overflows, so no sweep runs on it
            pytest.param(3.0, False, id="value_overflows"),
        ],
    )
    def test_overflowing_weight_is_a_numerical_error(self, tmp_path, capsys, radius, swept):
        shapes = [
            dict(group, target=dict(group["target"], radius=radius))
            for group in DIRAC_CONFIG["shapes"]
        ]
        path = write_config(tmp_path, dict(DIRAC_CONFIG, shapes=shapes))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", str(path), "--set", "weight=1e308", "register"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        if not swept:
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_gradient_whose_square_overflows_mid_run_is_a_numerical_error(self, tmp_path,
                                                                            capsys):
        # a valid table with one huge coefficient: the start and its gradient
        # are finite, but g . g overflows, which no Armijo trial can pass
        beta = np.array([[[1e300, 0.5], [0.3, 0.1]], [[0.3, 0.1], [1.0, 0.5]]])
        table = KernelTable(np.array([0.1, 2.0]), beta, HankelBasis(np.array([0.3, 1.0])))
        table.save_binary(tmp_path / "table.bin")
        path = write_config(tmp_path, SMALL_CONFIG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", str(path), "--set", "optimizer.max_iters=3", "register",
                         "--kernel-table", str(tmp_path / "table.bin")])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_register_with_prefit_kernel_table(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_OK
        root = run_dir_of(capsys)
        table = root / "kernel_table.bin"
        code = main(
            ["--config", str(path), "register", "--kernel-table", str(table)]
        )
        assert code == EXIT_OK
        root2 = run_dir_of(capsys)
        assert (root2 / "register_summary.json").exists()


    def test_prefit_kernel_table_gives_the_same_bytes(self, tmp_path, capsys):
        # without --kernel-table the verbs fit only the pairs they read; each
        # is bitwise the pair of fit-kernel's table
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_OK
        table = str(run_dir_of(capsys) / "kernel_table.bin")
        names = ["history.csv", "controls.json", "register_summary.json", "fields_summary.json",
                 "deformation_0.1.csv", "residual_2.csv"]
        runs = []
        for extra in ([], ["--kernel-table", table]):
            for verb in ("register", "export-fields"):
                assert main(["--config", str(path), verb] + extra) == EXIT_OK
            root = run_dir_of(capsys)
            runs.append({name: (root / name).read_bytes() for name in names})
        assert runs[0] == runs[1]

    def test_each_verb_fits_the_pairs_it_reads(self, tmp_path, capsys, monkeypatch):
        solves = []

        def counted(*args, **kwargs):
            table = fit_kernel_table(*args, **kwargs)
            solves.append(table.report["lp_solves"])
            return table

        monkeypatch.setattr(cli, "fit_kernel_table", counted)
        # a 6-node ladder (0.1, 0.48, ..., 2.0) has 21 pairs.  The shapes'
        # (0, 5) follows the diagonals and row 0; the export's (1, 5) ends row 1
        path = write_config(tmp_path, dict(SMALL_CONFIG, export_scales=[0.48, 2.0]))
        for verb in ("fit-kernel", "register", "export-fields", "check"):
            assert main(["--config", str(path), verb]) == EXIT_OK
        assert solves == [21, 6 + 5, 6 + 5 + 4, 21]
        controls = run_dir_of(capsys) / "controls.json"
        assert main(["--config", str(path), "--set", "export_scales=[0.86]", "export-fields",
                     "--controls", str(controls)]) == EXIT_OK
        # node 2 with nodes 0 and 5: the diagonals, then rows 0 to 2
        assert solves[-1] == 6 + 5 + 4 + 3

    def test_lp_failure_past_the_pairs_read_fails_only_the_full_fit(self, tmp_path, capsys,
                                                                     monkeypatch):
        solve, calls = kernel_fit._solve_minimax, []

        def failing_past_row_0(model, target, lower, upper):
            calls.append(1)
            if len(calls) > 6 + 5:  # pair (1, 2) of the 6-node ladder
                raise RuntimeError("minimax LP failed: stub")
            return solve(model, target, lower, upper)

        monkeypatch.setattr(kernel_fit, "_solve_minimax", failing_past_row_0)
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_NUMERICAL
        assert "minimax LP failed: stub" in capsys.readouterr().err
        for verb in ("register", "export-fields"):
            calls.clear()
            assert main(["--config", str(path), verb]) == EXIT_OK
            assert len(calls) == 6 + 5


class TestExportFields:
    def test_requires_controls(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "export-fields"]) == EXIT_CONFIG
        assert "controls" in capsys.readouterr().err

    def test_missing_controls_fail_before_any_fit(self, tmp_path, capsys, monkeypatch):
        fits = []
        monkeypatch.setattr(cli, "fit_kernel_table", lambda *args, **kwargs: fits.append(1))
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "export-fields"]) == EXIT_CONFIG
        assert "no controls found" in capsys.readouterr().err
        assert fits == []

    @pytest.mark.parametrize(
        "point_scales, export_scales, missing",
        [
            ([0.1, 0.3], [0.1, 2.0], "the kernel has no scale 0.3 (controls point_scales)"),
            # the fit reaches the export's node 0.86 only
            ([0.3, 0.3], [0.86], "the kernel has no scale 0.3 (controls point_scales)"),
            # the config holds a fitted kernel's export scales to its nodes
            ([0.1, 2.0], [2.0, 0.3], "export scale 0.3 is not a ladder node"),
        ],
        ids=["controls", "export_scales", "no_node"],
    )
    def test_off_ladder_scale_of_a_fitted_kernel_is_a_config_error(
        self, tmp_path, capsys, point_scales, export_scales, missing
    ):
        path = write_config(tmp_path, dict(SMALL_CONFIG, export_scales=export_scales))
        controls = {
            "point_scales": point_scales,
            "points": [[0.0, 0.0], [0.5, 0.0]],
            "targets": [[0.1, 0.0], [0.5, 0.1]],
            "weight": 1.0,
            "controls": [[[0.0, 0.0], [0.0, 0.0]]],
        }
        (tmp_path / "controls.json").write_text(json.dumps(controls))
        code = main(["--config", str(path), "export-fields", "--controls",
                     str(tmp_path / "controls.json")])
        assert code == EXIT_CONFIG
        assert missing in capsys.readouterr().err

    def test_export_after_register(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        capsys.readouterr()
        assert main(["--config", str(path), "export-fields"]) == EXIT_OK
        root = run_dir_of(capsys)
        for scale in ("0.1", "2"):
            assert (root / f"deformation_{scale}.csv").exists()
            assert (root / f"residual_{scale}.csv").exists()
        summary = json.loads((root / "fields_summary.json").read_text())
        # the written residuals compose to the last deformation exactly
        assert summary["reconstruction_sup_error"] == 0.0
        assert set(summary["folded_cells"]) == {"0.1", "2"}
        lines = (root / "deformation_0.1.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,psi_x,psi_y,log_jac"
        assert len(lines) == 1 + 10 * 10

        def table(name):
            return np.loadtxt(root / name, delimiter=",", skiprows=1)

        deformations = {s: table(f"deformation_{s}.csv") for s in ("0.1", "2")}
        assert np.array_equal(table("residual_0.1.csv"), deformations["0.1"], equal_nan=True)
        # later residuals start on the previous deformed grid, and their
        # log-Jacobian is the chain-rule difference
        residual = table("residual_2.csv")
        assert np.array_equal(residual[:, :2], deformations["0.1"][:, 2:4])
        assert np.array_equal(residual[:, 2:4], deformations["2"][:, 2:4])
        log_jac = deformations["2"][:, 4] - deformations["0.1"][:, 4]
        assert np.array_equal(residual[:, 4], log_jac, equal_nan=True)
        # the smallest Jacobian determinant of each deformation
        for scale, rows in deformations.items():
            assert summary["folded_cells"][scale] == 0
            assert summary["min_jacobian"][scale] == pytest.approx(
                np.exp(rows[:, 4].min()), rel=1e-12
            )

    @pytest.mark.parametrize(
        "data",
        [dict(DIRAC_CONFIG, export_scales=[0.1, 0.48, 2.0]), SMALL_CONFIG],
        ids=["dirac", "fitted"],
    )
    def test_csv_files_are_the_fields_written_row_by_row(self, tmp_path, capsys, monkeypatch,
                                                         data):
        path = write_config(tmp_path, data)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        capsys.readouterr()
        # spelled a few rows at a time, so that rows cross chunk boundaries
        monkeypatch.setattr(flow, "CSV_ROWS", 7)
        assert main(["--config", str(path), "export-fields", "--svg"]) == EXIT_OK
        root = run_dir_of(capsys)
        # the fields again, from the library, and a plain writer of their values
        config = ExperimentConfig.load(root / "config.json")
        blob = json.loads((root / "controls.json").read_text())
        system = flow.LandmarkSystem(
            blob["point_scales"], blob["points"], blob["targets"], blob["weight"]
        )
        kernel = build_kernel(config)[0]
        trajectory = flow.integrate_forward(kernel, system, np.asarray(blob["controls"]))
        bbox = flow.bounding_box(np.vstack([system.points, system.targets]),
                                 config["grid"]["margin"])
        grid, shape, spacing = flow.make_grid(bbox, config["grid"]["size"])
        deformations = [
            flow.log_jacobian(flow.transport_grid(kernel, trajectory, system, s, grid, shape),
                              spacing)
            for s in config.export_scales(config.ladder())
        ]
        residuals = flow.residual_maps(grid, deformations)
        written = sorted(p.name for p in root.glob("*_*.csv"))
        assert len(written) == 2 * len(deformations)
        for kind, fields in (("deformation", deformations), ("residual", residuals)):
            for field in fields:
                name = f"{kind}_{field.scale:g}.csv"
                write_field_csv(tmp_path / name, field)
                assert (root / name).read_bytes() == (tmp_path / name).read_bytes(), name
                written.remove(name)
        assert written == []

    def test_export_never_inverts_a_map(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        capsys.readouterr()
        transport = flow._transport

        def forward_only(kernel, trajectory, system, lam, points, reverse=False):
            assert not reverse, "backward transport"
            return transport(kernel, trajectory, system, lam, points)

        def forbidden(*args, **kwargs):
            raise AssertionError("inverse_map called")

        monkeypatch.setattr(flow, "_transport", forward_only)
        monkeypatch.setattr(flow, "inverse_map", forbidden)
        assert main(["--config", str(path), "export-fields", "--svg"]) == EXIT_OK

    def test_out_of_memory_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        capsys.readouterr()

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr(flow, "_transport", exhausted)
        assert main(["--config", str(path), "export-fields"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == (
            "numerical failure: out of memory: Unable to allocate 1.00 TiB for an array\n"
        )

    def test_export_with_explicit_controls_and_svg(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        root = run_dir_of(capsys)
        controls = root / "controls.json"
        other = write_config(tmp_path, DIRAC_CONFIG, name="config2.json")
        code = main(
            [
                "--config",
                str(other),
                "export-fields",
                "--controls",
                str(controls),
                "--svg",
            ]
        )
        assert code == EXIT_OK
        root2 = run_dir_of(capsys)
        svg = (root2 / "shapes_0.1.svg").read_text()
        assert svg.startswith("<svg") and "polygon" in svg


    @staticmethod
    def one_landmark_run(tmp_path, target, margin=0.1, point=(0.0, 0.0)):
        config = dict(DIRAC_CONFIG, grid={"size": 10, "margin": margin})
        path = write_config(tmp_path, config)
        controls = {
            "point_scales": [0.1],
            "points": [list(point)],
            "targets": [target],
            "weight": 1.0,
            "controls": [[[0.05, 0.0]]],
        }
        controls_path = tmp_path / "controls.json"
        controls_path.write_text(json.dumps(controls))
        return main(["--config", str(path), "export-fields", "--controls", str(controls_path)])

    def test_landmarks_on_one_line_get_a_grid_of_nonzero_height(self, tmp_path, capsys):
        assert self.one_landmark_run(tmp_path, [0.1, 0.0]) == EXIT_OK
        root = run_dir_of(capsys)
        xmin, xmax, ymin, ymax = json.loads((root / "fields_summary.json").read_text())[
            "grid"
        ]["bbox"]
        assert xmax - xmin == pytest.approx(0.12) and ymax - ymin == pytest.approx(0.02)
        for name in ("deformation_0.1.csv", "deformation_2.csv", "residual_2.csv"):
            rows = (root / name).read_text().strip().splitlines()[1:]
            assert all(np.isfinite(float(row.split(",")[4])) for row in rows), name

    @pytest.mark.parametrize(
        "point, target, margin, message",
        [
            pytest.param((0.0, 0.0), [0.0, 0.0], 0.1, "zero width or height",
                         id="points_coincide"),
            pytest.param((0.0, 0.0), [0.1, 0.0], 0.0, "zero width or height",
                         id="one_line_no_margin"),
            # positive widths whose grid steps round to 0: a subnormal box,
            # and a box one ulp wide at 1e10
            pytest.param((0.0, 0.0), [5e-324, 5e-324], 0.1, "do not strictly increase",
                         id="subnormal_box"),
            pytest.param((1e10, 1e10), [1e10 + 2e-6, 1e10 + 2e-6], 0.1,
                         "do not strictly increase", id="box_of_one_ulp"),
            # nodes that strictly increase by steps of 1 or 2 ulps
            pytest.param((1e10, 1e10), [1e10 + 2e-5, 1e10 + 2e-5], 0.1,
                         "not evenly spaced", id="box_of_uneven_ulps"),
        ],
    )
    def test_grid_box_of_zero_height_is_a_config_error(self, tmp_path, capsys, point, target,
                                                        margin, message):
        assert self.one_landmark_run(tmp_path, target, margin, point) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "the export grid box [" in err and message in err

    @pytest.mark.parametrize(
        "far, code, message",
        [
            pytest.param(1e308, EXIT_NUMERICAL, "Jacobian determinant not finite at scale 0.1",
                         id="determinant_overflows"),
            pytest.param(1.7e308, EXIT_CONFIG, "zero width or height, or one that is not finite",
                         id="box_overflows"),
            pytest.param(1e200, EXIT_OK, "", id="kernel_distances_overflow"),
        ],
    )
    def test_huge_controls_end_in_a_documented_code_with_no_warning(self, tmp_path, capsys,
                                                                      far, code, message):
        # finite points so far apart that u, the grid box or the grid's
        # differences overflow; a box of +-1.7e308 is wider than any float
        path = write_config(tmp_path, dict(DIRAC_CONFIG, time_steps=4,
                                           grid={"size": 8, "margin": 0.1}))
        near = -far if far > 1e308 else 0.0
        controls = {
            "point_scales": [0.1, 2.0],
            "points": [[near, 0.0], [far, 0.0]],
            "targets": [[near, 0.5], [far, 0.5]],
            "weight": 1.0,
            "controls": [[[0.1, 0.0], [0.0, 0.1]]] * 4,
        }
        (tmp_path / "controls.json").write_text(json.dumps(controls))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(path), "export-fields", "--controls",
                         str(tmp_path / "controls.json")]) == code
        out, err = capsys.readouterr()
        assert message in err
        if code == EXIT_OK:
            summary = json.loads((Path(out.strip()) / "fields_summary.json").read_text())
            assert all(0.0 < m < np.inf for m in summary["min_jacobian"].values())

    def test_negative_kernel_energy_is_a_numerical_error(self, tmp_path, capsys):
        # an indefinite one-term table, beta = [[1, 3], [3, 1]]: two landmarks
        # at one point with opposite controls have a^T K a = 1 - 6 + 1 = -4
        table = KernelTable(np.array([0.1, 2.0]), np.array([[[1.0], [3.0]], [[3.0], [1.0]]]),
                            HankelBasis(np.array([0.5])))
        table.save_binary(tmp_path / "table.bin")
        controls = {
            "point_scales": [0.1, 2.0],
            "points": [[0.0, 0.0], [0.0, 0.0]],
            "targets": [[0.1, 0.0], [0.0, 0.1]],
            "weight": 1.0,
            "controls": [[[1.0, 0.0], [-1.0, 0.0]]],
        }
        (tmp_path / "controls.json").write_text(json.dumps(controls))
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "export-fields", "--kernel-table",
                     str(tmp_path / "table.bin"), "--controls",
                     str(tmp_path / "controls.json")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "numerical failure: negative kernel energy -4.000e+00 at time step 0\n"

    def test_export_memory_is_flat_in_the_number_of_scales(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        controls = run_dir_of(capsys) / "controls.json"
        size = 64
        peaks = {}
        for scales in ([0.1, 2.0], "all"):  # 2 and 6 scales
            config = dict(DIRAC_CONFIG, grid={"size": size, "margin": 0.1},
                          export_scales=scales)
            path = write_config(tmp_path, config, name=f"config-{len(str(scales))}.json")
            tracemalloc.start()
            try:
                code = main(["--config", str(path), "export-fields", "--svg", "--controls",
                             str(controls)])
                peaks[str(scales)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        # a scale's fields: psi (2 floats a cell) and two log-Jacobians (its
        # deformation's and its residual's); four more scales may not keep
        # two scales' worth of them
        fields = 8 * 4 * size**2
        assert peaks["all"] - peaks["[0.1, 2.0]"] < 2 * fields

    # 0.15 is no ladder node: the closed-form Dirac kernel exports any scale
    @pytest.mark.parametrize(
        "export_scales", [[0.48], [0.1, 2.0], [0.1, 0.48, 2.0], [0.15, 2.0]]
    )
    def test_grid_transport_count(self, tmp_path, capsys, monkeypatch, export_scales):
        config = dict(DIRAC_CONFIG, export_scales=export_scales)
        path = write_config(tmp_path, config)
        assert main(["--config", str(path), "register"]) == EXIT_OK
        root = run_dir_of(capsys)
        summary = json.loads((root / "register_summary.json").read_text())
        assert summary["forward_passes"] > summary["gradient_passes"] > summary["iterations"]
        # every line-search evaluation past the accepted ones followed a halving
        assert summary["line_search_halvings"] == (
            summary["forward_passes"] - summary["gradient_passes"]
        )
        # the sup-norm of the gradient at the controls the run stopped on
        blob = json.loads((root / "controls.json").read_text())
        system = flow.LandmarkSystem(
            blob["point_scales"], blob["points"], blob["targets"], blob["weight"]
        )
        kernel = build_kernel(ExperimentConfig.load(root / "config.json"))[0]
        objective = Objective(kernel, system, num_steps=config["time_steps"])
        grad = objective.gradient(np.asarray(blob["controls"]))
        assert summary["gradient_sup_norm"] == np.abs(grad).max() > 0
        grid_cells = config["grid"]["size"] ** 2
        transported = []
        transport = flow._transport

        def counting_transport(kernel, trajectory, system, lam, points, reverse=False):
            transported.append(len(points))
            return transport(kernel, trajectory, system, lam, points, reverse)

        monkeypatch.setattr(flow, "_transport", counting_transport)
        assert main(["--config", str(path), "export-fields", "--svg"]) == EXIT_OK
        # one transport per scale moves the grid and every landmark after it
        grid_transports = transported.count(grid_cells + system.num_points)
        assert grid_transports == len(export_scales)
        assert len(transported) == len(export_scales)
        summary = json.loads((root / "fields_summary.json").read_text())
        assert summary["grid_transports"] == grid_transports


class TestCheck:
    def test_check_passes_for_both_backends(self, tmp_path, capsys):
        for cfg in (DIRAC_CONFIG, SMALL_CONFIG):
            path = write_config(tmp_path, cfg, name=f"{cfg['name']}.json")
            assert main(["--config", str(path), "check"]) == EXIT_OK
            root = run_dir_of(capsys)
            report = json.loads((root / "check_report.json").read_text())
            assert report["pass"] and report["problems"] == []

    def test_a_slice_skewed_one_way_round_fails_the_symmetry_check(self, tmp_path, capsys,
                                                                   monkeypatch):
        exact = DiracPiecewiseKernel.slice

        def skewed(kernel, lam, mu):
            w, a = exact(kernel, lam, mu)
            return (w * (1.0 + 1e-9), a) if lam < mu else (w, a)

        monkeypatch.setattr(DiracPiecewiseKernel, "slice", skewed)
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "check"]) == EXIT_THRESHOLD
        assert "asymmetry" in capsys.readouterr().err
        (report,) = (tmp_path / "out").glob("*/check_report.json")
        assert json.loads(report.read_text())["pass"] is False

    def test_an_indefinite_scale_pair_fails_the_positivity_check(self, tmp_path, capsys,
                                                                 monkeypatch):
        exact = KernelTable.slice
        ends = {0.1, 2.0}  # the fitted pair (s_0, s_last) that `check` certifies

        def indefinite(kernel, lam, mu):
            w, a = exact(kernel, lam, mu)
            # both orientations alike, so the kernel stays symmetric
            return (10.0 * w, a) if {lam, mu} == ends else (w, a)

        monkeypatch.setattr(KernelTable, "slice", indefinite)
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["--config", str(path), "check"]) == EXIT_THRESHOLD
        assert "pairwise positivity" in capsys.readouterr().err
        (report,) = (tmp_path / "out").glob("*/check_report.json")
        assert json.loads(report.read_text())["pass"] is False
