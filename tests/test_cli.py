"""Command-line interface, exercised in process via main()."""

import inspect
import json
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from msreg import flow, shapes, spectral
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
from msreg.kernel_fit import HankelBasis, KernelTable
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
    def fuzz(tmp_path, tmp_path_factory, capsys, assignments, verbs, exits, max_examples,
             documents=None, config=DIRAC_CONFIG):
        """Every verb, run in turn on the config (the Dirac one by default)
        with one or two drawn --set overrides, ends in one of `exits`.  With
        `documents`, an example is a drawn document instead, written to the
        file that "{document}" in a verb names: bytes as they are, anything
        else as JSON."""
        path = write_config(tmp_path, config)
        document = tmp_path_factory.mktemp("documents") / "document"

        @settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)
        @given(st.lists(assignments, min_size=1, max_size=2) if documents is None else documents)
        def run(example):
            args = ["--config", str(path)]
            if documents is None:
                for item in example:
                    args += ["--set", item]
            elif isinstance(example, bytes):
                document.write_bytes(example)
            else:
                document.write_text(json.dumps(example))
            for verb in verbs:
                verb = [arg.format(document=document) for arg in verb]
                assert main(args + verb) in exits, verb
            capsys.readouterr()

        # hypothesis caches constants and unicode tables even with no database
        set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
        try:
            run()
        finally:
            set_hypothesis_home_dir(None)
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
        numbers = st.integers(-3, 30) | st.integers() | st.floats() | st.sampled_from(edges)
        documents = st.recursive(
            st.none() | st.booleans() | numbers | st.text(max_size=8) | st.sampled_from(words),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=6), inner, max_size=3),
            max_leaves=6,
        )
        # known paths and numbers twice, so that runs often get past validation
        values = (numbers | numbers | documents).map(json.dumps) | st.text(max_size=8)
        paths = st.sampled_from(known) | st.sampled_from(known + misspelt + through)
        assignments = st.builds("{}={}".format, paths, values)
        self.fuzz(tmp_path, tmp_path_factory, capsys, assignments, [["fit-kernel"]],
                  (EXIT_OK, EXIT_CONFIG), max_examples=400)

    def test_fuzzed_register_and_export_end_in_a_documented_code(self, tmp_path,
                                                                   tmp_path_factory, capsys):
        # validation comes before any verb and the test above fuzzes it, so
        # these draws aim at configs that pass it: known paths and numbers,
        # with the sizes of the work (steps, grid, iterations, nodes, basis,
        # frequencies) small enough that an example takes milliseconds
        sizes = {"time_steps", "grid.size", "optimizer.max_iters", "ladder.num_nodes",
                 "kernel.num_basis", "kernel.num_frequencies"}
        numbers = st.integers(-3, 30) | st.floats() | st.floats(0.0, 3.0)
        values = numbers | st.lists(numbers, min_size=1, max_size=3) | st.sampled_from(
            ["all", "dirac", "lebesgue", "fitted", "dirac_closed_form"]
        )
        small = st.integers(-1, 12)

        def assignment(path):
            drawn = small if path in sizes else values
            return drawn.map(lambda value: f"{path}={json.dumps(value)}")

        assignments = st.sampled_from(self.known_paths()).flatmap(assignment)
        self.fuzz(tmp_path, tmp_path_factory, capsys, assignments,
                  [["register"], ["export-fields", "--svg"]],
                  (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), max_examples=150)

    def test_fuzzed_shape_specs_end_in_ok_or_config_error(self, tmp_path, tmp_path_factory,
                                                            capsys):
        # each generator's parameters, and one type that names none
        params = {
            kind: list(inspect.signature(getattr(shapes, kind)).parameters)
            for kind in ("circle", "ellipse", "bumpy_ellipse", "flower", "schematic_human")
        }
        params["spiral"] = ["num", "center", "radius"]
        numbers = st.integers(-3, 40) | st.floats(-3.0, 3.0) | st.sampled_from(
            [np.nan, np.inf, -np.inf, 1e308, -1e308, True, False]
        )
        # fixed strings: `st.text` would rebuild hypothesis's unicode tables
        words = st.sampled_from(["", "a", "1", "1.5", "NaN", "circle"])
        values = numbers | st.lists(numbers, max_size=3) | words
        pairs = st.lists(numbers, max_size=3) | numbers | words

        def spec(kind):
            drawn = {name: pairs if name in ("center", "semi_axes") else values
                     for name in params[kind]}
            return st.fixed_dictionaries({"type": st.just(kind)}, optional=drawn)

        def entry(kind):
            return st.fixed_dictionaries(
                {"scale": st.just(0.1), "template": spec(kind), "target": spec(kind)}
            )

        assignments = st.sampled_from(sorted(params)).flatmap(entry).map(
            lambda drawn: f"shapes={json.dumps([drawn])}"
        )
        self.fuzz(tmp_path, tmp_path_factory, capsys, assignments, [["fit-kernel"]],
                  (EXIT_OK, EXIT_CONFIG), max_examples=80)

    def test_fuzzed_controls_files_end_in_a_documented_code(self, tmp_path,
                                                              tmp_path_factory, capsys):
        finite = st.floats(-2.0, 2.0)
        edges = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1.0, 0.0, True])
        words = st.sampled_from(["", "a", "0.1", "NaN"])
        junk = st.none() | words | edges | st.lists(finite, max_size=2)

        def array(shape, numbers):
            drawn = numbers
            for size in reversed(shape):
                drawn = st.lists(drawn, min_size=size, max_size=size)
            return drawn

        def document(sizes):
            steps, num = sizes
            return st.fixed_dictionaries({
                "point_scales": array((num,), st.sampled_from([0.1, 2.0, 0.5])),
                "points": array((num, 2), finite),
                "targets": array((num, 2), finite),
                "controls": array((steps, num, 2), finite),
                "weight": finite,
            })

        def spoil(drawn):
            # a well-formed document with at most one key dropped, replaced
            # by junk, nested one level deeper, cut short, or with its first
            # number replaced by an edge value
            doc, key, how, edge, other = drawn
            if how == "drop":
                del doc[key]
            elif how == "junk":
                doc[key] = other
            elif how == "nest":
                doc[key] = [doc[key]]
            elif how == "cut" and isinstance(doc[key], list):
                doc[key] = doc[key][:-1]
            elif how == "edge":
                node, index = doc, key
                while isinstance(node[index], list) and node[index]:
                    node, index = node[index], 0
                node[index] = edge
            return doc

        documents = st.tuples(
            st.tuples(st.integers(1, 2), st.integers(1, 3)).flatmap(document),
            st.sampled_from(["controls", "points", "targets", "point_scales", "weight"]),
            st.sampled_from(["keep", "edge", "junk", "nest", "cut", "drop"]),
            edges,
            junk,
        ).map(spoil)
        self.fuzz(tmp_path, tmp_path_factory, capsys, None,
                  [["export-fields", "--controls", "{document}"]],
                  (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), max_examples=70, documents=documents)

    def test_fuzzed_kernel_tables_end_in_a_documented_code(self, tmp_path, tmp_path_factory,
                                                            capsys):
        # a valid table of the shape scales, 0.1 and 2.0, with 2 basis terms
        beta = np.array([[[1.0, 0.5], [0.3, 0.1]], [[0.3, 0.1], [1.0, 0.5]]])
        table = KernelTable(np.array([0.1, 2.0]), beta, HankelBasis(np.array([0.3, 1.0])))
        table_path = tmp_path_factory.mktemp("table") / "table.bin"
        table.save_binary(table_path)
        valid = table_path.read_bytes()
        values = np.frombuffer(valid, dtype="<f8", offset=20)  # scales, taus, beta

        def mutate(mutations):
            header = list(struct.unpack_from("<iiii", valid, 4))
            data, length = values.copy(), len(valid)
            for kind, index, value in mutations:
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

        # fixed values: `st.text` would rebuild hypothesis's unicode tables
        mutation = st.one_of(
            st.tuples(st.just("header"), st.integers(0, 3), st.sampled_from([0, -1, 2**31 - 1])),
            st.tuples(st.just("length"), st.just(0), st.sampled_from([-9, -8, -1, 1, 8, 16])),
            st.tuples(
                st.just("value"),
                st.integers(0, values.size - 1),
                st.sampled_from(["negate", 1e300, 5e-324, np.nan, np.inf, -np.inf]),
            ),
            st.tuples(st.just("asymmetric"), st.integers(0, 1), st.just(0)),
            st.tuples(st.just("scale"), st.integers(0, 1), st.sampled_from([0.15, 0.5, 3.0])),
        )
        documents = st.lists(mutation, min_size=1, max_size=2).map(mutate)
        self.fuzz(tmp_path, tmp_path_factory, capsys, None,
                  [["--set", "optimizer.max_iters=3", "register", "--kernel-table",
                    "{document}"]],
                  (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), max_examples=80,
                  documents=documents, config=SMALL_CONFIG)

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

        def singular_above_zero(ladder, sigma, xis, dim):
            lower, diag, upper = assemble(ladder, sigma, xis, dim)
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


class TestExportFields:
    def test_requires_controls(self, tmp_path, capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "export-fields"]) == EXIT_CONFIG
        assert "controls" in capsys.readouterr().err

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
    def one_landmark_run(tmp_path, target, margin=0.1):
        config = dict(DIRAC_CONFIG, grid={"size": 10, "margin": margin})
        path = write_config(tmp_path, config)
        controls = {
            "point_scales": [0.1],
            "points": [[0.0, 0.0]],
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
        "target, margin",
        [
            pytest.param([0.0, 0.0], 0.1, id="points_coincide"),
            pytest.param([0.1, 0.0], 0.0, id="one_line_no_margin"),
        ],
    )
    def test_grid_box_of_zero_height_is_a_config_error(self, tmp_path, capsys, target, margin):
        assert self.one_landmark_run(tmp_path, target, margin) == EXIT_CONFIG
        assert "zero width or height" in capsys.readouterr().err

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
