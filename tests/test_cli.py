"""Command-line interface, exercised in process via main()."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from msreg import flow, spectral
from msreg.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_THRESHOLD,
    main,
)
from msreg.config import DEFAULTS
from msreg.kernel_fit import HankelBasis, KernelTable

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
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, config, override):
        path = write_config(tmp_path, config)
        assert main(["--config", str(path), "--set", override, "register"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        # no run directory, inside output_dir or anywhere a name could lead
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert not list(tmp_path.parent.glob("x-*"))

    def test_fuzzed_overrides_end_in_ok_or_config_error(self, tmp_path, tmp_path_factory,
                                                         capsys):
        path = write_config(tmp_path, DIRAC_CONFIG)

        def dotted(node, prefix=""):
            for key, val in node.items():
                yield prefix + key
                if isinstance(val, dict):
                    yield from dotted(val, prefix + key + ".")

        # output_dir is left out: a drawn string would put run directories
        # wherever it points
        known = [p for p in dotted(DEFAULTS) if p != "output_dir"]
        known += ["ladder.nodes", "measure.s0"]
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

        @settings(derandomize=True, database=None, deadline=None, max_examples=400)
        @given(st.lists(assignments, min_size=1, max_size=2))
        def run(overrides):
            args = ["--config", str(path)]
            for item in overrides:
                args += ["--set", item]
            assert main(args + ["fit-kernel"]) in (EXIT_OK, EXIT_CONFIG)
            capsys.readouterr()

        # hypothesis caches constants and unicode tables even with no database
        set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
        try:
            run()
        finally:
            set_hypothesis_home_dir(None)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]

    @pytest.mark.parametrize(
        "verb",
        [
            pytest.param(["export-fields", "--controls", "{tmp}/missing.json"],
                         id="controls_missing"),
            pytest.param(["export-fields", "--controls", "{tmp}/no_scales.json"],
                         id="controls_no_scales"),
            pytest.param(["register", "--kernel-table", "{tmp}/foreign.bin"],
                         id="table_foreign"),
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
        del controls["point_scales"]
        (tmp_path / "no_scales.json").write_text(json.dumps(controls))
        (tmp_path / "foreign.bin").write_bytes(b"XXXX" + b"\x00" * 32)
        table = KernelTable(np.array([0.1]), np.ones((1, 1, 1)), HankelBasis(np.array([0.5])))
        table.save_binary(tmp_path / "table.bin")
        args = [arg.format(tmp=tmp_path) for arg in verb]
        assert main(["--config", str(path)] + args) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["abc", "0", "1.5"])
    def test_bad_thread_count(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("MSREG_THREADS", threads)
        path = write_config(tmp_path, DIRAC_CONFIG)
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_CONFIG
        assert "config error: MSREG_THREADS" in capsys.readouterr().err


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
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_OK
        root = run_dir_of(capsys)
        first = {
            f.name: f.read_bytes() for f in root.iterdir() if f.is_file()
        }
        assert main(["--config", str(path), "fit-kernel"]) == EXIT_OK
        root2 = run_dir_of(capsys)
        assert root2 == root
        for name, blob in first.items():
            assert (root / name).read_bytes() == blob, name

    def test_starved_basis_trips_the_threshold(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CONFIG)
        code = main(
            ["--config", str(path), "--set", "kernel.num_basis=3", "fit-kernel"]
        )
        assert code == EXIT_THRESHOLD
        assert "exceeds" in capsys.readouterr().err

    def test_solver_failure_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        assemble = spectral._assemble_coefficients

        def singular_above_zero(ladder, sigma, xi, dim):
            lower, diag, upper = assemble(ladder, sigma, xi, dim)
            return lower, diag if xi == 0.0 else np.zeros_like(diag), upper

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
        assert summary["reconstruction_sup_error"] < 1.0
        assert set(summary["folded_cells"]) == {"0.1", "2"}
        lines = (root / "deformation_0.1.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,psi_x,psi_y,log_jac"
        assert len(lines) == 1 + 10 * 10

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
        grid_cells = config["grid"]["size"] ** 2
        transported = []
        transport = flow._transport

        def counting_transport(kernel, trajectory, system, lam, points, reverse=False):
            transported.append(len(points))
            return transport(kernel, trajectory, system, lam, points, reverse)

        monkeypatch.setattr(flow, "_transport", counting_transport)
        assert main(["--config", str(path), "export-fields", "--svg"]) == EXIT_OK
        grid_transports = transported.count(grid_cells)
        assert grid_transports == 5 * len(export_scales) - 4
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
