"""Command-line harness: kernel fitting, registration, and field export.

Verbs:
  fit-kernel     build the spectral table (or select a closed form) and fit
                 the fast kernel basis; writes the table and a fit report
  register       solve the landmark matching problem for a config
  export-fields  transport grids at the requested scales and write
                 deformation / log-Jacobian / residual data
  check          run a quick invariant suite against a config

All outputs land in a run directory derived from the config contents, with
a manifest listing the files of the verb that ran, plus `config.json`;
identical configs produce identical files.
"""

import argparse
import csv
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np

from .config import MAX_GRAM_FLOATS, ConfigError, ExperimentConfig
from .flow import (
    DeformationField,
    LandmarkSystem,
    bounding_box,
    integrate_forward,
    kernel_matrix,
    log_jacobian,
    make_grid,
    residual_maps,
    transport_grid,
)
from .kernel_fit import KernelTable, certify_pairwise_positivity, fit_kernel_table
from .ladder import DiracMeasure
from .registration import Objective, optimize
from .scale_kernels import DiracPiecewiseKernel
from .spectral import SpectralGrid, compute_spectral_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

# fit-kernel exits with EXIT_THRESHOLD above this worst fit residual,
# relative to each pair's spectral peak.
MAX_RELATIVE_RESIDUAL = 1e-2


def _run_dir(config):
    digest = hashlib.sha256(config.dumps().encode()).hexdigest()[:12]
    root = Path(config["output_dir"]) / f"{config['name']}-{digest}"
    root.mkdir(parents=True, exist_ok=True)
    return root, digest


def _write_json(path, blob):
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
    return path


def _write_manifest(root, digest, files):
    manifest = {
        "config_hash": digest,
        "files": sorted(str(f.relative_to(root)) for f in files),
    }
    return _write_json(root / "manifest.json", manifest)


def build_kernel(config, scales=None):
    """Kernel evaluator for a config; returns (kernel, spectral table).

    Dirac measures take the closed-form path with no fitting and no spectral
    table (None); the Lebesgue measure goes through the spectral solver and
    the basis fit, of every scale pair, or with `scales` of those pairs that
    `fit_kernel_table` needs for them.
    """
    ladder = config.ladder()
    measure = config.measure()
    if isinstance(measure, DiracMeasure):
        return DiracPiecewiseKernel(measure, ladder), None
    grid = SpectralGrid.default(ladder.s1, config["kernel"]["num_frequencies"])
    spectral = compute_spectral_table(ladder, measure.sigma, grid)
    table = fit_kernel_table(spectral, num_basis=config["kernel"]["num_basis"], scales=scales)
    return table, spectral


def cmd_fit_kernel(config, root):
    files = []
    table, spectral = build_kernel(config)
    if spectral is None:
        summary = {"backend": "dirac_closed_form", "fitted": False}
        return [_write_json(root / "kernel_summary.json", summary)], EXIT_OK
    for name, saver in (
        ("spectral_table.bin", spectral.save_binary),
        ("kernel_table.bin", table.save_binary),
        ("kernel_table.csv", table.save_csv),
        ("fit_report.json", table.save_report),
    ):
        path = root / name
        saver(path)
        files.append(path)
    if table.report["max_relative_residual"] > MAX_RELATIVE_RESIDUAL:
        print(
            f"fit residual {table.report['max_relative_residual']:.3e} exceeds "
            f"bound {MAX_RELATIVE_RESIDUAL:.3e}",
            file=sys.stderr,
        )
        return files, EXIT_THRESHOLD
    return files, EXIT_OK


def _build_system(config):
    groups = config.landmark_groups()
    if not groups:
        raise ConfigError("config has no shapes to register")
    return LandmarkSystem.from_groups(groups, weight=config["weight"])


def _load_kernel(config, kernel_table_path, scales):
    """The table at `kernel_table_path`, or a kernel built for `scales`."""
    if not kernel_table_path:
        return build_kernel(config, scales)[0]
    try:
        return KernelTable.load_binary(kernel_table_path)
    except (OSError, ValueError, struct.error) as err:
        raise ConfigError(f"kernel table {kernel_table_path}: {err}") from None


def _check_scales(kernel, scales, source):
    """ConfigError unless the kernel evaluates every scale: a fitted table
    holds its nodes only (KeyError off them), the closed form any scale on
    its ladder (ValueError outside it)."""
    for scale in np.unique(scales):
        try:
            kernel.slice(scale, scale)
        except (KeyError, ValueError):
            raise ConfigError(f"the kernel has no scale {scale:g} ({source})") from None


def cmd_register(config, root, kernel_table_path=None):
    files = []
    system = _build_system(config)
    kernel = _load_kernel(config, kernel_table_path, system.point_scales)
    _check_scales(kernel, system.point_scales, "shapes[].scale")
    objective = Objective(kernel, system, num_steps=config["time_steps"])
    opt = config["optimizer"]
    result = optimize(
        objective, max_iters=opt["max_iters"], tol=opt["tol"], memory=opt["memory"]
    )
    hist_path = root / "history.csv"
    with open(hist_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "value", "energy", "match", "step"])
        writer.writerows((i, *row) for i, row in enumerate(result.history))
    files.append(hist_path)
    controls_path = root / "controls.json"
    blob = {
        "point_scales": system.point_scales.tolist(),
        "points": system.points.tolist(),
        "targets": system.targets.tolist(),
        "weight": system.weight,
        "controls": result.controls.tolist(),
    }
    with open(controls_path, "w") as fh:
        # json.dumps encodes in C; json.dump to a file encodes in Python
        fh.write(json.dumps(blob, sort_keys=True))
    files.append(controls_path)
    trajectory = result.trajectory
    per_scale = {}
    for scale in system.base_scales:
        mask = system.point_scales == scale
        err = trajectory.endpoints[mask] - system.targets[mask]
        per_scale[f"{scale:g}"] = float(np.sqrt((err**2).sum(-1).mean()))
    summary = {
        "value": result.value,
        "energy": result.energy,
        "match": result.match,
        "iterations": len(result.history) - 1,
        "converged": result.converged,
        "line_search_failed": result.line_search_failed,
        "endpoint_rmse": per_scale,
        "forward_passes": result.forward_passes,
        "gradient_passes": result.gradient_passes,
        "gradient_sup_norm": result.gradient_sup_norm,
        "line_search_halvings": result.line_search_halvings,
        "trials_stopped_early": result.trials_stopped_early,
        "gram_evaluations": objective.gram.evaluations,
        "kernel_exp_terms": objective.gram.exp_terms,
        "kernel_table_reads": objective.gram.table_reads,
    }
    files.append(_write_json(root / "register_summary.json", summary))
    return files, EXIT_OK


def _load_controls(path):
    try:
        with open(path) as fh:
            blob = json.load(fh)
        scales, points, targets, controls = (
            np.asarray(blob[key], dtype=float)
            for key in ("point_scales", "points", "targets", "controls")
        )
        weight = blob["weight"]
    except KeyError as err:
        raise ConfigError(f"controls {path}: missing key {err}") from None
    except (OSError, ValueError, TypeError) as err:
        raise ConfigError(f"controls {path}: {err}") from None
    # the export grid is planar
    if scales.ndim != 1 or points.shape != (scales.size, 2) or targets.shape != points.shape:
        raise ConfigError(
            f"controls {path}: point_scales must have shape (P,), points and targets (P, 2)"
        )
    if controls.ndim != 3 or controls.shape[1:] != points.shape:
        raise ConfigError(f"controls {path}: controls must have shape (T, P, d)")
    for key, values in zip(
        ("point_scales", "points", "targets", "controls"), (scales, points, targets, controls)
    ):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"controls {path}: {key} holds a value that is not finite")
    # the forward pass forms the P x P landmark Gram, as register does
    if scales.size**2 > MAX_GRAM_FLOATS:
        raise ConfigError(
            f"controls {path}: landmark Gram of {scales.size}^2 floats exceeds "
            f"{MAX_GRAM_FLOATS}"
        )
    return LandmarkSystem(scales, points, targets, weight), controls


def _write_svg(path, contours, bbox):
    xmin, xmax, ymin, ymax = bbox
    width = xmax - xmin
    height = ymax - ymin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{xmin} {-ymax} {width} {height}">'
    ]
    for pts, color in contours:
        coords = " ".join(f"{x:.4f},{-y:.4f}" for x, y in pts)
        lines.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{0.004 * max(width, height):.4f}"/>'
        )
    lines.append("</svg>")
    path.write_text("\n".join(lines))


def cmd_export_fields(config, root, kernel_table_path=None, controls_path=None, svg=False):
    files = []
    if not (controls_path or (root / "controls.json").exists()):
        raise ConfigError("no controls found; run register first or pass --controls")
    system, controls = _load_controls(controls_path or root / "controls.json")
    export_scales = config.export_scales(config.ladder())
    kernel = _load_kernel(
        config, kernel_table_path, np.concatenate([system.point_scales, export_scales])
    )
    _check_scales(kernel, system.point_scales, "controls point_scales")
    _check_scales(kernel, export_scales, "export_scales")
    bbox = bounding_box(np.vstack([system.points, system.targets]), config["grid"]["margin"])
    box = [float(b) for b in bbox]  # Python floats: an overflowing width is inf, unwarned
    if not (0 < box[1] - box[0] < np.inf and 0 < box[3] - box[2] < np.inf):
        raise ConfigError(
            f"the export grid box {box} has zero width or height, or one that is not finite: "
            "the landmarks and targets all coincide, lie on one line with grid.margin 0, "
            "or lie too far apart"
        )
    size = config["grid"]["size"]
    grid_pts, grid_shape, spacing = make_grid(bbox, size)
    # the Jacobian divides by each axis's first node step, and a box a few
    # ulps wide rounds the steps to 0 or to uneven multiples of an ulp
    steps = np.diff(grid_pts[::size, 0]), np.diff(grid_pts[:size, 1])
    narrow = f"the export grid box {box} is too narrow for grid.size {size}: its grid nodes"
    if not all(np.all(step > 0) for step in steps):
        raise ConfigError(f"{narrow} do not strictly increase along both axes")
    if not all(np.all(np.abs(step - step[0]) <= 1e-6 * step[0]) for step in steps):
        raise ConfigError(f"{narrow} are not evenly spaced, to 1e-6, along both axes")
    # the transports need the positions only
    trajectory = integrate_forward(kernel, system, controls, keep_blocks=False)
    summary = {
        # 0, as each residual starts where the last ended; perfbench and the README read it
        "reconstruction_sup_error": 0.0,
        "folded_cells": {},
        "min_jacobian": {},
        "grid": {"size": size, "bbox": list(bbox)},
        "grid_transports": len(export_scales),
    }
    # One pass per scale.  Its one transport moves the landmarks after the
    # grid, with --svg or without, since the grid's bits depend on the block
    # sizes.  Each array is spelled once; from scale to scale only the
    # previous deformation and the texts of the grid and of its image are kept.
    points, num = np.vstack([grid_pts, system.points]), len(grid_pts)
    previous, grid_text, previous_text = [], (), ()
    for scale in export_scales:
        moved = transport_grid(kernel, trajectory, system, scale, points).mapped
        field = DeformationField(float(scale), grid_pts, moved[:num], grid_shape)
        log_jacobian(field, spacing)
        residual = residual_maps(grid_pts, previous + [field])[-1]  # after previous, or psi_0
        paths = [root / f"{kind}_{scale:g}.csv" for kind in ("deformation", "residual")]
        own = field.save_csv(paths[0], grid_text)
        grid_text = own[:1]
        previous_text = residual.save_csv(paths[1], own + previous_text)[1:]
        files += paths
        summary["folded_cells"][f"{scale:g}"] = int(field.folded.sum())
        summary["min_jacobian"][f"{scale:g}"] = field.min_jacobian
        if svg:  # the landmark rows and their targets, drawn per base scale
            contours = []
            for base in system.base_scales:
                mask = system.point_scales == base
                contours += [(moved[num:][mask], "steelblue"), (system.targets[mask], "tomato")]
            files.append(root / f"shapes_{scale:g}.svg")
            _write_svg(files[-1], contours, bbox)
        previous = [field]
    files.append(_write_json(root / "fields_summary.json", summary))
    return files, EXIT_OK


def cmd_check(config, root):
    """Quick invariant suite: kernel symmetry, sample Gram positivity,
    config round-trip.  Both kernel checks evaluate through the flow's
    `kernel_matrix`."""
    problems = []
    if ExperimentConfig.loads(config.dumps()) != config:
        problems.append("config does not round-trip")
    kernel, spectral = build_kernel(config)
    nodes = config.ladder().nodes
    rng = np.random.default_rng(config["seed"])
    scales = rng.choice(nodes, 20)
    points = rng.uniform(-1.5, 1.5, size=(20, 2))
    # rectangular, so every (lam, mu) block is evaluated both ways round
    gram = kernel_matrix(kernel, scales, points, scales, points)
    skew = np.abs(gram - gram.T)
    p, q = np.unravel_index(np.argmax(skew), skew.shape)
    if not skew[p, q] <= 1e-12:  # NaN is asymmetric too
        problems.append(
            f"asymmetry {skew[p, q]:.2e} at scales ({scales[p]:g}, {scales[q]:g})"
        )
    if spectral is not None:
        report = certify_pairwise_positivity(
            kernel,
            rng.normal(size=(8, 2)),
            scale_pairs=[(0, nodes.size - 1)],
        )
        if not report["pass"]:
            problems.append(f"pairwise positivity ratio {report['worst_eig_ratio']:.2e}")
    path = root / "check_report.json"
    with open(path, "w") as fh:
        json.dump({"problems": problems, "pass": not problems}, fh, indent=2)
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return [path], EXIT_THRESHOLD
    return [path], EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(prog="msreg", description=__doc__)
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="override a config field, e.g. --set time_steps=40",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fit-kernel")
    p_reg = sub.add_parser("register")
    p_reg.add_argument("--kernel-table", default=None)
    p_exp = sub.add_parser("export-fields")
    p_exp.add_argument("--kernel-table", default=None)
    p_exp.add_argument("--controls", default=None)
    p_exp.add_argument("--svg", action="store_true")
    sub.add_parser("check")
    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig.load(args.config).override(args.set)
        root, digest = _run_dir(config)
    except (ConfigError, OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "fit-kernel":
            files, code = cmd_fit_kernel(config, root)
        elif args.command == "register":
            files, code = cmd_register(config, root, args.kernel_table)
        elif args.command == "export-fields":
            files, code = cmd_export_fields(
                config, root, args.kernel_table, args.controls, args.svg
            )
        else:
            files, code = cmd_check(config, root)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    files.append(root / "config.json")
    config.save(root / "config.json")
    _write_manifest(root, digest, files)
    print(root)
    return code


if __name__ == "__main__":
    sys.exit(main())
