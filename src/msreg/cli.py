"""Command-line harness: kernel fitting, registration, and field export.

Verbs:
  fit-kernel     build the spectral table (or select a closed form) and fit
                 the fast kernel basis; writes the table and a fit report
  register       solve the landmark matching problem for a config
  export-fields  transport grids at the requested scales and write
                 deformation / log-Jacobian / residual data
  check          run a quick invariant suite against a config

All outputs land in a run directory derived from the config contents, with
a manifest listing every artifact; identical configs produce identical
files.  MSREG_THREADS (an integer >= 1) caps internal worker counts.
"""

import argparse
import csv
import hashlib
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .flow import (
    DeformationField,
    IntegrationError,
    LandmarkSystem,
    bounding_box,
    integrate_forward,
    inverse_map,
    log_jacobian,
    make_grid,
    residual_maps,
    transport_grid,
)
from .kernel_fit import KernelTable, certify_pairwise_positivity, fit_kernel_table
from .ladder import DiracMeasure
from .registration import Objective, optimize
from .scale_kernels import DiracPiecewiseKernel, GaussianScaleFamily
from .spectral import SpectralGrid, compute_spectral_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

# fit-kernel exits with EXIT_THRESHOLD above this worst fit residual,
# relative to each pair's spectral peak.
MAX_RELATIVE_RESIDUAL = 1e-2


def _num_workers():
    raw = os.environ.get("MSREG_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"MSREG_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _run_dir(config):
    digest = hashlib.sha256(config.dumps().encode()).hexdigest()[:12]
    root = Path(config["output_dir"]) / f"{config['name']}-{digest}"
    root.mkdir(parents=True, exist_ok=True)
    return root, digest


def _write_manifest(root, digest, files, extra=None):
    manifest = {
        "config_hash": digest,
        "files": sorted(str(f.relative_to(root)) for f in files),
    }
    if extra:
        manifest.update(extra)
    path = root / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def build_kernel(config):
    """Kernel evaluator for a config; returns (kernel, spectral table).

    Dirac measures take the closed-form path with no fitting and no spectral
    table (None); the Lebesgue measure goes through the spectral solver and
    the basis fit.
    """
    workers = _num_workers()  # a bad MSREG_THREADS fails Dirac configs too
    ladder = config.ladder()
    measure = config.measure()
    if isinstance(measure, DiracMeasure):
        return DiracPiecewiseKernel(measure, GaussianScaleFamily(ladder)), None
    grid = SpectralGrid.default(ladder.s1, config["kernel"]["num_frequencies"])
    spectral = compute_spectral_table(ladder, measure.sigma, grid)
    table = fit_kernel_table(
        spectral, num_basis=config["kernel"]["num_basis"], workers=workers
    )
    return table, spectral


def cmd_fit_kernel(config, root):
    files = []
    table, spectral = build_kernel(config)
    if spectral is None:
        summary = {"backend": "dirac_closed_form", "fitted": False}
        path = root / "kernel_summary.json"
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        return [path], EXIT_OK
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


def _load_kernel(config, kernel_table_path):
    if not kernel_table_path:
        return build_kernel(config)[0]
    try:
        return KernelTable.load_binary(kernel_table_path)
    except (OSError, ValueError, struct.error) as err:
        raise ConfigError(f"kernel table {kernel_table_path}: {err}") from None


def _check_scales(kernel, scales, source):
    """ConfigError unless the kernel evaluates every scale: a fitted table
    holds its nodes only, the closed form any scale on its ladder."""
    for scale in np.unique(scales):
        try:
            if isinstance(kernel, KernelTable):
                kernel.index_of(scale)
            else:
                kernel.family.ladder.clamp(scale)
        except (KeyError, ValueError):
            raise ConfigError(f"the kernel has no scale {scale:g} ({source})") from None


def cmd_register(config, root, kernel_table_path=None):
    files = []
    kernel = _load_kernel(config, kernel_table_path)
    system = _build_system(config)
    _check_scales(kernel, system.point_scales, "shapes[].scale")
    objective = Objective(kernel, system, num_steps=config["time_steps"])
    opt = config["optimizer"]
    result = optimize(
        objective, max_iters=opt["max_iters"], tol=opt["tol"], memory=opt["memory"]
    )
    hist_path = root / "history.csv"
    with open(hist_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["iter", "value", "energy", "match", "step"])
        writer.writeheader()
        writer.writerows(result.history_rows())
    files.append(hist_path)
    controls_path = root / "controls.json"
    with open(controls_path, "w") as fh:
        json.dump(
            {
                "point_scales": system.point_scales.tolist(),
                "points": system.points.tolist(),
                "targets": system.targets.tolist(),
                "weight": system.weight,
                "controls": result.controls.tolist(),
            },
            fh,
            sort_keys=True,
        )
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
    }
    summary_path = root / "register_summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    files.append(summary_path)
    return files, EXIT_OK


def _load_controls(path):
    try:
        with open(path) as fh:
            blob = json.load(fh)
        system = LandmarkSystem(
            np.asarray(blob["point_scales"]),
            np.asarray(blob["points"]),
            np.asarray(blob["targets"]),
            blob["weight"],
        )
        controls = np.asarray(blob["controls"], dtype=float)
    except KeyError as err:
        raise ConfigError(f"controls {path}: missing key {err}") from None
    except (OSError, ValueError, TypeError) as err:
        raise ConfigError(f"controls {path}: {err}") from None
    if controls.ndim != 3 or controls.shape[1:] != system.points.shape:
        raise ConfigError(f"controls {path}: controls must have shape (T, P, d)")
    return system, controls


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
    kernel = _load_kernel(config, kernel_table_path)
    if controls_path:
        system, controls = _load_controls(controls_path)
    else:
        reg_controls = root / "controls.json"
        if not reg_controls.exists():
            raise ConfigError("no controls found; run register first or pass --controls")
        system, controls = _load_controls(reg_controls)
    ladder = config.ladder()
    export_scales = config.export_scales(ladder)
    _check_scales(kernel, system.point_scales, "controls point_scales")
    _check_scales(kernel, export_scales, "export_scales")
    trajectory = integrate_forward(kernel, system, controls)
    bbox = bounding_box(
        np.vstack([system.points, system.targets]), config["grid"]["margin"]
    )
    grid_pts, grid_shape, spacing = make_grid(bbox, config["grid"]["size"])
    folded_cells = {}
    deformations = []
    for scale in export_scales:
        field = transport_grid(kernel, trajectory, system, scale, grid_pts, grid_shape)
        deformations.append(field.mapped)
        log_jacobian(field, spacing)
        folded_cells[f"{scale:g}"] = int(field.folded.sum())
        path = root / f"deformation_{scale:g}.csv"
        field.save_csv(path)
        files.append(path)
        if svg:
            contours = []
            for base in system.base_scales:
                mask = system.point_scales == base
                warped = transport_grid(
                    kernel, trajectory, system, scale, system.points[mask]
                ).mapped
                contours.append((warped, "steelblue"))
                contours.append((system.targets[mask], "tomato"))
            svg_path = root / f"shapes_{scale:g}.svg"
            _write_svg(svg_path, contours, bbox)
            files.append(svg_path)
    grid_transports = len(deformations)
    # the first residual is the first deformation
    residuals = residual_maps(
        kernel, trajectory, system, export_scales, grid_pts, grid_shape,
        first=deformations[0],
    )
    grid_transports += 2 * len(residuals) - 2
    for field in residuals:
        log_jacobian(field, spacing)
        path = root / f"residual_{field.scale:g}.csv"
        field.save_csv(path)
        files.append(path)
    # reconstruction check: composing all residuals, starting from the
    # first deformation, should reproduce the last deformation
    composed = deformations[0]
    for prev, scale in zip(export_scales[:-1], export_scales[1:]):
        pulled = inverse_map(kernel, trajectory, system, prev, composed).mapped
        composed = transport_grid(kernel, trajectory, system, scale, pulled).mapped
        grid_transports += 2
    recon_err = float(np.abs(composed - deformations[-1]).max())
    summary = {
        "reconstruction_sup_error": recon_err,
        "folded_cells": folded_cells,
        "grid": {"size": config["grid"]["size"], "bbox": list(bbox)},
        "grid_transports": grid_transports,
    }
    path = root / "fields_summary.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    files.append(path)
    return files, EXIT_OK


def cmd_check(config, root):
    """Quick invariant suite: kernel symmetry, sample Gram positivity,
    config round-trip."""
    problems = []
    if ExperimentConfig.loads(config.dumps()) != config:
        problems.append("config does not round-trip")
    kernel, spectral = build_kernel(config)
    ladder = config.ladder()
    rng = np.random.default_rng(config["seed"])
    nodes = ladder.nodes
    for _ in range(20):
        lam, mu = rng.choice(nodes, 2)
        r = rng.uniform(0.0, 3.0)
        a = float(kernel(lam, mu, r))
        b = float(kernel(mu, lam, r))
        if abs(a - b) > 1e-12:
            problems.append(f"asymmetry {a - b:.2e} at ({lam}, {mu}, {r})")
            break
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
    except (IntegrationError, ArithmeticError, RuntimeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    files.append(root / "config.json")
    config.save(root / "config.json")
    _write_manifest(root, digest, files)
    print(root)
    return code


if __name__ == "__main__":
    sys.exit(main())
