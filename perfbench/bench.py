"""Measurement loop, output checks and reporting for `perfbench/run.py`.

Import only after `run.py` has pinned the thread counts: this module loads
numpy.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import queue
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from scipy.optimize import linprog

from msreg import cli
from msreg.config import ExperimentConfig
from spans import Tracer, layer_metrics
from workloads import HELD_OUT_SEED, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
VERBS = (("fit-kernel",), ("register",), ("export-fields", "--svg"))
MAX_RELATIVE_RESIDUAL = 1e-2
SETUP_SAMPLES = 3
# A verb that ends sooner than this is called again until this much time has
# passed, and its seconds are the mean per call: a single call of a few
# milliseconds (fit-kernel with a closed-form kernel) is mostly jitter.
MIN_VERB_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "fit_kernel_s": "s",
    "register_s": "s",
    "export_fields_s": "s",
    "peak_rss_mb": "MB",
    "objective_value": "1",
    "endpoint_rmse_max": "1",
    "reconstruction_err": "1",
}
PER_LAYER = {
    "spectral.tables": "count",
    "spectral.solve_s": "s",
    "kernel_fit.fits": "count",
    "kernel_fit.fit_s": "s",
    "kernel_fit.self_s": "s",
    "kernel_fit.lp_problems": "count",
    "kernel_fit.lp_calls": "count",
    "kernel_fit.lp_s": "s",
    "kernel_fit.lp_useful_ratio": "1",
    "kernel_fit.max_rel_residual": "1",
    "kernel_fit.min_offdiag_margin": "1",
    "flow.kernel_matrix_calls": "count",
    "flow.kernel_matrix_s": "s",
    "flow.kernel_pairs": "count",
    "flow.kernel_terms": "count",
    "flow.kernel_tensor_bytes": "B",
    "flow.kernel_terms_per_byte": "1/B",
    "flow.integrate_forward_calls": "count",
    "flow.integrate_forward_s": "s",
    "flow.transports": "count",
    "flow.transport_point_steps": "count",
    "flow.transport_s": "s",
    "flow.log_jacobian_s": "s",
    "registration.optimize_s": "s",
    "registration.lbfgs_iters": "count",
    "registration.evaluate_calls": "count",
    "registration.gradient_calls": "count",
    "registration.forward_passes": "count",
    "registration.accept_ratio": "1",
    "registration.evaluate_s": "s",
    "registration.gradient_s": "s",
    "registration.s_per_iter": "s",
    "scale_kernels.slice_calls": "count",
    "scale_kernels.slice_s": "s",
    "scale_kernels.terms_per_slice": "1",
    "cli.write_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "cli.verb_self_s": "s",
    "config.load_s": "s",
    "trace.overhead_s": "s",
}
# Everything but times must repeat exactly between traced runs of one seed.
DETERMINISTIC = tuple(key for key, unit in PER_LAYER.items() if unit != "s")


@dataclass
class VerbResult:
    verb: str
    code: int
    seconds: float
    files: int = 0
    bytes: int = 0
    digest: str = ""
    calls: int = 1  # the verb repeats while it has run under MIN_VERB_S
    wall: float = 0.0  # everything the verb cost the run, checks included
    host_s: float = 0.0  # host time of the verb, from HostSpeed.time
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Pipeline:
    verbs: list
    traced: bool = False
    layers: dict = None

    @property
    def seconds(self):
        return sum(v.seconds for v in self.verbs)

    @property
    def quality(self):
        merged = {}
        for verb in self.verbs:
            merged.update(verb.quality)
        return merged


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_outputs(result, root, workload):
    """Output gate for one verb: manifest complete, summaries sane."""
    manifest = root / "manifest.json"
    listed = [root / name for name in json.loads(manifest.read_text())["files"]]
    missing = [p.name for p in listed if not p.is_file()]
    if missing:
        result.problems.append(f"manifest lists missing files {missing}")
        return
    digest = hashlib.sha256()
    for path in sorted(listed) + [manifest]:
        blob = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + blob)
        result.files += 1
        result.bytes += len(blob)
    result.digest = digest.hexdigest()
    if result.verb == "fit-kernel" and workload.fitted:
        residual = json.loads((root / "fit_report.json").read_text())["max_relative_residual"]
        if not (_finite(residual) and residual <= MAX_RELATIVE_RESIDUAL):
            result.problems.append(f"fit residual {residual} above {MAX_RELATIVE_RESIDUAL}")
    elif result.verb == "register":
        summary = json.loads((root / "register_summary.json").read_text())
        rmse = list(summary["endpoint_rmse"].values())
        if not _finite(summary["value"], summary["energy"], summary["match"], *rmse):
            result.problems.append("register summary is not finite")
            return
        result.quality = {"objective_value": summary["value"], "endpoint_rmse_max": max(rmse)}
        if max(rmse) >= workload.rmse_bound:
            result.problems.append(f"endpoint rmse {max(rmse)} above {workload.rmse_bound}")
    elif result.verb == "export-fields":
        summary = json.loads((root / "fields_summary.json").read_text())
        folded = list(summary["folded_cells"].values())
        err = summary["reconstruction_sup_error"]
        if not (_finite(err) and all(isinstance(n, int) and n >= 0 for n in folded)):
            result.problems.append("fields summary is not finite")
            return
        result.quality = {"reconstruction_err": err, "folded_cells": sum(folded)}


def run_verb(config_path, verb, workload, host=None):
    """One verb through the CLI, then its output checks.

    With `host` the verb is timed by `host.time`, and called again while it
    has run under MIN_VERB_S; without, it runs once and is timed plainly.
    """
    begin = perf_counter()
    stdout = io.StringIO()
    calls = 0

    def call():
        nonlocal calls
        calls += 1
        try:
            with contextlib.redirect_stdout(stdout):
                return cli.main(["--config", str(config_path), *verb])
        except Exception:  # the benchmark keeps going and counts the failure
            traceback.print_exc()
            return -1

    def repeat():
        start = perf_counter()
        while True:
            code = call()
            if code != 0 or perf_counter() - start >= MIN_VERB_S:
                return code

    if host is None:
        start = perf_counter()
        code = call()
        seconds, host_s = perf_counter() - start, 0.0
    else:
        code, seconds, host_s = host.time(repeat)
    result = VerbResult(verb[0], code, seconds / calls, calls=calls, host_s=host_s)
    if code != 0:
        result.problems.append(f"exit code {code}")
    else:
        try:
            _check_outputs(result, Path(stdout.getvalue().splitlines()[-1]), workload)
        except (OSError, ValueError, KeyError, IndexError) as err:
            result.problems.append(f"unreadable outputs: {err!r}")
    result.wall = perf_counter() - begin
    return result


def set_up(workload, seed, work):
    """Generate the seeded config into a fresh directory and validate it."""
    work.mkdir()
    path = work / "config.json"
    path.write_text(json.dumps(workload.config(seed, work / "msreg_out"), indent=2, sort_keys=True))
    ExperimentConfig.load(path)
    return path


def run_pipeline(workload, seed, work, tracer=None, host=None, fits=lambda verb: True):
    """The verbs on the seeded config in a new directory `work`.

    Verbs are timed by `host` if given, and the pipeline stops before the
    first verb that `fits` turns down.  Afterwards `work` is moved aside,
    not deleted, for the caller to remove once the run is over, so that
    freeing its files does not land in later verbs' time.
    """
    path = set_up(workload, seed, work)
    verbs = []
    try:
        with tracer or contextlib.nullcontext():
            for verb in VERBS:
                if not fits(verb[0]):
                    break
                verbs.append(run_verb(path, verb, workload, host))
    finally:
        work.rename(tempfile.mkdtemp(prefix=f"{work.name}-done-", dir=work.parent))
    pipeline = Pipeline(verbs, traced=tracer is not None)
    if tracer is not None:
        pipeline.layers = layer_metrics(tracer)
        pipeline.layers["cli.files_written"] = sum(v.files for v in verbs)
        pipeline.layers["cli.bytes_written"] = sum(v.bytes for v in verbs)
    return pipeline


def set_up_once(workload, seed, work):
    """What `setup_s` times: the seeded config, then the warm-up."""
    set_up(workload, seed, work)
    shutil.rmtree(work)
    warm_up(workload, work)


def warm_up(workload, work):
    """Tiny pipeline of the workload's measure: first-call costs, warm caches."""
    work.mkdir()
    try:
        path = work / "config.json"
        path.write_text(json.dumps(workload.warmup_config(work / "msreg_out")))
        for verb in VERBS:
            result = run_verb(path, verb, workload)
            if result.code != 0:
                print(f"warm-up {result.verb} exited {result.code}", file=sys.stderr)
    finally:
        shutil.rmtree(work)


class HostSpeed:
    """Times steps of a run in reference seconds, to cancel host drift.

    On a shared host the same work runs up to a third faster or slower from
    one second to the next.  So while a step runs, a timer signal every
    INTERVAL_S interrupts it for one reference task: a few milliseconds of
    dense BLAS, numpy elementwise math, a small HiGHS linear program, string
    formatting, a small JSON file written and read back, and a plain Python
    loop (the kinds of work msreg does), never msreg itself, so a change to
    msreg cannot move it.  BURST more tasks run between steps.  A step's
    host time is the median task time over the tasks just before, during
    and just after it (a task the host stalls for half a second must not
    count); its own seconds exclude the tasks run during it.  `scaled`
    turns those seconds into seconds on a host where the task takes
    REFERENCE_S.

    The tasks run on a thread of their own while the main thread waits, so
    that their allocations come from that thread's malloc arena: made from
    the main heap at whatever moment the signal lands, they would change
    how the program's own arrays fragment it, and so its peak RSS.
    """

    REFERENCE_S = 0.01
    INTERVAL_S = 0.2
    BURST = 4

    def __init__(self, directory):
        self.path = Path(directory) / "host_probe.json"
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((64, 64)) / 64.0
        self.b = np.empty_like(self.a)
        self.x = rng.standard_normal(32_768)
        self.y = np.empty_like(self.x)
        # a minimax fit LP shaped like kernel_fit's, at half its size
        freqs, rates = np.linspace(0.0, 4.0, 128), np.linspace(0.2, 3.0, 12)
        design = np.exp(-np.outer(freqs, rates))
        target = np.exp(-(freqs**2) / 2.0)
        ones = np.ones((freqs.size, 1))
        self.lp = dict(
            c=np.r_[np.zeros(rates.size), 1.0],
            A_ub=np.vstack([np.hstack([design, -ones]), np.hstack([-design, -ones])]),
            b_ub=np.r_[target, -target],
            bounds=[(None, None)] * rates.size + [(0.0, None)],
            method="highs",
        )
        self.samples = []
        self._requests = queue.SimpleQueue()
        self._replies = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, name="host-speed", daemon=True)
        self._thread.start()
        self._probe()  # the first call pays one-time costs
        self._last = self._burst()

    def _serve(self):
        while self._requests.get():
            self._replies.put(self._task())

    def _probe(self):
        self._requests.put(True)
        return self._replies.get()

    def close(self):
        self._requests.put(False)
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _task(self):
        start = perf_counter()
        for _ in range(60):
            np.dot(self.a, self.a, out=self.b)
            np.tanh(self.b, out=self.a)
        for _ in range(25):
            np.exp(self.x, out=self.y)
            np.multiply(self.y, self.x, out=self.y)
            self.y.sum()
        linprog(**self.lp)
        ",".join(f"{v:.6g}" for v in self.x[:1000])
        blob = {f"k{i}": self.x[i : i + 4].tolist() for i in range(60)}
        self.path.write_text(json.dumps(blob, indent=2, sort_keys=True))
        json.loads(self.path.read_text())
        total = 0
        for i in range(5000):
            total += i % 7
        return perf_counter() - start

    def _burst(self):
        burst = [self._probe() for _ in range(self.BURST)]
        self.samples.extend(burst)
        return burst

    def time(self, fn):
        """Run `fn()`: (its result, its seconds, its host seconds)."""
        during = []
        paused = 0.0

        def on_alarm(signum, frame):
            nonlocal paused
            enter = perf_counter()
            during.append(self._probe())
            paused += perf_counter() - enter

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self.samples.extend(during)
        before, self._last = self._last, self._burst()
        return result, end - start - paused, statistics.median(before + during + self._last)

    @classmethod
    def scaled(cls, seconds, host_s):
        return seconds * cls.REFERENCE_S / host_s


def machine_facts():
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "msreg_threads": os.environ.get("MSREG_THREADS"),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _check_repeats(pipelines):
    """Output digests and traced counts must match the first run of the set."""
    problems = []
    first = pipelines[0]
    for pipeline in pipelines[1:]:
        for verb, ref in zip(pipeline.verbs, first.verbs):
            if verb.digest and ref.digest and verb.digest != ref.digest:
                verb.problems.append("outputs differ from the first run of this set")
    traced = [p for p in pipelines if p.traced]
    for pipeline in traced[1:]:
        for key in DETERMINISTIC:
            if pipeline.layers[key] != traced[0].layers[key]:
                problems.append(
                    f"{key} did not repeat: {traced[0].layers[key]} != {pipeline.layers[key]}"
                )
    return problems


def end_to_end(pipelines, setups, scaled=True):
    """End-to-end metrics; timings in reference seconds unless not `scaled`.

    `setups` holds (seconds, host seconds) pairs.
    """

    def time(seconds, host_s):
        return HostSpeed.scaled(seconds, host_s) if scaled else seconds

    per_verb = {
        f"{name.replace('-', '_')}_s": _median(
            [time(v.seconds, v.host_s) for p in pipelines for v in p.verbs if v.verb == name]
        )
        for (name, *_) in VERBS
    }
    quality = pipelines[0].quality
    return {
        "setup_s": _median([time(*setup) for setup in setups]),
        # a run can end inside a pipeline, so this sums per-verb medians
        "pipeline_s": sum(per_verb.values()),
        **per_verb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{
            key: float(quality.get(key, 0.0))
            for key in ("objective_value", "endpoint_rmse_max", "reconstruction_err")
        },
    }


def per_layer(pipelines):
    traced = [p for p in pipelines if p.traced]
    untraced = [p.seconds for p in pipelines if not p.traced]
    layers = {
        key: _median([p.layers[key] for p in traced]) for key in traced[0].layers
    }
    layers["trace.overhead_s"] = _median([p.seconds for p in traced]) - _median(untraced)
    return layers


def run_benchmark(name, seed, seconds, trace):
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        record = _measure(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = record["metrics"]
    units = record["units"]
    for key, value in {**metrics, **record["extra"]}.items():
        print(f"{name:>18}  {key:<32} {value:>16.6g} {units.get(key, '')}")
    print(
        f"{name:>18}  pipelines={record['samples']} "
        f"setups={len(record['setup_samples_s'])} attempted={record['attempted']} "
        f"failed={record['failed']} host_samples={len(record['host_samples_s'])} "
        f"host_median_s={statistics.median(record['host_samples_s']):.4g}"
    )
    for problem in record["problems"]:
        print(f"{name:>18}  problem: {problem}", file=sys.stderr)
    result_path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _measure(workload, seed, seconds, trace, scratch):
    work = scratch / "work"
    with HostSpeed(scratch) as host:
        # one set-up: write and validate the seeded config, then warm the
        # program up on a tiny config; a single one of these is too short to time
        # steadily on a shared host, so setup_s is the median of several
        setups = [
            host.time(lambda: set_up_once(workload, seed, work))[1:]
            for _ in range(SETUP_SAMPLES)
        ]
        pipelines = []
        start = perf_counter()
        if trace:
            # untraced and traced pipelines alternate, so that the difference
            # between them (the tracing overhead) sees the same host drift; they
            # run without HostSpeed, whose probes would land in spans
            walls, tracers = [], []
            while len(pipelines) < 2 or perf_counter() - start + _median(walls) <= seconds:
                begin = perf_counter()
                tracer = Tracer(run_id=len(pipelines)) if len(pipelines) % 2 else None
                pipelines.append(run_pipeline(workload, seed, work, tracer))
                walls.append(perf_counter() - begin)
                if tracer is not None:
                    tracers.append(tracer)
            tracers[0].write(OUT / f"{workload.name}-seed{seed}-spans.jsonl.gz")
        else:
            # verbs run in pipeline order while the next one is likely to end
            # within the run; the first pipeline always runs whole
            def fits(verb):
                walls = [v.wall for p in pipelines for v in p.verbs if v.verb == verb]
                return not walls or perf_counter() - start + _median(walls) <= seconds

            while not pipelines or len(pipelines[-1].verbs) == len(VERBS):
                pipeline = run_pipeline(workload, seed, work, host=host, fits=fits)
                if not pipeline.verbs:
                    break
                pipelines.append(pipeline)
    problems = _check_repeats(pipelines)
    verbs = [v for p in pipelines for v in p.verbs]
    failed = [v for v in verbs if v.problems]
    problems += [f"{v.verb}: {'; '.join(v.problems)}" for v in failed]
    if trace:
        metrics = per_layer(pipelines)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(pipelines, setups)
        units = dict(END_TO_END)
    quality = pipelines[0].quality
    extra = {
        "error_rate": len(failed) / len(verbs),
        "folded_cells": quality.get("folded_cells", 0),
    }
    units.update(error_rate="1", folded_cells="count")
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "seconds": seconds,
        "config": workload.config(seed, scratch / "work" / "msreg_out"),
        "machine": machine_facts(),
        "host_samples_s": host.samples,
        "raw_seconds": {
            k: v
            for k, v in end_to_end(pipelines, setups, scaled=False).items()
            if END_TO_END[k] == "s"
        },
        "samples": len(pipelines),
        "setup_samples_s": setups,
        "pipelines": [
            {
                "traced": p.traced,
                "verbs": [vars(v) for v in p.verbs],
                "layers": p.layers,
            }
            for p in pipelines
        ],
        "attempted": len(verbs),
        "failed": len(failed),
        "correct": not problems,
        "problems": problems,
        "metrics": metrics,
        "extra": extra,
        "units": units,
    }
