"""Tests of the benchmark itself, on tiny configs so they run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import pytest  # noqa: E402

import bench  # noqa: E402
import spans  # noqa: E402
from msreg.config import ExperimentConfig  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _tiny(workload):
    """The workload's warm-up config, served as a benchmark workload."""
    warm = workload.warmup_config("unused")
    base = {k: v for k, v in warm.items() if k not in ("name", "shapes", "output_dir")}
    return Workload(
        name=f"{workload.name}-tiny",
        why="test",
        fitted=workload.fitted,
        rmse_bound=10.0,
        base=base,
        target=workload.target,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_are_seeded_and_valid(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.config(3, tmp_path)
    assert first == workload.config(3, tmp_path)
    assert first != workload.config(4, tmp_path)
    assert first["seed"] == 3
    ExperimentConfig(first)
    ExperimentConfig(workload.warmup_config(tmp_path))


@pytest.mark.parametrize("name", ["register-lebesgue", "dirac-closed-form"])
def test_traced_counts_and_outputs_repeat(name, tmp_path):
    workload = _tiny(WORKLOADS[name])
    runs = [
        bench.run_pipeline(workload, 5, tmp_path / "work", spans.Tracer(run_id=i))
        for i in range(2)
    ]
    for run in runs:
        assert [v.problems for v in run.verbs] == [[], [], []]
        assert set(run.layers) == set(bench.PER_LAYER) - {"trace.overhead_s"}
    first, second = runs
    for key in bench.DETERMINISTIC:
        assert first.layers[key] == second.layers[key], key
    assert first.quality == second.quality
    assert [v.digest for v in first.verbs] == [v.digest for v in second.verbs]
    assert bench._check_repeats(runs) == []
    fits = 3 if workload.fitted else 0
    assert first.layers["kernel_fit.fits"] == first.layers["spectral.tables"] == fits
    assert first.layers["flow.transports"] > 0
    assert first.layers["registration.forward_passes"] > first.layers["registration.lbfgs_iters"]


def test_untraced_pipeline_matches_traced_outputs(tmp_path):
    workload = _tiny(WORKLOADS["dirac-closed-form"])
    plain = bench.run_pipeline(workload, 2, tmp_path / "work")
    traced = bench.run_pipeline(workload, 2, tmp_path / "work", spans.Tracer())
    assert plain.layers is None
    assert [v.digest for v in plain.verbs] == [v.digest for v in traced.verbs]


def test_tracer_patches_every_namespace_and_restores():
    import msreg.cli  # noqa: F401

    def references():
        found = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "msreg" or mod_name.startswith("msreg."):
                for attr, value in vars(mod).items():
                    if callable(value):
                        found[(mod_name, attr)] = value
        return found

    targets = [t for t in spans.TARGETS + spans.COUNTERS if "." not in t[1]]
    originals = {path: getattr(sys.modules[mod], path) for mod, path, *_ in targets}
    before = references()
    with spans.Tracer():
        during = references()
        for key, value in before.items():
            if any(value is fn for fn in originals.values()):
                assert during[key] is not value, f"{key} was not traced"
        assert msreg.cli.integrate_forward is not originals["integrate_forward"]
        assert sys.modules["msreg.registration"].kernel_matrix is not originals["kernel_matrix"]
    assert references() == before


def test_self_seconds_subtracts_direct_children():
    parent = spans.Span(0, "a", None, 0)
    child = spans.Span(1, "b", 0, 0)
    grandchild = spans.Span(2, "c", 1, 0)
    for span, (start, end) in zip((parent, child, grandchild), ((0, 10), (2, 6), (3, 4))):
        span.start, span.end = start, end
    assert spans.self_seconds([parent, child, grandchild]) == [6, 3, 1]


def test_host_speed_probes_during_a_step_and_cleans_up(tmp_path):
    host = bench.HostSpeed(tmp_path)
    handler = signal.getsignal(signal.SIGALRM)
    taken = len(host.samples)

    def spin():
        deadline = perf_counter() + 0.5
        while perf_counter() < deadline:
            pass
        return "done"

    with host:
        result, seconds, host_s = host.time(spin)
    assert result == "done"
    # probes ran during the step, and their time is not the step's
    assert len(host.samples) >= taken + host.BURST + 2
    assert 0 < seconds < 0.5
    assert host_s > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert not host._thread.is_alive()


def test_quick_verbs_repeat_and_report_time_per_call(tmp_path):
    workload = _tiny(WORKLOADS["dirac-closed-form"])
    path = bench.set_up(workload, 1, tmp_path / "work")
    with bench.HostSpeed(tmp_path) as host:
        result = bench.run_verb(path, ("fit-kernel",), workload, host)
    assert result.problems == []
    assert result.calls > 1
    assert result.seconds * result.calls < 2 * bench.MIN_VERB_S


def test_a_run_ending_inside_a_pipeline_sums_verb_medians():
    def verb(name, seconds):  # timed on a host at reference speed
        return bench.VerbResult(name, 0, seconds, host_s=bench.HostSpeed.REFERENCE_S)

    pipelines = [
        bench.Pipeline([verb("fit-kernel", 1.0), verb("register", 2.0), verb("export-fields", 3.0)]),
        bench.Pipeline([verb("fit-kernel", 3.0), verb("register", 4.0), verb("export-fields", 5.0)]),
        bench.Pipeline([verb("fit-kernel", 2.0)]),
    ]
    metrics = bench.end_to_end(pipelines, [(0.5, bench.HostSpeed.REFERENCE_S)])
    assert metrics["fit_kernel_s"] == pytest.approx(2.0)
    assert metrics["register_s"] == pytest.approx(3.0)
    assert metrics["export_fields_s"] == pytest.approx(4.0)
    assert metrics["pipeline_s"] == pytest.approx(9.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
