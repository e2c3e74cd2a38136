"""Call tracing for the msreg benchmark, installed from outside the package.

`Tracer.install()` replaces selected msreg functions and methods with
wrappers that record one span per call: name, start, end, parent span and
run id.  Module-level functions are replaced in every loaded msreg module
that holds a reference to them (for example `msreg.cli` imports its own
`integrate_forward`), so no call path escapes the trace.  Spans stay in
memory; `layer_metrics` derives per-layer counts, times and self times from
them once the traced pipeline has finished.
"""

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, run):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "run": self.run,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


def _kernel_matrix_args(kernel, scales_i, Xi, scales_j=None, Xj=None, deriv=False):
    if scales_j is None:
        scales_j, Xj = scales_i, Xi
    return scales_i, Xi, scales_j, Xj, deriv


def _observe_kernel_matrix(tracer, span, args, kwargs, result):
    scales_i, Xi, scales_j, Xj, deriv = _kernel_matrix_args(*args, **kwargs)
    count_i = dict(zip(*np.unique(scales_i, return_counts=True)))
    count_j = dict(zip(*np.unique(scales_j, return_counts=True)))
    pairs = int(Xi.shape[0] * Xj.shape[0])
    # each mixture slice taken inside this call covers one (scale_i, scale_j)
    # block of the matrix; its terms are evaluated once per pair in the block
    terms = sum(
        int(count_i[lam] * count_j[mu]) * nterms
        for lam, mu, nterms in (span.attrs or {}).pop("slices", ())
    )
    full_arrays = Xi.shape[1] + 2 + (1 if deriv else 0)  # diff, u, K (and dK)
    span.attrs = {
        "pairs": pairs,
        "terms": terms,
        "bytes": 8 * (terms + pairs * full_arrays),
    }


def _observe_slice(tracer, span, args, kwargs, result):
    nterms = len(result[1])
    span.attrs = {"terms": nterms}
    parent = tracer.spans[span.parent] if span.parent is not None else None
    if parent is not None and parent.name == "flow.kernel_matrix":
        if parent.attrs is None:
            parent.attrs = {"slices": []}
        parent.attrs["slices"].append((args[1], args[2], nterms))


def _observe_transport(tracer, span, args, kwargs, result):
    trajectory, points = args[1], args[4]
    span.attrs = {"point_steps": int(len(points) * trajectory.num_steps)}


def _observe_fit(tracer, span, args, kwargs, result):
    span.attrs = {
        "max_relative_residual": result.report["max_relative_residual"],
        "min_offdiagonal_margin": result.report["min_offdiagonal_margin"],
    }


def _observe_optimize(tracer, span, args, kwargs, result):
    span.attrs = {"iters": len(result.history) - 1}


# (module, attribute path, span name, observer run after each call)
TARGETS = [
    ("msreg.config", "ExperimentConfig.load", "config.load", None),
    ("msreg.config", "ExperimentConfig.override", "config.override", None),
    ("msreg.spectral", "compute_spectral_table", "spectral.compute_spectral_table", None),
    ("msreg.kernel_fit", "fit_kernel_table", "kernel_fit.fit_kernel_table", _observe_fit),
    ("msreg.kernel_fit", "linprog", "kernel_fit.linprog", None),
    ("msreg.kernel_fit", "KernelTable.slice", "scale_kernels.slice", _observe_slice),
    ("msreg.scale_kernels", "DiracPiecewiseKernel.slice", "scale_kernels.slice", _observe_slice),
    ("msreg.flow", "kernel_matrix", "flow.kernel_matrix", _observe_kernel_matrix),
    ("msreg.flow", "integrate_forward", "flow.integrate_forward", None),
    ("msreg.flow", "_transport", "flow.transport", _observe_transport),
    ("msreg.flow", "transport_grid", "flow.transport_grid", None),
    ("msreg.flow", "inverse_map", "flow.inverse_map", None),
    ("msreg.flow", "residual_maps", "flow.residual_maps", None),
    ("msreg.flow", "log_jacobian", "flow.log_jacobian", None),
    ("msreg.registration", "optimize", "registration.optimize", _observe_optimize),
    ("msreg.registration", "Objective.evaluate", "registration.evaluate", None),
    ("msreg.registration", "Objective.gradient", "registration.gradient", None),
    ("msreg.cli", "main", "cli.main", None),
    ("msreg.cli", "cmd_fit_kernel", "cli.verb", None),
    ("msreg.cli", "cmd_register", "cli.verb", None),
    ("msreg.cli", "cmd_export_fields", "cli.verb", None),
    ("msreg.cli", "_write_manifest", "cli.write", None),
    ("msreg.cli", "_write_svg", "cli.write", None),
    ("msreg.config", "ExperimentConfig.save", "cli.write", None),
    ("msreg.flow", "DeformationField.save_csv", "cli.write", None),
    ("msreg.kernel_fit", "KernelTable.save_binary", "cli.write", None),
    ("msreg.kernel_fit", "KernelTable.save_csv", "cli.write", None),
    ("msreg.kernel_fit", "KernelTable.save_report", "cli.write", None),
    ("msreg.spectral", "SpectralTable.save_binary", "cli.write", None),
]

# Wrappers that only count calls: one LP problem per call, however many
# `linprog` attempts it takes.
COUNTERS = [("msreg.kernel_fit", "_solve_minimax", "kernel_fit.lp_problems")]


class Tracer:
    """Records spans for calls into msreg while installed."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), name, stack[-1].id if stack else None, tracer.run_id)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, span, args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_one(self, module_name, path, make):
        module = sys.modules[module_name]
        if "." in path:  # a method: replace it on the class that defines it
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._patch(cls, attr, make(raw))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "msreg" or name.startswith("msreg."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def install(self):
        import msreg.cli  # noqa: F401  (loads every module the CLI imports)

        try:
            for module_name, path, name, observe in TARGETS:
                self._install_one(
                    module_name, path, lambda fn, n=name, o=observe: self._wrap(fn, n, o)
                )
            for module_name, path, name in COUNTERS:
                self._install_one(module_name, path, lambda fn, n=name: self._counter(fn, n))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_seconds(spans):
    """Per-span self time: its duration minus that of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]


def _has_ancestor(spans, span, name):
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(tracer):
    """Per-layer metrics of one traced pipeline (see BENCHMARK.json)."""
    spans = tracer.spans
    own = self_seconds(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def count(name):
        return len(by_name[name])

    def total(spans_):
        return sum(s.seconds for s in spans_)

    def seconds(name):
        return total(by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    fits = by_name["kernel_fit.fit_kernel_table"]
    lp_problems = tracer.counts["kernel_fit.lp_problems"]
    lp_calls = count("kernel_fit.linprog")
    kernel_terms = attr_sum("flow.kernel_matrix", "terms")
    kernel_bytes = attr_sum("flow.kernel_matrix", "bytes")
    optimize_s = seconds("registration.optimize")
    iters = attr_sum("registration.optimize", "iters")
    line_search = [
        s for s in by_name["registration.evaluate"]
        if spans[s.parent].name == "registration.optimize"
    ]
    slice_calls = count("scale_kernels.slice")
    return {
        "spectral.tables": count("spectral.compute_spectral_table"),
        "spectral.solve_s": seconds("spectral.compute_spectral_table"),
        "kernel_fit.fits": len(fits),
        "kernel_fit.fit_s": total(fits),
        "kernel_fit.self_s": sum(own[s.id] for s in fits),
        "kernel_fit.lp_problems": lp_problems,
        "kernel_fit.lp_calls": lp_calls,
        "kernel_fit.lp_s": seconds("kernel_fit.linprog"),
        "kernel_fit.lp_useful_ratio": lp_problems / lp_calls if lp_calls else 0.0,
        "kernel_fit.max_rel_residual": max(
            (s.attrs["max_relative_residual"] for s in fits), default=0.0
        ),
        "kernel_fit.min_offdiag_margin": min(
            (s.attrs["min_offdiagonal_margin"] for s in fits), default=0.0
        ),
        "flow.kernel_matrix_calls": count("flow.kernel_matrix"),
        "flow.kernel_matrix_s": seconds("flow.kernel_matrix"),
        "flow.kernel_pairs": attr_sum("flow.kernel_matrix", "pairs"),
        "flow.kernel_terms": kernel_terms,
        "flow.kernel_tensor_bytes": kernel_bytes,
        "flow.kernel_terms_per_byte": kernel_terms / kernel_bytes if kernel_bytes else 0.0,
        "flow.integrate_forward_calls": count("flow.integrate_forward"),
        "flow.integrate_forward_s": seconds("flow.integrate_forward"),
        "flow.transports": count("flow.transport"),
        "flow.transport_point_steps": attr_sum("flow.transport", "point_steps"),
        "flow.transport_s": seconds("flow.transport"),
        "flow.log_jacobian_s": seconds("flow.log_jacobian"),
        "registration.optimize_s": optimize_s,
        "registration.lbfgs_iters": iters,
        "registration.evaluate_calls": len(line_search),
        "registration.gradient_calls": count("registration.gradient"),
        "registration.forward_passes": sum(
            _has_ancestor(spans, s, "registration.optimize")
            for s in by_name["flow.integrate_forward"]
        ),
        "registration.accept_ratio": iters / len(line_search) if line_search else 0.0,
        "registration.evaluate_s": total(line_search),
        "registration.gradient_s": seconds("registration.gradient"),
        "registration.s_per_iter": optimize_s / iters if iters else 0.0,
        "scale_kernels.slice_calls": slice_calls,
        "scale_kernels.slice_s": seconds("scale_kernels.slice"),
        "scale_kernels.terms_per_slice": (
            attr_sum("scale_kernels.slice", "terms") / slice_calls if slice_calls else 0.0
        ),
        "cli.write_s": seconds("cli.write"),
        "cli.verb_self_s": sum(own[s.id] for s in by_name["cli.verb"]),
        "config.load_s": seconds("config.load") + seconds("config.override"),
    }
