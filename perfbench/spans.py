"""In-memory span tracing of the rmt_equiv layers, and per-layer metrics.

``Tracer.install`` replaces each traced library function with a wrapper at
every module attribute that refers to it (``ridge.gaussian_matrix``,
``cli.sphere_dataset``, ``_kernels.relu_pair_kernel``, ...), which is where
callers look it up; ``uninstall`` puts the originals back. A wrapper records a
span ``(group, start, end, parent, pass_id)`` and, for some functions, exact
counters derived from arguments or results. Nothing inside the library changes.

A span's self time is its duration minus the durations of its direct
children; the self times of one pass add up to the duration of its root span.
"""

import importlib
import os
import re
import time
from collections import defaultdict

# span group of each traced function, by defining module; a wrapper is put at
# every attribute of these modules (and of the package) that refers to one
GROUPS = {
    "randgen": {name: "randgen" for name in (
        "gaussian_matrix", "rademacher_matrix", "sphere_dataset",
        "linear_targets", "ingest_dataset")},
    "ridge": {"ridge_fit": "ridge.fit", "empirical_risks": "ridge.risks",
              "risk_theory": "ridge.theory", "ridgeless_limits": "ridge.theory",
              "sweep_double_descent": "ridge.sweep"},
    "det_equiv": {name: "det_equiv" for name in (
        "mp_stieltjes", "mp_stieltjes_derivative", "mp_density", "mp_cdf",
        "solve_delta_scm", "de_resolvents")},
    "rf_nn": {"kernel_expectation": "rf_nn.kernel", "kernel_triplet": "rf_nn.kernel",
              "rf_features": "rf_nn.features", "rf_fit": "rf_nn.fit",
              "rf_empirical_mse": "rf_nn.fit", "nn_mse_theory": "rf_nn.theory",
              "nonlinear_de_delta": "rf_nn.theory",
              "theta_fixed_point": "rf_nn.theory"},
    "_kernels": {name: "kernels" for name in (
        "relu_pair_kernel", "delta_gram_iterate", "delta_scm_iterate",
        "theta_bisect")},
    "spectral": {name: "spectral" for name in (
        "eigh", "esd_histogram", "resolvent", "empirical_stieltjes",
        "stieltjes_density", "spectral_functional", "circle_nodes",
        "check_contour", "contour_functional", "enclosing_contour",
        "ks_distance")},
    "hermite_kernels": {**{name: "hermite_kernels" for name in (
        "hermite_poly", "gaussian_expectation", "hermite_coeffs",
        "normalize_activation", "linear_equivalent_kernel", "ck_alphas",
        "ck_linear_equivalent", "ntk_recursion", "gauss_pair_kernel")},
        "write_coeff_table": "results"},
    "dynamics": {"gradient_flow_beta": "dynamics.flow", "flow_loss": "dynamics.flow",
                 "ntk_trajectory": "dynamics.flow",
                 "default_flow_contour": "dynamics.flow",
                 "contour_beta_projection": "dynamics.contour",
                 "write_trajectory": "results"},
    # the package's CSV writers form the results group; the CSVs that cli
    # writes inline count as cli time
    "results": {"write_rows": "results"},
    "cli": {"parse_config": "cli", "run": "cli"},
}

ROOT = "cli"  # the pass span: benchmark-side glue counts as cli time

SELF_GROUPS = ("randgen", "ridge.fit", "ridge.risks", "ridge.theory", "ridge.sweep",
               "det_equiv", "rf_nn.kernel", "rf_nn.features", "rf_nn.fit",
               "rf_nn.theory", "kernels", "spectral", "hermite_kernels",
               "dynamics.flow", "dynamics.contour", "results", "cli")
CALL_GROUPS = ("randgen", "ridge.fit", "det_equiv", "spectral", "hermite_kernels")

COUNTERS = ("randgen.bytes", "ridge.fit.lstsq_calls", "ridge.trials_failed",
            "rf_nn.de_iterations", "rf_nn.de_max_residual", "dynamics.contour.solves",
            "results.files", "results.bytes_written")
# counters that must repeat exactly at a fixed seed
EXACT_COUNTS = ("randgen.bytes", "ridge.fit.lstsq_calls", "dynamics.contour.solves",
                "rf_nn.de_iterations")

WRITERS = ("write_rows", "write_coeff_table", "write_trajectory")
_FAILED = re.compile(r"^(\d+)-trials-failed$")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(name, args, kwargs, result, counts):
    """Exact counters for the functions that carry them."""
    if name in GROUPS["randgen"] and name != "ingest_dataset":
        array = result if name == "linear_targets" else result.entries
        counts["randgen.bytes"] += array.nbytes
    elif name == "ridge_fit":
        if _arg(args, kwargs, 2, "gamma") == 0:
            counts["ridge.fit.lstsq_calls"] += 1
    elif name == "sweep_double_descent":
        counts["ridge.trials_failed"] += sum(
            int(m.group(1)) for row in result if row.metric == "r_in"
            for m in [_FAILED.match(row.status)] if m)
    elif name == "nonlinear_de_delta":
        counts["rf_nn.de_iterations"] += result.iterations
        counts["rf_nn.de_max_residual"] = max(counts["rf_nn.de_max_residual"],
                                              result.residual)
    elif name == "contour_beta_projection":
        counts["dynamics.contour.solves"] += _arg(args, kwargs, 6, "contour").nodes
    elif name in WRITERS:
        counts["results.files"] += 1
        counts["results.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


class Tracer:
    """Span recorder; spans and counters live in memory until ``dump``."""

    def __init__(self):
        self.spans = []          # [group, start, end, parent_index, pass_id]
        self.counts = []         # one defaultdict of counters per pass
        self._stack = []
        self._pass_id = -1
        self._patched = []       # (module, attribute, original)

    def _wrap(self, group, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [group, time.perf_counter(), None, parent, self._pass_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            _count(name, args, kwargs, result, self.counts[self._pass_id])
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Patch every module attribute that refers to a traced function."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in GROUPS}
        wrappers = {}
        for mod_name, table in GROUPS.items():
            for name, group in table.items():
                fn = getattr(modules[mod_name], name)
                wrappers[id(fn)] = (fn, self._wrap(group, name, fn))
        for mod in [*modules.values(), package]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def begin_pass(self):
        """Open the root span of a new pass."""
        self._pass_id += 1
        self.counts.append(defaultdict(int))
        self.spans.append([ROOT, time.perf_counter(), None, None, self._pass_id])
        self._stack.append(len(self.spans) - 1)

    def end_pass(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def dump(self):
        return {"fields": ["group", "start", "end", "parent", "pass_id"],
                "spans": self.spans, "counts": [dict(c) for c in self.counts]}


def self_times(spans, pass_id=None):
    """Sum of self time per group: span duration minus direct children's."""
    child = [0.0] * len(spans)
    for group, start, end, parent, pid in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (group, start, end, parent, pid) in enumerate(spans):
        if pass_id is None or pid == pass_id:
            out[group] += (end - start) - child[i]
    return out


def call_counts(spans, pass_id=None):
    out = defaultdict(int)
    for group, _, _, parent, pid in spans:
        if parent is not None and (pass_id is None or pid == pass_id):
            out[group] += 1
    return out


def layer_metrics(spans, counts, pass_id):
    """Per-layer metrics of one traced pass, in the benchmark's names."""
    selfs, calls = self_times(spans, pass_id), call_counts(spans, pass_id)
    out = {f"{g}.self_s": selfs.get(g, 0.0) for g in SELF_GROUPS}
    out.update({f"{g}.calls": calls.get(g, 0) for g in CALL_GROUPS})
    out.update({key: counts.get(key, 0) for key in COUNTERS})
    return out
