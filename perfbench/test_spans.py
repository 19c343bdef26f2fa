"""Self-time arithmetic on synthetic spans: ``python3 -m pytest perfbench``."""

import json
import os
import sys

import pytest

from spans import Tracer, call_counts, layer_metrics, self_times

# pass 0:  cli [0, 10]
#            randgen [1, 3]
#            ridge.fit [3, 8]
#              kernels [4, 5]
#              kernels [6, 7.5]
# pass 1:  cli [20, 24]
#            results [21, 23]
SPANS = [
    ["cli", 0.0, 10.0, None, 0],
    ["randgen", 1.0, 3.0, 0, 0],
    ["ridge.fit", 3.0, 8.0, 0, 0],
    ["kernels", 4.0, 5.0, 2, 0],
    ["kernels", 6.0, 7.5, 2, 0],
    ["cli", 20.0, 24.0, None, 1],
    ["results", 21.0, 23.0, 5, 1],
]


def test_self_time_is_duration_minus_direct_children():
    got = self_times(SPANS, pass_id=0)
    assert got == {"cli": 3.0, "randgen": 2.0, "ridge.fit": 2.5, "kernels": 2.5}


def test_self_times_of_a_pass_sum_to_its_root_span():
    for pid, root in ((0, 10.0), (1, 4.0)):
        assert sum(self_times(SPANS, pid).values()) == pytest.approx(root)


def test_all_passes_and_call_counts():
    assert self_times(SPANS)["cli"] == pytest.approx(5.0)
    assert call_counts(SPANS, 0) == {"randgen": 1, "ridge.fit": 1, "kernels": 2}


def test_layer_metrics_fill_every_name():
    out = layer_metrics(SPANS, {"randgen.bytes": 64}, 1)
    assert out["results.self_s"] == 2.0 and out["cli.self_s"] == 2.0
    assert out["randgen.self_s"] == 0.0 and out["randgen.bytes"] == 64
    assert out["ridge.fit.lstsq_calls"] == 0


def test_install_wraps_every_lookup_and_uninstall_restores_it():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    import rmt_equiv
    from rmt_equiv import randgen, ridge

    original = randgen.gaussian_matrix
    tracer = Tracer()
    tracer.install(rmt_equiv)
    assert ridge.gaussian_matrix is randgen.gaussian_matrix is not original
    tracer.begin_pass()
    ridge.sweep_double_descent(ridge.SweepSpec(ratios=[2.0], gammas=[0.0],
                                               trials=2, p=8))
    tracer.end_pass()
    tracer.uninstall()
    assert ridge.gaussian_matrix is randgen.gaussian_matrix is original

    # per trial: X (8 x 16) and y (16) are drawn, and one lstsq fit is made
    assert call_counts(tracer.spans, 0) == {"ridge.sweep": 1, "randgen": 4,
                                           "ridge.fit": 2, "ridge.risks": 2,
                                           "ridge.theory": 2}
    assert tracer.counts[0]["randgen.bytes"] == 2 * (8 * 16 + 16) * 8
    assert tracer.counts[0]["ridge.fit.lstsq_calls"] == 2
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans, 0).values()) == pytest.approx(root[2] - root[1])


def test_layer_metrics_are_the_declared_per_layer_metrics():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    measured = set(layer_metrics(SPANS, {}, 0))
    assert declared == measured | {"trace.pass_s", "trace.overhead_s",
                                   "baseline.blas1_pass_s"}
