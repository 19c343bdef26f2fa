"""Child process of the benchmark: runs one workload's passes through the CLI.

Started by ``run.py`` with ``PYTHONPATH=src``, one process at a time. It reads
the generated configs, runs a toy warm-up pass so that lazy first-call costs
are paid, then times full passes for ``--seconds``, cycling through the pass
kinds of ``--kinds`` (each kind at least once; none in a set-up run). Every
pass is hashed outside its timed region, and the first full pass is also
gated: the later ones must match it byte for byte (``run.py`` checks that), so
their rows would only repeat its verdicts. The result is one JSON object
written to ``--result``.
"""

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import sys
import time


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def env_record():
    """Versions, BLAS and core count as seen by this process."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    import rmt_equiv
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "has_numba": rmt_equiv.HAS_NUMBA}


def run_pass(cli, plan):
    """Run every (experiment, config, out_dir) of a plan; returns exit codes."""
    codes = []
    for experiment, cfg, out in plan:
        shutil.rmtree(out, ignore_errors=True)
        codes.append(cli.run(cli.parse_config(cfg, experiment), out_dir=out, threads=1))
    return codes


def inspect_pass(plan, codes, steps, gate=True):
    """Check one finished pass: exit codes, expected files and, when ``gate``
    is set, the acceptance tolerances of its rows.

    Returns a dict with the operations ``attempted``, the ``errors`` (a run
    that exited non-zero or lost a CSV), the ``misses`` (rows outside their
    tolerance) and the sha256 ``digests`` of every output file.
    """
    from workloads import check_outputs, expected_files
    out = {"attempted": 0, "errors": [], "misses": [], "digests": {}}
    for (experiment, _, out_dir), code, (_, params) in zip(plan, codes, steps):
        out["attempted"] += 1
        if code != 0:
            out["errors"].append(f"{experiment}: cli.run exited {code}")
            continue
        missing = [f for f in expected_files(experiment, params)
                   if not os.path.isfile(os.path.join(out_dir, f))]
        if missing:
            out["errors"].append(f"{experiment}: missing {', '.join(missing)}")
            continue
        for name in sorted(os.listdir(out_dir)):
            out["digests"][f"{experiment}/{name}"] = _sha256(os.path.join(out_dir, name))
        if gate:
            checks, misses = check_outputs(experiment, out_dir)
            out["attempted"] += checks
            out["misses"] += [f"{experiment}: {m}" for m in misses]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--configs", required=True)
    ap.add_argument("--toy-configs")
    ap.add_argument("--kinds", default="",
                    help="cycle of pass kinds: u (untraced), t (traced)")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import steps

    t0 = time.perf_counter()
    import rmt_equiv
    from rmt_equiv import cli
    import_s = time.perf_counter() - t0

    with open(args.configs, encoding="utf-8") as fh:
        plan = json.load(fh)
    full_steps = steps(args.workload)
    result = {"import_s": import_s, "passes": []}

    if args.toy_configs:
        with open(args.toy_configs, encoding="utf-8") as fh:
            toy = json.load(fh)
        t0 = time.perf_counter()
        codes = run_pass(cli, toy)
        result["warmup_s"] = time.perf_counter() - t0
        result["toy"] = inspect_pass(toy, codes, steps(args.workload, toy=True),
                                     gate=False)

    # untraced ("u") and traced ("t") passes alternate, so that neither kind
    # takes all the passes that run while the process is still warming up
    tracer = None
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(args.kinds) and time.perf_counter() - start >= args.seconds:
            break
        traced = args.kinds[i % len(args.kinds)] == "t"
        if traced:
            if tracer is None:
                from spans import Tracer
                tracer = Tracer()
            tracer.install(rmt_equiv)
            tracer.begin_pass()
        w0, c0 = time.perf_counter(), time.process_time()
        codes = run_pass(cli, plan)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if traced:
            tracer.end_pass()
            tracer.uninstall()
        checked = inspect_pass(plan, codes, full_steps, gate=not result["passes"])
        result["passes"].append(dict(checked, traced=traced, wall_s=wall, cpu_s=cpu))
    if tracer is not None:
        from spans import layer_metrics
        dump = tracer.dump()
        result["layers"] = [layer_metrics(dump["spans"], dump["counts"][i], i)
                            for i in range(len(dump["counts"]))]
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(dump, fh)
    if args.kinds:  # not in a set-up run, whose wall time is the measurement
        result["env"] = env_record()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
