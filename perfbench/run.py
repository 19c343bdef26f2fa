"""End-to-end benchmark of the rmt-equiv CLI, with a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``): ``ridge_dd``, ``ridge_ridgeless``,
``rf_sweep``, ``spectra``. Every run generates its configs from ``--seed``
(the seed is written into each config) and drives ``rmt_equiv.cli.run`` in a
fresh child process, one process at a time, with ``threads = 1`` and BLAS at
its default thread count.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median wall time of several fresh interpreters that import
  ``rmt_equiv.cli`` and run one toy-size pass of the workload;
* ``pass_s``: median wall time of a warm full pass (time to a checked result);
* ``cpu_s``: median process CPU seconds of a full pass, all threads;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` runs untraced and traced passes in one process and a traced
pass with BLAS pinned to one thread in another, and reports the per-layer
metrics of ``spans.py`` plus ``trace.overhead_s`` and
``baseline.blas1_pass_s``. The spans are written to ``.perfbench_out/``.

Operations, each checked once per run: the exit code and expected CSVs of
the first pass of each size (toy and full); the acceptance tolerance of each
row of the first full pass; one check that every later pass exited 0 and
reproduced the CSVs of the first pass of its size byte for byte (sha256);
and, in a traced run, the trace self-checks. Later passes are not gated row
by row: being byte-identical, they would only repeat the first pass's
verdicts. So the operations of a run depend on its workload, mode and seed,
never on how many passes fit in ``--seconds``. ``failed_share`` is failed /
attempted and equals the ``failed`` / ``attempted`` fields of the result.
``correct`` is false when a run exits non-zero, loses a CSV, breaks
determinism or fails a trace self-check; a row outside its tolerance is a
failed operation, listed by (workload, ratio, gamma, metric).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS, write_configs  # noqa: E402

OUT = ".perfbench_out"
SETUP_RUNS = 7
RUN_LIMIT_S = 175  # a run must end within 180 s; children share this budget
BLAS_ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
SELF_SUM_TOL = 0.01  # traced self times must add up to the pass within 1%


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


def _child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def _worker(workload, plan, toy, result, deadline, *, kinds="", seconds=0.0,
            spans=None, env=None):
    """Run one worker process to completion; returns (wall_s, result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--configs", plan, "--toy-configs", toy, "--result", result,
           "--kinds", kinds, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    if os.path.exists(result):
        os.remove(result)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_child_env(env), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return wall, json.load(fh)


def _plan(workload, seed, directory, toy):
    plan = write_configs(workload, seed, directory, toy=toy)
    path = os.path.join(directory, "plan.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    return path


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    q = 100 * (1 - 10 / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


class Tally:
    """Attempted and failed operations of one workload, with the failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.errors = []  # the failures that make the result incorrect

    def add(self, attempted, misses=(), errors=()):
        self.attempted += attempted
        self.failures += [f"{self.workload}: {f}" for f in [*misses, *errors]]
        self.errors += [f"{self.workload}: {f}" for f in errors]

    def add_pass(self, entry):
        self.add(entry["attempted"], entry["misses"], entry["errors"])

    def check(self, ok, message, error=True):
        """One operation that fails with ``message`` unless ``ok``."""
        failed = [] if ok else [message]
        if error:
            self.add(1, errors=failed)
        else:
            self.add(1, misses=failed)

    def reproduced(self, what, *groups):
        """One operation: in each ``(label, passes)`` group, every pass after
        the first exited 0 and matches the first byte for byte."""
        bad = []
        for label, (first, *later) in groups:
            for i, entry in enumerate(later, 2):
                bad += [f"{label} {i}: {e}" for e in entry["errors"]]
                a, b = first["digests"], entry["digests"]
                diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
                if diff:
                    bad.append(f"{label} {i}: CSVs differ from the first: "
                               + ", ".join(diff))
        self.check(not bad, f"{what}: " + "; ".join(bad))

    def same(self, what, a, b, error=True):
        """One determinism check between two digest maps."""
        bad = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        self.check(not bad, f"{what}: CSVs differ at one seed: {', '.join(bad)}", error)

    def repeat(self, what, layers, error=True):
        """One check per exact counter that it repeats across traced passes."""
        for key in EXACT_COUNTS:
            seen = sorted({lay[key] for lay in layers})
            self.check(len(seen) == 1, f"{key} differs {what}: {seen}", error)


def _plans(workload, seed, base):
    return (_plan(workload, seed, os.path.join(base, "toy"), toy=True),
            _plan(workload, seed, os.path.join(base, "full"), toy=False))


def measure(workload, seed, seconds, base, tally, deadline):
    toy, full = _plans(workload, seed, base)
    result = os.path.join(base, "result.json")
    setups, toys = [], []
    for _ in range(SETUP_RUNS):
        wall, res = _worker(workload, full, toy, result, deadline)
        setups.append(wall)
        toys.append(res["toy"])

    _, res = _worker(workload, full, toy, result, deadline, kinds="u",
                     seconds=seconds)
    passes = res["passes"]
    tally.add_pass(toys[0])
    tally.add_pass(passes[0])
    tally.reproduced("passes at one seed", ("toy pass in fresh interpreter", toys),
                     ("full pass", passes))
    walls = [p["wall_s"] for p in passes]
    tail = _tail(walls)
    metrics = {"setup_s": statistics.median(setups),
               "pass_s": statistics.median(walls),
               "cpu_s": statistics.median(p["cpu_s"] for p in passes),
               "peak_rss_mb": res["peak_rss_mb"]}
    notes = [f"setup_s: median of {len(setups)} fresh interpreters "
             f"(min {min(setups):.3f}, max {max(setups):.3f})",
             f"pass_s: median of {len(walls)} passes "
             f"(min {min(walls):.4f}, max {max(walls):.4f}); "
             + ("no tail percentile below 11 passes" if tail is None
                else "p{:.0f} = {:.4f}".format(*tail)),
             f"import_s {res['import_s']:.3f}, toy warm-up {res['warmup_s']:.3f}"]
    return metrics, res["env"], notes


def trace(workload, seed, seconds, base, tally, deadline):
    toy, full = _plans(workload, seed, base)
    _, res = _worker(workload, full, toy, os.path.join(base, "result.json"), deadline,
                     kinds="ut", seconds=seconds, spans=os.path.join(base, "spans.json"))
    _, one = _worker(workload, full, toy, os.path.join(base, "blas1.json"), deadline,
                     kinds="t", spans=os.path.join(base, "spans_blas1.json"),
                     env=BLAS_ONE_THREAD)
    first = res["passes"][0]
    tally.add_pass(first)
    tally.reproduced("passes at one seed", ("untraced or traced pass", res["passes"]))
    traced = [p for p in res["passes"] if p["traced"]]
    off = []
    for entry, lay in zip(traced + one["passes"], res["layers"] + one["layers"]):
        total = sum(v for k, v in lay.items() if k.endswith(".self_s"))
        if not abs(total - entry["wall_s"]) <= SELF_SUM_TOL * entry["wall_s"]:
            off.append(f"self times sum to {total:.4f} s, traced pass took "
                       f"{entry['wall_s']:.4f} s")
    tally.check(not off, "; ".join(off))
    tally.repeat("between traced passes", res["layers"])
    # BLAS may sum in another order with one thread; the CLI promises identical
    # bytes only across its own --threads, so these two checks count a miss only
    tally.add_pass(one["passes"][0])
    tally.same("BLAS one-thread pass", first["digests"], one["passes"][0]["digests"],
               error=False)
    tally.repeat("with BLAS on one thread", [res["layers"][0], one["layers"][0]],
                 error=False)

    metrics = {k: statistics.median(lay[k] for lay in res["layers"])
               for k in res["layers"][0]}
    untraced_wall = statistics.median(p["wall_s"] for p in res["passes"]
                                      if not p["traced"])
    metrics["trace.pass_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced_wall
    metrics["baseline.blas1_pass_s"] = one["passes"][0]["wall_s"]
    notes = [f"{len(traced)} traced and {len(res['passes']) - len(traced)} untraced "
             f"passes; BLAS threads {res['env']['blas_threads']}, "
             f"{one['env']['blas_threads']} in the baseline pass"]
    return metrics, res["env"], notes


def _commit():
    """Commit of the checkout, read from .git without starting git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def bench(workload, seed, seconds, traced):
    deadline = time.monotonic() + RUN_LIMIT_S
    base = os.path.join(OUT, workload, str(seed))
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    tally = Tally(workload)
    run = trace if traced else measure
    metrics, env, notes = run(workload, seed, seconds, base, tally, deadline)
    return metrics, dict(env, seed=seed, commit=_commit()), notes, tally


def _declared(traced):
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not all(os.path.isfile(f) for f in (os.path.join("src", "rmt_equiv", "cli.py"),
                                           "BENCHMARK.json")):
        print("error: run from the repository root (src/rmt_equiv/cli.py or "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2

    units = _declared(bool(args.trace))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, env, notes, tally = bench(name, args.seed, args.seconds,
                                               bool(args.trace))
            if set(metrics) != set(units):
                raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json "
                                 f"declares {sorted(units)}")
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"[{name}] env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
        for key, value in metrics.items():
            print(f"[{name}] {key} = {value:.6g} {units[key]}")
        for note in notes:
            print(f"[{name}] note: {note}")
        share = len(tally.failures) / tally.attempted
        print(f"[{name}] failed_share = {len(tally.failures)}/{tally.attempted}"
              f" = {share:.4f}")
        for failure, times in Counter(tally.failures).items():
            print(f"[{name}] FAILED x{times} {failure}")
        out["correct"] = out["correct"] and not tally.errors
        out["attempted"] += tally.attempted
        out["failed"] += len(tally.failures)
        prefix = "" if len(names) == 1 else f"{name}/"
        out["metrics"].update({prefix + k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
