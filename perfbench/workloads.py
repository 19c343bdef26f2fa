"""Workload definitions, config generation and the correctness gate.

Each workload is a list of ``(experiment, params)`` steps run back to back
through ``rmt_equiv.cli``. The full-size parameters are frozen copies of the
shipped ``configs/*.cfg`` (or of the generated ridgeless sweep), so that an
edit to a shipped config does not silently change what the benchmark measures.
The seed is never part of a definition: it comes from ``--seed`` and is
written into every generated config.

The gate mirrors the tolerances of ``tests/test_acceptance.py`` without
loosening them; each check is one operation for ``failed_share``.
"""

import csv
import math
import os

RIDGE_DD = {
    "p": 512, "sigma2": 0.1, "beta_norm2": 1.0, "trials": 30,
    "gammas": [0.00001, 0.1],
    "ratios": [0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25,
               1.5, 2.0, 3.0, 4.0, 8.0, 16.0],
    "theory_grid": 96,
}
RIDGE_RIDGELESS = {
    "p": 512, "sigma2": 0.1, "beta_norm2": 1.0, "trials": 20, "gammas": [0.0],
    "ratios": [0.25, 0.5, 0.8, 1.25, 2.0, 4.0, 8.0], "theory_grid": 0,
}
RF_SWEEP = {
    "n": 512, "p": 256, "n_test": 512, "gamma": 0.1, "trials": 30,
    "activation": "relu",
    "d_over_n": [0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
}
MP = {"p": 1024, "c_list": [0.1, 0.5, 1.0, 2.0], "bins": 60}
TANH_DEMO = {"n": 500, "draws": 2000, "bins": 50}
KERNEL_LIN = {"sizes": [128, 256, 512, 1024], "activation": "relu"}
CK_DEPTH = {"layers": 10, "n": 256, "p": 256, "width": 8192}
DYNAMICS = {"d": 24, "n": 48, "eta": 1.0,
            "times": [0.0, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0], "nodes": 512}

WORKLOADS = {
    # the slowest shipped config: random generation and gamma > 0 ridge solves,
    # with two gammas per (ratio, trial) that could share one draw
    "ridge_dd": [("ridge-sweep", RIDGE_DD)],
    # the same ridge layer on its gamma = 0 lstsq path: nothing to share across
    # gammas, so a gain for the two-gamma solve path that costs this shows here
    "ridge_ridgeless": [("ridge-sweep", RIDGE_RIDGELESS)],
    # rf_nn features, fits and theory; almost no randgen or ridge work
    "rf_sweep": [("rf-sweep", RF_SWEEP)],
    # the only workload that runs spectral, hermite_kernels, dynamics, the MP
    # law in det_equiv and most CSV output; mostly inline algebra in cli
    "spectra": [("mp", MP), ("tanh-demo", TANH_DEMO), ("kernel-lin", KERNEL_LIN),
                ("ck-depth", CK_DEPTH), ("dynamics", DYNAMICS)],
}

# toy sizes for the set-up pass: every code path of the full pass, little work
TOY = {
    "ridge-sweep": {"p": 32, "trials": 2, "ratios": [0.5, 2.0]},
    "rf-sweep": {"n": 32, "p": 16, "n_test": 32, "trials": 2,
                 "d_over_n": [0.5, 2.0]},
    "mp": {"p": 64, "c_list": [0.5, 2.0]},
    "tanh-demo": {"n": 50, "draws": 100},
    "kernel-lin": {"sizes": [16, 32]},
    "ck-depth": {"layers": 3, "n": 16, "p": 16, "width": 64},
    "dynamics": {"d": 8, "n": 16, "times": [0.0, 1.0], "nodes": 32},
}

PEAK_BAND = (0.9, 1.1)       # criterion 4 skips ratios in this band
RIDGE_REL_TOL = 0.05         # criterion 4
RIDGE_SIGMA_TOL = 3.0        # criterion 4: |d| <= 3 stderr
RF_REL_TOL = 0.05            # criterion 10
KS_TOL = 0.03                # criterion 1
KERNEL_LIN_FIRST_TOL = 0.25  # criterion 9
CK_GAP_TOL = 0.2             # criterion 12
CONTOUR_TOL = 1e-7           # criterion 13


def steps(workload, toy=False):
    """(experiment, params) steps of a workload, at full or toy size."""
    out = []
    for experiment, params in WORKLOADS[workload]:
        params = dict(params)
        if toy:
            params.update(TOY[experiment])
        out.append((experiment, params))
    return out


def _fmt(value):
    if isinstance(value, list):
        return ", ".join(repr(v) for v in value)
    return str(value)


def write_configs(workload, seed, directory, toy=False):
    """Write one config file per step; returns [(experiment, cfg_path, out_dir)]."""
    os.makedirs(directory, exist_ok=True)
    made = []
    for experiment, params in steps(workload, toy):
        path = os.path.join(directory, f"{experiment}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"seed = {seed}\n")
            for key, value in params.items():
                fh.write(f"{key} = {_fmt(value)}\n")
        made.append((experiment, path, os.path.join(directory, experiment)))
    return made


def _tag(c):
    return f"{c:g}".replace(".", "p")


def expected_files(experiment, params):
    """CSV names the CLI promises for one experiment."""
    if experiment == "mp":
        names = [f"mp_{kind}_c{_tag(c)}.csv" for c in params["c_list"]
                 for kind in ("hist", "density")]
        return names + ["mp_summary.csv"]
    return {
        "tanh-demo": ["tanh_demo_hist.csv", "tanh_demo_curves.csv",
                      "tanh_demo_summary.csv"],
        "ridge-sweep": ["ridge_sweep.csv"],
        "rf-sweep": ["rf_sweep.csv"],
        "kernel-lin": ["activation_coeffs.csv", "kernel_lin.csv"],
        "ck-depth": ["ck_depth.csv"],
        "dynamics": ["flow_trajectory.csv", "ntk_trajectory.csv",
                     "dynamics_summary.csv"],
    }[experiment]


def _num(field):
    return float(field) if field else math.nan


def read_rows(path):
    """Result rows of a summary CSV as dicts with float fields."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("ratio", "gamma", "empirical_mean", "empirical_stderr", "theory"):
            row[key] = _num(row[key])
    return rows


def _rel(row):
    d = abs(row["empirical_mean"] - row["theory"])
    return d / abs(row["theory"]) if row["theory"] else math.inf


def _sigmas(row):
    d = abs(row["empirical_mean"] - row["theory"])
    se = row["empirical_stderr"]
    if d == 0:
        return 0.0
    return d / (RIDGE_SIGMA_TOL * se) if se > 0 else math.inf


def _row_id(row):
    return f"ratio={row['ratio']:g} gamma={row['gamma']:g} {row['metric']}"


def _gated(row):
    return row["status"] == "ok" and math.isfinite(row["theory"])


def check_outputs(experiment, out_dir):
    """Gate one experiment's CSVs; returns (checks_made, failures).

    A failure is a short string naming the row (ratio, gamma, metric) or the
    whole-sweep property that missed its acceptance tolerance.
    """
    if experiment == "ridge-sweep":
        checks, fails = 0, []
        for row in read_rows(os.path.join(out_dir, "ridge_sweep.csv")):
            if not _gated(row) or PEAK_BAND[0] <= row["ratio"] <= PEAK_BAND[1]:
                continue
            checks += 1
            rel, sig = _rel(row), _sigmas(row)
            if not (rel <= RIDGE_REL_TOL and sig <= 1.0):
                fails.append(f"{_row_id(row)}: empirical {row['empirical_mean']:.4g}"
                             f" theory {row['theory']:.4g} rel {rel:.3g}"
                             f" |d|/3se {sig:.3g}")
        return checks, fails
    if experiment == "rf-sweep":
        checks, fails = 0, []
        for row in read_rows(os.path.join(out_dir, "rf_sweep.csv")):
            if not _gated(row):
                continue
            checks += 1
            if not _rel(row) <= RF_REL_TOL:
                fails.append(f"{_row_id(row)}: empirical {row['empirical_mean']:.4g}"
                             f" theory {row['theory']:.4g} rel {_rel(row):.3g}")
        return checks, fails
    if experiment == "mp":
        rows = read_rows(os.path.join(out_dir, "mp_summary.csv"))
        fails = [f"{_row_id(r)}: KS {r['empirical_mean']:.4g} > {KS_TOL}"
                 for r in rows if not r["empirical_mean"] <= KS_TOL]
        return len(rows), fails
    if experiment == "kernel-lin":
        gaps = [r["empirical_mean"]
                for r in read_rows(os.path.join(out_dir, "kernel_lin.csv"))]
        ok = gaps[0] <= KERNEL_LIN_FIRST_TOL and all(
            b < a for a, b in zip(gaps, gaps[1:]))
        return 1, [] if ok else [f"linearization gaps {gaps}: first <= "
                                 f"{KERNEL_LIN_FIRST_TOL}, strictly decreasing"]
    if experiment == "ck-depth":
        rows = read_rows(os.path.join(out_dir, "ck_depth.csv"))
        a1 = [r["empirical_mean"] for r in rows if r["metric"] == "alpha1"]
        dist = {r["ratio"]: r["empirical_mean"] for r in rows
                if r["metric"] == "distance_to_identity"}
        gap = next(r["empirical_mean"] for r in rows
                   if r["metric"] == "empirical_ck_gap")
        fails = []
        if not all(b < a for a, b in zip(a1[1:], a1[2:])):
            fails.append(f"alpha1 not strictly decreasing past layer 1: {a1}")
        if not dist[max(dist)] < dist[1.0]:
            fails.append(f"||K_L - I|| {dist[max(dist)]:.4g} not below "
                         f"||K_1 - I|| {dist[1.0]:.4g}")
        if not gap <= CK_GAP_TOL:
            fails.append(f"empirical CK gap {gap:.4g} > {CK_GAP_TOL}")
        return 3, fails
    if experiment == "dynamics":
        rows = read_rows(os.path.join(out_dir, "dynamics_summary.csv"))
        fails = [f"{_row_id(r)}: |contour - direct| {r['empirical_mean']:.3g}"
                 f" > {CONTOUR_TOL}" for r in rows
                 if not r["empirical_mean"] <= CONTOUR_TOL]
        return len(rows), fails
    return 0, []  # tanh-demo: no acceptance criterion matches its rows
