"""Experiment runner: config parsing, seeded sweeps, CSV emission.

Usage:
    rmt-equiv <experiment> --config <path> [--out <dir>] [--threads N] [--header]

Experiments: mp, tanh-demo, ridge-sweep, rf-sweep, kernel-lin, ck-depth,
dynamics. Configs are flat ``key = value`` text files ('#' starts a comment;
lists are comma-separated). The seed is mandatory and may be overridden by the
``RMT_EQUIV_SEED`` environment variable. All numeric CSV values are written
with 9 significant digits; identical configs produce byte-identical CSVs,
regardless of --threads.

Exit status: 0 success, 2 validation failure, 3 numerical failure.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import hermite_kernels as hk
from . import rf_nn
from .det_equiv import MPParams, mp_cdf, mp_density
from .errors import ConvergenceError, DatasetError, NearPhaseTransitionError, \
    SingularityError
from .randgen import gaussian_matrix, ingest_dataset, sphere_dataset
from .results import ResultRow, write_csv, write_rows
from .ridge import PEAK_RATIO_BAND, SweepSpec, risk_theory, sweep_double_descent
from .spectral import esd_histogram, ks_distance, measure_to_rows

EXPERIMENTS = ("mp", "tanh-demo", "ridge-sweep", "rf-sweep", "kernel-lin",
               "ck-depth", "dynamics")

_DEFAULTS = {
    "mp": {"c_list": [0.1, 0.5, 1.0, 2.0], "p": 1024, "bins": 60},
    "tanh-demo": {"n": 500, "draws": 2000, "bins": 50},
    "ridge-sweep": {
        "ratios": [0.25, 0.5, 0.7, 0.85, 0.95, 1.0, 1.05, 1.15, 1.35, 2.0, 4.0],
        "gammas": [1e-5, 1e-1], "trials": 30, "p": 512, "sigma2": 0.1,
        "beta_norm2": 1.0, "theory_grid": 0,
    },
    "rf-sweep": {
        "d_over_n": [0.25, 0.5, 1.0, 2.0], "n": 512, "p": 256, "n_test": 512,
        "gamma": 0.1, "trials": 30, "activation": "relu", "sigma2": 0.0,
        "dataset": "", "labels": [1.0, 2.0], "normalization": "unit-sphere",
        "mc_samples": 100_000,
    },
    "kernel-lin": {"sizes": [128, 256, 512, 1024], "activation": "relu",
                   "mc_samples": 100_000},
    "ck-depth": {"layers": 10, "n": 256, "p": 256, "width": 8192},
    "dynamics": {"d": 24, "n": 40, "eta": 1.0,
                 "times": [0.0, 0.1, 0.5, 1.0, 2.0, 5.0], "nodes": 512},
}

_LIST_KEYS = {"c_list", "ratios", "gammas", "d_over_n", "sizes", "times", "labels"}
_INT_KEYS = {"p", "n", "bins", "draws", "trials", "n_test", "layers", "width",
             "d", "nodes", "seed", "theory_grid", "mc_samples"}
_STR_KEYS = {"activation", "dataset", "normalization", "experiment"}


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)


def _parse_scalar(key, raw):
    raw = raw.strip()
    if key in _STR_KEYS:
        return raw
    if key in _INT_KEYS:
        return int(raw)
    return float(raw)


def parse_config(path, experiment=None) -> ExperimentConfig:
    """Read a flat key = value config file."""
    params = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key in _LIST_KEYS:
                items = [v for v in raw.split(",") if v.strip()]
                base = int if key == "sizes" else float
                params[key] = [base(v) for v in items]
            else:
                params[key] = _parse_scalar(key, raw)
    exp = experiment or params.pop("experiment", None)
    if exp is None:
        raise ValueError("no experiment given (CLI argument or 'experiment' key)")
    params.pop("experiment", None)
    return ExperimentConfig(experiment=exp, params=params)


def validate(config: ExperimentConfig):
    """Fill defaults and collect *all* violations; returns (config, errors, warnings)."""
    errors, warnings_ = [], []
    if config.experiment not in EXPERIMENTS:
        errors.append(f"unknown experiment {config.experiment!r}; "
                      f"choose from {', '.join(EXPERIMENTS)}")
        return config, errors, warnings_
    filled = dict(_DEFAULTS[config.experiment])
    known = set(filled) | {"seed"}
    for key, val in config.params.items():
        if key not in known and not key.startswith("_"):  # _keys are CLI-internal
            errors.append(f"unknown key {key!r} for experiment {config.experiment}")
        filled[key] = val
    env_seed = os.environ.get("RMT_EQUIV_SEED")
    if env_seed is not None:
        filled["seed"] = int(env_seed)
    if "seed" not in filled:
        errors.append("missing mandatory key 'seed'")

    p = filled.get("p")
    if p is not None and p < 1:
        errors.append("p must be >= 1")
    for key in ("trials", "bins", "draws", "layers", "width", "d", "n", "nodes"):
        if key in filled and filled[key] is not None and filled[key] < 1:
            errors.append(f"{key} must be >= 1")
    for key in ("c_list", "ratios", "gammas", "d_over_n", "sizes"):
        if key in filled and any(v < 0 for v in filled[key]):
            errors.append(f"{key} entries must be nonnegative")
    if config.experiment == "ridge-sweep":
        gams = filled["gammas"]
        for r in filled["ratios"]:
            if r > 0 and abs(1.0 / r - 1.0) < PEAK_RATIO_BAND and min(gams) < 1e-4:
                warnings_.append(
                    f"ratio {r} sits on the interpolation peak; theory value "
                    "will be near-singular at small gamma"
                )
    if config.experiment == "rf-sweep" and filled.get("gamma", 1.0) <= 0:
        errors.append("rf-sweep needs gamma > 0")
    return ExperimentConfig(config.experiment, filled), errors, warnings_


# ---------------------------------------------------------------- experiments

def _run_mp(params, out):
    rows = []
    p = params["p"]
    for c in params["c_list"]:
        n = max(1, int(round(p / c)))
        X = gaussian_matrix(p, n, 1.0, params["seed"])
        lam = np.linalg.eigvalsh(X.entries @ X.entries.T / n)
        # rank deficiency at c > 1 produces exact zeros up to rounding; clamp
        # them so they sit on the law's atom
        lam[np.abs(lam) <= lam.max() * p * np.finfo(float).eps] = 0.0
        mp = MPParams.from_ratio(p / n)
        hi = mp.edges[1] * 1.05
        hist = esd_histogram(lam, params["bins"], (0.0, hi))
        tag = f"{c:g}".replace(".", "p")
        write_csv(os.path.join(out, f"mp_hist_c{tag}.csv"),
                  "bin_left,bin_right,mass", measure_to_rows(hist))
        grid = np.linspace(max(mp.edges[0], 1e-4), mp.edges[1], 400)
        dens = mp_density(p / n, grid)
        write_csv(os.path.join(out, f"mp_density_c{tag}.csv"), "x,density",
                  zip(grid, dens))
        ks = ks_distance(lam, mp_cdf(p / n))
        rows.append(ResultRow(ratio=p / n, gamma=0.0, metric="ks_distance",
                              empirical_mean=ks, empirical_stderr=0.0,
                              theory=0.0, trials=1))
    write_rows(os.path.join(out, "mp_summary.csv"), rows)
    return rows, max(r.empirical_mean for r in rows)


def _run_tanh_demo(params, out):
    n, draws = params["n"], params["draws"]
    rng = np.random.default_rng(params["seed"])
    y = np.zeros(n)
    y[0] = 1.0
    xs = rng.standard_normal((draws, n)) / np.sqrt(n)
    f_lln = xs @ y
    f_clt = np.sqrt(n) * f_lln
    a1 = hk.hermite_coeffs(rf_nn.get_activation("tanh")).a1
    hist_rows = []
    for regime, samples, rng_hi in (("lln", f_lln, 3.0 / np.sqrt(n)),
                                    ("clt", f_clt, 3.0)):
        hist = esd_histogram(samples, params["bins"], (-rng_hi, rng_hi))
        hist_rows += [(regime, *row) for row in measure_to_rows(hist)]
    write_csv(os.path.join(out, "tanh_demo_hist.csv"),
              "regime,bin_left,bin_right,mass", hist_rows)
    grid = np.linspace(-3.0, 3.0, 241)
    write_csv(os.path.join(out, "tanh_demo_curves.csv"),
              "t,tanh,taylor_line,hermite_line",
              zip(grid, np.tanh(grid), grid, a1 * grid))
    # CLT-regime moment match: E[tanh(f) f] = a1 E[f^2] for the linearization
    emp = float(np.mean(np.tanh(f_clt) * f_clt) / np.mean(f_clt**2))
    lln_gap = float(np.abs(np.tanh(f_lln) - f_lln).max())
    rows = [
        ResultRow(ratio=float(n), gamma=0.0, metric="clt_moment_ratio",
                  empirical_mean=emp, empirical_stderr=0.0, theory=a1,
                  trials=draws),
        ResultRow(ratio=float(n), gamma=0.0, metric="lln_linearization_gap",
                  empirical_mean=lln_gap, empirical_stderr=0.0, theory=0.0,
                  trials=draws),
    ]
    write_rows(os.path.join(out, "tanh_demo_summary.csv"), rows)
    return rows, abs(emp - a1)


def _run_ridge_sweep(params, out, threads):
    spec = SweepSpec(ratios=params["ratios"], gammas=params["gammas"],
                     trials=params["trials"], p=params["p"],
                     sigma2=params["sigma2"], seed=params["seed"],
                     beta_norm2=params["beta_norm2"], threads=threads)
    rows = sweep_double_descent(spec)
    if params["theory_grid"]:
        lo, hi = min(params["ratios"]), max(params["ratios"])
        for g in params["gammas"]:
            for r in np.linspace(lo, hi, params["theory_grid"]):
                c = 1.0 / r
                try:
                    th = risk_theory(g, c, params["beta_norm2"], params["sigma2"])
                    pairs = (("r_in", th.r_in), ("r_out", th.r_out))
                except SingularityError:
                    pairs = (("r_in", float("nan")), ("r_out", float("nan")))
                for metric, val in pairs:
                    rows.append(ResultRow(ratio=float(r), gamma=g, metric=metric,
                                          empirical_mean=float("nan"),
                                          empirical_stderr=float("nan"),
                                          theory=val, trials=0,
                                          status="theory-only"))
    write_rows(os.path.join(out, "ridge_sweep.csv"), rows)
    devs = [abs(r.empirical_mean - r.theory)
            for r in rows
            if r.status == "ok" and np.isfinite(r.theory)
            and np.isfinite(r.empirical_mean)
            and abs(1.0 / r.ratio - 1.0) >= 0.1]
    return rows, (max(devs) if devs else float("nan"))


def _rf_data(params):
    n, p, n_test = params["n"], params["p"], params["n_test"]
    if params["dataset"]:
        X_all, y_all = ingest_dataset(params["dataset"],
                                      set(params["labels"]),
                                      params["normalization"],
                                      header=params.get("_header", False))
        if X_all.n < n + n_test:
            raise ValueError(
                f"dataset holds {X_all.n} filtered samples; need n+n_test={n + n_test}"
            )
        from .randgen import DataMatrix
        Xtr = DataMatrix(X_all.entries[:, :n], dict(X_all.meta))
        Xte = DataMatrix(X_all.entries[:, n:n + n_test], dict(X_all.meta))
        return Xtr, y_all[:n], Xte, y_all[n:n + n_test]
    seed = params["seed"]
    Xtr = sphere_dataset(p, n, seed)
    Xte = sphere_dataset(p, n_test, seed + 1)
    rng = np.random.default_rng(seed + 2)
    bstar = rng.standard_normal(p)
    bstar /= np.linalg.norm(bstar)
    ytr = Xtr.entries.T @ bstar
    yte = Xte.entries.T @ bstar
    if params["sigma2"] > 0:
        noise = np.random.default_rng(seed + 3)
        ytr = ytr + noise.normal(0, np.sqrt(params["sigma2"]), n)
        yte = yte + noise.normal(0, np.sqrt(params["sigma2"]), n_test)
    return Xtr, ytr, Xte, yte


def _run_rf_sweep(params, out, threads):
    act = rf_nn.get_activation(params["activation"])
    Xtr, ytr, Xte, yte = _rf_data(params)
    n = ytr.size
    method = "analytic" if act.name in ("relu", "identity") else "monte-carlo"
    kernels = rf_nn.kernel_triplet(Xtr, Xte, act, method=method,
                                   m=params["mc_samples"], seed=params["seed"])
    gamma, trials = params["gamma"], params["trials"]

    def run_point(i, dn):
        d = max(1, int(round(dn * n)))
        status = "ok"
        try:
            th_train, th_test = rf_nn.nn_mse_theory(kernels, ytr, yte, n, d, gamma)
        except NearPhaseTransitionError:
            th_train = th_test = float("nan")
            status = "near-phase-transition"
        emp_tr, emp_te = np.empty(trials), np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng(params["seed"] + 100_003 * i + t)
            W = rng.standard_normal((d, Xtr.p))
            feats = rf_nn.rf_features(W, Xtr, act)
            beta = rf_nn.rf_fit(feats, ytr, gamma)
            emp_tr[t] = rf_nn.rf_empirical_mse(beta, feats, ytr)
            emp_te[t] = rf_nn.rf_empirical_mse(
                beta, rf_nn.rf_features(W, Xte, act), yte)
        return [ResultRow(ratio=dn, gamma=gamma, metric=metric,
                          empirical_mean=float(vals.mean()),
                          empirical_stderr=float(vals.std(ddof=1) / np.sqrt(trials)),
                          theory=th, trials=trials, status=status)
                for metric, vals, th in (("train_mse", emp_tr, th_train),
                                         ("test_mse", emp_te, th_test))]

    points = list(enumerate(params["d_over_n"]))
    rows = []
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for fut in [pool.submit(run_point, i, dn) for i, dn in points]:
                rows.extend(fut.result())
    else:
        for i, dn in points:
            rows.extend(run_point(i, dn))
    write_rows(os.path.join(out, "rf_sweep.csv"), rows)
    devs = [abs(r.empirical_mean - r.theory) / abs(r.theory)
            for r in rows if r.status == "ok" and r.theory]
    return rows, (max(devs) if devs else float("nan"))


def _run_kernel_lin(params, out):
    act = rf_nn.get_activation(params["activation"])
    coeffs = hk.hermite_coeffs(act)
    hk.write_coeff_table(os.path.join(out, "activation_coeffs.csv"),
                         [(act.name, coeffs)])
    method = "analytic" if act.name in ("relu", "identity") else "monte-carlo"
    rows = []
    for size in params["sizes"]:
        X = sphere_dataset(size, size, params["seed"] + size)
        K = rf_nn.kernel_expectation(X, X, act, method=method,
                                     m=params["mc_samples"],
                                     seed=params["seed"])
        Kt = hk.linear_equivalent_kernel(X, coeffs)
        gap = np.linalg.norm(K - Kt, 2) / np.linalg.norm(Kt, 2)
        rows.append(ResultRow(ratio=float(size), gamma=0.0,
                              metric="linearization_gap", empirical_mean=float(gap),
                              empirical_stderr=0.0, theory=0.0, trials=1))
    write_rows(os.path.join(out, "kernel_lin.csv"), rows)
    return rows, max(r.empirical_mean for r in rows)


def _run_ck_depth(params, out):
    L, n, p, width = params["layers"], params["n"], params["p"], params["width"]
    act = hk.normalize_activation(rf_nn.get_activation("tanh"))
    alphas = hk.ck_alphas([act] * L)
    X = sphere_dataset(p, n, params["seed"])
    rows = []
    eye = np.eye(n)
    for layer in range(L + 1):
        Kt = hk.ck_linear_equivalent(X, alphas, layer)
        rows.append(ResultRow(ratio=float(layer), gamma=0.0, metric="alpha1",
                              empirical_mean=alphas.alphas[layer][0],
                              empirical_stderr=0.0, theory=float("nan"), trials=1))
        rows.append(ResultRow(ratio=float(layer), gamma=0.0,
                              metric="distance_to_identity",
                              empirical_mean=float(np.linalg.norm(Kt - eye, 2)),
                              empirical_stderr=0.0, theory=float("nan"), trials=1))
    # empirical two-layer CK at the requested width
    rng = np.random.default_rng(params["seed"] + 1)
    W1 = rng.standard_normal((width, p))
    W2 = rng.standard_normal((width, width)) / np.sqrt(width)
    P2 = act.evaluate(W2 @ act.evaluate(W1 @ X.entries))
    K2t = hk.ck_linear_equivalent(X, alphas, 2)
    gap = np.linalg.norm(P2.T @ P2 / width - K2t, 2) / np.linalg.norm(K2t, 2)
    rows.append(ResultRow(ratio=2.0, gamma=0.0, metric="empirical_ck_gap",
                          empirical_mean=float(gap), empirical_stderr=0.0,
                          theory=0.0, trials=1))
    write_rows(os.path.join(out, "ck_depth.csv"), rows)
    return rows, float(gap)


def _run_dynamics(params, out):
    d, n, eta = params["d"], params["n"], params["eta"]
    X = sphere_dataset(max(d // 2, 2), n, params["seed"])
    rng = np.random.default_rng(params["seed"] + 1)
    W = rng.standard_normal((d, X.p))
    feats = rf_nn.rf_features(W, X, rf_nn.get_activation("tanh"))
    y = rng.standard_normal(n)
    beta0 = rng.standard_normal(d) * 0.1
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lam_max = float(np.linalg.eigvalsh(feats @ feats.T / n).max())
    contour = dyn.default_flow_contour(lam_max, params["nodes"])
    samples, devs = [], []
    for t in params["times"]:
        beta_t = dyn.gradient_flow_beta(feats, y, beta0, eta, t)
        proj = float(v @ beta_t)
        cproj = dyn.contour_beta_projection(v, feats, y, beta0, eta, t, contour)
        samples.append(dyn.TrajectorySample(t=t, loss=dyn.flow_loss(feats, y, beta_t),
                                            projection=proj))
        devs.append(abs(proj - cproj))
    dyn.write_trajectory(os.path.join(out, "flow_trajectory.csv"), samples)
    # NTK trajectory on the depth-2 linearized kernel of the same data
    act = hk.normalize_activation(rf_nn.get_activation("tanh"))
    coeffs = hk.hermite_coeffs(act)
    dcoeffs = hk.hermite_coeffs(rf_nn.ActivationSpec("dtanh", act.derivative,
                                                     lambda t: t))
    alphas = hk.ck_alphas([act, act])
    gram0 = X.entries.T @ X.entries
    cks, ckps = [], []
    prev = gram0
    for layer in (1, 2):
        K_l = hk.ck_linear_equivalent(X, alphas, layer)
        corr = prev / np.sqrt(np.outer(np.diag(prev), np.diag(prev)))
        ckps.append(hk.gauss_pair_kernel(dcoeffs, corr))
        cks.append(K_l)
        prev = K_l
    k_ntk = hk.ntk_recursion(cks, ckps, gram0)
    traj = dyn.ntk_trajectory(k_ntk, y, np.zeros(n), eta, params["times"])
    dyn.write_trajectory(os.path.join(out, "ntk_trajectory.csv"), traj)
    rows = [ResultRow(ratio=float(t), gamma=0.0, metric="contour_vs_direct",
                      empirical_mean=dv, empirical_stderr=0.0, theory=0.0, trials=1)
            for t, dv in zip(params["times"], devs)]
    write_rows(os.path.join(out, "dynamics_summary.csv"), rows)
    return rows, max(devs)


def run(config: ExperimentConfig, out_dir=".", threads=1):
    """Execute a validated experiment; returns the process exit status."""
    config, errors, warnings_ = validate(config)
    for w in warnings_:
        print(f"warning: {w}", file=sys.stderr)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    params = config.params
    try:
        if config.experiment == "mp":
            _, dev = _run_mp(params, out_dir)
        elif config.experiment == "tanh-demo":
            _, dev = _run_tanh_demo(params, out_dir)
        elif config.experiment == "ridge-sweep":
            _, dev = _run_ridge_sweep(params, out_dir, threads)
        elif config.experiment == "rf-sweep":
            _, dev = _run_rf_sweep(params, out_dir, threads)
        elif config.experiment == "kernel-lin":
            _, dev = _run_kernel_lin(params, out_dir)
        elif config.experiment == "ck-depth":
            _, dev = _run_ck_depth(params, out_dir)
        else:
            _, dev = _run_dynamics(params, out_dir)
    except (ConvergenceError, SingularityError, NearPhaseTransitionError,
            np.linalg.LinAlgError, DatasetError, ValueError) as exc:
        print(f"numerical failure in {config.experiment}: {exc}", file=sys.stderr)
        return 3
    print(f"{config.experiment}: seed={params['seed']} "
          f"max |empirical - theory| deviation = {dev:.6g}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rmt-equiv",
        description="Random-matrix deterministic-equivalent experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory for CSVs")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--header", action="store_true",
                        help="dataset CSV has a header line to skip")
    parser.add_argument("--dataset", default=None,
                        help="label-first CSV overriding the config dataset key "
                             "(rf-sweep)")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config, args.experiment)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.header:
        config.params["_header"] = True
    if args.dataset is not None:
        config.params["dataset"] = args.dataset
    return run(config, out_dir=args.out, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
