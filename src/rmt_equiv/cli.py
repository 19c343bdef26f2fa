"""Experiment runner: config parsing, seeded sweeps, CSV emission.

Usage:
    rmt-equiv <experiment> --config <path> [--out <dir>] [--dataset <csv>] [--header]

Experiments: mp, tanh-demo, ridge-sweep, rf-sweep, kernel-lin, ck-depth,
dynamics. Configs are flat ``key = value`` text files ('#' starts a comment;
lists are comma-separated). The seed is mandatory and may be overridden by the
``RMT_EQUIV_SEED`` environment variable. All numeric CSV values are written
with 9 significant digits; identical configs produce byte-identical CSVs.

Exit status: 0 success, 2 bad config or dataset, 3 numerical failure.
"""

import argparse
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import hermite_kernels as hk
from . import rf_nn
from .det_equiv import MPParams, mp_cdf, mp_density
from .errors import ConvergenceError, DatasetError, NearPhaseTransitionError, \
    SingularityError
from .randgen import DataMatrix, gaussian_matrix, ingest_dataset, sphere_dataset
from .results import ResultRow, write_csv, write_rows
from .ridge import PEAK_RATIO_BAND, RiskPair, SweepSpec, risk_theory, \
    sweep_double_descent
from .spectral import esd_histogram, ks_distance, measure_to_rows


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)


# defaults: the keys besides seed, each default fixing its key's type; check(params)
# -> (errors, warnings); run(params, out_dir) -> max |empirical - theory| deviation
Experiment = namedtuple("Experiment", "defaults check run")


def parse_config(path, experiment=None) -> ExperimentConfig:
    """Read a flat key = value config file; each key takes its default's type.

    A list takes its first entry's, ``seed`` is an int and unknown keys stay str."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            raw[key] = (lineno, value)
    file_exp = raw.pop("experiment", (None, None))[1]
    exp = experiment or file_exp
    if exp is None:
        raise ValueError("no experiment given (CLI argument or 'experiment' key)")
    types = {"seed": 0, **(EXPERIMENTS[exp].defaults if exp in EXPERIMENTS else {})}
    params = {}
    for key, (lineno, value) in raw.items():
        default = types.get(key, "")
        try:
            params[key] = ([type(default[0])(v) for v in value.split(",") if v.strip()]
                           if isinstance(default, list) else type(default)(value))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return ExperimentConfig(experiment=exp, params=params)


def _bound(params, keys, ok, rule):
    """``"<key> <rule>"`` for each of the space-separated ``keys`` whose value, or
    an entry of it, fails ``ok``."""
    vals = {k: params[k] if isinstance(params[k], list) else [params[k]]
            for k in keys.split()}
    return [f"{k} {rule}" for k, v in vals.items() if not all(map(ok, v))]


_POSITIVE = (lambda v: v > 0, "must be > 0")
_COUNT = (lambda v: v >= 1, "must be >= 1")
_SPHERE_DIM = (lambda v: v >= 2, "must be >= 2 (a sphere dimension)")


def validate(config: ExperimentConfig):
    """Fill defaults and collect *all* violations; returns (config, errors, warnings)."""
    errors = []
    entry = EXPERIMENTS.get(config.experiment)
    if entry is None:
        errors.append(f"unknown experiment {config.experiment!r}; "
                      f"choose from {', '.join(EXPERIMENTS)}")
        return config, errors, []
    filled = dict(entry.defaults)
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

    errors += [f"{key} must not be empty" for key in entry.defaults
               if isinstance(filled[key], list) and not filled[key]]
    check_errors, warnings_ = entry.check(filled)
    return ExperimentConfig(config.experiment, filled), errors + check_errors, warnings_


def _check_ridge_sweep(params):
    errors = (_bound(params, "trials p", *_COUNT) + _bound(params, "ratios", *_POSITIVE)
              + _bound(params, "gammas", lambda v: v >= 0, "must be >= 0"))
    warnings_ = [f"ratio {r} sits on the interpolation peak; theory value "
                 "will be near-singular at small gamma"
                 for r in params["ratios"]
                 if r > 0 and abs(1.0 / r - 1.0) < PEAK_RATIO_BAND
                 and any(g < 1e-4 for g in params["gammas"])]
    return errors, warnings_


def _check_rf_sweep(params):
    dims = [] if params["dataset"] else _bound(params, "p", *_SPHERE_DIM)
    return (_bound(params, "n p n_test trials mc_samples", *_COUNT)
            + _bound(params, "d_over_n gamma", *_POSITIVE) + dims), []


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
    return max(r.empirical_mean for r in rows)


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
    return abs(emp - a1)


def _run_ridge_sweep(params, out):
    spec = SweepSpec(ratios=params["ratios"], gammas=params["gammas"],
                     trials=params["trials"], p=params["p"],
                     sigma2=params["sigma2"], seed=params["seed"],
                     beta_norm2=params["beta_norm2"])
    rows = sweep_double_descent(spec)
    if params["theory_grid"]:
        lo, hi = min(params["ratios"]), max(params["ratios"])
        for g in params["gammas"]:
            for r in np.linspace(lo, hi, params["theory_grid"]):
                c = 1.0 / r
                try:
                    th = risk_theory(g, c, params["beta_norm2"], params["sigma2"])
                except SingularityError:
                    th = RiskPair(float("nan"), float("nan"))
                rows += [ResultRow.from_trials(float(r), g, m, [], v, "theory-only")
                         for m, v in (("r_in", th.r_in), ("r_out", th.r_out))]
    write_rows(os.path.join(out, "ridge_sweep.csv"), rows)
    devs = [abs(r.empirical_mean - r.theory)
            for r in rows
            if r.status == "ok" and np.isfinite(r.theory)
            and np.isfinite(r.empirical_mean)
            and abs(1.0 / r.ratio - 1.0) >= 0.1]
    return max(devs) if devs else float("nan")


def _rf_data(params):
    n, p, n_test = params["n"], params["p"], params["n_test"]
    if params["dataset"]:
        X_all, y_all = ingest_dataset(params["dataset"],
                                      set(params["labels"]),
                                      params["normalization"],
                                      header=params.get("_header", False))
        if X_all.n < n + n_test:
            raise DatasetError(
                f"dataset holds {X_all.n} filtered samples; need n+n_test={n + n_test}"
            )
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


def _run_rf_sweep(params, out):
    act = rf_nn.get_activation(params["activation"])
    Xtr, ytr, Xte, yte = _rf_data(params)
    n = ytr.size
    kernels = rf_nn.kernel_triplet(Xtr, Xte, act, method=rf_nn.kernel_method(act),
                                   m=params["mc_samples"], seed=params["seed"])
    gamma, trials = params["gamma"], params["trials"]
    rows = []
    for i, dn in enumerate(params["d_over_n"]):
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
        rows += [ResultRow.from_trials(dn, gamma, metric, vals, th, status)
                 for metric, vals, th in (("train_mse", emp_tr, th_train),
                                          ("test_mse", emp_te, th_test))]
    write_rows(os.path.join(out, "rf_sweep.csv"), rows)
    devs = [abs(r.empirical_mean - r.theory) / abs(r.theory)
            for r in rows if r.status == "ok" and r.theory]
    return max(devs) if devs else float("nan")


def _run_kernel_lin(params, out):
    act = rf_nn.get_activation(params["activation"])
    coeffs = hk.hermite_coeffs(act)
    hk.write_coeff_table(os.path.join(out, "activation_coeffs.csv"),
                         [(act.name, coeffs)])
    rows = []
    for size in params["sizes"]:
        X = sphere_dataset(size, size, params["seed"] + size)
        K = rf_nn.kernel_expectation(X, X, act, method=rf_nn.kernel_method(act),
                                     m=params["mc_samples"], seed=params["seed"])
        Kt = hk.linear_equivalent_kernel(X, coeffs)
        gap = np.linalg.norm(K - Kt, 2) / np.linalg.norm(Kt, 2)
        rows.append(ResultRow(ratio=float(size), gamma=0.0,
                              metric="linearization_gap", empirical_mean=float(gap),
                              empirical_stderr=0.0, theory=0.0, trials=1))
    write_rows(os.path.join(out, "kernel_lin.csv"), rows)
    return max(r.empirical_mean for r in rows)


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
    return float(gap)


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
    return max(devs)


EXPERIMENTS = {
    "mp": Experiment(
        {"c_list": [0.1, 0.5, 1.0, 2.0], "p": 1024, "bins": 60},
        lambda params: (_bound(params, "p bins", *_COUNT)
                        + _bound(params, "c_list", *_POSITIVE), []),
        _run_mp),
    "tanh-demo": Experiment(
        {"n": 500, "draws": 2000, "bins": 50},
        lambda params: (_bound(params, "n draws bins", *_COUNT), []), _run_tanh_demo),
    "ridge-sweep": Experiment(
        {"ratios": [0.25, 0.5, 0.7, 0.85, 0.95, 1.0, 1.05, 1.15, 1.35, 2.0, 4.0],
         "gammas": [1e-5, 1e-1], "trials": 30, "p": 512, "sigma2": 0.1,
         "beta_norm2": 1.0, "theory_grid": 0},
        _check_ridge_sweep, _run_ridge_sweep),
    "rf-sweep": Experiment(
        {"d_over_n": [0.25, 0.5, 1.0, 2.0], "n": 512, "p": 256, "n_test": 512,
         "gamma": 0.1, "trials": 30, "activation": "relu", "sigma2": 0.0,
         "dataset": "", "labels": [1.0, 2.0], "normalization": "unit-sphere",
         "mc_samples": 100_000},
        _check_rf_sweep, _run_rf_sweep),
    "kernel-lin": Experiment(
        {"sizes": [128, 256, 512, 1024], "activation": "relu",
         "mc_samples": 100_000},
        lambda params: (_bound(params, "sizes", *_SPHERE_DIM)
                        + _bound(params, "mc_samples", *_COUNT), []),
        _run_kernel_lin),
    "ck-depth": Experiment(
        {"layers": 10, "n": 256, "p": 256, "width": 8192},
        lambda params: (_bound(params, "layers n width", *_COUNT)
                        + _bound(params, "p", *_SPHERE_DIM), []),
        _run_ck_depth),
    "dynamics": Experiment(
        {"d": 24, "n": 40, "eta": 1.0,
         "times": [0.0, 0.1, 0.5, 1.0, 2.0, 5.0], "nodes": 512},
        lambda params: (_bound(params, "d n nodes", *_COUNT), []), _run_dynamics),
}


def run(config: ExperimentConfig, out_dir=".", threads=1):
    """Execute a validated experiment; returns the process exit status."""
    # threads is ignored (experiments run on one thread); perfbench/worker.py passes it
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
        dev = EXPERIMENTS[config.experiment].run(params, out_dir)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularityError, NearPhaseTransitionError,
            np.linalg.LinAlgError, ValueError) as exc:
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
    parser.add_argument("experiment", choices=list(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory for CSVs")
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
    return run(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
