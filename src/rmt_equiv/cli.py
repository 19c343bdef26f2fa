"""Experiment runner: config parsing, seeded sweeps, CSV emission.

Usage:
    rmt-equiv <experiment> --config <path> [--out <dir>]

Experiments: mp, tanh-demo, ridge-sweep, rf-sweep, kernel-lin, ck-depth,
dynamics. Configs are flat ``key = value`` text files ('#' starts a comment;
lists are comma-separated; a key may be set once). They hold every setting of a
run; an rf-sweep ``dataset`` takes ``p`` from the file and draws no noise
(``sigma2`` must be 0). The seed is mandatory. All numeric CSV values are
written with 9 significant digits; identical configs produce byte-identical CSVs.

Exit status: 0 success; 2 bad config or dataset (a non-finite number is a bad
config), or an ``--out`` that cannot be created or written; 3 numerical failure
or failed allocation.
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
from .det_equiv import mp_cdf, mp_density, mp_edges
from .errors import DatasetError, SingularityError
from .randgen import NORMALIZATIONS, DataMatrix, GroundTruth, ingest_dataset, \
    laguerre_bidiagonal, linear_targets, sample_count, sphere_dataset, stream
from .results import ResultRow, write_csv, write_rows
from .ridge import RiskPair, SweepSpec, at_peak, risk_theory, sweep_double_descent
from .spectral import MIN_CONTOUR_NODES, esd_histogram, ks_distance, symmetric_norm


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)


# defaults: the keys besides seed, each default fixing its key's type; check(params)
# -> (errors, warnings); run(params, out_dir) -> max |empirical - theory| deviation
Experiment = namedtuple("Experiment", "defaults check run")


def parse_config(path, experiment) -> ExperimentConfig:
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
            if key in raw:
                raise ValueError(f"{path}:{lineno}: {key}: set twice "
                                 f"(first on line {raw[key][0]})")
            raw[key] = (lineno, value)
    types = {"seed": 0, **(EXPERIMENTS[experiment].defaults
                           if experiment in EXPERIMENTS else {})}
    params = {}
    for key, (lineno, value) in raw.items():
        default = types.get(key, "")
        try:
            params[key] = ([type(default[0])(v) for v in value.split(",") if v.strip()]
                           if isinstance(default, list) else type(default)(value))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return ExperimentConfig(experiment=experiment, params=params)


def _bound(params, keys, ok, rule):
    """``"<key> <rule>"`` for each of the space-separated ``keys`` whose value, or
    an entry of it, fails ``ok``."""
    vals = {k: params[k] if isinstance(params[k], list) else [params[k]]
            for k in keys.split()}
    return [f"{k} {rule}" for k, v in vals.items() if not all(map(ok, v))]


def _member(choices):
    return lambda v: v in choices, f"must be one of {', '.join(choices)}"


_POSITIVE = (lambda v: v > 0, "must be > 0")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_COUNT = (lambda v: v >= 1, "must be >= 1")
_SPHERE_DIM = (lambda v: v >= 2, "must be >= 2 (a sphere dimension)")
_INT64 = 2.0**63  # sample counts are int64; an int compares exactly with it
_ACTIVATION = _member(rf_nn.ACTIVATIONS)


def _simulable(size, count, to_ratio=lambda r: r):
    """(ok, rule) that a ratio entry r simulates fewer than 2**63 samples,
    ``sample_count(to_ratio(r), size)``, named ``count`` in the rule. Entries and
    sizes that other rules reject pass; an overflowing ratio * size fails before
    its rounding would raise."""
    def ok(r):
        if not (0 < r < np.inf and 1 <= size < _INT64):
            return True
        ratio = to_ratio(r)
        return ratio * size < np.inf and sample_count(ratio, size) < _INT64
    return ok, f"must keep {count} below 2**63"


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
        if key not in known:
            errors.append(f"unknown key {key!r} for experiment {config.experiment}")
        filled[key] = val
    if "seed" not in filled:
        errors.append("missing mandatory key 'seed'")
    elif filled["seed"] < 0:
        errors.append("seed must be >= 0")

    for key in entry.defaults:
        vals = filled[key] if isinstance(filled[key], list) else [filled[key]]
        if not vals:
            errors.append(f"{key} must not be empty")
        if not all(np.isfinite(v) for v in vals if isinstance(v, float)):
            errors.append(f"{key} must be finite")
        if not all(v < _INT64 for v in vals if isinstance(v, int)):  # counts, sizes
            errors.append(f"{key} must be < 2**63")
    check_errors, warnings_ = entry.check(filled)
    return ExperimentConfig(config.experiment, filled), errors + check_errors, warnings_


def _check_ridge_sweep(params):
    errors = (_bound(params, "trials p", *_COUNT) + _bound(params, "ratios", *_POSITIVE)
              + _bound(params, "ratios", *_simulable(params["p"], "n = ratio * p"))
              + _bound(params, "gammas sigma2 beta_norm2 theory_grid", *_NONNEGATIVE))
    if errors or not any(g < 1e-4 for g in params["gammas"]):
        return errors, []
    # validate rejects an infinite ratio and a p of 2**63 or more after this
    # check; r * p < inf skips the entries whose sample_count would overflow
    p = params["p"]
    return [], [f"ratio {r} sits on the interpolation peak; theory value "
                "will be near-singular at small gamma" for r in params["ratios"]
                if r * p < np.inf and at_peak(p / sample_count(r, p))]


def _check_rf_sweep(params):
    source = (_bound(params, "sigma2", lambda v: v == 0,
                     "applies only without a dataset") if params["dataset"]
              else _bound(params, "p", *_SPHERE_DIM)
              + _bound(params, "header", lambda v: v == 0, "applies only with a dataset"))
    labels = ([] if len(set(params["labels"])) <= 2
              else ["labels must hold at most two distinct values"])
    return (_bound(params, "n p n_test trials", *_COUNT)
            + _bound(params, "d_over_n gamma", *_POSITIVE)
            + _bound(params, "d_over_n", *_simulable(params["n"], "d = d_over_n * n"))
            + _bound(params, "header", lambda v: v in (0, 1), "must be 0 or 1")
            + _bound(params, "sigma2", *_NONNEGATIVE) + source + labels
            + _bound(params, "activation", *_ACTIVATION)
            + _bound(params, "normalization", *_member(NORMALIZATIONS))), []


def _check_mp(params):
    errors = _bound(params, "p bins", *_COUNT) + _bound(params, "c_list", *_POSITIVE)
    errors += _bound(params, "c_list",
                     *_simulable(params["p"], "n = p / c", lambda c: 1.0 / c))
    tags = [f"{c:g}" for c in params["c_list"]]  # as in the file names
    if len(set(tags)) < len(tags):
        errors.append("c_list entries must have distinct file tags; "
                      f"got {', '.join(tags)}")
    if errors:
        return errors, []
    p = params["p"]
    # as in _check_ridge_sweep, skip the entries whose sample_count would overflow
    return [], [f"c_list entry {c:g} simulates p/n = {p / sample_count(1.0 / c, p):g} "
                f"with p = {p}; its files keep the requested tag, mp_summary.csv "
                "reports p/n" for c in params["c_list"]
                if 1.0 / c * p < np.inf and p / sample_count(1.0 / c, p) != c]


# ---------------------------------------------------------------- experiments

def _row(ratio, metric, value, theory=0.0, trials=1):
    """A gamma = 0 result row of one measurement, with no standard error."""
    return ResultRow(float(ratio), 0.0, metric, value, 0.0, theory, trials)


def _mp_eigenvalues(p, n, rng):
    """Ascending eigenvalues of X X^T / n, X a p x n standard Gaussian: p - m zeros,
    m = min(p, n), then those of B B^T / n for the m x m ``laguerre_bidiagonal``."""
    m = min(p, n)
    a, s = laguerre_bidiagonal(rng, m, max(p, n))
    T = np.diag(a * a / n)
    T.flat[m + 1::m + 1] += s * s / n
    T.flat[1::m + 1] = T.flat[m::m + 1] = a[:-1] * s / n
    return np.concatenate([np.zeros(p - m), np.linalg.eigvalsh(T)])


def _run_mp(params, out):
    rows = []
    p = params["p"]
    for i, c in enumerate(params["c_list"]):
        n = sample_count(1.0 / c, p)
        lam = _mp_eigenvalues(p, n, stream(params["seed"], 0, i, 0))
        lo, hi = mp_edges(p / n)
        edges, masses = esd_histogram(lam, params["bins"], (0.0, hi * 1.05))
        tag = f"{c:g}".replace(".", "p")
        write_csv(os.path.join(out, f"mp_hist_c{tag}.csv"),
                  "bin_left,bin_right,mass", zip(edges, edges[1:], masses))
        grid = np.linspace(max(lo, 1e-4), hi, 400)
        dens = mp_density(p / n, grid)
        write_csv(os.path.join(out, f"mp_density_c{tag}.csv"), "x,density",
                  zip(grid, dens))
        ks = ks_distance(lam, mp_cdf(p / n))
        rows.append(_row(p / n, "ks_distance", ks))
    write_rows(os.path.join(out, "mp_summary.csv"), rows)
    return max(r.empirical_mean for r in rows)


def _run_tanh_demo(params, out):
    n, draws = params["n"], params["draws"]
    # f = x^T y for x ~ N(0, I_n / n) and a unit y is N(0, 1/n)
    f_lln = np.random.default_rng(params["seed"]).standard_normal(draws) / np.sqrt(n)
    f_clt = np.sqrt(n) * f_lln
    a1 = hk.hermite_coeffs(rf_nn.get_activation("tanh")).a1
    hist_rows = []
    for regime, samples, rng_hi in (("lln", f_lln, 3.0 / np.sqrt(n)),
                                    ("clt", f_clt, 3.0)):
        edges, masses = esd_histogram(samples, params["bins"], (-rng_hi, rng_hi))
        hist_rows += [(regime, *row) for row in zip(edges, edges[1:], masses)]
    write_csv(os.path.join(out, "tanh_demo_hist.csv"),
              "regime,bin_left,bin_right,mass", hist_rows)
    grid = np.linspace(-3.0, 3.0, 241)
    write_csv(os.path.join(out, "tanh_demo_curves.csv"),
              "t,tanh,taylor_line,hermite_line",
              zip(grid, np.tanh(grid), grid, a1 * grid))
    # CLT-regime moment match: E[tanh(f) f] = a1 E[f^2] for the linearization
    emp = float(np.mean(np.tanh(f_clt) * f_clt) / np.mean(f_clt**2))
    lln_gap = float(np.abs(np.tanh(f_lln) - f_lln).max())
    rows = [_row(n, "clt_moment_ratio", emp, a1, draws),
            _row(n, "lln_linearization_gap", lln_gap, 0.0, draws)]
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


# stream roles of rf-sweep (``randgen.stream(seed, role, 0, trial)``): the data,
# truth and noise are drawn at trial 0, the weights of trial t at trial t
RF_TRAIN, RF_TEST, RF_TRUTH, RF_NOISE, RF_WEIGHTS = range(5)


def _rf_data(params):
    n, p, n_test = params["n"], params["p"], params["n_test"]
    if params["dataset"]:
        try:
            X_all, y_all = ingest_dataset(params["dataset"],
                                          set(params["labels"]),
                                          params["normalization"],
                                          header=params["header"] == 1)
        except (DatasetError, OSError, ValueError) as exc:  # unreadable or unusable
            raise DatasetError(f"dataset {params['dataset']}: {exc}") from None
        if X_all.n < n + n_test:
            raise DatasetError(
                f"dataset holds {X_all.n} filtered samples; need n+n_test={n + n_test}"
            )
        Xtr = DataMatrix(X_all.entries[:, :n])
        Xte = DataMatrix(X_all.entries[:, n:n + n_test])
        return Xtr, y_all[:n], Xte, y_all[n:n + n_test]
    seed = params["seed"]
    Xtr = sphere_dataset(p, n, stream(seed, RF_TRAIN, 0, 0))
    Xte = sphere_dataset(p, n_test, stream(seed, RF_TEST, 0, 0))
    bstar = stream(seed, RF_TRUTH, 0, 0).standard_normal(p)
    truth = GroundTruth(bstar / np.linalg.norm(bstar), params["sigma2"])
    noise = stream(seed, RF_NOISE, 0, 0)  # the test noise follows the train noise
    return (Xtr, linear_targets(Xtr, truth, noise),
            Xte, linear_targets(Xte, truth, noise))


def _run_rf_sweep(params, out):
    """Trial t draws one weight matrix W of the largest width from
    ``stream(seed, RF_WEIGHTS, 0, t)``; width d uses its leading d rows, which
    have the law of a fresh d x p draw. So the trials of a row are independent,
    and the rows of one trial share their weights (common random numbers)."""
    act = rf_nn.get_activation(params["activation"])
    Xtr, ytr, Xte, yte = _rf_data(params)
    n = ytr.size
    gamma, trials = params["gamma"], params["trials"]
    # entries that round to one width give one row pair
    widths = sorted({sample_count(dn, n) for dn in params["d_over_n"]})
    # every width's theory on one eigendecomposition of the train kernel; it and
    # the cross block in its basis are freed before the trials, so that they do
    # not add to the trials' peak memory
    kernels = rf_nn.kernel_triplet(Xtr, Xte, act)
    theory = []
    for d in widths:
        try:
            theory.append((*rf_nn.nn_mse_theory(kernels, ytr, yte, d, gamma), "ok"))
        except SingularityError:
            theory.append((float("nan"), float("nan"), "near-phase-transition"))
    del kernels
    emp_tr, emp_te = np.empty((2, len(widths), trials))
    for t in range(trials):
        W = stream(params["seed"], RF_WEIGHTS, 0, t).standard_normal(
            (max(widths), Xtr.p))
        # the train features are freed before the test features are formed, so
        # that only one feature map is resident at a time
        feats = rf_nn.rf_features(W, Xtr, act)
        betas = [rf_nn.rf_fit(feats[:d], ytr, gamma) for d in widths]
        emp_tr[:, t] = [rf_nn.rf_empirical_mse(beta, feats[:d], ytr)
                        for d, beta in zip(widths, betas)]
        del feats
        feats = rf_nn.rf_features(W, Xte, act)
        emp_te[:, t] = [rf_nn.rf_empirical_mse(beta, feats[:d], yte)
                        for d, beta in zip(widths, betas)]
    rows = [ResultRow.from_trials(d / n, gamma, metric, vals, th, status)
            for d, (th_tr, th_te, status), tr, te in zip(widths, theory, emp_tr, emp_te)
            for metric, vals, th in (("train_mse", tr, th_tr), ("test_mse", te, th_te))]
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
    for i, size in enumerate(params["sizes"]):
        X = sphere_dataset(size, size, stream(params["seed"], 0, i, 0))
        K = rf_nn.kernel_expectation(X, X, act)
        Kt = hk.linear_equivalent_kernel(X, coeffs)
        del X  # not read again: the two norms run one result size lighter
        K -= Kt
        gap = symmetric_norm(K) / symmetric_norm(Kt)
        rows.append(_row(size, "linearization_gap", float(gap)))
    write_rows(os.path.join(out, "kernel_lin.csv"), rows)
    return max(r.empirical_mean for r in rows)


def _second_layer(P1, rng):
    """W2 P1 for W2 ~ N(0, I / width), width = rows of P1, drawn from its law: each
    row is N(0, P1^T P1 / width) = N(0, R^T R), R the QR factor of P1 / sqrt(width)."""
    R = np.linalg.qr(P1, mode="r") / np.sqrt(len(P1))
    return rng.standard_normal((len(P1), len(R))) @ R


def _run_ck_depth(params, out):
    L, n, p, width = params["layers"], params["n"], params["p"], params["width"]
    act = hk.normalize_activation(rf_nn.get_activation("tanh"))
    alphas = hk.ck_alphas(act, L)
    X = sphere_dataset(p, n, params["seed"])
    # empirical two-layer CK at the requested width, drawn before the layer loop
    # so that no n x n matrix is held through the draws; each layer's draw (role
    # 0, then role 1) has its own stream. Each width x n layer is activated in
    # place on its product, and P1 is freed as soon as P2 is formed
    P1 = stream(params["seed"], 0, 0, 0).standard_normal((width, p)) @ X.entries
    act.evaluate(P1, out=P1)
    P2 = _second_layer(P1, stream(params["seed"], 1, 0, 0))
    del P1
    act.evaluate(P2, out=P2)
    rows = []
    for layer in range(L + 1):
        Kt = hk.ck_linear_equivalent(X, alphas, layer)
        rows += [_row(layer, "alpha1", alphas[layer][0], float("nan")),
                 _row(layer, "distance_to_identity", symmetric_norm(Kt - np.eye(n)),
                      float("nan"))]
        if layer == 2:
            gap = symmetric_norm(P2.T @ P2 / width - Kt) / symmetric_norm(Kt)
    rows.append(_row(2, "empirical_ck_gap", float(gap)))
    write_rows(os.path.join(out, "ck_depth.csv"), rows)
    return float(gap)


def _run_dynamics(params, out):
    d, n, eta, times = params["d"], params["n"], params["eta"], params["times"]
    X = sphere_dataset(max(d // 2, 2), n, params["seed"])
    W, y, beta0, v = (stream(params["seed"], role, 0, 0).standard_normal(shape)
                      for role, shape in enumerate([(d, X.p), n, d, d]))
    beta0 *= 0.1
    v /= np.linalg.norm(v)
    feats = rf_nn.rf_features(W, X, rf_nn.get_activation("tanh"))
    contour = dyn.default_flow_contour(dyn._flow_spectrum(feats, n)[1].max(),
                                       params["nodes"])
    betas = dyn.gradient_flow_beta(feats, y, beta0, eta, times)
    projs = betas @ v
    devs = np.abs(projs - dyn.contour_beta_projection(v, feats, y, beta0, eta, times,
                                                      contour))
    dyn.write_trajectory(os.path.join(out, "flow_trajectory.csv"),
                         [dyn.TrajectorySample(t, dyn.flow_loss(feats, y, beta), proj)
                          for t, beta, proj in zip(times, betas, projs)])
    # NTK trajectory on the depth-2 linearized kernel of the same data
    act = hk.normalize_activation(rf_nn.get_activation("tanh"))
    dcoeffs = hk.hermite_coeffs(rf_nn.ActivationSpec("dtanh", act.derivative,
                                                     lambda t: t))
    alphas = hk.ck_alphas(act, 2)
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
    traj = dyn.ntk_trajectory(k_ntk, y, eta, times)
    dyn.write_trajectory(os.path.join(out, "ntk_trajectory.csv"), traj)
    rows = [_row(t, "contour_vs_direct", dv) for t, dv in zip(times, devs)]
    write_rows(os.path.join(out, "dynamics_summary.csv"), rows)
    return float(devs.max())


EXPERIMENTS = {
    "mp": Experiment(
        {"c_list": [0.1, 0.5, 1.0, 2.0], "p": 1024, "bins": 60},
        _check_mp, _run_mp),
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
         "dataset": "", "header": 0, "labels": [1.0, 2.0],
         "normalization": "unit-sphere"},
        _check_rf_sweep, _run_rf_sweep),
    "kernel-lin": Experiment(
        {"sizes": [128, 256, 512, 1024], "activation": "relu"},
        lambda params: (_bound(params, "sizes", *_SPHERE_DIM)
                        + _bound(params, "activation", *_ACTIVATION), []),
        _run_kernel_lin),
    "ck-depth": Experiment(
        {"layers": 10, "n": 256, "p": 256, "width": 8192},
        lambda params: (_bound(params, "n width", *_COUNT)
                        + _bound(params, "layers", lambda v: v >= 2,
                                 "must be >= 2 (the empirical CK gap uses layer 2)")
                        + _bound(params, "p", *_SPHERE_DIM), []),
        _run_ck_depth),
    "dynamics": Experiment(
        {"d": 24, "n": 40, "eta": 1.0,
         "times": [0.0, 0.1, 0.5, 1.0, 2.0, 5.0], "nodes": 512},
        lambda params: (_bound(params, "d n", *_COUNT)
                        + _bound(params, "d", lambda v: v <= params["n"],
                                 "must be <= n (the flow needs full-rank features)")
                        + _bound(params, "nodes", lambda v: v >= MIN_CONTOUR_NODES,
                                 f"must be >= {MIN_CONTOUR_NODES}")
                        + _bound(params, "eta", *_POSITIVE)
                        + _bound(params, "times", *_NONNEGATIVE), []),
        _run_dynamics),
}


def run(config: ExperimentConfig, out_dir=".", threads=1):
    """Execute a validated experiment; returns the process exit status."""
    # threads is unused (BLAS keeps its default thread count); perfbench/worker.py sets it
    config, errors, warnings_ = validate(config)
    for w in warnings_:
        print(f"warning: {w}", file=sys.stderr)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    params = config.params
    try:
        os.makedirs(out_dir, exist_ok=True)
        dev = EXPERIMENTS[config.experiment].run(params, out_dir)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out is a file, runs through one, or is not writable
        print(f"error: --out {out_dir}: cannot create or write "
              f"{exc.filename or out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    # ArithmeticError covers SingularityError and ConvergenceError, ValueError
    # covers DomainError and np.linalg.LinAlgError; MemoryError is a failed allocation
    except (ArithmeticError, MemoryError, ValueError) as exc:
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
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config, args.experiment)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
