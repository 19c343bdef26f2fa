"""Config parsing/validation and end-to-end experiment runs at desk scale."""

import ast
import io
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmt_equiv import cli, errors, randgen, rf_nn, ridge, spectral
from rmt_equiv import hermite_kernels as hk
from rmt_equiv.det_equiv import mp_cdf

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def write_config(tmp_path, text, name="cfg.txt"):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return str(f)


def config_text(params):
    """``key = value`` lines, lists comma-separated."""
    return "".join(
        f"{key} = {', '.join(map(str, val)) if isinstance(val, list) else val}\n"
        for key, val in params.items())


def write_dataset(tmp_path, rows, seed=0, name="toy.csv", header=None, zero_row=None):
    """Label-first two-class CSV with six features per row.

    The features of row ``zero_row`` (0-based), if given, are all zero.
    """
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((rows, 6))
    if zero_row is not None:
        feats[zero_row] = 0.0
    lines = [header] if header else []
    lines += [f"{1 if i % 2 == 0 else 2}," + ",".join(f"{v:.6f}" for v in feats[i])
              for i in range(rows)]
    return write_config(tmp_path, "\n".join(lines) + "\n", name=name)


def test_package_keeps_what_perfbench_reads():
    # perfbench/worker.py records both in each benchmark run's environment
    import rmt_equiv
    assert isinstance(rmt_equiv.__version__, str) and rmt_equiv.__version__
    assert rmt_equiv.HAS_NUMBA is False


def test_library_reads_no_environment():
    """A run is its config file: no library module reads an environment variable."""
    banned = {"environ", "environb", "getenv", "getenvb"}
    hits = []
    for path in sorted((ROOT / "src" / "rmt_equiv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ({node.attr} if isinstance(node, ast.Attribute)
                     else {node.id} if isinstance(node, ast.Name)
                     else {a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else set())
            if names & banned:
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not hits, hits


def test_library_uses_every_name_it_imports():
    """An import whose name its module never reads is dead code that a deletion
    left behind."""
    unused = []
    for path in sorted((ROOT / "src" / "rmt_equiv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in (a.asname or a.name.split(".")[0] for a in node.names)
                   if name not in read]
    assert not unused, unused


class TestParseValidate:
    def test_parse_types(self, tmp_path):
        path = write_config(tmp_path, """
            # comment line
            seed = 3
            ratios = 0.5, 1.0, 2.0
            p = 64
        """.replace("    ", ""))
        cfg = cli.parse_config(path, "ridge-sweep")
        assert cfg.params["seed"] == 3
        assert cfg.params["ratios"] == [0.5, 1.0, 2.0]

    def test_missing_seed_named(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "p = 16\n"), "mp")
        _, errors, _ = cli.validate(cfg)
        assert any("seed" in e for e in errors)

    def test_unknown_experiment(self):
        _, errors, _ = cli.validate(cli.ExperimentConfig("nope", {}))
        assert errors

    def test_peak_ratio_warning_not_fatal(self, tmp_path):
        path = write_config(tmp_path,
                            "seed = 1\nratios = 1.0, 2.0\ngammas = 0.00001\n")
        cfg = cli.parse_config(path, "ridge-sweep")
        filled, errors, warnings_ = cli.validate(cfg)
        assert not errors
        assert warnings_

    @pytest.mark.parametrize("p, ratio, peak", [(16, 1.03, True), (16, 0.99, True),
                                                (40, 1.0195, False), (512, 1.015, True),
                                                (512, 1.05, False)])
    def test_peak_warning_tests_the_simulated_ratio(self, tmp_path, p, ratio, peak):
        # p = 16, ratio 1.03 simulates n = 16, so p/n = 1 sits on the peak;
        # p = 40, ratio 1.0195 simulates n = 41, p/n = 0.976, which does not
        path = write_config(tmp_path, f"seed = 1\np = {p}\nratios = {ratio}\n"
                                      "gammas = 0.00001\n")
        _, errors, warnings_ = cli.validate(cli.parse_config(path, "ridge-sweep"))
        assert not errors
        simulated = p / randgen.sample_count(ratio, p)
        assert len(warnings_) == ridge.at_peak(simulated) == peak
        row = ridge.sweep_double_descent(ridge.SweepSpec(ratios=[ratio], gammas=[0.0],
                                                         trials=1, p=p))[0]
        assert (row.status == "peak") == ridge.at_peak(simulated)

    def test_defaults_filled(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "seed = 5\n"), "mp")
        filled, errors, _ = cli.validate(cfg)
        assert not errors
        assert filled.params["p"] == 1024
        assert filled.params["c_list"] == [0.1, 0.5, 1.0, 2.0]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "seed = 1\nbogus = 2\n"), "mp")
        _, errors, _ = cli.validate(cfg)
        assert any("bogus" in e for e in errors)

    @pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
    def test_defaults_round_trip(self, tmp_path, name):
        want = {"seed": 11, **cli.EXPERIMENTS[name].defaults}
        got = cli.parse_config(write_config(tmp_path, config_text(want)), name).params
        assert got == want

        def types(v):
            return [type(x) for x in v] if isinstance(v, list) else type(v)
        assert {k: types(v) for k, v in got.items()} == \
            {k: types(v) for k, v in want.items()}

    def test_mp_simulated_ratio_warning(self, tmp_path):
        # p = 16, c = 40 simulates n = 1, so p/n = 16
        cfg = cli.parse_config(write_config(tmp_path, "seed = 1\np = 16\nc_list = 40\n"),
                               "mp")
        _, errors, warnings_ = cli.validate(cfg)
        assert not errors
        assert len(warnings_) == 1 and "c_list" in warnings_[0]
        shipped = next(path for path in CONFIGS if path.stem == "mp")
        _, errors, warnings_ = cli.validate(cli.parse_config(str(shipped), "mp"))
        assert not errors and not warnings_

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
    def test_shipped_config_validates(self, path):
        name = {"ridge_fig": "ridge-sweep"}.get(path.stem, path.stem.replace("_", "-"))
        _, errors, _ = cli.validate(cli.parse_config(str(path), name))
        assert not errors


# toy sizes per experiment, so that every run of the property test is quick
TOY = {
    "mp": {"p": 16, "c_list": [0.5, 2.0], "bins": 8},
    "tanh-demo": {"n": 20, "draws": 40, "bins": 8},
    "ridge-sweep": {"ratios": [0.5, 2.0], "gammas": [0.1], "trials": 2, "p": 8},
    "rf-sweep": {"n": 16, "p": 6, "n_test": 8, "d_over_n": [0.5, 2.0], "trials": 2},
    "kernel-lin": {"sizes": [8]},
    "ck-depth": {"layers": 3, "n": 12, "p": 12, "width": 32},
    "dynamics": {"d": 6, "n": 12, "times": [0.0, 1.0], "nodes": 32},
}
# the text pool has no digits: a digit string for a size key could ask for an
# array of any size
VALUES = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.nan, math.inf, -math.inf]),
    st.text(string.ascii_letters + " ._-/,#=", min_size=1, max_size=12),
    st.just(""),
)


# experiments whose generators are all keyed by the run's seed
KEYED_STREAMS = ["mp", "tanh-demo", "ridge-sweep", "rf-sweep", "kernel-lin",
                 "ck-depth", "dynamics"]
# rf-sweep at toy size, three widths out of order and three trials
RF_TOY = {**cli.EXPERIMENTS["rf-sweep"].defaults, "seed": 3, "n": 24, "p": 8,
          "n_test": 16, "trials": 3, "d_over_n": [0.5, 2.0, 1.25]}


class TestRunExperiments:
    @pytest.mark.parametrize("experiment", list(TOY))
    def test_toy_configs_run(self, tmp_path, monkeypatch, experiment):
        """Two runs of one config in one process write the same files, byte for
        byte. The second runs with ``RMT_EQUIV_SEED`` set to another seed: the
        seed comes from the config alone."""
        path = write_config(tmp_path, config_text({"seed": 1, **TOY[experiment]}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main([experiment, "--config", path, "--out", str(out)]) == 0
            monkeypatch.setenv("RMT_EQUIV_SEED", "2")
        names = sorted(f.name for f in out1.iterdir())
        assert names and names == sorted(f.name for f in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("experiment", list(TOY))
    @settings(derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract(self, experiment, data):
        """One key replaced by a small bad value: exit 0, 2 or 3, never a traceback."""
        params = {"seed": 1, **TOY[experiment]}
        keys = ["seed", *cli.EXPERIMENTS[experiment].defaults]
        key = data.draw(st.sampled_from(keys))
        params[key] = data.draw(VALUES)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err), \
                redirect_stdout(io.StringIO()):
            path = write_config(Path(tmp), config_text(params))
            rc = cli.main([experiment, "--config", path, "--out", tmp])
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("experiment", KEYED_STREAMS)
    def test_every_generator_has_its_own_key(self, tmp_path, monkeypatch, experiment):
        """Every generator a run creates has the run's seed as its entropy, and
        no two share a spawn key. A stream seeded with seed + k, which a run at
        another seed replays, fails here."""
        keys, default_rng = [], np.random.default_rng

        def recording(seed=None):
            rng = default_rng(seed)
            if not isinstance(seed, np.random.Generator):  # returned as it is
                seq = rng.bit_generator.seed_seq
                keys.append((seq.entropy, seq.spawn_key))
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording)
        path = write_config(tmp_path, config_text({"seed": 5, **TOY[experiment]}))
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path)]) == 0
        assert keys and {entropy for entropy, _ in keys} == {5}, keys
        assert len(set(keys)) == len(keys), sorted(keys)

    def test_library_imports_numpy_only(self, tmp_path):
        """A fresh interpreter runs a toy ``mp`` (so ``mp_cdf`` runs) without scipy."""
        path = write_config(tmp_path, config_text({"seed": 1, **TOY["mp"]}))
        code = (
            "import sys\n"
            "from rmt_equiv import cli\n"
            f"assert cli.run(cli.parse_config({path!r}, 'mp'), {str(tmp_path)!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", proc.stdout

    def test_mp_small(self, tmp_path):
        path = write_config(tmp_path, "seed = 0\np = 128\nc_list = 0.5\nbins = 24\n")
        rc = cli.main(["mp", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "mp_hist_c0p5.csv").exists()
        assert (tmp_path / "mp_density_c0p5.csv").exists()
        lines = (tmp_path / "mp_summary.csv").read_text().splitlines()
        assert lines[0] == ("ratio,gamma,metric,empirical_mean,"
                            "empirical_stderr,theory,trials,status")

    @pytest.mark.parametrize("experiment, text, key", [
        ("mp", "c_list = 0", "c_list"),
        ("ridge-sweep", "ratios = 0", "ratios"),
        ("ridge-sweep", "gammas =", "gammas"),
        ("rf-sweep", "d_over_n = 0", "d_over_n"),
        ("rf-sweep", "p = 1", "p"),
        pytest.param("rf-sweep", "n = 16\nn_test = 16\ndataset = {data}",
                     "dataset", id="rf-sweep-short-dataset"),
        pytest.param("rf-sweep",
                     "n = 16\nn_test = 16\ndataset = {zeros}",
                     "dataset", id="rf-sweep-zero-sample"),
        pytest.param("rf-sweep", "dataset = {bad_row}", "dataset",
                     id="rf-sweep-unparsable-row"),
        pytest.param("rf-sweep", "dataset = {other_labels}", "dataset",
                     id="rf-sweep-no-matching-label"),
        ("kernel-lin", "sizes = 0", "sizes"),
        ("ck-depth", "p = 1", "p"),
        ("ck-depth", "p = 1.5", "p"),
        ("dynamics", "nodes = 0", "nodes"),
        ("rf-sweep", "n_test = 0", "n_test"),
        # a removed key: old configs name it and exit 2
        ("kernel-lin", "activation = tanh\nmc_samples = 0", "mc_samples"),
        ("rf-sweep", "sigma2 = 0", "sigma2"),
        ("rf-sweep", "normalization = unit-sphere", "normalization"),
        # a count key that the experiment does not define is an unknown key
        ("tanh-demo", "p = 64", "p"),
        ("mp", "trials = 5", "trials"),
        ("kernel-lin", "n = 10", "n"),
        ("rf-sweep", "dataset = /nonexistent/x.csv", "dataset"),
        ("mp", "seed = -1", "seed"),
        # non-finite numbers
        ("rf-sweep", "d_over_n = inf", "d_over_n"),
        ("ridge-sweep", "ratios = inf", "ratios"),
        ("rf-sweep", "gamma = inf", "gamma"),
        ("ridge-sweep", "gammas = inf", "gammas"),
        ("dynamics", "eta = inf", "eta"),
        ("dynamics", "times = nan", "times"),
        ("mp", "c_list = inf", "c_list"),
        # entries whose file tags ({c:g}) collide would overwrite each other's files
        ("mp", "c_list = 0.5, 0.5", "c_list"),
        ("mp", "c_list = 2, 0.5, 0.5000001", "c_list"),
        # config errors that used to surface as numerical failures or pass
        ("rf-sweep", "activation = softplus", "activation"),
        ("kernel-lin", "activation = softplus", "activation"),
        ("rf-sweep", "labels = 1, 2, 3", "labels"),
        ("rf-sweep", "labels = 3, 7", "labels"),
        ("ridge-sweep", "sigma2 = -1", "sigma2"),
        ("ridge-sweep", "beta_norm2 = -1", "beta_norm2"),
        ("ridge-sweep", "theory_grid = -1", "theory_grid"),
        ("dynamics", "eta = 0", "eta"),
        ("dynamics", "times = 0, -1", "times"),
        ("dynamics", "nodes = 8", "nodes"),
        ("dynamics", "d = 30\nn = 20", "d"),
        ("ck-depth", "layers = 1", "layers"),
        # sample counts that no int64 holds
        ("ridge-sweep", "ratios = 1e300", "ratios"),
        ("mp", "c_list = 1e-300", "c_list"),
        ("rf-sweep", "d_over_n = 1e300", "d_over_n"),
        # a key starting with '_' is an unknown key like any other
        ("mp", "_sed = 9", "_sed"),
        ("rf-sweep", "_header = False", "_header"),
        ("rf-sweep", "header = 2", "header"),
        pytest.param("rf-sweep", "header = 2\ndataset = {data}", "header",
                     id="rf-sweep-dataset-header-2"),
        # the experiment comes from the command line only
        ("mp", "experiment = mp", "experiment"),
        # the simulated-ratio warnings are not formed for a p that validate
        # rejects, whose sample count would overflow
        ("ridge-sweep", f"p = {10**20}\nratios = 1e300\ngammas = 0.00001", "p"),
        ("mp", f"p = {10**20}\nc_list = 1e-300", "p"),
    ])
    def test_bad_input_exit_2_names_key(self, tmp_path, capsys, experiment, text, key):
        text = text.format(data=write_dataset(tmp_path, 30),  # 30 rows < n + n_test
                           zeros=write_dataset(tmp_path, 40, name="zeros.csv",
                                               zero_row=3),
                           bad_row=write_config(tmp_path, "1,0.5,0.25\n2,x,0.5\n",
                                                name="bad_row.csv"),
                           other_labels=write_config(tmp_path, "3,0.5,0.25\n4,1,0.5\n",
                                                     name="other_labels.csv"))
        # a case that sets the seed itself gets no seed line, which would set it twice
        head = "" if text.startswith("seed") else "seed = 1\n"
        path = write_config(tmp_path, f"{head}{text}\n")
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key}\b", err), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, want", [
        ("sigma2 = 0", "unknown key 'sigma2' for experiment rf-sweep"),
        ("normalization = unit-sphere",
         "unknown key 'normalization' for experiment rf-sweep"),
        ("labels = 3, 7", "labels applies only with a dataset"),
    ], ids=["sigma2", "normalization", "labels"])
    def test_rf_key_that_would_be_ignored_exit_2(self, tmp_path, capsys, text, want):
        """``sigma2`` and ``normalization`` are gone, and ``labels`` filters a
        dataset only: an old config that sets one would otherwise run as if it
        did not."""
        path = write_config(tmp_path, config_text({"seed": 1, **TOY["rf-sweep"]})
                            + text + "\n")
        out = tmp_path / "out"
        assert cli.main(["rf-sweep", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize("p", [6, 256])
    def test_rf_p_beside_dataset_exit_2(self, tmp_path, capsys, p):
        """A dataset run takes p from the file: a ``p`` set beside it, even at
        the default 256, would be ignored."""
        data = write_dataset(tmp_path, 30)
        path = write_config(tmp_path, f"seed = 2\nn = 16\nn_test = 8\np = {p}\n"
                                      f"dataset = {data}\n")
        out = tmp_path / "out"
        assert cli.main(["rf-sweep", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: p applies only without a dataset\n"
        assert not out.exists()

    @pytest.mark.parametrize("experiment", list(TOY))
    def test_header_without_dataset_exit_2(self, tmp_path, capsys, experiment):
        """``header`` is an rf-sweep key that applies only to a dataset; elsewhere
        it would be silently ignored."""
        path = write_config(tmp_path, config_text({"seed": 1, **TOY[experiment],
                                                   "header": 1}))
        out = tmp_path / "out"
        assert cli.main([experiment, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        want = ("header applies only with a dataset" if experiment == "rf-sweep"
                else f"unknown key 'header' for experiment {experiment}")
        assert f"error: {want}\n" in err, err
        assert not out.exists()

    def test_duplicate_key_exit_2(self, tmp_path, capsys):
        """A key set twice would run with its last value only."""
        path = write_config(tmp_path, "seed = 1\nc_list = 0.5\np = 16\nc_list = 2\n")
        out = tmp_path / "out"
        assert cli.main(["mp", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}:4: c_list: set twice (first on line 2)\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dataset", "--header"])
    def test_removed_flags_exit_2(self, tmp_path, capsys, flag):
        """Run settings come from the config file only."""
        flags = [flag, write_dataset(tmp_path, 30)] if flag == "--dataset" else [flag]
        path = write_config(tmp_path, config_text({"seed": 1, **TOY["rf-sweep"]}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["rf-sweep", "--config", path, "--out", str(out), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flags)}" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    def test_help_lists_config_and_out_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert options == {"-h", "--help", "--config", "--out"}, options

    @pytest.mark.parametrize("experiment,key", [
        ("tanh-demo", "n"), ("rf-sweep", "n"), ("kernel-lin", "sizes"),
        ("ck-depth", "width"), ("dynamics", "n"), ("mp", "bins"),
        ("ridge-sweep", "trials"), ("ck-depth", "layers"), ("dynamics", "nodes"),
    ])
    def test_count_beyond_int64_exit_2_names_key(self, tmp_path, capsys,
                                                 experiment, key):
        path = write_config(tmp_path, f"seed = 1\n{key} = {10**20}\n")
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key} must be < 2\*\*63", err), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("zero_row", [3, 35])
    def test_zero_sample_exit_2(self, tmp_path, capsys, zero_row):
        # sample 35 lies past the n + n_test = 32 samples that the run uses
        data = write_dataset(tmp_path, 40, zero_row=zero_row)
        path = write_config(tmp_path, f"seed = 1\nn = 16\nn_test = 16\n"
                                      f"dataset = {data}\n")
        assert cli.main(["rf-sweep", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: dataset {data}: filtered sample {zero_row} (0-based) "
                       "has norm 0\n"), err

    def test_non_finite_dataset_exit_2(self, tmp_path, capsys):
        data = write_config(tmp_path, "1,0.5,0.25\n2,nan,0.5\n" * 20, name="nan.csv")
        path = write_config(tmp_path, f"seed = 1\nn = 16\nn_test = 16\n"
                                      f"dataset = {data}\n")
        assert cli.main(["rf-sweep", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: dataset {data}: row 2: non-finite feature\n", err

    def test_complex_contour_projection_exit_3(self, tmp_path, capsys):
        # the shipped dynamics sizes at t = 200: the contour quadrature loses
        # the real part of the projection and raises a bare ArithmeticError
        path = write_config(tmp_path, "seed = 13\nd = 24\nn = 48\nnodes = 512\n"
                                      "times = 0, 200\n")
        assert cli.main(["dynamics", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure in dynamics: non-real contour projection" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("t, bound", [("1000", r"\d\.\d\de\+\d+"), ("16000", "nan")])
    def test_inaccurate_contour_projection_exit_3(self, tmp_path, capsys, t, bound):
        # the shipped dynamics sizes: at t = 1000 the quadrature returns a real
        # 2e+70, at t = 16000 exp(-eta t z) overflows on the contour
        path = write_config(tmp_path, "seed = 13\nd = 24\nn = 48\nnodes = 512\n"
                                      f"times = 0, {t}\n")
        assert cli.main(["dynamics", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert re.search(f"numerical failure in dynamics: contour projection at t={t} "
                         f"is not accurate: rounding bound {bound} exceeds", err), err
        assert "Traceback" not in err

    RIDGE_TOY = "seed = 1\np = 8\nratios = 2\ntrials = 1\ngammas = {}\n"

    def test_failed_allocation_exit_3(self, tmp_path, capsys, monkeypatch):
        self.check_failed_allocation(tmp_path, capsys, monkeypatch, ridge,
                                     "gaussian_matrix", "ridge-sweep",
                                     self.RIDGE_TOY.format(0))

    def test_failed_sampler_allocation_exit_3(self, tmp_path, capsys, monkeypatch):
        self.check_failed_allocation(tmp_path, capsys, monkeypatch, ridge,
                                     "draw_bidiagonal", "ridge-sweep",
                                     self.RIDGE_TOY.format(0.1))

    def test_failed_mp_sampler_allocation_exit_3(self, tmp_path, capsys, monkeypatch):
        self.check_failed_allocation(tmp_path, capsys, monkeypatch, cli,
                                     "_mp_eigenvalues", "mp", "seed = 1\np = 8\n")

    def test_failed_ck_sampler_allocation_exit_3(self, tmp_path, capsys, monkeypatch):
        self.check_failed_allocation(tmp_path, capsys, monkeypatch, cli,
                                     "_second_layer", "ck-depth",
                                     "seed = 1\nlayers = 2\nn = 8\np = 8\nwidth = 16\n")

    def test_failed_rf_weight_allocation_exit_3(self, tmp_path, capsys, monkeypatch):
        # on a dataset, the weight draw is the only stream rf-sweep opens
        data = write_dataset(tmp_path, 30)
        self.check_failed_allocation(tmp_path, capsys, monkeypatch, cli, "stream",
                                     "rf-sweep",
                                     "seed = 2\nn = 16\nn_test = 8\n"
                                     f"d_over_n = 0.5, 2\ngamma = 0.5\ndataset = {data}\n")

    @staticmethod
    def check_failed_allocation(tmp_path, capsys, monkeypatch, module, target,
                                experiment, text):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 3.81 TiB")

        monkeypatch.setattr(module, target, no_memory)
        path = write_config(tmp_path, text)
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"numerical failure in {experiment}: Unable to allocate" in err, err
        assert "Traceback" not in err

    def test_unallocatable_draw_buffer_exit_3(self, tmp_path, capsys):
        # p x n = 1e15 doubles: the first draw fails to allocate without touching
        # memory
        path = write_config(tmp_path, "seed = 1\np = 100000\nratios = 100000\n"
                                      "trials = 1\ngammas = 0\n")
        assert cli.main(["ridge-sweep", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure in ridge-sweep: Unable to allocate" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("p, n", [(6, 10), (10, 6), (8, 8)])
    def test_mp_eigenvalues_are_those_of_the_bidiagonal_gram(self, p, n):
        lam = cli._mp_eigenvalues(p, n, randgen.stream(3, 0, 0, 0))
        m = min(p, n)
        a, s = randgen.laguerre_bidiagonal(randgen.stream(3, 0, 0, 0), m, max(p, n))
        X = np.zeros((p, n))  # [B 0] if p <= n, else [B; 0]
        X[:m, :m] = np.diag(a) + np.diag(s, -1)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(X @ X.T / n),
                                   rtol=0, atol=1e-12)
        # B is nonsingular, so the zeros are exactly those of the rank deficit
        assert np.count_nonzero(lam == 0) == p - m
        assert np.all(np.diff(lam) >= 0)

    @pytest.mark.parametrize("p, n", [(6, 10), (10, 6)])
    def test_mp_eigenvalue_moments(self, p, n):
        # E tr(X X^T) = p n and E tr((X X^T)^2) = p n (p + n + 1) for a p x n
        # standard Gaussian X; 4000 draws, each moment within 4 standard errors
        lam = np.array([cli._mp_eigenvalues(p, n, randgen.stream(seed, 0, 0, 0)) * n
                        for seed in range(4000)])
        for moment, want in ((lam.sum(axis=1), p * n),
                             ((lam ** 2).sum(axis=1), p * n * (p + n + 1))):
            se = moment.std(ddof=1) / np.sqrt(moment.size)
            assert abs(moment.mean() - want) <= 4 * se, (moment.mean(), want, se)

    def test_mp_points_draw_from_their_own_streams(self, tmp_path):
        # two file tags, one simulated ratio: n = 32 at both entries
        path = write_config(tmp_path, "seed = 4\np = 16\nc_list = 0.5, 0.50001\n")
        assert cli.main(["mp", "--config", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "mp_summary.csv").read_text().splitlines()[1:]
        ks = [row.split(",")[3] for row in rows]
        want = [f"{spectral.ks_distance(lam, mp_cdf(0.5)):.9g}"
                for lam in (cli._mp_eigenvalues(16, 32, randgen.stream(4, 0, i, 0))
                            for i in range(2))]
        assert ks == want and ks[0] != ks[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shipped_mp_ks_within_tolerance(self, tmp_path, capsys, seed):
        shipped = (ROOT / "configs" / "mp.cfg").read_text(encoding="utf-8")
        assert shipped.count("\nseed = 0\n") == 1, shipped
        path = write_config(tmp_path, shipped.replace("\nseed = 0\n", f"\nseed = {seed}\n"))
        assert cli.main(["mp", "--config", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith(f"mp: seed={seed} ")
        rows = (tmp_path / "mp_summary.csv").read_text().splitlines()[1:]
        ks = [float(row.split(",")[3]) for row in rows]
        assert len(ks) == 4 and max(ks) <= 0.03, ks

    @pytest.mark.parametrize("out", ["file", "file/sub"])  # a file, a path through one
    def test_unusable_out_exit_2(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        path = write_config(tmp_path, "seed = 1\np = 16\n")
        assert cli.main(["mp", "--config", path, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --out {tmp_path / out}: " in err, err
        assert "Traceback" not in err

    def test_out_holding_a_directory_named_as_a_csv_exit_2(self, tmp_path, capsys):
        (tmp_path / "mp_summary.csv").mkdir()
        path = write_config(tmp_path, "seed = 1\np = 16\n")
        assert cli.main(["mp", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: --out {tmp_path}: cannot create or write " \
            f"{tmp_path / 'mp_summary.csv'}: Is a directory" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc_type", [
        *(v for v in vars(errors).values()
          if isinstance(v, type) and v.__module__ == errors.__name__),
        OSError, MemoryError, np.linalg.LinAlgError], ids=lambda t: t.__name__)
    def test_every_failure_has_an_exit_code(self, tmp_path, capsys, monkeypatch,
                                            exc_type):
        def failing(params, out):
            raise exc_type("injected failure")

        entry = cli.EXPERIMENTS["mp"]
        monkeypatch.setitem(cli.EXPERIMENTS, "mp", entry._replace(run=failing))
        path = write_config(tmp_path, "seed = 1\np = 16\n")
        rc = cli.main(["mp", "--config", path, "--out", str(tmp_path)])
        assert rc == (2 if issubclass(exc_type, (errors.DatasetError, OSError)) else 3)
        err = capsys.readouterr().err
        assert "injected failure" in err, err
        assert "Traceback" not in err

    def test_unconverged_fixed_point_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rf_nn, "MAX_FP_ITERATIONS", 1)
        path = write_config(tmp_path, config_text({"seed": 1, **TOY["rf-sweep"]}))
        assert cli.main(["rf-sweep", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"numerical failure in rf-sweep: nonlinear DE fixed point did "
                         r"not converge .*: residual \d\.\d{3}e[+-]\d+ after 1 "
                         r"iterations", err), err
        assert "Traceback" not in err

    def test_validation_failure_exit_2(self, tmp_path):
        path = write_config(tmp_path, "p = 128\n")  # no seed
        rc = cli.run(cli.parse_config(path, "mp"), out_dir=str(tmp_path))
        assert rc == 2

    def test_ridge_sweep_reproducible_bytes(self, tmp_path):
        path = write_config(
            tmp_path,
            "seed = 4\nratios = 0.5, 2.0\ngammas = 0.1\ntrials = 2\np = 32\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["ridge-sweep", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["ridge-sweep", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "ridge_sweep.csv").read_bytes() == \
            (out2 / "ridge_sweep.csv").read_bytes()

    def test_ridge_sweep_theory_grid(self, tmp_path):
        path = write_config(
            tmp_path,
            "seed = 4\nratios = 0.5, 2.0\ngammas = 0.1\ntrials = 2\np = 32\n"
            "theory_grid = 7\n")
        assert cli.main(["ridge-sweep", "--config", path,
                         "--out", str(tmp_path)]) == 0
        text = (tmp_path / "ridge_sweep.csv").read_text()
        assert "theory-only" in text

    def test_rf_sweep_rows_fit_the_leading_rows_of_one_weight_draw(self, tmp_path):
        cli._run_rf_sweep(RF_TOY, str(tmp_path))
        rows = [row.split(",") for row in
                (tmp_path / "rf_sweep.csv").read_text().splitlines()[1:]]
        got = {(row[0], row[2]): float(row[3]) for row in rows}
        assert len(got) == 6
        # the data, truth and weights, each drawn again from its stream
        seed, n, p, n_test, gamma = 3, 24, 8, 16, RF_TOY["gamma"]
        act = rf_nn.get_activation("relu")
        Xtr = randgen.sphere_dataset(p, n, randgen.stream(seed, cli.RF_TRAIN, 0, 0))
        Xte = randgen.sphere_dataset(p, n_test, randgen.stream(seed, cli.RF_TEST, 0, 0))
        b = randgen.stream(seed, cli.RF_TRUTH, 0, 0).standard_normal(p)
        b /= np.linalg.norm(b)
        ytr, yte = Xtr.entries.T @ b, Xte.entries.T @ b
        for dn in RF_TOY["d_over_n"]:
            d = round(dn * n)
            train, test = [], []
            for t in range(3):
                W = randgen.stream(seed, cli.RF_WEIGHTS, 0, t).standard_normal(
                    (2 * n, p))[:d]
                feats = rf_nn.rf_features(W, Xtr, act)
                beta = rf_nn.rf_fit(feats, ytr, gamma)
                train.append(rf_nn.rf_empirical_mse(beta, feats, ytr))
                test.append(rf_nn.rf_empirical_mse(beta, rf_nn.rf_features(W, Xte, act),
                                                   yte))
            assert got[f"{dn:.9g}", "train_mse"] == pytest.approx(np.mean(train),
                                                                  rel=1e-8)
            assert got[f"{dn:.9g}", "test_mse"] == pytest.approx(np.mean(test), rel=1e-8)

    def test_rf_sweep_permuted_widths_give_the_same_rows(self, tmp_path):
        # rows are written sorted by ratio, so permuted rows are the same file
        for name, order in (("a", [0, 1, 2]), ("b", [2, 0, 1])):
            params = {**RF_TOY, "d_over_n": [RF_TOY["d_over_n"][i] for i in order]}
            os.makedirs(tmp_path / name)
            cli._run_rf_sweep(params, str(tmp_path / name))
        assert (tmp_path / "a" / "rf_sweep.csv").read_bytes() == \
            (tmp_path / "b" / "rf_sweep.csv").read_bytes()

    def test_rf_sweep_rows_report_simulated_ratio(self, tmp_path):
        # d = round(0.33 * 16) = 5, so the rows report 5 / 16, the ratio the
        # theory uses, not the requested 0.33
        cli._run_rf_sweep({**RF_TOY, "n": 16, "d_over_n": [0.33, 0.5]}, str(tmp_path))
        rows = (tmp_path / "rf_sweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.3125] * 2 + [0.5] * 2

    def test_rf_data_targets_are_truth_projections(self):
        Xtr, ytr, Xte, yte = cli._rf_data(RF_TOY)
        b = randgen.stream(3, cli.RF_TRUTH, 0, 0).standard_normal(8)
        b /= np.linalg.norm(b)
        np.testing.assert_array_equal(ytr, Xtr.entries.T @ b)
        np.testing.assert_array_equal(yte, Xte.entries.T @ b)

    def test_rf_sweep_fits_each_simulated_width_once(self, tmp_path, monkeypatch):
        # 0.33 and 0.34 both give width 5 at n = 16: one row pair, one fit per trial
        fits, rf_fit = [], rf_nn.rf_fit

        def counted_fit(F, y, gamma):
            fits.append(len(F))
            return rf_fit(F, y, gamma)
        monkeypatch.setattr(rf_nn, "rf_fit", counted_fit)
        for name, d_over_n in (("a", [0.33]), ("b", [0.33, 0.34])):
            os.makedirs(tmp_path / name)
            cli._run_rf_sweep({**RF_TOY, "n": 16, "d_over_n": d_over_n},
                              str(tmp_path / name))
        assert fits == [5] * 6
        text = (tmp_path / "b" / "rf_sweep.csv").read_text()
        assert len(text.splitlines()) == 1 + 2
        assert text == (tmp_path / "a" / "rf_sweep.csv").read_text()

    def test_rf_sweep_reproducible_bytes(self, tmp_path):
        path = write_config(tmp_path, config_text(RF_TOY))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["rf-sweep", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["rf-sweep", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "rf_sweep.csv").read_bytes() == \
            (out2 / "rf_sweep.csv").read_bytes()

    def test_rf_sweep_small(self, tmp_path):
        path = write_config(
            tmp_path,
            "seed = 2\nn = 48\np = 24\nn_test = 32\nd_over_n = 0.5, 1.0\n"
            "trials = 3\ngamma = 0.1\n")
        assert cli.main(["rf-sweep", "--config", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "rf_sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header + 2 ratios x {train,test}

    @pytest.mark.filterwarnings("error")
    def test_rf_sweep_single_trial_warning_free(self, tmp_path):
        path = write_config(
            tmp_path,
            "seed = 2\nn = 48\np = 24\nn_test = 32\nd_over_n = 0.5, 1.0\n"
            "trials = 1\ngamma = 0.1\n")
        assert cli.main(["rf-sweep", "--config", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "rf_sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == [""] * 4  # empirical_stderr

    def test_rf_sweep_with_dataset(self, tmp_path):
        data = write_dataset(tmp_path, 30)
        path = write_config(
            tmp_path,
            f"seed = 2\nn = 16\nn_test = 8\nd_over_n = 0.5\n"
            f"trials = 2\ngamma = 0.5\ndataset = {data}\n")
        assert cli.main(["rf-sweep", "--config", path, "--out", str(tmp_path)]) == 0

    def test_rf_sweep_dataset_flag_and_header(self, tmp_path):
        """``header = 1`` skips the dataset's first line: the run writes what a
        ``header = 0`` run on the same rows without that line writes."""
        runs = {}
        for header in (0, 1):
            data = write_dataset(tmp_path, 30, seed=1, name=f"toy{header}.csv",
                                 header="label,f1,f2,f3,f4,f5,f6" if header else None)
            path = write_config(
                tmp_path,
                "seed = 2\nn = 16\nn_test = 8\nd_over_n = 0.5\n"
                f"trials = 2\ngamma = 0.5\ndataset = {data}\nheader = {header}\n")
            out = tmp_path / f"out{header}"
            assert cli.main(["rf-sweep", "--config", path, "--out", str(out)]) == 0
            runs[header] = (out / "rf_sweep.csv").read_bytes()
        assert runs[1] == runs[0]

    def test_kernel_lin_small(self, tmp_path):
        path = write_config(tmp_path, "seed = 1\nsizes = 32, 64\n")
        assert cli.main(["kernel-lin", "--config", path,
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "activation_coeffs.csv").exists()
        text = (tmp_path / "kernel_lin.csv").read_text()
        assert "linearization_gap" in text

    def test_kernel_lin_tanh_gaps_decrease(self, tmp_path):
        path = write_config(tmp_path,
                            "seed = 5\nsizes = 32, 64, 128\nactivation = tanh\n")
        assert cli.main(["kernel-lin", "--config", path,
                         "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "kernel_lin.csv").read_text().splitlines()[1:]
        gaps = [float(row.split(",")[3]) for row in rows]
        assert len(gaps) == 3
        assert gaps[0] > gaps[1] > gaps[2]

    def test_ck_depth_small(self, tmp_path):
        path = write_config(tmp_path,
                            "seed = 1\nlayers = 3\nn = 24\np = 24\nwidth = 256\n")
        assert cli.main(["ck-depth", "--config", path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "ck_depth.csv").read_text()
        assert "alpha1" in text and "empirical_ck_gap" in text

    def test_ck_depth_gap_is_that_of_the_sampled_second_layer(self, tmp_path):
        params = {"seed": 5, "layers": 2, "n": 12, "p": 12, "width": 700}
        gap = cli._run_ck_depth(params, str(tmp_path))
        act = hk.normalize_activation(rf_nn.get_activation("tanh"))
        X = randgen.sphere_dataset(12, 12, 5)
        P1 = act.evaluate(randgen.stream(5, 0, 0, 0).standard_normal((700, 12))
                          @ X.entries)
        R = np.linalg.qr(P1, mode="r") / np.sqrt(700)
        np.testing.assert_allclose(R.T @ R, P1.T @ P1 / 700, rtol=0, atol=1e-12)
        Z = randgen.stream(5, 1, 0, 0).standard_normal((700, 12))
        P2 = act.evaluate(Z @ R)
        K2t = hk.ck_linear_equivalent(X, hk.ck_alphas(act, 2), 2)
        want = np.linalg.norm(P2.T @ P2 / 700 - K2t, 2) / np.linalg.norm(K2t, 2)
        assert gap == pytest.approx(want, rel=1e-12)
        row = (tmp_path / "ck_depth.csv").read_text().splitlines()[-1].split(",")
        assert row[2] == "empirical_ck_gap" and row[3] == f"{want:.9g}"

    def test_ck_second_layer_has_the_law_of_a_direct_draw(self):
        # n = p = 6, width 24: the mean empirical CK and the mean gap of the
        # sampled second layer against those of direct W2 draws, over 4000 seeds
        n, width, draws = 6, 24, 4000
        act = hk.normalize_activation(rf_nn.get_activation("tanh"))
        X = randgen.sphere_dataset(n, n, 3)
        P1 = act.evaluate(randgen.stream(3, 0, 0, 0).standard_normal((width, n))
                          @ X.entries)
        K2t = hk.ck_linear_equivalent(X, hk.ck_alphas(act, 2), 2)
        R = cli._qr_r(P1) / np.sqrt(width)
        sampled, direct = np.empty((draws, n, n)), np.empty((draws, n, n))
        for seed in range(draws):
            P2 = act.evaluate(cli._second_layer(R, width,
                                                randgen.stream(seed, 1, 0, 0)))
            sampled[seed] = P2.T @ P2 / width
            W2 = randgen.stream(seed, 2, 0, 0).standard_normal((width, width))
            P2 = act.evaluate(W2 / np.sqrt(width) @ P1)
            direct[seed] = P2.T @ P2 / width

        def gaps(K):
            return np.abs(np.linalg.eigvalsh(K - K2t)).max(axis=1)

        upper = np.triu_indices(n)
        for a, b in ((sampled[:, upper[0], upper[1]], direct[:, upper[0], upper[1]]),
                     (gaps(sampled), gaps(direct))):
            se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / draws)
            z = (a.mean(axis=0) - b.mean(axis=0)) / se
            assert np.abs(z).max() <= 4.0, z

    @pytest.mark.parametrize("n", [2, 7, 16, 40])
    @pytest.mark.parametrize("tall", [0, 1, 5])
    def test_qr_r_is_lapacks_r(self, n, tall):
        # Cholesky's R is exact for P^T P + E with ||E|| <= c n eps ||P||^2, and
        # a relative Gram error e moves R by at most about cond(P)^2 e relative;
        # LAPACK's R is backward stable, so the two differ by n cond(P)^2 eps.
        # The signs are LAPACK's exactly
        act = hk.normalize_activation(rf_nn.get_activation("tanh"))
        for seed in range(10):
            width = n + tall * (n + seed)
            X = randgen.sphere_dataset(n, n, seed)
            P = act.evaluate(randgen.stream(seed, 0, 0, 0).standard_normal((width, n))
                             @ X.entries)
            want = np.linalg.qr(P, mode="r")
            got = cli._qr_r(P)
            assert np.array_equal(np.sign(np.diag(got)), np.sign(np.diag(want)))
            bound = n * np.linalg.cond(P) ** 2 * np.finfo(float).eps
            assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @pytest.mark.parametrize("p", [64, 16])
    def test_ck_depth_holds_one_width_by_n_array(self, tmp_path, p):
        # P1, then P2, each beside one 512-row block of its Gaussian factor:
        # never a second width x n array (a whole factor at p = n would add one)
        params = {"seed": 5, "layers": 2, "n": 64, "p": p, "width": 4096}
        cli._run_ck_depth(params, str(tmp_path))  # warm-up
        tracemalloc.start()
        try:
            cli._run_ck_depth(params, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layer = 4096 * 64 * 8
        assert peak <= 1.25 * layer, peak / layer

    @pytest.mark.parametrize("width", [24, 100])
    def test_ck_depth_runs_no_qr_when_width_reaches_n(self, tmp_path, monkeypatch,
                                                       width):
        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called with width >= n")

        monkeypatch.setattr(cli.np.linalg, "qr", no_qr)
        params = {"seed": 1, "layers": 2, "n": 24, "p": 24, "width": width}
        assert np.isfinite(cli._run_ck_depth(params, str(tmp_path)))

    def test_ck_depth_width_below_n(self, tmp_path):
        path = write_config(tmp_path,
                            "seed = 1\nlayers = 2\nn = 24\np = 24\nwidth = 8\n")
        assert cli.main(["ck-depth", "--config", path, "--out", str(tmp_path)]) == 0
        row = (tmp_path / "ck_depth.csv").read_text().splitlines()[-1].split(",")
        assert row[2] == "empirical_ck_gap" and np.isfinite(float(row[3]))

    def test_kernel_lin_peak_memory(self, tmp_path):
        params = {"seed": 5, "sizes": [512], "activation": "relu"}
        cli._run_kernel_lin(params, str(tmp_path))  # warm-up
        tracemalloc.start()
        try:
            cli._run_kernel_lin(params, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three result sizes: X beside the ReLU kernel and its one buffer, then
        # X beside the kernel and its linear equivalent
        result = 512 * 512 * 8
        assert peak <= 3.5 * result, peak / result

    def test_dynamics_small(self, tmp_path):
        path = write_config(tmp_path,
                            "seed = 1\nd = 8\nn = 24\ntimes = 0.0, 0.5, 2.0\n"
                            "nodes = 128\n")
        assert cli.main(["dynamics", "--config", path, "--out", str(tmp_path)]) == 0
        flow = (tmp_path / "flow_trajectory.csv").read_text().splitlines()
        assert flow[0] == "t,loss,projection"
        losses = [float(line.split(",")[1]) for line in flow[1:]]
        assert losses == sorted(losses, reverse=True)
        assert (tmp_path / "ntk_trajectory.csv").exists()

    def test_tanh_demo(self, tmp_path):
        path = write_config(tmp_path, "seed = 3\nn = 500\ndraws = 400\n")
        assert cli.main(["tanh-demo", "--config", path, "--out", str(tmp_path)]) == 0
        hist = (tmp_path / "tanh_demo_hist.csv").read_text().splitlines()
        assert hist[0] == "regime,bin_left,bin_right,mass"
        assert any(line.startswith("clt,") for line in hist[1:])
        curves = (tmp_path / "tanh_demo_curves.csv").read_text().splitlines()
        assert curves[0] == "t,tanh,taylor_line,hermite_line"
