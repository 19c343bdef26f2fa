"""Config parsing/validation and end-to-end experiment runs at desk scale."""

import re

import numpy as np
import pytest

from rmt_equiv import cli


def write_config(tmp_path, text, name="cfg.txt"):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return str(f)


def write_dataset(tmp_path, rows, seed=0, name="toy.csv", header=None):
    """Label-first two-class CSV with six features per row."""
    rng = np.random.default_rng(seed)
    lines = [header] if header else []
    lines += [f"{1 if i % 2 == 0 else 2},"
              + ",".join(f"{v:.6f}" for v in rng.standard_normal(6))
              for i in range(rows)]
    return write_config(tmp_path, "\n".join(lines) + "\n", name=name)


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

    def test_defaults_filled(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "seed = 5\n"), "mp")
        filled, errors, _ = cli.validate(cfg)
        assert not errors
        assert filled.params["p"] == 1024
        assert filled.params["c_list"] == [0.1, 0.5, 1.0, 2.0]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = cli.parse_config(write_config(tmp_path, "seed = 5\n"), "mp")
        monkeypatch.setenv("RMT_EQUIV_SEED", "99")
        filled, _, _ = cli.validate(cfg)
        assert filled.params["seed"] == 99

    def test_unknown_key_rejected(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "seed = 1\nbogus = 2\n"), "mp")
        _, errors, _ = cli.validate(cfg)
        assert any("bogus" in e for e in errors)

    @pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
    def test_defaults_round_trip(self, tmp_path, name):
        want = {"seed": 11, **cli.EXPERIMENTS[name].defaults}
        text = "".join(
            f"{key} = {', '.join(map(str, val)) if isinstance(val, list) else val}\n"
            for key, val in want.items())
        got = cli.parse_config(write_config(tmp_path, text), name).params
        assert got == want

        def types(v):
            return [type(x) for x in v] if isinstance(v, list) else type(v)
        assert {k: types(v) for k, v in got.items()} == \
            {k: types(v) for k, v in want.items()}


class TestRunExperiments:
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
        pytest.param("rf-sweep", "n = 16\nn_test = 16\np = 6\ndataset = {data}",
                     "dataset", id="rf-sweep-short-dataset"),
        ("kernel-lin", "sizes = 0", "sizes"),
        ("ck-depth", "p = 1", "p"),
        ("ck-depth", "p = 1.5", "p"),
        ("dynamics", "nodes = 0", "nodes"),
        ("rf-sweep", "n_test = 0", "n_test"),
        ("kernel-lin", "activation = tanh\nmc_samples = 0", "mc_samples"),
        # a count key that the experiment does not define is an unknown key
        ("tanh-demo", "p = 64", "p"),
        ("mp", "trials = 5", "trials"),
        ("kernel-lin", "n = 10", "n"),
    ])
    def test_bad_input_exit_2_names_key(self, tmp_path, capsys, experiment, text, key):
        text = text.format(data=write_dataset(tmp_path, 30))  # 30 rows < n + n_test
        path = write_config(tmp_path, f"seed = 1\n{text}\n")
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key}\b", err), err
        assert "Traceback" not in err

    def test_validation_failure_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RMT_EQUIV_SEED", raising=False)
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
            f"seed = 2\nn = 16\np = 6\nn_test = 8\nd_over_n = 0.5\n"
            f"trials = 2\ngamma = 0.5\ndataset = {data}\n")
        assert cli.main(["rf-sweep", "--config", path, "--out", str(tmp_path)]) == 0

    def test_rf_sweep_dataset_flag_and_header(self, tmp_path):
        data = write_dataset(tmp_path, 30, seed=1, name="toy2.csv",
                             header="label,f1,f2,f3,f4,f5,f6")
        path = write_config(
            tmp_path,
            "seed = 2\nn = 16\np = 6\nn_test = 8\nd_over_n = 0.5\n"
            "trials = 2\ngamma = 0.5\n")
        assert cli.main(["rf-sweep", "--config", path, "--out", str(tmp_path),
                         "--dataset", data, "--header"]) == 0

    def test_kernel_lin_small(self, tmp_path):
        path = write_config(tmp_path, "seed = 1\nsizes = 32, 64\n")
        assert cli.main(["kernel-lin", "--config", path,
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "activation_coeffs.csv").exists()
        text = (tmp_path / "kernel_lin.csv").read_text()
        assert "linearization_gap" in text

    def test_ck_depth_small(self, tmp_path):
        path = write_config(tmp_path,
                            "seed = 1\nlayers = 3\nn = 24\np = 24\nwidth = 256\n")
        assert cli.main(["ck-depth", "--config", path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "ck_depth.csv").read_text()
        assert "alpha1" in text and "empirical_ck_gap" in text

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
