import json

import numpy as np
import pytest

from modlse import (
    ExperimentConfig,
    PipelineConfig,
    SamplingConfig,
    read_iq_csv,
)
from modlse.cli import build_experiment_config, main, parse_config_file


class TestConfigFile:
    def test_parse_key_values(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# desk-scale sweep\n"
            "scenario = snr_sweep\n"
            "method = dp_omp_iter\n"
            "n = 256\n"
            "gamma = 10\n"
            "lambda = 0.7\n"
            "k = 3\n"
            "seed = 7\n"
            "trials = 5\n"
            "p = 3\n"
            "beta = 0.04\n"
            "snr_grid = 20, 30\n"
        )
        entries = parse_config_file(cfg)
        assert entries["lambda"] == 0.7
        assert entries["snr_grid"] == (20.0, 30.0)
        built = build_experiment_config(entries)
        assert built.sampling.n == 256
        assert built.pipeline.p == 3
        assert built.trials == 5

    def test_unset_keys_keep_dataclass_defaults(self):
        assert build_experiment_config({}) == ExperimentConfig()
        built = build_experiment_config({"lambda": 0.5, "v": 2, "k": 2})
        assert built.sampling == SamplingConfig(lam=0.5, k=2)
        assert built.pipeline == PipelineConfig(v_bound=2)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("volume = 11\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        # the later value would otherwise replace the earlier one unseen
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p = 2\n# comment\nseed = 7\np = 3\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(cfg)
        assert str(exc.value) == f"{cfg}:4: duplicate key 'p' (first on line 1)"

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario snr_sweep\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(cfg)

    @pytest.mark.parametrize("line,message", [
        ("trials = 3.0", "trials: invalid literal for int()"),
        ("snr_grid = 20,,30", "snr_grid: could not convert string to float: ''"),
    ])
    def test_bad_value_names_its_place(self, tmp_path, line, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"seed = 7\n{line}\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(cfg)
        assert str(exc.value).startswith(f"{cfg}:2: {message}")

    def test_bad_value_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("trials = 3.0\n")
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == (f"modlse experiment: error: {cfg}:1: trials: invalid "
                       "literal for int() with base 10: '3.0'\n")


class TestCliCommands:
    def test_simulate_then_recover(self, tmp_path, capsys):
        prefix = tmp_path / "scene"
        assert main(["simulate", "--n", "256", "--k", "2", "--seed", "3",
                     "--gamma", "10", "--lambda", "0.5", "--snr", "30",
                     "--out", str(prefix)]) == 0
        folded = tmp_path / "scene_folded.csv"
        unfolded = tmp_path / "scene_unfolded.csv"
        assert folded.exists() and unfolded.exists()
        y = read_iq_csv(folded)
        g = read_iq_csv(unfolded)
        assert y.size == g.size == 256
        assert np.max(np.abs(y.real)) <= 0.5

        capsys.readouterr()  # simulate's lines, which name omegas too

        assert main(["recover", str(folded), "--k", "2", "--gamma", "10",
                     "--lambda", "0.5", "--method", "dp_omp_iter",
                     "--out", str(tmp_path / "rec.csv")]) == 0
        out = capsys.readouterr().out
        assert "omega=" in out
        assert (tmp_path / "rec.csv").exists()

    def test_recover_with_software_folding(self, tmp_path, capsys):
        prefix = tmp_path / "scene"
        main(["simulate", "--n", "256", "--k", "1", "--seed", "5",
              "--lambda", "0.5", "--snr", "40", "--out", str(prefix)])
        # feed the unfolded file and ask the tool to fold it first
        assert main(["recover", str(tmp_path / "scene_unfolded.csv"),
                     "--k", "1", "--lambda", "0.5", "--fold"]) == 0
        assert "omega=" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["dp", "dp_omp", "omp_only", "usalg"])
    def test_recover_all_methods(self, tmp_path, capsys, method):
        prefix = tmp_path / "scene"
        main(["simulate", "--n", "256", "--k", "2", "--seed", "11",
              "--lambda", "0.5", "--snr", "35", "--out", str(prefix)])
        assert main(["recover", str(tmp_path / "scene_folded.csv"),
                     "--k", "2", "--lambda", "0.5", "--method", method]) == 0
        assert "omega=" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "--out", "scene", "--p", "3"],
        ["recover", "scene_folded.csv", "--trials", "2"],
    ])
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_experiment_without_grid_is_one_line_error(self, tmp_path, capsys):
        assert main(["experiment", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == ("modlse experiment: error: snr_sweep requires a "
                       "non-empty snr_grid\n")

    def test_experiment_unread_grid_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = snr_sweep\nsnr_grid = 30\nbeta_grid = 0.05\n")
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == ("modlse experiment: error: scenario 'snr_sweep' does not "
                       "read beta_grid\n")
        assert not (tmp_path / "x_trials.csv").exists()

    def test_experiment_unknown_scenario_is_one_line_error(self, tmp_path,
                                                            capsys):
        # a one-point snr_sweep runs what single_trial ran
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = single_trial\n")
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == ("modlse experiment: error: unknown "
                                           "scenario 'single_trial'\n")
        assert not (tmp_path / "x_trials.csv").exists()

    @pytest.mark.parametrize("scenario,lines,flags,key", [
        ("snr_sweep", "snr_grid = 30", ["--snr", "5"], "snr_db"),
        ("snr_sweep", "snr_grid = 30\nsnr_db = 5", [], "snr_db"),
        ("bandlimited_sweep", "snr_grid = 30", ["--snr", "5"], "snr_db"),
        ("bandlimited_sweep", "snr_grid = 30\nsnr_db = 5", [], "snr_db"),
        ("bandlimited_sweep", "snr_grid = 30\nk = 5", [], "k"),
        ("beta_sweep", "beta_grid = 0.05", ["--beta", "0.1"], "beta"),
        ("beta_sweep", "beta_grid = 0.05\nbeta = 0.1", [], "beta"),
    ])
    def test_experiment_key_the_scenario_sets_is_one_line_error(
            self, scenario, lines, flags, key, tmp_path, capsys):
        # the scenario would overwrite the value, so it is an error
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"scenario = {scenario}\nn = 128\nlambda = 0.5\n"
                       f"trials = 1\np = 2\n{lines}\n")
        assert main(["experiment", "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"modlse experiment: error: scenario '{scenario}' sets {key} itself\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("lines,flags,column,value", [
        ("scenario = beta_sweep\nbeta_grid = 0.05", ["--snr", "5"], "snr_db", "5"),
        ("scenario = snr_sweep\nsnr_grid = 30", ["--beta", "0.1"], "beta", "0.1"),
    ])
    def test_experiment_key_the_scenario_reads_runs(self, lines, flags, column,
                                                    value, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n = 128\nk = 2\nlambda = 0.5\ntrials = 2\np = 2\n"
                       f"{lines}\n")
        assert main(["experiment", "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "x")]) == 0
        header, *rows = (tmp_path / "x_trials.csv").read_text().splitlines()
        at = header.split(",").index(column)
        assert [row.split(",")[at] for row in rows] == [value, value]

    def test_experiment_over_budget_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p = 4\nv = 3\nsnr_grid = 30\n")
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("modlse experiment: error: state-space "
                              "enumeration of 282475249 entries exceeds")
        assert err.count("\n") == 1
        assert not (tmp_path / "x_trials.csv").exists()

    @pytest.mark.parametrize("line,problem", [("p = 0", "p must be >= 1, got 0"),
                                              ("v = 0", "v_bound must be >= 1, got 0")])
    def test_experiment_dp_knob_below_one_is_one_line_error(self, line, problem,
                                                            tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{line}\nsnr_grid = 30\n")
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"modlse experiment: error: {problem}\n"
        assert not (tmp_path / "x_trials.csv").exists()

    def test_recover_bad_lambda_is_one_line_error(self, tmp_path, capsys):
        prefix = tmp_path / "scene"
        main(["simulate", "--n", "64", "--k", "1", "--out", str(prefix)])
        capsys.readouterr()
        assert main(["recover", str(tmp_path / "scene_folded.csv"),
                     "--lambda", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == ("modlse recover: error: lam must be finite and "
                       "positive, got -1.0\n")

    def test_simulate_checks_its_scene_like_the_config(self, tmp_path, capsys):
        assert main(["simulate", "--gamma", "1.0",
                     "--out", str(tmp_path / "scene")]) == 2
        err = capsys.readouterr().err
        assert err == ("modlse simulate: error: gamma must be finite and "
                       "exceed 1, got 1.0\n")
        assert not (tmp_path / "scene_folded.csv").exists()

    @pytest.mark.parametrize("argv", [["--snr", "-inf"], ["--snr=-inf"]])
    def test_simulate_negative_infinite_snr_reaches_the_check(
            self, argv, tmp_path, capsys):
        # argparse alone reads "-inf" after "--snr" as an option
        assert main(["simulate", *argv, "--out", str(tmp_path / "scene")]) == 2
        err = capsys.readouterr().err
        assert err == ("modlse simulate: error: snr_db must be a number or +inf "
                       "(noiseless), got -inf\n")
        assert not (tmp_path / "scene_folded.csv").exists()

    @pytest.mark.parametrize("argv", [["--snr", "-1e3"], ["--snr=-1e3"]])
    def test_simulate_takes_a_negative_exponent_snr(self, argv, tmp_path, capsys):
        assert main(["simulate", "--n", "64", "--k", "1", *argv,
                     "--out", str(tmp_path / "scene")]) == 0
        assert "snr=-1000.0 dB" in capsys.readouterr().out

    def test_simulate_checks_no_recovery_config(self, tmp_path, capsys):
        # the default beta=0.04 lies below 1/(n-1) at n=20, but simulate
        # recovers nothing, so it writes the scene
        assert main(["simulate", "--n", "20", "--k", "1",
                     "--out", str(tmp_path / "scene")]) == 0
        assert (tmp_path / "scene_folded.csv").exists()

    def test_recover_takes_n_from_its_input(self, tmp_path, capsys):
        # k=300 exceeds half the default n=512 but not half the file's 1024
        prefix = tmp_path / "scene"
        assert main(["simulate", "--n", "1024", "--k", "1", "--seed", "2",
                     "--snr", "inf", "--out", str(prefix)]) == 0
        omega = float(capsys.readouterr().out.split("omega=")[1].split()[0])
        assert main(["recover", str(tmp_path / "scene_folded.csv"),
                     "--k", "300"]) == 0
        found = float(capsys.readouterr().out.split("omega=")[1].split()[0])
        assert abs(found - omega) < 1e-6

    def test_missing_input_is_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["recover", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("modlse recover: error: ") and str(missing) in err
        assert err.count("\n") == 1

    def test_experiment_bandlimited_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "bl.cfg"
        cfg.write_text(
            "scenario = bandlimited_sweep\nmethod = dp_omp_iter\nn = 128\n"
            "gamma = 10\nlambda = 0.7\nseed = 4\ntrials = 2\np = 2\n"
            "beta = 0.05\nsnr_grid = 30\n")
        prefix = tmp_path / "bl"
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(prefix)]) == 0
        rows = (tmp_path / "bl_trials.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_experiment_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario = snr_sweep\nmethod = dp_omp_iter\nn = 128\n"
            "k = 2\nlambda = 0.5\nseed = 2\ntrials = 2\np = 2\n"
            "beta = 0.05\nsnr_grid = 30\n")
        prefix = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(prefix)]) == 0
        trials_csv = tmp_path / "run_trials.csv"
        summary = tmp_path / "run_summary.json"
        assert trials_csv.exists() and summary.exists()
        rows = trials_csv.read_text().splitlines()
        assert rows[0].startswith("trial_id,seed,method")
        assert len(rows) == 3
        payload = json.loads(summary.read_text())
        assert payload[0]["method"] == "dp_omp_iter"
        assert payload[0]["trials"] == 2
        assert list(payload[0]) == ["axis", "value", "method", "trials",
                                    "success_rate", "mean_nmse_db",
                                    "mean_runtime_s"]
        assert "(2 trials)" in capsys.readouterr().out

    def test_experiment_flag_overrides(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = snr_sweep\nn = 128\nk = 2\nlambda = 0.5\n"
                       "trials = 1\np = 2\nbeta = 0.05\nsnr_grid = 30\n")
        assert main(["experiment", "--config", str(cfg), "--method", "usalg",
                     "--trials", "2", "--out", str(prefix)]) == 0
        rows = (tmp_path / "run_trials.csv").read_text().splitlines()
        assert len(rows) == 3
        assert all(",usalg," in r for r in rows[1:])
