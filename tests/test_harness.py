import dataclasses

import numpy as np
import pytest

from modlse import harness
from modlse import (
    METHODS,
    BudgetExceeded,
    ExperimentConfig,
    PipelineConfig,
    SamplingConfig,
    read_iq_csv,
    recover_line_spectrum,
    run_sweep,
    run_trial,
    write_iq_csv,
    write_trials_csv,
)


def small_config(**overrides):
    samp = SamplingConfig(n=128, gamma=10.0, lam=0.5, k=2, snr_db=30.0, seed=42)
    pipe = PipelineConfig(p=2, beta=0.05)
    base = dict(scenario="snr_sweep", sampling=samp, pipeline=pipe,
                method="dp_omp_iter", trials=3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunTrial:
    def test_deterministic_except_runtime(self):
        cfg = small_config()
        a = run_trial(cfg, 5)
        b = run_trial(cfg, 5)
        assert dataclasses.replace(a, runtime_s=0.0) == \
            dataclasses.replace(b, runtime_s=0.0)

    def test_distinct_trials_differ(self):
        cfg = small_config()
        assert run_trial(cfg, 0).seed != run_trial(cfg, 1).seed

    def test_noiseless_unfolded_succeeds_for_every_method(self):
        for method in ("dp", "dp_omp", "dp_omp_iter", "omp_only", "usalg"):
            cfg = small_config(
                method=method,
                sampling=SamplingConfig(n=128, gamma=10.0, lam=50.0, k=2,
                                        snr_db=np.inf, seed=1))
            result = run_trial(cfg, 0)
            assert result.success, method

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_unfolds_as_recover_line_spectrum_does(self, method, monkeypatch):
        # one unfolding path: the trial's g_hat differs from the blind
        # recovery's only by the constant each resolves
        cfg = small_config(method=method,
                           sampling=SamplingConfig(n=256, gamma=10.0, lam=0.4,
                                                   k=2, snr_db=30.0, seed=3))
        seen = {}
        real_recover_residual, real_nomp = harness.recover_residual, harness.nomp

        def recover_residual(y, *args):
            seen["y"] = y
            return real_recover_residual(y, *args)

        def nomp(g_hat, k):
            seen["g_hat"] = g_hat
            return real_nomp(g_hat, k)

        monkeypatch.setattr(harness, "recover_residual", recover_residual)
        monkeypatch.setattr(harness, "nomp", nomp)
        for t in range(4):
            run_trial(cfg, t)
            blind = recover_line_spectrum(seen["y"], 2, 10.0, 0.4, cfg.pipeline,
                                          method=method)
            offset = (seen["g_hat"] - blind.g_hat) / (2.0 * 0.4)
            np.testing.assert_allclose(offset, np.round(offset[0]), rtol=0,
                                       atol=1e-9)

    def test_success_flag_consistency(self):
        cfg = small_config()
        for t in range(4):
            r = run_trial(cfg, t)
            assert r.success == (r.nmse_db < cfg.success_threshold_db)

    def test_folded_scene_recovers(self):
        cfg = small_config(sampling=SamplingConfig(n=256, gamma=10.0, lam=0.4,
                                                   k=2, snr_db=30.0, seed=3))
        result = run_trial(cfg, 1)
        assert result.success

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(method="gradient_descent")
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(scenario="dreams")

    @pytest.mark.parametrize("field", ["trials", "parallelism"])
    def test_rejects_non_integer_count(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 1.5"):
            small_config(**{field: 1.5})

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_success_threshold_rejected(self, threshold):
        # NaN would fail every trial and +inf pass every one
        with pytest.raises(ValueError, match="success_threshold_db must be finite"):
            small_config(success_threshold_db=threshold)

    def test_other_value_errors_propagate(self, monkeypatch):
        # run_trial catches nothing: a ValueError from the pipeline is a
        # fault and must escape the trial, not become a scored row
        def broken(*args, **kwargs):
            raise ValueError("pipeline fault")

        monkeypatch.setattr(harness, "recover_residual", broken)
        with pytest.raises(ValueError, match="pipeline fault"):
            run_trial(small_config(), 0)


class TestRunSweep:
    def test_empty_grid_rejected(self):
        cfg = small_config(scenario="snr_sweep", snr_grid=())
        with pytest.raises(ValueError):
            run_sweep(cfg)

    @pytest.mark.parametrize("scenario,grid", [
        ("snr_sweep", "beta_grid"), ("bandlimited_sweep", "beta_grid"),
        ("beta_sweep", "snr_grid"),
    ])
    def test_unread_grid_rejected(self, scenario, grid):
        # a grid the scenario does not sweep would be parsed and then ignored
        with pytest.raises(ValueError,
                           match=f"scenario '{scenario}' does not read {grid}"):
            small_config(scenario=scenario, **{grid: (0.05,)})

    def test_sweep_aggregates(self):
        cfg = small_config(scenario="snr_sweep", snr_grid=(30.0, 5.0), trials=3)
        points = run_sweep(cfg)
        assert [pt.value for pt in points] == [30.0, 5.0]
        for pt in points:
            assert pt.trials == 3
            assert 0.0 <= pt.success_rate <= 1.0
            assert len(pt.results) == 3

    def test_wide_band_bandlimited_sweep_runs(self):
        # at gamma = 1.5 the band reaches the Nyquist bin, so the model order
        # is clipped to (n - 1) // 2 atoms instead of floor(n / gamma)
        cfg = small_config(scenario="bandlimited_sweep", snr_grid=(30.0,),
                           trials=2,
                           sampling=SamplingConfig(n=64, gamma=1.5, lam=0.5,
                                                   k=2, snr_db=30.0, seed=42))
        point = run_sweep(cfg)[0]
        assert point.trials == 2
        assert np.isfinite(point.mean_nmse_db)

    @pytest.mark.parametrize("method", list(METHODS))
    def test_over_budget_pipeline_rejected_for_dp_methods(self, method):
        # p=4 with v_bound=3 blows the DP's enumeration budget, so no trial
        # of a DP method could run; the other methods never run the DP
        pipe = PipelineConfig(p=4, v_bound=3, beta=0.05)
        kwargs = dict(method=method, pipeline=pipe, scenario="snr_sweep",
                      snr_grid=(30.0,), trials=2)
        if METHODS[method].dp:
            with pytest.raises(BudgetExceeded, match="exceeds budget"):
                small_config(**kwargs)
            return
        points = run_sweep(small_config(**kwargs))
        assert len(points[0].results) == 2
        assert np.isfinite(points[0].mean_nmse_db)

    @pytest.mark.parametrize("pipe,message", [
        (PipelineConfig(p=0, beta=0.05), "^p must be >= 1, got 0"),
        (PipelineConfig(p=2, v_bound=0, beta=0.05), "^v_bound must be >= 1, got 0"),
        (PipelineConfig(p=2.5, beta=0.05), "^p must be an integer, got 2.5"),
        (PipelineConfig(p=200, beta=0.05), "reduce p=200 or v_bound=1"),
    ], ids=["p0", "v0", "p2.5", "p200"])
    @pytest.mark.parametrize("method", list(METHODS))
    def test_dp_knobs_checked_for_dp_methods_only(self, method, pipe, message):
        # a DP method rejects the knob before any trial runs; the other
        # methods never read p or v_bound, so their rows are the default's
        kwargs = dict(method=method, scenario="snr_sweep", snr_grid=(30.0,),
                      trials=2)
        if METHODS[method].dp:
            with pytest.raises(ValueError, match=message):
                small_config(pipeline=pipe, **kwargs)
            return
        rows = run_sweep(small_config(pipeline=pipe, **kwargs))[0].results
        default = run_sweep(small_config(**kwargs))[0].results
        assert [(r.p, r.beta) for r in rows] == [(None, None)] * 2
        assert [dataclasses.replace(r, runtime_s=0.0) for r in rows] == \
            [dataclasses.replace(r, runtime_s=0.0) for r in default]

    @pytest.mark.parametrize("sampling,message", [
        (SamplingConfig(n=64, gamma=70.0, lam=0.5, k=2, seed=42),
         "^band is empty; decrease gamma"),
        (SamplingConfig(n=3, gamma=10.0, lam=0.5, k=1, seed=42), "^n must be >= 4"),
    ], ids=["empty_band", "short"])
    @pytest.mark.parametrize("method", list(METHODS))
    def test_bandlimited_sweep_without_a_band_rejected(self, method, sampling,
                                                       message):
        with pytest.raises(ValueError, match=message):
            small_config(scenario="bandlimited_sweep", snr_grid=(30.0,),
                         sampling=sampling, method=method)

    @pytest.mark.parametrize("method", ["omp_only", "usalg"])
    def test_beta_sweep_of_method_without_beta_rejected(self, method):
        # its points would differ only in their label
        with pytest.raises(ValueError, match=f"scenario 'beta_sweep' sweeps "
                           f"beta, which method '{method}' never reads"):
            small_config(scenario="beta_sweep", beta_grid=(0.03, 0.08),
                         method=method)

    def test_greedy_method_without_a_tail_band_rejected(self):
        # every omp_only trial would fail on the empty tail band
        sampling = SamplingConfig(n=8, gamma=1.05, k=1)
        with pytest.raises(ValueError, match=r"^gamma=1\.05 leaves no guard band "
                           r"at n=8: .* = 7 is not below n - 1 = 7; increase n or gamma$"):
            ExperimentConfig(scenario="snr_sweep", method="omp_only",
                             sampling=sampling, snr_grid=(30.0,), parallelism=2)
        # usalg selects no band
        ExperimentConfig(scenario="snr_sweep", method="usalg",
                         sampling=sampling, snr_grid=(30.0,))

    @pytest.mark.parametrize("overrides", [
        dict(pipeline=PipelineConfig(p=2, beta=0.9)),
        dict(scenario="beta_sweep", beta_grid=(0.03, 0.06, 0.9)),
    ])
    def test_inadmissible_beta_rejected_before_any_trial(self, overrides):
        with pytest.raises(ValueError,
                           match=r"beta=0\.9 outside admissible interval"):
            small_config(**overrides)
        # a method without the DP never selects the guard band by beta
        small_config(method="omp_only", pipeline=PipelineConfig(p=2, beta=0.9))

    def test_parallelism_invariance(self):
        # two points, so pooled rows must stay in place across the boundary
        serial = run_sweep(small_config(scenario="snr_sweep",
                                        snr_grid=(25.0, 10.0), trials=4))
        parallel = run_sweep(small_config(scenario="snr_sweep",
                                          snr_grid=(25.0, 10.0), trials=4,
                                          parallelism=2))
        assert [pt.value for pt in parallel] == [25.0, 10.0]
        for point_s, point_p in zip(serial, parallel):
            assert len(point_p.results) == 4
            assert {r.snr_db for r in point_p.results} == {point_p.value}
            for a, b in zip(point_s.results, point_p.results):
                assert dataclasses.replace(a, runtime_s=0.0) == \
                    dataclasses.replace(b, runtime_s=0.0)

    @pytest.mark.parametrize("parallelism,trials,grid,workers", [
        (4, 1, (30.0,), None),  # one job runs in this process
        (4, 3, (30.0,), 3),
        (2, 3, (30.0, 20.0), 2),
    ])
    def test_pool_has_at_most_one_worker_a_job(self, parallelism, trials, grid,
                                               workers, monkeypatch):
        import concurrent.futures

        asked = []

        class SerialPool:
            """Records its worker count and runs the jobs here, starting no process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = small_config(trials=trials, snr_grid=grid, parallelism=parallelism)
        points = run_sweep(cfg)
        assert asked == ([] if workers is None else [workers])
        assert [len(pt.results) for pt in points] == [trials] * len(grid)

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("scenario,grid", [
        ("snr_sweep", dict(snr_grid=(25.0, 10.0))),
        ("bandlimited_sweep", dict(snr_grid=(25.0, 10.0))),
        ("beta_sweep", dict(beta_grid=(0.03, 0.08))),
    ])
    def test_rows_are_trials_of_their_point_config(self, scenario, grid,
                                                   parallelism):
        # however the sweep shares configs among its trials, each row is the
        # trial of a config whose swept field holds the point's value
        cfg = small_config(scenario=scenario, trials=2, parallelism=parallelism,
                           **grid)
        for point_index, point in enumerate(run_sweep(cfg)):
            if scenario == "beta_sweep":
                point_cfg = dataclasses.replace(cfg, pipeline=dataclasses.replace(
                    cfg.pipeline, beta=point.value))
            else:
                point_cfg = dataclasses.replace(cfg, sampling=dataclasses.replace(
                    cfg.sampling, snr_db=point.value))
            assert [dataclasses.replace(r, runtime_s=0.0) for r in point.results] \
                == [dataclasses.replace(run_trial(point_cfg, t, point_index),
                                        runtime_s=0.0) for t in range(2)]

    def test_beta_sweep_routing(self):
        cfg = small_config(scenario="beta_sweep", beta_grid=(0.03, 0.08),
                           trials=2)
        points = run_sweep(cfg)
        assert [pt.axis for pt in points] == ["beta", "beta"]
        assert {r.beta for pt in points for r in pt.results} == {0.03, 0.08}

    def test_greedy_only_unfolds_folded_scenes(self):
        # lam = 1.5 folds the default scene; 9 of these 20 trials need more
        # than ceil(|S|/4) = 115 corrections from the greedy pass on the tail
        # band (|S| = 459), and each succeeds only if the pass makes them all
        cfg = ExperimentConfig(
            scenario="snr_sweep", method="omp_only", trials=20, snr_grid=(30.0,),
            sampling=SamplingConfig(n=512, gamma=10.0, lam=1.5, seed=5))
        [point] = run_sweep(cfg)
        assert point.success_rate >= 0.9

    def test_success_trend_over_snr(self):
        # success probability must not decrease with SNR beyond sampling slack
        cfg = small_config(scenario="snr_sweep", snr_grid=(10.0, 22.0, 34.0),
                           trials=12,
                           sampling=SamplingConfig(n=256, gamma=10.0, lam=0.5,
                                                   k=2, snr_db=30.0, seed=9))
        rates = [pt.success_rate for pt in run_sweep(cfg)]
        assert all(b >= a - 0.1 for a, b in zip(rates, rates[1:]))


def _value_error(build):
    """The message of the ValueError ``build()`` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestConfigMatchesItsTrials:
    """``ExperimentConfig`` accepts a config exactly when one trial of each of
    its points runs, and rejects it with the message that trial raises."""

    @staticmethod
    def check(monkeypatch, **kwargs):
        rejected = _value_error(lambda: ExperimentConfig(trials=1, **kwargs))
        with monkeypatch.context() as unchecked:
            # the same config, unchecked, run one trial a point
            unchecked.setattr(ExperimentConfig, "__post_init__", lambda self: None)
            failed = _value_error(
                lambda: run_sweep(ExperimentConfig(trials=1, **kwargs)))
        assert rejected == failed, kwargs

    @pytest.mark.parametrize("n", [6, 7, 8, 16])
    @pytest.mark.parametrize("method", list(METHODS))
    def test_record_lengths(self, method, n, monkeypatch):
        # n = 6 with p = 4 and beta = 0.3 admits a guard band but leaves the
        # DP n - 1 = 5 unknowns, fewer than p + 2
        for p in (1, 4):
            for beta in (0.04, 0.2, 0.3):
                self.check(monkeypatch, method=method, snr_grid=(30.0,),
                           sampling=SamplingConfig(n=n, gamma=10.0, k=1),
                           pipeline=PipelineConfig(p=p, beta=beta))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("method", list(METHODS))
    def test_every_grid_value(self, method, bad, monkeypatch):
        self.check(monkeypatch, method=method, snr_grid=(30.0, bad),
                   sampling=SamplingConfig(n=16, gamma=10.0, k=1))


class TestIqFiles:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(55)
        signal = rng.normal(size=256) + 1j * rng.normal(size=256)
        path = tmp_path / "sig.csv"
        write_iq_csv(path, signal)
        np.testing.assert_array_equal(read_iq_csv(path), signal)

    def test_file_shape(self, tmp_path):
        path = tmp_path / "sig.csv"
        write_iq_csv(path, np.array([1 + 2j, 3 - 4j]))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,re,im"
        assert lines[1] == "0,1.0,2.0"
        assert len(lines) == 3

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,re\n0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_iq_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,re,im\n0,1.0,0.0\n1,oops,0.0\n")
        with pytest.raises(ValueError, match=":3"):
            read_iq_csv(path)

    def test_non_contiguous_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,re,im\n0,1.0,0.0\n2,1.0,0.0\n")
        with pytest.raises(ValueError, match="non-contiguous"):
            read_iq_csv(path)

    def test_non_finite_sample_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,re,im\n0,1.0,0.0\n1,nan,0.0\n2,0.0,inf\n")
        with pytest.raises(ValueError, match=":3: non-finite sample"):
            read_iq_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,re,im\n")
        with pytest.raises(ValueError, match="no samples"):
            read_iq_csv(path)


class TestTrialCsv:
    def test_columns_and_determinism(self, tmp_path):
        cfg = small_config(trials=2)
        results = [run_trial(cfg, t) for t in range(2)]
        path_a = tmp_path / "a.csv"
        write_trials_csv(path_a, results)
        header = path_a.read_text().splitlines()[0]
        assert header == ("trial_id,seed,method,p,beta,snr_db,nmse_db,success,"
                          "runtime_s")
        # identical reruns agree in every column except runtime_s
        rerun = [run_trial(cfg, t) for t in range(2)]
        path_b = tmp_path / "b.csv"
        write_trials_csv(path_b, rerun)
        for row_a, row_b in zip(path_a.read_text().splitlines()[1:],
                                path_b.read_text().splitlines()[1:]):
            assert row_a.rsplit(",", 1)[0] == row_b.rsplit(",", 1)[0]

    @pytest.mark.parametrize("method", list(METHODS))
    def test_knob_cells_written_for_dp_methods_only(self, method, tmp_path):
        # p and beta shape only the DP methods' rows
        path = tmp_path / "trials.csv"
        write_trials_csv(path, [run_trial(small_config(method=method), 0)])
        header, row = (line.split(",") for line in path.read_text().splitlines())
        cells = dict(zip(header, row))
        expected = ("2", "0.05") if METHODS[method].dp else ("", "")
        assert (cells["p"], cells["beta"]) == expected
