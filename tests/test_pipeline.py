import dataclasses

import numpy as np
import pytest

import modlse.omp as omp
import modlse.pipeline as pipeline
from modlse import (
    METHODS,
    LineSpectrum,
    PipelineConfig,
    ResidualRecovery,
    SamplingConfig,
    accept_if_improves,
    add_noise,
    anti_difference,
    build_instance,
    dp_solve,
    exact_objective,
    gen_random_spectrum,
    modulo_sample,
    recover_line_spectrum,
    recover_residual,
    residual_decompose,
    resolve_constant_blind,
    resolve_constant_with_truth,
    select_subset,
    select_subset_tail,
    synth_line_spectral,
)


def on_grid_scene(rng, n=512, gamma=25.0, lam=0.5, k=3):
    """Noiseless scene with frequencies exactly on the difference-domain grid."""
    a_max = int(np.floor((n - 1) / gamma))
    bins = rng.choice(np.arange(1, a_max + 1), size=k, replace=False)
    mags = np.abs(rng.normal(1.0, np.sqrt(0.1), k))
    coeffs = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    spec = LineSpectrum(2 * np.pi * bins / (n - 1), coeffs)
    return synth_line_spectral(spec, n), spec


@pytest.fixture
def built_bins(monkeypatch):
    """The bins of each instance stage one builds, in order."""
    seen = []

    def spy(y, lam, bins):
        seen.append(bins)
        return build_instance(y, lam, bins)

    monkeypatch.setattr(pipeline, "build_instance", spy)
    return seen


class TestRecoverResidual:
    def test_unfolded_noisy_input_gives_zero(self):
        rng = np.random.default_rng(100)
        spec = gen_random_spectrum(2, 10.0, rng)
        x = 0.2 * synth_line_spectral(spec, 256)  # well inside lam
        g = add_noise(x, 40.0, rng)
        y = modulo_sample(g, 1.0)
        np.testing.assert_array_equal(y, g)
        res = recover_residual(y, PipelineConfig(p=2, beta=0.05), 1.0, 10.0)
        np.testing.assert_array_equal(res.eps, np.zeros(256, dtype=complex))

    def test_noiseless_on_grid_exact_recovery_rate(self):
        rng = np.random.default_rng(101)
        exact = 0
        trials = 100
        for _ in range(trials):
            g, _ = on_grid_scene(rng)
            y = modulo_sample(g, 0.5)
            eps_true = residual_decompose(g, y, 0.5)
            res = recover_residual(y, PipelineConfig(), 0.5, 25.0)
            resolved = resolve_constant_with_truth(res.eps, eps_true)
            exact += int(np.array_equal(resolved, eps_true))
        assert exact >= 0.95 * trials

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(102)
        spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 512)
        g = add_noise(synth_line_spectral(spec, 512), 25.0, rng)
        y = modulo_sample(g, 0.7)
        res = recover_residual(y, PipelineConfig(iter_max=3), 0.7, 10.0)
        trace = np.array(res.objective_trace)
        assert trace.size == 1 + 2 * 3
        assert np.all(np.diff(trace) <= 1e-12)

    def test_rejected_pass_repeats_objective(self, monkeypatch):
        # the exact objective is evaluated once for the start and once per
        # non-zero candidate update; a rejected update leaves the estimate
        # unchanged, so the trace repeats the last value instead
        calls = []
        nonzero = []

        def counted(inst, eps):
            calls.append(1)
            return exact_objective(inst, eps)

        def accept(inst, eps_hat, delta, *rest):
            nonzero.append(bool(np.any(delta)))
            return accept_if_improves(inst, eps_hat, delta, *rest)

        monkeypatch.setattr(pipeline, "exact_objective", counted)
        monkeypatch.setattr(omp, "exact_objective", counted)
        monkeypatch.setattr(pipeline, "accept_if_improves", accept)
        rng = np.random.default_rng(102)
        spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 512)
        g = add_noise(synth_line_spectral(spec, 512), 25.0, rng)
        y = modulo_sample(g, 0.7)
        res = recover_residual(y, PipelineConfig(iter_max=3), 0.7, 10.0)
        rejected = res.dp_rejections + res.omp_rejections
        assert rejected > 0
        assert len(nonzero) == len(res.objective_trace) - 1
        assert len(calls) == 1 + sum(nonzero)
        trace = res.objective_trace
        assert sum(a == b for a, b in zip(trace, trace[1:])) >= rejected
        inst = build_instance(y, 0.7, select_subset(512, 10.0, PipelineConfig().beta))
        assert trace[-1] == exact_objective(inst, np.diff(res.eps))

    def test_plain_dp_reduction(self):
        # iter_max = 1 with refinement off must equal a single banded solve
        rng = np.random.default_rng(103)
        spec = gen_random_spectrum(3, 10.0, rng)
        g = add_noise(synth_line_spectral(spec, 256), 25.0, rng)
        y = modulo_sample(g, 0.7)
        cfg = PipelineConfig(p=2, beta=0.05)
        res = recover_residual(y, cfg, 0.7, 10.0, method="dp")
        inst = build_instance(y, 0.7, select_subset(256, 10.0, 0.05))
        expected = dp_solve(inst, 2, 1)
        np.testing.assert_array_equal(res.eps, anti_difference(expected))
        np.testing.assert_array_equal(np.diff(res.eps), expected)

    def test_greedy_only_variant_runs(self, built_bins):
        rng = np.random.default_rng(104)
        spec = gen_random_spectrum(2, 10.0, rng)
        g = add_noise(synth_line_spectral(spec, 256), 30.0, rng)
        y = modulo_sample(g, 0.7)
        res = recover_residual(y, PipelineConfig(), 0.7, 10.0, method="omp_only")
        assert res.eps.size == 256
        # tail selection, not guard band
        assert len(built_bins) == 1
        np.testing.assert_array_equal(built_bins[0], select_subset_tail(256, 10.0))

    def test_usalg_variant_reports_no_instance(self, built_bins):
        rng = np.random.default_rng(110)
        spec = gen_random_spectrum(2, 25.0, rng)
        g = synth_line_spectral(spec, 256)
        y = modulo_sample(g, 0.4)
        res = recover_residual(y, PipelineConfig(), 0.4, 25.0, method="usalg")
        assert built_bins == []
        assert res.objective_trace == []
        assert res.dp_rejections == res.omp_rejections == 0
        # noiseless and oversampled: exact up to the additive constant
        np.testing.assert_array_equal(
            resolve_constant_with_truth(res.eps, residual_decompose(g, y, 0.4)),
            res.eps - res.eps[0] + residual_decompose(g, y, 0.4)[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(iter_max=0)

    def test_non_integer_iter_max_rejected(self):
        with pytest.raises(ValueError, match="^iter_max must be an integer, got 2.5"):
            PipelineConfig(iter_max=2.5)

    @pytest.mark.parametrize("field,value", [("p", 2.5), ("v_bound", 1.5)])
    def test_non_integer_instance_knob_rejected(self, field, value):
        # before stage one runs: a half-integer v_bound would otherwise give
        # off-lattice folding counts, a fractional p a numpy TypeError
        rng = np.random.default_rng(106)
        g = add_noise(synth_line_spectral(gen_random_spectrum(1, 10.0, rng), 128),
                      30.0, rng)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            recover_residual(modulo_sample(g, 0.5), PipelineConfig(**{field: value}),
                             0.5, 10.0)


    @pytest.mark.parametrize("n", [1, 5])
    def test_record_too_short_for_the_band_rejected(self, n):
        # the DP's length rule runs before the guard band is selected, whose
        # bounds divide by n - 1
        with pytest.raises(ValueError, match=rf"^instance too short: n_vars={n - 1} "):
            recover_residual(np.zeros(n), PipelineConfig(p=3, beta=0.3), 0.5, 10.0)


class TestConstantResolution:
    def test_truth_removes_constant_offset(self):
        rng = np.random.default_rng(105)
        eps = (rng.integers(-2, 3, 32) + 1j * rng.integers(-2, 3, 32)).astype(complex)
        shifted = eps - (3 + 1j)
        np.testing.assert_array_equal(resolve_constant_with_truth(shifted, eps), eps)

    def test_truth_identity_when_equal(self):
        eps = np.arange(8).astype(complex)
        np.testing.assert_array_equal(resolve_constant_with_truth(eps, eps), eps)

    def test_truth_robust_to_single_outlier(self):
        rng = np.random.default_rng(106)
        eps = (rng.integers(-1, 2, 16) + 1j * rng.integers(-1, 2, 16)).astype(complex)
        corrupted = eps - 2.0
        corrupted[5] += 1.0  # one wrong sample on top of the offset
        out = resolve_constant_with_truth(corrupted, eps)
        # offset removed everywhere; the wrong sample stays wrong
        assert np.sum(out != eps) == 1

    def test_blind_zeroes_constant_sequence(self):
        eps = np.full(16, 2.0 - 1.0j)
        np.testing.assert_array_equal(resolve_constant_blind(eps, np.zeros(16), 0.7),
                                      np.zeros(16, dtype=complex))

    def test_blind_keeps_sparse_folds(self):
        eps = np.zeros(32, dtype=complex)
        eps[[3, 17]] = 1.0 + 1j
        np.testing.assert_array_equal(resolve_constant_blind(eps, np.zeros(32), 0.7),
                                      eps)

    def test_blind_removes_offset(self):
        eps = np.zeros(32, dtype=complex)
        eps[[3, 17]] = 1.0
        np.testing.assert_array_equal(
            resolve_constant_blind(eps + 4.0, np.zeros(32), 0.7), eps)

    @pytest.mark.parametrize("bins", [1.2, 1.45, 2.5])
    def test_blind_finds_the_counts_of_a_slow_strong_tone(self, bins):
        # a few cycles of a tone at |c| = 3 > lam: most samples are folded,
        # so the median count is not the constant
        n, lam = 512, 0.7
        for phase in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            g = synth_line_spectral(
                LineSpectrum([2.0 * np.pi * bins / n], [3.0 * np.exp(1j * phase)]), n)
            y = modulo_sample(g, lam)
            eps = residual_decompose(g, y, lam)
            np.testing.assert_array_equal(
                resolve_constant_blind(eps + (2.0 - 1.0j), y, lam), eps)

    @pytest.mark.parametrize("y,lam,message", [
        (np.zeros(9), 0.7, "length mismatch"),
        (np.full(8, np.nan), 0.7, "finite"),
        (np.zeros(8), 0.0, "lam"),
    ])
    def test_blind_rejects_bad_input(self, y, lam, message):
        with pytest.raises(ValueError, match=message):
            resolve_constant_blind(np.zeros(8), y, lam)


class TestFullPipeline:
    def test_unfolded_single_sinusoid_estimates_frequency(self):
        spec = LineSpectrum([0.37], [0.5 + 0j])
        g = synth_line_spectral(spec, 256)
        result = recover_line_spectrum(g, 1, 10.0, 1.0)
        assert result.spectrum_hat.order == 1
        assert abs(result.spectrum_hat.omegas[0] - 0.37) < 1e-6

    def test_ghat_identity(self):
        rng = np.random.default_rng(107)
        g, _ = on_grid_scene(rng, n=256)
        y = modulo_sample(g, 0.5)
        result = recover_line_spectrum(y, 3, 25.0, 0.5)
        np.testing.assert_array_equal(result.g_hat,
                                      y + 2 * 0.5 * result.eps_hat)

    def test_folded_noisy_scene_end_to_end(self):
        rng = np.random.default_rng(108)
        spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 512)
        x = synth_line_spectral(spec, 512)
        g = add_noise(x, 30.0, rng)
        y = modulo_sample(g, 0.7)
        assert np.max(np.abs(residual_decompose(g, y, 0.7))) > 0
        result = recover_line_spectrum(y, 3, 10.0, 0.7)
        trace = np.array(result.stage_one.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_rejects_unknown_method(self):
        g = synth_line_spectral(LineSpectrum([0.3], [0.5]), 64)
        with pytest.raises(ValueError):
            recover_line_spectrum(g, 1, 10.0, 1.0, method="oracle")

    def test_rejects_non_finite_samples(self):
        g = synth_line_spectral(LineSpectrum([0.3], [0.5]), 64)
        g[7] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite sample.*index 7"):
            recover_line_spectrum(g, 1, 10.0, 1.0)

    @pytest.mark.parametrize("lam,gamma,name", [
        (np.nan, 10.0, "lam"), (np.inf, 10.0, "lam"), (-0.7, 10.0, "lam"),
        (0.0, 10.0, "lam"), (0.7, np.nan, "gamma"), (0.7, np.inf, "gamma"),
        (0.7, 1.0, "gamma"), (0.7, 0.5, "gamma"),
    ])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_rejects_bad_lam_gamma(self, method, lam, gamma, name):
        y = modulo_sample(synth_line_spectral(LineSpectrum([0.3], [0.5]), 64), 0.4)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            recover_line_spectrum(y, 1, gamma, lam, method=method)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            recover_residual(y, PipelineConfig(), lam, gamma, method)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SamplingConfig(lam=lam, gamma=gamma)

    @pytest.mark.parametrize("k,message", [
        (0, "k must be >= 1, got 0"),
        (300, "k may not exceed half the record length"),
        (2.5, "k must be an integer, got 2.5"),
    ])
    @pytest.mark.parametrize("method", ["dp_omp_iter", "usalg"])
    def test_rejects_bad_order_before_stage_one(self, method, k, message,
                                                monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("stage one ran on a bad model order")

        monkeypatch.setattr(pipeline, "recover_residual", unreachable)
        monkeypatch.setattr(pipeline, "usalg", unreachable)
        y = modulo_sample(synth_line_spectral(LineSpectrum([0.3], [0.5]), 512), 0.4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            recover_line_spectrum(y, k, 10.0, 0.4, method=method)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method_end_to_end(self, method):
        rng = np.random.default_rng(109)
        spec = gen_random_spectrum(2, 10.0, rng, min_separation=2 * np.pi / 256)
        y = modulo_sample(add_noise(synth_line_spectral(spec, 256), 35.0, rng), 0.5)
        result = recover_line_spectrum(y, 2, 10.0, 0.5, method=method)
        eps = result.eps_hat
        np.testing.assert_array_equal(eps.real, np.round(eps.real))
        np.testing.assert_array_equal(eps.imag, np.round(eps.imag))
        np.testing.assert_array_equal(result.g_hat, y + 2 * 0.5 * eps)
        assert result.spectrum_hat.order == 2

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_stage_one_is_recover_residual(self, method):
        rng = np.random.default_rng(109)
        spec = gen_random_spectrum(2, 10.0, rng, min_separation=2 * np.pi / 256)
        y = modulo_sample(add_noise(synth_line_spectral(spec, 256), 35.0, rng), 0.5)
        cfg = PipelineConfig()
        held = recover_line_spectrum(y, 2, 10.0, 0.5, cfg, method).stage_one
        fresh = recover_residual(y, cfg, 0.5, 10.0, method)
        for f in dataclasses.fields(ResidualRecovery):
            a, b = getattr(held, f.name), getattr(fresh, f.name)
            assert type(a) is type(b)
            np.testing.assert_array_equal(a, b)

    def test_usalg_recovers_noiseless_folded_reference_scenes(self):
        # the first 40 scenes of the reference benchmark, noiseless: the
        # difference order comes from y alone, and an order picked by the sup
        # norm of y's raw differences sees the fold jumps and stays at 1
        from modlse import nmse
        n, gamma, lam, k = 512, 10.0, 0.7, 3
        for i in range(40):
            rng = np.random.default_rng(np.random.SeedSequence((20240601, 0, i)))
            spec = gen_random_spectrum(k, gamma, rng, min_separation=2 * np.pi / n)
            x = synth_line_spectral(spec, n)
            y = modulo_sample(x, lam)
            eps_true = residual_decompose(x, y, lam)
            assert np.max(np.abs(eps_true)) > 0
            stage = recover_residual(y, PipelineConfig(), lam, gamma, method="usalg")
            np.testing.assert_array_equal(
                resolve_constant_with_truth(stage.eps, eps_true), eps_true)
            result = recover_line_spectrum(y, k, gamma, lam, method="usalg")
            assert nmse(synth_line_spectral(result.spectrum_hat, n), x) < -15.0

    def test_moderate_oversampling_beats_difference_baseline(self):
        # at gamma ~ 12 with pre-fold noise, differencing-based unfolding
        # breaks down while the banded solve keeps working
        from modlse import nmse, nomp, select_usalg_order, usalg
        n, gamma, lam, k = 512, 12.0, 0.5, 3
        pipeline_wins, baseline_wins = 0, 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = gen_random_spectrum(k, gamma, rng, min_separation=2 * np.pi / n)
            x = synth_line_spectral(spec, n)
            g = add_noise(x, 30.0, rng)
            y = modulo_sample(g, lam)
            eps_true = residual_decompose(g, y, lam)

            g_base = usalg(y, lam, select_usalg_order(g, lam))
            eps_b = resolve_constant_with_truth(
                residual_decompose(g_base, y, lam), eps_true)
            x_b = synth_line_spectral(nomp(y + 2 * lam * eps_b, k), n)
            baseline_wins += int(nmse(x_b, x) < -15.0)

            stage = recover_residual(y, PipelineConfig(), lam, gamma)
            eps_p = resolve_constant_with_truth(stage.eps, eps_true)
            x_p = synth_line_spectral(nomp(y + 2 * lam * eps_p, k), n)
            pipeline_wins += int(nmse(x_p, x) < -15.0)
        assert pipeline_wins > baseline_wins + 2
