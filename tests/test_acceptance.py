"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Monte Carlo criteria use desk-scale trial counts with
conservative thresholds; the analytic criteria are exact-tolerance oracle
comparisons.
"""

import time

import numpy as np
import pytest

from modlse import (
    ExperimentConfig,
    LineSpectrum,
    PipelineConfig,
    SamplingConfig,
    anti_difference,
    band_energy_lower_bound,
    band_energy_ratio,
    banded_objective,
    brute_force_solve,
    build_instance,
    dft,
    dp_solve,
    first_difference,
    gen_random_spectrum,
    leakage_bound,
    modulo_sample,
    nmse,
    nomp,
    recover_residual,
    residual_decompose,
    residual_state_bound,
    resolve_constant_with_truth,
    run_sweep,
    run_trial,
    select_usalg_order,
    synth_line_spectral,
    usalg,
)


def report(index, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {index:2d} {status}: {detail}")
    assert passed, detail


def test_criterion_1_band_energy_ratio_equivalence():
    start = time.perf_counter()
    worst_eq = 0.0
    worst_lb = -np.inf
    for n in range(4, 65):
        big_l = n - 1
        f = np.exp(-2j * np.pi * np.outer(np.arange(big_l), np.arange(big_l))
                   / big_l) / np.sqrt(big_l)
        for m_excl in range(2, n):
            fs = f[: n - m_excl, :]
            q = fs.conj().T @ fs
            # Frobenius mass on each |offset|, straight from the dense matrix
            diag_energy = np.array([
                np.sum(np.abs(np.diagonal(q, offset=d)) ** 2)
                for d in range(big_l)
            ])
            total = diag_energy[0] + 2.0 * np.sum(diag_energy[1:])
            banded_mass = np.cumsum(np.concatenate(
                [[diag_energy[0]], 2.0 * diag_energy[1:]]))
            for p in range(0, big_l // 2 + 1):
                direct = banded_mass[p] / total
                ratio = band_energy_ratio(n, m_excl, p)
                lower = band_energy_lower_bound(n, m_excl, p)
                worst_eq = max(worst_eq, abs(ratio - direct))
                worst_lb = max(worst_lb, lower - ratio)
    elapsed = time.perf_counter() - start
    report(1, worst_eq <= 1e-10 and worst_lb <= 1e-12 and elapsed < 60.0,
           f"closed-form vs dense ratio: worst |diff|={worst_eq:.2e}, "
           f"worst bound excess={worst_lb:+.2e}, {elapsed:.1f}s "
           f"(all 4<=n<=64, 2<=m<n, 0<=p<=(n-1)/2)")


def test_criterion_2_energy_floor_constants():
    n, m_excl = 800001, 100001
    values = [band_energy_lower_bound(n, m_excl, p) for p in range(1, 5)]
    expected = (0.890, 0.904, 0.918, 0.933)
    worst = max(abs(v - e) for v, e in zip(values, expected))
    report(2, worst <= 2e-3,
           "one-eighth exclusion floor p=1..4: "
           + ", ".join(f"{v:.4f}" for v in values)
           + f" vs {expected}, worst |diff|={worst:.2e}")


def test_criterion_3_dp_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for trial in range(100):
        m = int(rng.choice([5, 6, 7]))
        p = int(rng.choice([1, 2]))
        n = m + 1
        bins = np.sort(rng.choice(np.arange(m), size=max(2, m // 2),
                                  replace=False))
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        inst = build_instance(y, 0.5, bins)
        z = rng.normal(size=bins.size) + 1j * rng.normal(size=bins.size)
        inst = inst.with_observation(z)
        gap = abs(banded_objective(inst, dp_solve(inst, p, 1), p)
                  - banded_objective(inst, brute_force_solve(inst, p, 1), p))
        worst = max(worst, gap)
        count += 1
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-9 and elapsed < 120.0,
           f"{count} instances (n_vars in 5..7, v=1, p in 1..2): "
           f"worst objective gap={worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_state_and_leakage_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 128
    state_violations = 0
    for _ in range(200):
        gamma = float(rng.choice([5.0, 10.0, 20.0]))
        k = int(rng.integers(1, 6))
        lam = float(rng.uniform(0.3, 1.0))
        spec = gen_random_spectrum(k, gamma, rng)
        x = synth_line_spectral(spec, n)
        eps_d = first_difference(residual_decompose(x, modulo_sample(x, lam), lam))
        observed = max(np.max(np.abs(eps_d.real)), np.max(np.abs(eps_d.imag)))
        bound = residual_state_bound(k, float(np.max(np.abs(spec.coeffs))),
                                     lam, gamma)
        state_violations += int(observed > bound)
    leak_violations = 0
    for _ in range(200):
        gamma = float(rng.choice([5.0, 10.0, 20.0]))
        k = int(rng.integers(1, 6))
        spec = gen_random_spectrum(k, gamma, rng)
        leak = np.abs(dft(first_difference(synth_line_spectral(spec, n))))
        lo = int(np.floor((n - 1) / gamma))
        for b in range(lo + 1, n - 1):
            leak_violations += int(leak[b] > leakage_bound(spec, n, gamma, b)
                                   + 1e-12)
    elapsed = time.perf_counter() - start
    report(4, state_violations == 0 and leak_violations == 0 and elapsed < 60.0,
           f"200 draws each: state-bound violations={state_violations}, "
           f"leakage violations={leak_violations}, {elapsed:.1f}s")


def test_criterion_5_modulo_and_antidifference_identities():
    rng = np.random.default_rng(11)
    worst_mod = 0.0
    for _ in range(300):
        lam = float(rng.uniform(0.2, 2.0))
        scale = float(rng.uniform(0.1, 8.0))
        n = int(rng.integers(2, 200))
        g = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        y = modulo_sample(g, lam)
        eps = residual_decompose(g, y, lam)
        worst_mod = max(worst_mod, float(np.max(np.abs(y + 2 * lam * eps - g))))
    anti_ok = True
    for _ in range(300):
        n = int(rng.integers(2, 200))
        v = (rng.integers(-6, 7, n) + 1j * rng.integers(-6, 7, n)).astype(complex)
        rt = anti_difference(first_difference(v)) + v[0]
        anti_ok = anti_ok and bool(np.array_equal(rt, v))
    report(5, worst_mod < 1e-12 and anti_ok,
           f"fold/unfold identity worst error={worst_mod:.2e}; "
           f"difference round-trip exact on 300 lattice sequences")


def _on_grid_scene(seed, n=512, gamma=25.0, k=3):
    rng = np.random.default_rng(seed)
    a_max = int(np.floor((n - 1) / gamma))
    bins = rng.choice(np.arange(1, a_max + 1), size=k, replace=False)
    mags = np.abs(rng.normal(1.0, np.sqrt(0.1), k))
    coeffs = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    return synth_line_spectral(LineSpectrum(2 * np.pi * bins / (n - 1), coeffs), n)


def test_criterion_6_noiseless_on_grid_exact_regime():
    lam, gamma, n, k = 0.5, 25.0, 512, 3
    cfg = PipelineConfig(p=3, beta=0.04, iter_max=2)
    worst_us, worst_base = -np.inf, -np.inf
    folded_scenes = 0
    for seed in range(20):
        g = _on_grid_scene(1000 + seed)
        y = modulo_sample(g, lam)
        eps_true = residual_decompose(g, y, lam)
        folded_scenes += int(np.max(np.abs(eps_true)) > 0)

        stage = recover_residual(y, cfg, lam, gamma)
        eps = resolve_constant_with_truth(stage.eps, eps_true)
        est = nomp(y + 2 * lam * eps, k)
        worst_us = max(worst_us, nmse(synth_line_spectral(est, n), g))

        g_hat = usalg(y, lam, select_usalg_order(g, lam))
        eps_b = resolve_constant_with_truth(
            residual_decompose(g_hat, y, lam), eps_true)
        est_b = nomp(y + 2 * lam * eps_b, k)
        worst_base = max(worst_base, nmse(synth_line_spectral(est_b, n), g))
    report(6, worst_us < -60.0 and worst_base < -60.0 and folded_scenes == 20,
           f"20 folded on-grid scenes (gamma~25, noiseless): worst NMSE "
           f"dp_omp_iter={worst_us:.1f} dB, usalg={worst_base:.1f} dB")


def _reference_config(snr_db, method="dp_omp_iter", **pipe_kw):
    pipe = dict(p=3, v_bound=1, beta=0.04, iter_max=2)
    pipe.update(pipe_kw)
    return ExperimentConfig(
        scenario="snr_sweep",
        sampling=SamplingConfig(n=512, gamma=10.0, lam=0.7, k=3,
                                snr_db=snr_db, seed=20240601),
        pipeline=PipelineConfig(**pipe),
        method=method, trials=50, snr_grid=(snr_db,))


def test_criterion_7_monte_carlo_high_snr():
    start = time.perf_counter()
    point = run_sweep(_reference_config(30.0))[0]
    elapsed = time.perf_counter() - start
    report(7, point.success_rate >= 0.70 and elapsed < 600.0,
           f"SNR=30 dB, 50 trials, dp_omp_iter(p=3, beta=0.04): "
           f"success={point.success_rate:.2f} (>=0.70), {elapsed:.1f}s")


def test_criterion_8_monte_carlo_low_snr():
    point = run_sweep(_reference_config(14.0))[0]
    report(8, point.success_rate <= 0.30,
           f"SNR=14 dB, 50 trials: success={point.success_rate:.2f} (<=0.30)")


def test_criterion_9_beta_sweep_interior_maximum():
    cfg = ExperimentConfig(
        scenario="beta_sweep",
        sampling=SamplingConfig(n=512, gamma=10.0, lam=0.7, k=3,
                                snr_db=22.0, seed=99),
        pipeline=PipelineConfig(p=2, v_bound=1, iter_max=2),
        method="dp_omp_iter", trials=50, beta_grid=(0.01, 0.07, 0.2))
    points = {pt.value: pt.success_rate for pt in run_sweep(cfg)}
    ok = (points[0.07] >= points[0.01] + 0.1
          and points[0.07] >= points[0.2] + 0.1)
    report(9, ok,
           f"SNR=22 dB, p=2: success(beta=0.01)={points[0.01]:.2f}, "
           f"success(0.07)={points[0.07]:.2f}, success(0.2)={points[0.2]:.2f} "
           f"(interior max by >=0.1)")


def test_criterion_10_single_trial_runtime():
    cfg = _reference_config(30.0)
    result = run_trial(cfg, trial_index=0)
    report(10, result.runtime_s < 10.0,
           f"one n=512, p=3, dp_omp_iter recovery: {result.runtime_s:.2f}s (<10s)")


def test_criterion_11_bandlimited_recovery():
    cfg = ExperimentConfig(
        scenario="bandlimited_sweep",
        sampling=SamplingConfig(n=400, gamma=10.0, lam=0.7, k=3,
                                snr_db=30.0, seed=20240603),
        pipeline=PipelineConfig(p=3, v_bound=1, beta=0.04, iter_max=2),
        method="dp_omp_iter", trials=25, snr_grid=(30.0,))
    point = run_sweep(cfg)[0]
    report(11, point.success_rate >= 0.80,
           f"bandlimited n=400, gamma=10, SNR=30 dB, 25 trials: "
           f"success={point.success_rate:.2f} (>=0.80)")
