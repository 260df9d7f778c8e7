#!/usr/bin/env python3
"""End-to-end recovery of a folded three-tone scene, against the baseline.

Stage one unfolds the modulo samples (banded DP + greedy lattice repair),
stage two estimates frequencies and amplitudes from the unfolded signal.
The higher-order-difference baseline is run on the same scene for contrast:
it is exact in the noiseless regime but brittle once the pre-fold signal
carries noise.
"""

import numpy as np

from modlse import (
    PipelineConfig,
    add_noise,
    gen_random_spectrum,
    modulo_sample,
    nmse,
    nomp,
    recover_residual,
    residual_decompose,
    resolve_constant_with_truth,
    select_usalg_order,
    synth_line_spectral,
    usalg,
)

rng = np.random.default_rng(3)
n, gamma, lam, k, snr_db = 512, 10.0, 0.7, 3, 25.0

spectrum = gen_random_spectrum(k, gamma, rng, min_separation=2 * np.pi / n)
x = synth_line_spectral(spectrum, n)
g = add_noise(x, snr_db, rng)
y = modulo_sample(g, lam)
eps_true = residual_decompose(g, y, lam)
print(f"scene: {k} tones, SNR {snr_db} dB, "
      f"{int(np.count_nonzero(eps_true))}/{n} samples folded")

print("\n=== two-stage recovery ===")
stage = recover_residual(y, PipelineConfig(), lam, gamma)
eps_hat = resolve_constant_with_truth(stage.eps, eps_true)
hits = int(np.sum(eps_hat == eps_true))
print(f"folding counts recovered at {hits}/{n} samples")
g_hat = y + 2 * lam * eps_hat
estimate = nomp(g_hat, k)
x_hat = synth_line_spectral(estimate, n)
print(f"signal NMSE after frequency fit: {nmse(x_hat, x):.1f} dB")
print("   true omega        estimated omega")
for true_w in np.sort(spectrum.omegas):
    nearest = estimate.omegas[np.argmin(np.abs(estimate.omegas - true_w))]
    print(f"   {true_w:.6f}        {nearest:.6f}")

print("\n=== higher-order-difference baseline on the same scene ===")
order = select_usalg_order(y, lam)  # from the modulo samples alone
g_base = usalg(y, lam, order)
eps_base = resolve_constant_with_truth(residual_decompose(g_base, y, lam), eps_true)
x_base = synth_line_spectral(nomp(y + 2 * lam * eps_base, k), n)
print(f"difference order {order}: NMSE {nmse(x_base, x):.1f} dB "
      "(differencing amplifies the pre-fold noise)")
