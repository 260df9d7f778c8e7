#!/usr/bin/env python3
"""Unfolding a dense bandlimited signal rather than a sparse line spectrum.

The solver never assumed sparsity in frequency, only that the content sits
below the guard band, so a random bandlimited waveform (every low bin
active) folds and unfolds just as well.  Over half the samples fold in this
configuration.
"""

import numpy as np

from modlse import (
    PipelineConfig,
    add_noise,
    bandlimited_bins,
    gen_bandlimited,
    modulo_sample,
    nmse,
    nomp,
    recover_residual,
    residual_decompose,
    resolve_constant_with_truth,
    synth_line_spectral,
)

rng = np.random.default_rng(6)
n, gamma, lam, snr_db = 400, 10.0, 0.7, 30.0

x = gen_bandlimited(n, gamma, rng)
active = bandlimited_bins(n, gamma)
print(f"bandlimited draw: {active} active bins, unit RMS, peak |Re| = "
      f"{np.abs(x.real).max():.2f} vs lam = {lam}")

g = add_noise(x, snr_db, rng)
y = modulo_sample(g, lam)
eps_true = residual_decompose(g, y, lam)
print(f"{int(np.count_nonzero(eps_true))}/{n} samples folded")

stage = recover_residual(y, PipelineConfig(), lam, gamma)
eps_hat = resolve_constant_with_truth(stage.eps, eps_true)
print(f"folding counts exactly recovered: {bool(np.array_equal(eps_hat, eps_true))}")

g_hat = y + 2 * lam * eps_hat
print(f"unfolded signal NMSE vs clean signal: {nmse(g_hat, x):.1f} dB "
      "(noise floor)")

estimate = nomp(g_hat, active)
x_hat = synth_line_spectral(estimate, n)
print(f"after fitting all {active} components: NMSE {nmse(x_hat, x):.1f} dB, "
      f"model order used {estimate.order}")
