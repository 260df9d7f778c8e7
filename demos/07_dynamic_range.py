#!/usr/bin/env python3
"""A weak target beside a strong one: unlimited sampling against clipping.

The paper's headline case.  A strong tone three times larger than unit
amplitude overloads a conventional ADC with range +/-lam; the weak tone is
lost in the clipping distortion.  A self-reset ADC records the same signal
folded into +/-lam instead, and the two-stage recovery unfolds it and finds
most weak tones down to 40 dB below unit amplitude; the misses are scenes
where unfolding fails.  "Found" means some estimated frequency lies within
half a DFT bin of the weak tone's.
"""

import numpy as np

from modlse import (
    LineSpectrum,
    add_noise,
    gen_random_spectrum,
    modulo_sample,
    nomp,
    recover_line_spectrum,
    synth_line_spectral,
)

n, gamma, lam, snr_db = 512, 10.0, 0.7, 50.0
strong, scenes = 3.0, 20


def clip(g: np.ndarray) -> np.ndarray:
    """A conventional ADC with range +/-lam on both parts."""
    return np.clip(g.real, -lam, lam) + 1j * np.clip(g.imag, -lam, lam)


def found(estimate: LineSpectrum, omega: float) -> bool:
    miss = np.angle(np.exp(1j * (estimate.omegas - omega)))
    return bool(np.min(np.abs(miss)) <= np.pi / n)


print(f"n={n}, gamma={gamma}, lam={lam}, {snr_db:.0f} dB SNR; strong tone "
      f"|c|={strong} ({strong / lam:.1f}x lam), weak tone at the level below")
print(f"weak tones found of {scenes}:")
print(f"{'weak |c|':>12} {'ideal ADC':>10} {'modulo ADC':>11} {'clipping ADC':>13}")
for rel_db in (-20.0, -30.0, -40.0):
    rng = np.random.default_rng(5)
    hits = np.zeros(3, dtype=int)
    for _ in range(scenes):
        spec = gen_random_spectrum(2, gamma, rng, min_separation=4 * 2 * np.pi / n)
        coeffs = spec.coeffs / np.abs(spec.coeffs) * [strong, 10.0 ** (rel_db / 20.0)]
        g = add_noise(synth_line_spectral(LineSpectrum(spec.omegas, coeffs), n),
                      snr_db, rng)
        weak = spec.omegas[1]
        unfolded = recover_line_spectrum(modulo_sample(g, lam), 2, gamma, lam)
        hits += [found(nomp(g, 2), weak), found(unfolded.spectrum_hat, weak),
                 found(nomp(clip(g), 2), weak)]
    print(f"{rel_db:>9.0f} dB {hits[0]:>10d} {hits[1]:>11d} {hits[2]:>13d}")
print("ideal ADC: nomp on the unclipped samples, the estimator's own limit")
