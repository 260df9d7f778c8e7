#!/usr/bin/env python3
"""Walk through the modulo sampling model and the structure it leaves behind.

A self-reset ADC folds every sample into [-lam, lam).  This script folds a
three-tone signal, verifies the exact decomposition g = y + 2*lam*eps,
and shows why the *difference* of the folding counts is the easy target:
it lives on a tiny Gaussian-integer alphabet, and its spectral footprint
above the signal band dominates the (provably small) leakage of the tones.
"""

import numpy as np

from modlse import (
    add_noise,
    dft,
    first_difference,
    gen_random_spectrum,
    leakage_bound,
    modulo_sample,
    residual_decompose,
    residual_state_bound,
    select_subset,
    synth_line_spectral,
)

rng = np.random.default_rng(1)
n, gamma, lam = 512, 10.0, 0.7

spectrum = gen_random_spectrum(3, gamma, rng, min_separation=2 * np.pi / n)
x = synth_line_spectral(spectrum, n)
g = add_noise(x, 30.0, rng)
y = modulo_sample(g, lam)

print("=== folding ===")
print(f"signal peak |Re g| = {np.abs(g.real).max():.2f}, ADC range = [-{lam}, {lam})")
eps = residual_decompose(g, y, lam)
folded = int(np.count_nonzero(eps))
print(f"{folded} of {n} samples folded; reconstruction error "
      f"|y + 2*lam*eps - g|_max = {np.abs(y + 2 * lam * eps - g).max():.1e}")

print("\n=== difference domain ===")
eps_d = first_difference(eps)
biggest = int(max(np.abs(eps_d.real).max(), np.abs(eps_d.imag).max()))
bound = residual_state_bound(3, float(np.abs(spectrum.coeffs).max()), lam, gamma)
print(f"folding counts span {int(np.abs(eps.real).max())} levels, "
      f"but their differences stay within +/-{biggest}")
print(f"noiseless analytic bound on the difference alphabet: +/-{bound}")

print("\n=== guard band ===")
leak = np.abs(dft(first_difference(x)))
lo = int(np.floor((n - 1) / gamma))
print(f"tone leakage just above the signal band (bin {lo + 1}): "
      f"{leak[lo + 1]:.4f}")
bins = select_subset(n, gamma, 0.04)
worst_bin = int(bins[np.argmax(leak[bins])])
print(f"after trimming a beta = 0.04 margin (bins {bins[0]}..{bins[-1]}): "
      f"max leakage {leak[bins].max():.4f} at bin {worst_bin}")
print(f"analytic bound at that bin: "
      f"{leakage_bound(spectrum, n, gamma, worst_bin):.4f}")
fold_level = np.abs(dft(first_difference(2 * lam * eps)))[bins].mean()
print(f"mean folding energy on the same bins: {fold_level:.4f} "
      "(the folds, not the tones, dominate there)")
