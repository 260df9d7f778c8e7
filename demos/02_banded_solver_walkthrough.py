#!/usr/bin/env python3
"""Inside the unfolding solver: band truncation, exact DP, greedy repair.

The guard-band observations constrain the folding-count differences through
a Hermitian Toeplitz Gram matrix.  The instance is that problem alone; the
dynamic program takes its band order ``p`` and alphabet bound ``V`` as
arguments.  This script shows how much of the matrix's energy a small band
captures, certifies the dynamic program against brute force on a toy
instance, and then runs the full-size solve with the greedy lattice
refinement on top.
"""

import numpy as np

from modlse import (
    add_noise,
    band_energy_lower_bound,
    band_energy_ratio,
    banded_objective,
    brute_force_solve,
    build_instance,
    dp_solve,
    exact_objective,
    gen_random_spectrum,
    modulo_sample,
    omp_refine,
    recover_line_spectrum,
    select_subset,
    synth_line_spectral,
)

rng = np.random.default_rng(2)

print("=== how much energy does the band keep? ===")
n, gamma = 512, 10.0
guard_bins = select_subset(n, gamma, 0.04)
m_excl = n - guard_bins.size
print(f"subset keeps {guard_bins.size} of {n - 1} bins (excluded: {m_excl})")
print(" p   exact ratio   lower bound")
for p in (1, 2, 3, 4):
    print(f" {p}   {band_energy_ratio(n, m_excl, p):.4f}        "
          f"{band_energy_lower_bound(n, m_excl, p):.4f}")

print("\n=== exactness of the dynamic program (toy scale) ===")
toy_bins = np.array([1, 2, 4, 5])
y_toy = rng.normal(size=8) + 1j * rng.normal(size=8)
inst = build_instance(y_toy, 0.5, toy_bins)
p_toy, v_toy = 2, 1
eps_dp = dp_solve(inst, p_toy, v_toy)
eps_bf = brute_force_solve(inst, p_toy, v_toy)
print(f"dp objective    = {banded_objective(inst, eps_dp, p_toy):+.6f}")
print(f"brute force     = {banded_objective(inst, eps_bf, p_toy):+.6f}   "
      f"(enumerated {9 ** 7} candidates)")

print("\n=== full-size solve with refinement ===")
spectrum = gen_random_spectrum(3, gamma, rng, min_separation=2 * np.pi / n)
g = add_noise(synth_line_spectral(spectrum, n), 30.0, rng)
y = modulo_sample(g, 0.7)
stage_one = recover_line_spectrum(y, 3, gamma, 0.7).stage_one
print("objective trace (initial, then after each update; a rejected one repeats it):")
for i, value in enumerate(stage_one.objective_trace):
    print(f"  step {i}: {value:10.4f}")
print(f"rejected updates: {stage_one.dp_rejections} dp, "
      f"{stage_one.omp_rejections} greedy")

inst_full = build_instance(y, 0.7, guard_bins)  # the instance stage one solved
delta = omp_refine(inst_full, np.zeros(inst_full.n_vars, dtype=complex))
print(f"greedy alone reaches {exact_objective(inst_full, delta):.4f}; "
      f"dp+greedy reached {stage_one.objective_trace[-1]:.4f}")
