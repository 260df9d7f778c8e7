#!/usr/bin/env python3
"""Desk-scale Monte Carlo sweep: success probability versus SNR.

Runs the reference configuration (n=512, gamma=10, lam=0.7, three tones,
third-order band, two solve/refine passes) over an SNR grid for both the
proposed recovery and the higher-order-difference baseline, then writes the
per-trial CSV and the plot-ready JSON summary next to this script.
"""

from pathlib import Path

from modlse import (
    ExperimentConfig,
    SamplingConfig,
    run_sweep,
    write_summary_json,
    write_trials_csv,
)

HERE = Path(__file__).resolve().parent
GRID = (14.0, 22.0, 30.0)
TRIALS = 15  # bump for smoother curves

for method in ("dp_omp_iter", "usalg"):
    cfg = ExperimentConfig(
        scenario="snr_sweep",
        sampling=SamplingConfig(n=512, gamma=10.0, lam=0.7, k=3, seed=123),
        method=method, trials=TRIALS, snr_grid=GRID)
    points = run_sweep(cfg)
    print(f"method = {method}")
    for pt in points:
        print(f"  SNR {pt.value:4.0f} dB: success {pt.success_rate:.2f}, "
              f"mean NMSE {pt.mean_nmse_db:6.1f} dB, "
              f"{pt.mean_runtime_s:.2f}s/trial")
    write_trials_csv(HERE / f"snr_sweep_{method}_trials.csv",
                     [r for pt in points for r in pt.results])
    write_summary_json(HERE / f"snr_sweep_{method}_summary.json", points)
print(f"wrote CSV/JSON files into {HERE}")
