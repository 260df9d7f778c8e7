"""Batch experiment engine: seeded trials, sweeps, file I/O.

Every trial derives its own random stream from ``(master seed, grid point,
trial index)``, so results are reproducible and independent of how trials
are distributed over workers.  Per-trial rows go to CSV; per-point
aggregates go to a JSON summary whose layout mirrors the sweep axes.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .lse import nmse, nomp
from .pipeline import (
    PipelineConfig,
    lookup_method,
    recover_residual,
    resolve_constant_with_truth,
)
from .signals import (
    SamplingConfig,
    add_noise,
    bandlimited_bins,
    checked_int,
    gen_bandlimited,
    gen_random_spectrum,
    modulo_sample,
    residual_decompose,
    synth_line_spectral,
)

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "run_trial",
    "run_sweep",
    "SweepPoint",
    "read_iq_csv",
    "write_iq_csv",
    "write_trials_csv",
    "write_summary_json",
]

SCENARIOS = {
    # scenario: (grid field, then each (config section, field) the scenario
    # sets itself; _point_sections applies each: the grid value to the first,
    # and bandlimited_sweep's band to k)
    "snr_sweep": ("snr_grid", ("sampling", "snr_db")),
    "bandlimited_sweep": ("snr_grid", ("sampling", "snr_db"), ("sampling", "k")),
    "beta_sweep": ("beta_grid", ("pipeline", "beta")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run; construction raises what a
    trial of some grid point would raise building its point's config, which
    applies every field :data:`SCENARIOS` lists for the scenario (the grid
    value; ``bandlimited_sweep``'s ``k = bandlimited_bins(n, gamma)``), or its
    stage one's bins (``Method.guard_bins``)."""

    scenario: str = "snr_sweep"
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    method: str = "dp_omp_iter"
    trials: int = 50
    snr_grid: tuple[float, ...] = ()
    beta_grid: tuple[float, ...] = ()
    success_threshold_db: float = -15.0
    parallelism: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        swept = SCENARIOS[self.scenario][0]
        for grid in ("snr_grid", "beta_grid"):
            if grid != swept and getattr(self, grid):
                raise ValueError(f"scenario {self.scenario!r} does not read {grid}")
        method = lookup_method(self.method)
        checked_int("trials", self.trials, 1)
        checked_int("parallelism", self.parallelism, 1)
        if not np.isfinite(self.success_threshold_db):
            raise ValueError("success_threshold_db must be finite, got "
                             f"{self.success_threshold_db!r}")
        if self.scenario == "beta_sweep" and not method.dp:
            raise ValueError(f"scenario 'beta_sweep' sweeps beta, which method "
                             f"{self.method!r} never reads")
        for point in _point_sections(self):
            method.guard_bins(point["sampling"].n, point["sampling"].gamma,
                              point["pipeline"])


def _point_sections(cfg: ExperimentConfig) -> list[dict]:
    """Each grid point's config sections (the base config's for an empty grid),
    with every field :data:`SCENARIOS` lists for the scenario applied."""
    grid_field, (section, axis), *derived = SCENARIOS[cfg.scenario]
    samp = cfg.sampling
    if ("sampling", "k") in derived:
        samp = replace(samp, k=bandlimited_bins(samp.n, samp.gamma))
    base = {"sampling": samp, "pipeline": cfg.pipeline}
    return [{**base, section: replace(base[section], **{axis: float(value)})}
            for value in getattr(cfg, grid_field)] or [base]


@dataclass(frozen=True)
class TrialResult:
    """One recovery attempt, scored; ``p`` and ``beta`` are ``None`` for a
    method without the DP, which reads neither."""

    trial_id: int
    seed: int
    method: str
    p: int | None
    beta: float | None
    snr_db: float
    nmse_db: float
    success: bool
    runtime_s: float

    def as_row(self) -> list:
        # csv writes None as an empty cell
        return [self.trial_id, self.seed, self.method, self.p,
                None if self.beta is None else f"{self.beta:.6g}",
                f"{self.snr_db:.6g}", f"{self.nmse_db:.6f}", int(self.success),
                f"{self.runtime_s:.6f}"]


def _trial_rng(cfg: ExperimentConfig, point_index: int, trial_index: int):
    seq = np.random.SeedSequence((cfg.sampling.seed, point_index, trial_index))
    return np.random.default_rng(seq), int(seq.generate_state(1)[0])


def run_trial(cfg: ExperimentConfig, trial_index: int = 0,
              point_index: int = 0) -> TrialResult:
    """Draw a scene of grid point ``point_index`` of ``cfg``, its config as
    :func:`_point_sections` builds it, then fold, recover and score it: row
    ``(point_index, trial_index)`` of ``run_sweep(cfg)``.  Every method
    unfolds through :func:`recover_residual`, which sees only the modulo
    samples, as ``recover_line_spectrum`` does.  The score is the NMSE of the
    re-synthesized estimate against the noise-free signal, after resolving the
    folding-count constant against ground truth, at the point's model order
    ``k``.  A ``point_index`` off the grid raises ``ValueError``; every other
    error propagates.
    """
    points = _point_sections(cfg)
    if checked_int("point_index", point_index, 0) >= len(points):
        raise ValueError(f"point_index must be < {len(points)}, got {point_index}")
    samp, pipe = points[point_index]["sampling"], points[point_index]["pipeline"]
    rng, seed = _trial_rng(cfg, point_index, trial_index)
    if cfg.scenario == "bandlimited_sweep":
        x = gen_bandlimited(samp.n, samp.gamma, rng)
    else:
        spectrum = gen_random_spectrum(samp.k, samp.gamma, rng,
                                       min_separation=2.0 * np.pi / samp.n)
        x = synth_line_spectral(spectrum, samp.n)
    g = add_noise(x, samp.snr_db, rng)
    y = modulo_sample(g, samp.lam)
    eps_true = residual_decompose(g, y, samp.lam)

    start = time.perf_counter()
    eps_hat = recover_residual(y, pipe, samp.lam, samp.gamma, cfg.method).eps
    # sweeps score against the truth, so they resolve the constant with it
    eps_hat = resolve_constant_with_truth(eps_hat, eps_true)
    g_hat = y + 2.0 * samp.lam * eps_hat
    estimate = nomp(g_hat, samp.k)
    x_hat = synth_line_spectral(estimate, samp.n)
    score = nmse(x_hat, x)
    runtime = time.perf_counter() - start

    dp = lookup_method(cfg.method).dp
    return TrialResult(trial_id=trial_index, seed=seed, method=cfg.method,
                       p=pipe.p if dp else None, beta=pipe.beta if dp else None,
                       snr_db=samp.snr_db, nmse_db=score,
                       success=bool(score < cfg.success_threshold_db),
                       runtime_s=runtime)


@dataclass(frozen=True)
class SweepPoint:
    """Aggregate over the trials of one grid point."""

    axis: str
    value: float
    method: str
    trials: int
    success_rate: float
    mean_nmse_db: float
    mean_runtime_s: float
    results: list[TrialResult] = field(repr=False)


def run_sweep(cfg: ExperimentConfig) -> list[SweepPoint]:
    """Run every grid point of the configured sweep.

    Trials are independent and seeded by (master seed, point, trial), so the
    aggregate is identical whatever ``parallelism`` is in force.  All the
    (point, trial) jobs go to one pool per call, of at most one worker a job
    (a fork pool starts every worker at once); a single job runs in-process.
    """
    grid_field, (_, axis) = SCENARIOS[cfg.scenario][:2]
    grid = getattr(cfg, grid_field)
    if not grid:
        raise ValueError(f"{cfg.scenario} requires a non-empty {grid_field}")
    # run_trial's arguments (config, trial, point), one job a trial
    jobs = [(cfg, t, p) for p in range(len(grid)) for t in range(cfg.trials)]
    workers = min(cfg.parallelism, len(jobs))
    if workers > 1:
        # imported here so that importing modlse does not load the pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_trial, *zip(*jobs)))
    else:
        rows = [run_trial(*job) for job in jobs]
    points: list[SweepPoint] = []
    for point_index, value in enumerate(grid):
        results = rows[point_index * cfg.trials:(point_index + 1) * cfg.trials]
        points.append(SweepPoint(
            axis=axis, value=float(value), method=cfg.method,
            trials=cfg.trials,
            success_rate=float(np.mean([r.success for r in results])),
            mean_nmse_db=float(np.mean([r.nmse_db for r in results])),
            mean_runtime_s=float(np.mean([r.runtime_s for r in results])),
            results=results))
    return points


# ---------------------------------------------------------------------------
# IQ CSV files


def read_iq_csv(path) -> np.ndarray:
    """Read a complex signal from ``index,re,im`` CSV (LF, contiguous index)."""
    path = Path(path)
    values: list[complex] = []
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["index", "re", "im"]:
            raise ValueError(f"{path}: expected header 'index,re,im'")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValueError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            try:
                idx = int(row[0])
                re, im = float(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed row: {exc}") from exc
            if not (np.isfinite(re) and np.isfinite(im)):
                raise ValueError(f"{path}:{line_no}: non-finite sample {row[1]},{row[2]}")
            if idx != len(values):
                raise ValueError(f"{path}:{line_no}: non-contiguous index {idx}, "
                                 f"expected {len(values)}")
            values.append(complex(re, im))
    if not values:
        raise ValueError(f"{path}: no samples")
    return np.array(values, dtype=complex)


def write_iq_csv(path, signal: np.ndarray) -> None:
    """Write a complex signal as ``index,re,im`` CSV with LF line endings."""
    signal = np.asarray(signal, dtype=complex)
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        fh.write("index,re,im\n")
        for i, z in enumerate(signal):
            fh.write(f"{i},{float(z.real)!r},{float(z.imag)!r}\n")


def write_trials_csv(path, results: list[TrialResult]) -> None:
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f.name for f in fields(TrialResult)])
        for r in results:
            writer.writerow(r.as_row())


def write_summary_json(path, points: list[SweepPoint]) -> None:
    # every field of each point but its trial rows
    payload = [{key: value for key, value in vars(pt).items() if key != "results"}
               for pt in points]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
