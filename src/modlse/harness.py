"""Batch experiment engine: seeded trials, sweeps, property suites, file I/O.

Every trial derives its own random stream from ``(master seed, grid point,
trial index)``, so results are reproducible and independent of how trials
are distributed over workers.  Per-trial rows go to CSV; per-point
aggregates go to a JSON summary whose layout mirrors the sweep axes.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bounds import (
    band_energy_lower_bound,
    band_energy_ratio,
    leakage_bound,
    residual_state_bound,
)
from .dp import check_dp_budget
from .lse import nmse, nomp
from .pipeline import (
    METHODS,
    PipelineConfig,
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
from .transform import dft, first_difference, select_subset

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "run_trial",
    "run_sweep",
    "SweepPoint",
    "check_properties",
    "PropertyReport",
    "read_iq_csv",
    "write_iq_csv",
    "write_trials_csv",
    "write_summary_json",
]

SCENARIOS = {
    # scenario: (swept axis, grid field; None runs one point at sampling.snr_db)
    "single_trial": ("snr_db", None),
    "beta_sweep": ("beta", "beta_grid"),
    "snr_sweep": ("snr_db", "snr_grid"),
    "bandlimited_sweep": ("snr_db", "snr_grid"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run; a config that no trial
    could run is rejected before any trial runs."""

    scenario: str = "single_trial"
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
        swept = SCENARIOS[self.scenario][1]
        for grid in ("snr_grid", "beta_grid"):
            if grid != swept and getattr(self, grid):
                raise ValueError(f"scenario {self.scenario!r} does not read {grid}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"expected one of {tuple(METHODS)}")
        if checked_int("trials", self.trials) < 1:
            raise ValueError("trials must be >= 1")
        if checked_int("parallelism", self.parallelism) < 1:
            raise ValueError("parallelism must be >= 1")
        if not np.isfinite(self.success_threshold_db):
            raise ValueError("success_threshold_db must be finite, got "
                             f"{self.success_threshold_db!r}")
        if self.scenario == "bandlimited_sweep":
            bandlimited_bins(self.sampling.n, self.sampling.gamma)
        if METHODS[self.method].dp:
            check_dp_budget(self.pipeline.p, self.pipeline.v_bound)
            # beta_grid, read by beta_sweep alone, replaces pipeline.beta
            for beta in self.beta_grid or (self.pipeline.beta,):
                select_subset(self.sampling.n, self.sampling.gamma, beta)
        elif self.scenario == "beta_sweep":
            raise ValueError(f"scenario 'beta_sweep' sweeps beta, which method "
                             f"{self.method!r} never reads")


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
    """Draw a scene, fold it, recover it, and score the spectral estimate.

    Every method unfolds through :func:`recover_residual`, which sees only
    the modulo samples, as ``recover_line_spectrum`` does.  The score is the
    NMSE of the re-synthesized estimate against the noise-free signal, after
    resolving the folding-count constant against ground truth.  Bandlimited
    scenes are scored through the same spectral fit with the model order set
    to the number of active bins (:func:`bandlimited_bins`).  Every error propagates: a config no trial
    could run is rejected by :class:`ExperimentConfig` before any trial runs.
    """
    rng, seed = _trial_rng(cfg, point_index, trial_index)
    samp = cfg.sampling
    if cfg.scenario == "bandlimited_sweep":
        x = gen_bandlimited(samp.n, samp.gamma, rng)
        k_model = bandlimited_bins(samp.n, samp.gamma)
    else:
        spectrum = gen_random_spectrum(samp.k, samp.gamma, rng,
                                       min_separation=2.0 * np.pi / samp.n)
        x = synth_line_spectral(spectrum, samp.n)
        k_model = samp.k
    g = add_noise(x, samp.snr_db, rng)
    y = modulo_sample(g, samp.lam)
    eps_true = residual_decompose(g, y, samp.lam)

    pipe = cfg.pipeline
    start = time.perf_counter()
    eps_hat = recover_residual(y, pipe, samp.lam, samp.gamma, cfg.method).eps
    # sweeps score against the truth, so they resolve the constant with it
    eps_hat = resolve_constant_with_truth(eps_hat, eps_true)
    g_hat = y + 2.0 * samp.lam * eps_hat
    estimate = nomp(g_hat, k_model)
    x_hat = synth_line_spectral(estimate, samp.n)
    score = nmse(x_hat, x)
    runtime = time.perf_counter() - start

    dp = METHODS[cfg.method].dp
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


def _sweep_axis(cfg: ExperimentConfig) -> tuple[str, tuple[float, ...]]:
    axis, grid = SCENARIOS[cfg.scenario]
    if grid is None:
        return axis, (cfg.sampling.snr_db,)
    if not getattr(cfg, grid):
        raise ValueError(f"{cfg.scenario} requires a non-empty {grid}")
    return axis, getattr(cfg, grid)


def _point_config(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "beta":
        return replace(cfg, pipeline=replace(cfg.pipeline, beta=value))
    return replace(cfg, sampling=replace(cfg.sampling, snr_db=value))


def _run_point_trial(args) -> TrialResult:
    cfg, point_index, trial_index = args
    return run_trial(cfg, trial_index, point_index)


def run_sweep(cfg: ExperimentConfig) -> list[SweepPoint]:
    """Run every grid point of the configured sweep.

    Trials are independent and seeded by (master seed, point, trial), so the
    aggregate is identical whatever ``parallelism`` is in force.  Every
    (point, trial) job goes to one pool per call.
    """
    axis, grid = _sweep_axis(cfg)
    jobs = [(_point_config(cfg, axis, float(value)), point_index, t)
            for point_index, value in enumerate(grid)
            for t in range(cfg.trials)]
    if cfg.parallelism > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            rows = list(pool.map(_run_point_trial, jobs))
    else:
        rows = [_run_point_trial(j) for j in jobs]
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
# Property suites


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    worst_margin: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: worst margin {self.worst_margin:+.3e} ({self.detail})"


@dataclass(frozen=True)
class PropertyReport:
    checks: list[PropertyCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(c.line() for c in self.checks)


def _check_state_bound(rng: np.random.Generator, draws: int) -> PropertyCheck:
    worst = -np.inf
    n = 128
    for _ in range(draws):
        gamma = float(rng.choice([5.0, 10.0, 20.0]))
        k = int(rng.integers(1, 6))
        lam = float(rng.uniform(0.3, 1.0))
        spec = gen_random_spectrum(k, gamma, rng)
        x = synth_line_spectral(spec, n)
        y = modulo_sample(x, lam)
        eps = residual_decompose(x, y, lam)
        eps_d = first_difference(eps)
        observed = max(np.max(np.abs(eps_d.real)), np.max(np.abs(eps_d.imag)))
        bound = residual_state_bound(k, float(np.max(np.abs(spec.coeffs))),
                                     lam, gamma)
        worst = max(worst, observed - bound)
    return PropertyCheck("difference-domain state bound", worst <= 0.0, worst,
                         f"{draws} random noiseless scenes")


def _check_leakage(rng: np.random.Generator, draws: int) -> PropertyCheck:
    worst = -np.inf
    n = 128
    for _ in range(draws):
        gamma = float(rng.choice([5.0, 10.0, 20.0]))
        k = int(rng.integers(1, 6))
        spec = gen_random_spectrum(k, gamma, rng)
        x = synth_line_spectral(spec, n)
        leak = np.abs(dft(first_difference(x)))
        lo = int(np.floor((n - 1) / gamma))
        for b in range(lo + 1, n - 1):
            margin = leak[b] - leakage_bound(spec, n, gamma, b)
            worst = max(worst, margin)
    return PropertyCheck("guard-band leakage bound", worst <= 1e-9, worst,
                         f"{draws} random off-grid spectra, all guard bins")


def _check_energy_ratio(n_max: int) -> tuple[PropertyCheck, PropertyCheck]:
    worst_eq = 0.0
    worst_lb = -np.inf
    for n in range(4, n_max + 1):
        big_l = n - 1
        f = np.exp(-2j * np.pi * np.outer(np.arange(big_l), np.arange(big_l))
                   / big_l) / np.sqrt(big_l)
        for m_excl in range(2, n):
            bins = np.arange(n - m_excl)
            fs = f[bins, :]
            q = fs.conj().T @ fs
            q_norm = float(np.linalg.norm(q, "fro") ** 2)
            offsets = np.abs(np.subtract.outer(np.arange(big_l), np.arange(big_l)))
            for p in range(0, big_l // 2 + 1):
                direct = float(np.linalg.norm(np.where(offsets <= p, q, 0.0),
                                              "fro") ** 2) / q_norm
                ratio = band_energy_ratio(n, m_excl, p)
                lower = band_energy_lower_bound(n, m_excl, p)
                worst_eq = max(worst_eq, abs(ratio - direct))
                worst_lb = max(worst_lb, lower - ratio)
    eq = PropertyCheck("band energy ratio equals direct Frobenius",
                       worst_eq <= 1e-10, worst_eq, f"all n <= {n_max}")
    lb = PropertyCheck("band energy lower bound never exceeds ratio",
                       worst_lb <= 1e-12, worst_lb, f"all n <= {n_max}")
    return eq, lb


def check_properties(draws: int = 200, n_max: int = 32,
                     seed: int = 0) -> PropertyReport:
    """Run the bound property suites and report pass/fail with margins.

    Fewer than one draw or an ``n_max`` below 4 would check nothing."""
    if checked_int("draws", draws) < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if checked_int("n_max", n_max) < 4:
        raise ValueError(f"n_max must be >= 4, got {n_max}")
    rng = np.random.default_rng(checked_int("seed", seed))
    checks = [_check_state_bound(rng, draws), _check_leakage(rng, draws)]
    checks.extend(_check_energy_ratio(n_max))
    table = []
    for p in range(1, 5):
        table.append(band_energy_lower_bound(800001, 100001, p))
    expected = (0.890, 0.904, 0.918, 0.933)
    worst = max(abs(a - b) for a, b in zip(table, expected))
    checks.append(PropertyCheck(
        "banded energy floor at one-eighth exclusion",
        worst <= 2e-3, worst,
        "p=1..4 -> " + ", ".join(f"{v:.3f}" for v in table)))
    return PropertyReport(checks)


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
