"""The three benchmark workloads, each a closed loop driven by one client.

``reference`` and ``bandlimited`` call ``recover_line_spectrum`` on a fixed
set of scenes drawn from the workload seed, in whole passes while another
pass fits into the run's time.  Every scene is scored against ground truth
on its first recovery; later recoveries of the same scene must repeat it
exactly.
``sweep`` runs ``run_sweep`` over an SNR grid alternately at parallelism 1
and at the machine's core count, and requires identical trial rows from
both.  Only the public API of ``modlse`` is used.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import modlse
from modlse import harness, omp, pipeline

from spans import Layer, Tracer

DEFAULT_SEEDS = {"reference": 20240601, "bandlimited": 20240603,
                 "sweep": 20240601}

GAMMA = 10.0
LAM = 0.7
SNR_DB = 30.0
PIPELINE = modlse.PipelineConfig(p=3, beta=0.04, iter_max=2)
SUCCESS_DB = -15.0
"""The harness's success threshold on NMSE."""

SWEEP_GRID = (30.0, 14.0)
SWEEP_TRIALS = 40
SWEEP_GATES = {30.0: (">=", 0.70), 14.0: ("<=", 0.30)}
"""Success-rate sides per SNR point, as in the repo's acceptance criteria."""

RECOVERY_GATES = {"reference": 0.70, "bandlimited": 0.80}
"""Least success rate on the scored scene set of each recovery workload."""

TAIL_PERCENTILE = {"reference": 95, "bandlimited": 85, "sweep": 90}
"""The tail is the mean of the samples beyond this percentile, which moves
less from seed to seed than the single sample at it.  The percentile is
fixed per workload, so that a build which fits more calls into a run is not
measured further out, and each untraced run takes enough samples to leave at
least 10 beyond it (see ``min_samples``)."""

WINDOWS_PER_PASS = 4
"""The median latency is taken per window and averaged over the run's windows.
A window is a fixed quarter of the scene set in one pass (one serial sweep on
``sweep``), a few seconds long.  The host's speed drifts by a quarter or more
over tens of seconds; the median of a whole run jumps between the fast and
the slow speed as their shares of the run cross one half, while the mean of
per-window medians follows the shares linearly and so moves less from run to
run.  Windows are fixed by scene, not by time, so a faster build has the same
windows."""


@dataclass(frozen=True)
class SceneSet:
    n: int
    k: int | None
    """Model order; ``None`` draws a bandlimited signal with ``floor(n/gamma)`` atoms."""
    count: int


SCENES = {"reference": SceneSet(n=512, k=3, count=160),
          "bandlimited": SceneSet(n=200, k=None, count=90)}


@dataclass(frozen=True)
class Scene:
    x: np.ndarray
    """Noise-free signal, the ground truth for scoring."""
    y: np.ndarray
    """Modulo samples, the only input the library sees."""
    k: int


@dataclass
class Report:
    """What one run measured; metrics map a name to ``(value, unit)``."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)


def make_scene(workload: str, seed: int, index: int) -> Scene:
    """Draw scene ``index`` the way ``run_trial`` draws trial ``index`` of grid point 0."""
    spec = SCENES[workload]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, index)))
    if spec.k is None:
        x = modlse.gen_bandlimited(spec.n, GAMMA, rng)
        k = int(np.floor(spec.n / GAMMA))
    else:
        lines = modlse.gen_random_spectrum(spec.k, GAMMA, rng,
                                           min_separation=2.0 * np.pi / spec.n)
        x = modlse.synth_line_spectral(lines, spec.n)
        k = spec.k
    g = modlse.add_noise(x, SNR_DB, rng)
    return Scene(x=x, y=modlse.modulo_sample(g, LAM), k=k)


def recover(scene: Scene):
    return modlse.recover_line_spectrum(scene.y, scene.k, GAMMA, LAM, PIPELINE)


def sweep_config(seed: int, parallelism: int):
    sampling = modlse.SamplingConfig(n=512, gamma=GAMMA, lam=LAM, k=3,
                                     snr_db=SNR_DB, seed=seed)
    return modlse.ExperimentConfig(
        scenario="snr_sweep", sampling=sampling, pipeline=PIPELINE,
        method="dp_omp_iter", trials=SWEEP_TRIALS, snr_grid=SWEEP_GRID,
        parallelism=parallelism, success_threshold_db=SUCCESS_DB)


def cold_call(workload: str) -> float:
    """Seconds taken by the first recovery (or trial) in this process.

    It always recovers the first scene of the workload's reference seed, so
    that set-up time does not depend on which scenes a seed happens to draw.
    """
    seed = DEFAULT_SEEDS[workload]
    if workload == "sweep":
        cfg = sweep_config(seed, 1)
        start = time.perf_counter()
        harness.run_trial(cfg, 0, 0)
    else:
        scene = make_scene(workload, seed, 0)
        start = time.perf_counter()
        recover(scene)
    return time.perf_counter() - start


def min_samples(workload: str) -> int:
    """Fewest samples that leave 10 beyond the workload's tail percentile."""
    return math.ceil(1000 / (100 - TAIL_PERCENTILE[workload]))


def _latency(report: Report, workload: str, windows: list[list[float]]) -> None:
    """``windows`` holds the latency samples of each window, see ``WINDOWS_PER_PASS``."""
    windows = [w for w in windows if w]
    samples = [t for w in windows for t in w]
    pct = TAIL_PERCENTILE[workload]
    beyond = sorted(samples)[math.ceil(pct * len(samples) / 100):]
    report.end_to_end["latency_median_s"] = (
        statistics.fmean(statistics.median(w) for w in windows), "s")
    report.end_to_end["latency_tail_s"] = (statistics.fmean(beyond), "s")
    report.notes["latency_tail_percentile"] = (pct, "%")
    report.notes["latency_tail_samples"] = (len(beyond), "count")
    report.notes["latency_samples"] = (len(samples), "count")
    report.notes["latency_windows"] = (len(windows), "count")


def _quality(report: Report, scores: list[float | None]) -> None:
    """``scores`` holds the NMSE of each scored recovery, ``None`` if it failed."""
    scored = [s for s in scores if s is not None]
    success = sum(s < SUCCESS_DB for s in scored) / len(scores)
    nmse_mean = statistics.fmean(scored) if scored else math.nan
    report.end_to_end["success_rate"] = (success, "ratio")
    report.end_to_end["recon_snr_db_mean"] = (-nmse_mean, "dB")
    report.notes["nmse_db_mean"] = (nmse_mean, "dB")
    report.notes["error_rate"] = ((len(scores) - len(scored)) / len(scores), "ratio")
    report.notes["scored"] = (len(scores), "count")


def check_recovery(scene: Scene, result) -> list[str]:
    """The exact identities every recovery must satisfy."""
    eps = result.eps_hat
    problems = []
    if not (np.all(np.isfinite(eps)) and np.array_equal(eps.real, np.round(eps.real))
            and np.array_equal(eps.imag, np.round(eps.imag))):
        problems.append("eps_hat is not a Gaussian-integer sequence")
    if not np.array_equal(result.g_hat, scene.y + 2.0 * LAM * eps):
        problems.append("g_hat != y + 2*lam*eps_hat")
    return problems


def _pipeline_targets(caller):
    """The layer functions ``recover_residual`` reaches, plus the estimator
    and residual entry points as ``caller`` imports them."""
    return [
        (caller, "recover_residual", "pipeline.recover_residual"),
        (caller, "nomp", "lse.nomp"),
        (pipeline, "build_instance", "transform.build_instance"),
        (pipeline, "dp_solve", "dp.dp_solve"),
        (pipeline, "omp_refine", "omp.omp_refine"),
        (pipeline, "accept_if_improves", "omp.accept_if_improves"),
        (pipeline, "exact_objective", "transform.exact_objective"),
        (omp, "exact_objective", "transform.exact_objective"),
    ]


def make_tracer(workload: str) -> Tracer:
    if workload == "sweep":
        targets = _pipeline_targets(harness) + [
            (harness, "run_trial", "harness.run_trial")]
        return Tracer(targets, root="harness.run_trial")
    targets = _pipeline_targets(pipeline) + [
        (pipeline, "resolve_constant_blind", "pipeline.resolve_constant_blind")]
    return Tracer(targets, root="pipeline.recover_line_spectrum")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, per request (recovery or trial) unless a ratio."""
    missing = tracer.missing()
    if missing:
        raise RuntimeError(f"expected spans never fired: {', '.join(missing)}")
    layers = tracer.layers()
    root = layers[tracer.root]
    n = root.calls

    def get(name):
        return layers.get(name, Layer())

    dp, lse, build = get("dp.dp_solve"), get("lse.nomp"), get("transform.build_instance")
    refine, accept = get("omp.omp_refine"), get("omp.accept_if_improves")
    residual = get("pipeline.recover_residual")
    return {
        "dp.dp_solve.calls": (dp.calls / n, "count"),
        "dp.dp_solve.s": (dp.s / n, "s"),
        "dp.dp_solve.share": (dp.s / root.s, "ratio"),
        "dp.dp_solve.candidates": (dp.attrs["candidates"] / n, "count"),
        "dp.dp_solve.ns_per_candidate": (1e9 * dp.s / dp.attrs["candidates"], "ns"),
        "dp.dp_solve.bytes_computed": (dp.attrs["bytes_computed"] / n, "bytes"),
        "lse.nomp.calls": (lse.calls / n, "count"),
        "lse.nomp.s": (lse.s / n, "s"),
        "lse.nomp.share": (lse.s / root.s, "ratio"),
        "lse.nomp.s_per_atom": (lse.s / lse.attrs["atoms"], "s"),
        "omp.omp_refine.calls": (refine.calls / n, "count"),
        "omp.omp_refine.s": (refine.s / n, "s"),
        "omp.accept_if_improves.calls": (accept.calls / n, "count"),
        "omp.accept_if_improves.s": (accept.s / n, "s"),
        "omp.accept_if_improves.accept_ratio":
            (accept.attrs["accepted"] / accept.calls, "ratio"),
        "transform.build_instance.calls": (build.calls / n, "count"),
        "transform.build_instance.s": (build.s / n, "s"),
        "transform.exact_objective.calls":
            (get("transform.exact_objective").calls / n, "count"),
        "pipeline.recover_residual.s": (residual.s / n, "s"),
        "pipeline.recover_residual.self_s": (residual.self_s / n, "s"),
        "pipeline.resolve_constant_blind.s":
            (get("pipeline.resolve_constant_blind").s / n, "s"),
        "pipeline.dp_rejections": (residual.attrs["dp_rejections"] / n, "count"),
        "pipeline.omp_rejections": (residual.attrs["omp_rejections"] / n, "count"),
    }


def _overhead(report: Report, traced: list[float], untraced: list[float]) -> None:
    t, u = statistics.median(traced), statistics.median(untraced)
    report.per_layer["trace.traced_latency_s"] = (t, "s")
    report.per_layer["trace.untraced_latency_s"] = (u, "s")
    report.per_layer["trace.overhead_s"] = (t - u, "s")


def _no_pool(report: Report) -> None:
    """The recovery workloads run no sweep, so the harness layer is idle."""
    for name, unit in (("harness.run_trial.busy_s", "s"), ("harness.run_sweep.s", "s"),
                       ("harness.pool_overhead_s", "s"),
                       ("harness.pool_efficiency", "ratio")):
        report.per_layer[name] = (0.0, unit)


def run_recoveries(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    """Closed loop over the scene set in whole passes, so that every scene
    weighs the same among the latency samples.

    Untraced, passes go on while another one fits into ``seconds``, and there
    are always enough of them for the tail percentile.  Traced, each scene is
    recovered untraced and then traced, so that the tracing overhead compares
    the same scenes; at least half the set is covered.
    """
    report = Report()
    scenes = [make_scene(workload, seed, i) for i in range(SCENES[workload].count)]
    tracer = make_tracer(workload) if trace else None
    first: dict[int, object] = {}
    scores: dict[int, float | None] = {}
    latencies: dict[bool, list[float]] = {False: [], True: []}
    visits = [0] * len(scenes)
    windows: dict[tuple[int, int], list[float]] = {}

    def attempt(index: int, traced: bool) -> None:
        scene = scenes[index]
        report.attempted += 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = (tracer.call(tracer.root, recover, scene) if traced
                      else recover(scene))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            report.failed += 1
            scores.setdefault(index, None)
            return
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.remove()
        latencies[traced].append(elapsed)
        if not traced:
            key = (visits[index], index * WINDOWS_PER_PASS // len(scenes))
            windows.setdefault(key, []).append(elapsed)
            visits[index] += 1
        report.problems.extend(check_recovery(scene, result))
        if index not in scores:
            first[index] = result
            x_hat = modlse.synth_line_spectral(result.spectrum_hat, scene.x.size)
            scores[index] = modlse.nmse(x_hat, scene.x)
        elif index in first and not (
                np.array_equal(result.eps_hat, first[index].eps_hat)
                and np.array_equal(result.spectrum_hat.omegas,
                                   first[index].spectrum_hat.omegas)):
            report.problems.append(f"scene {index}: a repeated recovery differs")

    # A lap is a whole pass untraced, or one scene untraced and traced.
    if trace:
        laps = [[(i, False), (i, True)] for i in range(len(scenes))]
        least = len(scenes) // 2
    else:
        laps = [[(i, False) for i in range(len(scenes))]]
        least = math.ceil(min_samples(workload) / len(scenes))
    done = 0
    lap = 0.0
    start = time.perf_counter()
    while done < least or time.perf_counter() - start + lap <= seconds:
        lap_start = time.perf_counter()
        for index, traced in laps[done % len(laps)]:
            attempt(index, traced)
        lap = time.perf_counter() - lap_start
        done += 1
    wall = time.perf_counter() - start

    completed = report.attempted - report.failed
    report.end_to_end["throughput_trials_per_s"] = (completed / wall, "1/s")
    report.end_to_end["throughput_serial_trials_per_s"] = (completed / wall, "1/s")
    _latency(report, workload, list(windows.values()))
    _quality(report, [scores[i] for i in sorted(scores)])
    floor = RECOVERY_GATES[workload]
    if report.end_to_end["success_rate"][0] < floor:
        report.problems.append(f"success rate below {floor}")
    if trace:
        report.per_layer.update(layer_metrics(tracer))
        _overhead(report, latencies[True], latencies[False])
        _no_pool(report)
        report.spans = tracer.records()
    return report


def run_sweep_workload(seed: int, seconds: float, trace: bool, nproc: int) -> Report:
    """Repeat (serial sweep, pooled sweep) pairs; with ``trace`` each pair also
    runs one traced serial sweep."""
    report = Report()
    serial_cfg = sweep_config(seed, 1)
    pooled_cfg = replace(serial_cfg, parallelism=nproc)
    tracer = make_tracer("sweep") if trace else None
    expected = None
    serial_walls, pooled_walls, pooled_busy = [], [], []
    serial_runtimes, traced_runtimes = [], []

    def sweep(cfg, runtimes=None):
        nonlocal expected
        start = time.perf_counter()
        points = modlse.run_sweep(cfg)
        wall = time.perf_counter() - start
        rows = [row for point in points for row in point.results]
        keys = [replace(r, runtime_s=0.0) for r in rows]
        if expected is None:
            expected = keys
        elif keys != expected:
            report.problems.append(f"trial rows differ at parallelism {cfg.parallelism}")
        report.attempted += len(rows)
        # run_trial folds a failed solve into nmse_db == 0.0.
        report.failed += sum(r.nmse_db == 0.0 for r in rows)
        if runtimes is not None:
            runtimes.append([r.runtime_s for r in rows if r.nmse_db != 0.0])
        return wall, rows

    reps = 0
    last = 0.0
    start = time.perf_counter()
    while reps < (1 if trace else 2) or time.perf_counter() - start + last <= seconds:
        rep_start = time.perf_counter()
        wall, rows = sweep(serial_cfg, serial_runtimes)
        serial_walls.append(wall)
        if trace:
            tracer.install()
            try:
                sweep(serial_cfg, traced_runtimes)
            finally:
                tracer.remove()
        wall, rows = sweep(pooled_cfg)
        pooled_walls.append(wall)
        pooled_busy.append(sum(r.runtime_s for r in rows))
        reps += 1
        last = time.perf_counter() - rep_start

    # All trials over all sweep wall time, which weighs every sweep by its
    # length rather than letting the middle one stand for the run.
    trials = len(expected)
    report.end_to_end["throughput_trials_per_s"] = (trials * reps / sum(pooled_walls), "1/s")
    report.end_to_end["throughput_serial_trials_per_s"] = (trials * reps / sum(serial_walls), "1/s")
    # Serial trials only: pooled ones share the cores with each other.
    _latency(report, "sweep", serial_runtimes)
    _quality(report, [None if r.nmse_db == 0.0 else r.nmse_db for r in expected])
    report.notes["sweep_pairs"] = (reps, "count")
    report.notes["pool_workers"] = (nproc, "count")
    for snr, (side, bound) in SWEEP_GATES.items():
        rows = [r for r in expected if r.snr_db == snr]
        rate = sum(r.success for r in rows) / len(rows)
        report.notes[f"success_rate_at_{snr:g}dB"] = (rate, "ratio")
        if not (rate >= bound if side == ">=" else rate <= bound):
            report.problems.append(f"success rate {rate:.3f} at {snr:g} dB is not {side} {bound}")
    if trace:
        report.per_layer.update(layer_metrics(tracer))
        _overhead(report, [t for w in traced_runtimes for t in w],
                  [t for w in serial_runtimes for t in w])
        report.per_layer["harness.run_trial.busy_s"] = (statistics.median(pooled_busy), "s")
        report.per_layer["harness.run_sweep.s"] = (statistics.median(pooled_walls), "s")
        report.per_layer["harness.pool_overhead_s"] = (
            statistics.median(w - b / nproc for w, b in zip(pooled_walls, pooled_busy)), "s")
        report.per_layer["harness.pool_efficiency"] = (
            statistics.median(b / (nproc * w) for w, b in zip(pooled_walls, pooled_busy)), "ratio")
        report.spans = tracer.records()
    return report
