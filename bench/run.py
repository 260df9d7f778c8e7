"""Benchmark of modlse: recovery latency, sweep throughput and quality.

Usage, from the root of a checkout::

    python3 bench/run.py --workload reference [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py`` and ``README.md`` in this directory):
``reference`` (n=512, k=3), ``bandlimited`` (n=200, 20 atoms) and ``sweep``
(``run_sweep`` over 30 and 14 dB at parallelism 1 and the core count).

Every metric is printed as ``name value unit``, followed by the machine and
library facts; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones, and
the spans are written to ``bench/out/``.  The exit code is 0 only when every
correctness check passed.
"""

import os

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before numpy is imported, so that BLAS and the pool workers use one thread.
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("reference", "bandlimited", "sweep")
SETUP_PROBES = 4
"""Fresh processes that each time import plus first call, besides this one."""
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="scene seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the measured loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        **{var: os.environ[var] for var in PINNED_THREADS},
    }


def probe_setup(workload: str) -> float:
    """Import plus first call, timed inside a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def show(section: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{section:<10} {name:<40} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "modlse" / "__init__.py").is_file():
        print(f"modlse sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import modlse  # noqa: F401
    import_s = time.perf_counter() - start

    import workloads

    setup = [import_s + workloads.cold_call(args.workload)]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup[0]}))
        return 0

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    nproc = len(os.sched_getaffinity(0))
    trace = bool(args.trace)
    if args.workload == "sweep":
        report = workloads.run_sweep_workload(seed, args.seconds, trace, nproc)
    else:
        report = workloads.run_recoveries(args.workload, seed, args.seconds, trace)
    report.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if not trace:
        setup += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        report.end_to_end["setup_s"] = (statistics.median(setup), "s")
        report.notes["setup_samples"] = (len(setup), "count")

    env = environment(nproc)
    print(f"workload {args.workload}  seed {seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    show("end-to-end", report.end_to_end)
    show("per-layer", report.per_layer)
    show("detail", report.notes)
    print(f"{'detail':<10} {'attempted':<40} {report.attempted:>14d} count")
    print(f"{'detail':<10} {'failed':<40} {report.failed:>14d} count")
    for problem in sorted(set(report.problems)):
        print(f"INCORRECT: {problem}")
    if trace:
        out = BENCH / "out" / f"spans-{args.workload}-{seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"environment": env, "spans": report.spans}))
        print(f"spans written to {out.relative_to(ROOT)}")

    chosen = report.per_layer if trace else report.end_to_end
    correct = not report.problems
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
