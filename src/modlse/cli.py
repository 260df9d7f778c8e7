"""Command-line front end.

Subcommands
-----------
simulate    draw a scene and write folded/unfolded IQ CSV files
recover     run one recovery method on an IQ file
experiment  run a configured Monte Carlo sweep, writing CSV + JSON

The ``experiment`` subcommand reads a ``key = value`` config file (one pair
per line, ``#`` comments) whose keys name config dataclass fields; its flags
override the file.  Each subcommand declares only the flags it reads.
``recover`` and ``experiment`` lay the flags given over their config entries
and build every config by :func:`build_experiment_config`, so an unset flag
keeps its dataclass default and the dataclasses check every value; ``recover``
takes ``n`` from its input file, and ``simulate`` builds its scene alone.  A
subcommand that raises ``ValueError`` (``BudgetExceeded`` included) or
``OSError`` is reported as one line on stderr, with exit status 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .harness import (
    SCENARIOS,
    ExperimentConfig,
    read_iq_csv,
    run_sweep,
    write_iq_csv,
    write_summary_json,
    write_trials_csv,
)
from .pipeline import METHODS, PipelineConfig, recover_line_spectrum
from .signals import (
    SamplingConfig,
    add_noise,
    gen_random_spectrum,
    modulo_sample,
    synth_line_spectral,
)

CONFIG_KEYS = {
    # config key: (config section, dataclass field, value parser)
    "scenario": ("experiment", "scenario", str),
    "method": ("experiment", "method", str),
    "trials": ("experiment", "trials", int),
    "parallelism": ("experiment", "parallelism", int),
    "success_threshold_db": ("experiment", "success_threshold_db", float),
    "snr_grid": ("experiment", "snr_grid", "grid"),
    "beta_grid": ("experiment", "beta_grid", "grid"),
    "n": ("sampling", "n", int),
    "gamma": ("sampling", "gamma", float),
    "lambda": ("sampling", "lam", float),
    "k": ("sampling", "k", int),
    "snr_db": ("sampling", "snr_db", float),
    "seed": ("sampling", "seed", int),
    "p": ("pipeline", "p", int),
    "v": ("pipeline", "v_bound", int),
    "beta": ("pipeline", "beta", float),
    "iter_max": ("pipeline", "iter_max", int),
}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines, each key at most once, into typed entries."""
    out: dict = {}
    first_line: dict = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{line_no}: duplicate key {key!r} "
                             f"(first on line {first_line[key]})")
        first_line[key] = line_no
        kind = CONFIG_KEYS[key][2]
        try:
            out[key] = (tuple(float(v) for v in value.split(","))
                        if kind == "grid" else kind(value))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    return out


def build_experiment_config(entries: dict) -> ExperimentConfig:
    """Set each entry's dataclass field; unset fields keep their defaults,
    and an entry for a field the scenario sets itself is an error."""
    fields: dict = {"experiment": {}, "sampling": {}, "pipeline": {}}
    for key, value in entries.items():
        section, name, _ = CONFIG_KEYS[key]
        fields[section][name] = value
    cfg = ExperimentConfig(sampling=SamplingConfig(**fields["sampling"]),
                           pipeline=PipelineConfig(**fields["pipeline"]),
                           **fields["experiment"])
    for key in entries:
        if CONFIG_KEYS[key][:2] in SCENARIOS[cfg.scenario][1:]:
            raise ValueError(f"scenario {cfg.scenario!r} sets {key} itself")
    return cfg


FLAGS = {
    # flag: config key
    "n": "n", "k": "k", "seed": "seed", "trials": "trials", "p": "p",
    "beta": "beta", "snr": "snr_db", "gamma": "gamma", "lambda": "lambda",
    "method": "method",
}


def _add_flags(sub: argparse.ArgumentParser, flags) -> None:
    """Declare ``flags``.  Each is stored under its config key with that key's
    type; an unset flag is None."""
    for flag in flags:
        key = FLAGS[flag]
        sub.add_argument(f"--{flag}", dest=key, type=CONFIG_KEYS[key][2],
                         choices=METHODS if key == "method" else None)


def _attach_signed_values(argv: list) -> list:
    """Write ``--flag -inf`` as ``--flag=-inf`` for a declared flag.

    argparse reads a value that starts with ``-`` and is not a plain decimal
    (``-inf``, ``-1e3``) as an option, so without this it would never reach
    the config check."""
    out: list = []
    for arg in argv:
        if out and out[-1].startswith("--") and out[-1][2:] in FLAGS \
                and arg.startswith("-") and _is_number(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _given(args) -> dict:
    """The config entries of the flags given."""
    return {key: value for key, value in vars(args).items()
            if key in CONFIG_KEYS and value is not None}


def _cmd_simulate(args) -> int:
    # it recovers nothing, so it checks no pipeline; each flag is a scene field
    s = SamplingConfig(**{CONFIG_KEYS[key][1]: value
                          for key, value in _given(args).items()})
    rng = np.random.default_rng(s.seed)
    spectrum = gen_random_spectrum(s.k, s.gamma, rng,
                                   min_separation=2.0 * np.pi / s.n)
    x = synth_line_spectral(spectrum, s.n)
    g = add_noise(x, s.snr_db, rng)
    y = modulo_sample(g, s.lam)
    prefix = Path(args.out)
    write_iq_csv(prefix.with_name(prefix.name + "_unfolded.csv"), g)
    write_iq_csv(prefix.with_name(prefix.name + "_folded.csv"), y)
    print(f"wrote {prefix.name}_unfolded.csv and {prefix.name}_folded.csv "
          f"(n={s.n}, k={s.k}, gamma={s.gamma}, lambda={s.lam}, "
          f"snr={s.snr_db} dB)")
    for omega, coeff in zip(spectrum.omegas, spectrum.coeffs):
        print(f"  component: omega={omega:.6f} rad/sample |c|={abs(coeff):.4f}")
    return 0


def _cmd_recover(args) -> int:
    loaded = read_iq_csv(args.input)
    cfg = build_experiment_config({"n": len(loaded), **_given(args)})
    s = cfg.sampling
    y = modulo_sample(loaded, s.lam) if args.fold else loaded
    start = time.perf_counter()
    result = recover_line_spectrum(y, s.k, s.gamma, s.lam, cfg.pipeline,
                                   cfg.method)
    elapsed = time.perf_counter() - start
    print(f"method={cfg.method} runtime={elapsed:.3f}s")
    spectrum = result.spectrum_hat
    for omega, coeff in zip(spectrum.omegas, spectrum.coeffs):
        print(f"  omega={omega:.8f} rad/sample  |c|={abs(coeff):.6f}  "
              f"phase={np.angle(coeff):+.4f}")
    if args.out:
        write_iq_csv(args.out, result.g_hat)
        print(f"recovered signal written to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    entries = parse_config_file(args.config) if args.config else {}
    cfg = build_experiment_config({**entries, **_given(args)})
    points = run_sweep(cfg)
    out_prefix = Path(args.out)
    all_results = [r for pt in points for r in pt.results]
    write_trials_csv(out_prefix.with_name(out_prefix.name + "_trials.csv"),
                     all_results)
    write_summary_json(out_prefix.with_name(out_prefix.name + "_summary.json"),
                       points)
    for pt in points:
        print(f"{pt.axis}={pt.value:g} method={pt.method}: "
              f"success={pt.success_rate:.2f} mean_nmse={pt.mean_nmse_db:.1f} dB "
              f"mean_runtime={pt.mean_runtime_s:.3f}s "
              f"({pt.trials} trials)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modlse",
        description="Line spectral recovery from modulo (self-reset ADC) samples")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="emit folded/unfolded signals to file")
    sim.add_argument("--out", required=True, help="output path prefix")
    _add_flags(sim, ("n", "k", "seed", "snr", "gamma", "lambda"))
    sim.set_defaults(func=_cmd_simulate)

    rec = subs.add_parser("recover", help="run one method on an IQ file")
    rec.add_argument("input")
    rec.add_argument("--fold", action="store_true",
                     help="apply the modulo in software before recovery")
    rec.add_argument("--out", default=None, help="write recovered signal here")
    _add_flags(rec, ("k", "gamma", "lambda", "p", "beta", "method"))
    rec.set_defaults(func=_cmd_recover)

    exp = subs.add_parser("experiment", help="run sweeps from a config file")
    exp.add_argument("--config", default=None)
    exp.add_argument("--out", required=True, help="output path prefix")
    _add_flags(exp, ("seed", "trials", "p", "beta", "snr", "gamma", "lambda",
                     "method"))
    exp.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(_attach_signed_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # BudgetExceeded is a ValueError
        print(f"modlse {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
