import re

import numpy as np
import pytest

import modlse
from modlse import (baseline, bounds, dp, harness, lse, omp, pipeline, signals,
                    transform)

MODULES = (signals, transform, bounds, dp, omp, lse, baseline, pipeline, harness)


def test_package_exports_each_module_list_once():
    names = [name for module in MODULES for name in module.__all__]
    assert modlse.__all__ == names
    assert len(set(names)) == len(names)


def test_exports_are_the_defining_modules_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(modlse, name) is getattr(module, name), name


def test_noiseless_is_listed_by_signals():
    assert "NOISELESS" in signals.__all__


# each integer knob with a least admissible value: id -> (name, least, call)
INTEGER_KNOBS = {
    "usalg": ("difference order", 1, lambda v: baseline.usalg(np.zeros(8), 0.5, v)),
    "residual_state_bound": (
        "k", 1, lambda v: bounds.residual_state_bound(v, 1.0, 0.7, 10.0)),
    # dp.check_dp's two knobs, under the ids of the knob check it absorbed
    "check_dp_budget-p": ("p", 1, lambda v: dp.check_dp(64, v, 1)),
    "check_dp_budget-v_bound": ("v_bound", 1, lambda v: dp.check_dp(64, 1, v)),
    "ExperimentConfig-trials": (
        "trials", 1, lambda v: harness.ExperimentConfig(trials=v)),
    "ExperimentConfig-parallelism": (
        "parallelism", 1, lambda v: harness.ExperimentConfig(parallelism=v)),
    "PipelineConfig": ("iter_max", 1, lambda v: pipeline.PipelineConfig(iter_max=v)),
    "checked_order": ("k", 1, lambda v: signals.checked_order(v, 64)),
    "SamplingConfig-n": ("n", 2, lambda v: signals.SamplingConfig(n=v)),
    "SamplingConfig-seed": ("seed", 0, lambda v: signals.SamplingConfig(seed=v)),
    "synth_line_spectral": ("n", 2, lambda v: signals.synth_line_spectral(
        signals.LineSpectrum([0.3], [1.0]), v)),
    "gen_random_spectrum": (
        "k", 1, lambda v: signals.gen_random_spectrum(v, 10.0, np.random.default_rng(0))),
    "bandlimited_bins": ("n", 4, lambda v: signals.bandlimited_bins(v, 10.0)),
}


@pytest.mark.parametrize("name,least,call", INTEGER_KNOBS.values(), ids=INTEGER_KNOBS)
def test_integer_knob_below_its_least_names_it_with_bound_and_value(name, least, call):
    # a numpy integer is reported as the int it converts to, not as its repr
    message = f"{name} must be >= {least}, got {least - 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(np.int64(least - 1))


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name,least,call", INTEGER_KNOBS.values(), ids=INTEGER_KNOBS)
def test_integer_knob_rejects_a_bool(name, least, call, value):
    # operator.index(True) is True, so a bool would pass as 1 or 0
    message = f"{name} must be an integer, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
