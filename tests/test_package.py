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
