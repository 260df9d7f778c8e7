"""Property tests over random small instances, drawn by hypothesis.

``derandomize=True`` makes every run draw the same examples, so these stay
deterministic tier-1 tests.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modlse import (  # noqa: E402
    PipelineConfig,
    add_noise,
    banded_objective,
    beta_limits,
    brute_force_solve,
    build_instance,
    dp_solve,
    gen_random_spectrum,
    modulo_sample,
    recover_residual,
    select_subset,
    synth_line_spectral,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)
SEEDS = st.integers(0, 2 ** 32 - 1)


@PROPERTY_SETTINGS
@given(p=st.integers(1, 2), extra=st.integers(1, 4), seed=SEEDS,
       data=st.data())
def test_dp_matches_brute_force(p, extra, seed, data):
    # n just above p + 1, V = 1: at most 9^(p+4) candidates
    n = p + 1 + extra
    m = n - 1
    size = data.draw(st.integers(1, m), label="subset size")
    rng = np.random.default_rng(seed)
    bins = np.sort(rng.choice(m, size=size, replace=False))
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    inst = build_instance(y, 0.5, bins).with_observation(
        rng.normal(size=size) + 1j * rng.normal(size=size))
    if m <= p + 1:  # no stage beyond the band: the DP refuses the instance
        with pytest.raises(ValueError, match="too short"):
            dp_solve(inst, p, 1)
        return
    eps_dp = dp_solve(inst, p, 1)
    eps_bf = brute_force_solve(inst, p, 1, use_banded=True)
    assert banded_objective(inst, eps_dp, p) == pytest.approx(
        banded_objective(inst, eps_bf, p), abs=1e-9)


@PROPERTY_SETTINGS
@given(n=st.integers(3, 2048), gamma=st.floats(1.0, 64.0, exclude_min=True),
       beta_at=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_interior_beta_gives_valid_bins_or_empty_subset(n, gamma, beta_at):
    lo, hi = beta_limits(n, gamma)
    beta = lo + beta_at * (hi - lo)
    if not lo < beta < hi:  # empty interval, or rounding onto an end
        return
    try:
        bins = select_subset(n, gamma, beta)
    except ValueError as exc:
        assert "empty subset" in str(exc)
        return
    # above the signal band, and a valid row set for build_instance
    assert bins[0] > np.floor((n - 1) / gamma)
    np.testing.assert_array_equal(bins, np.arange(bins[0], bins[-1] + 1))
    inst = build_instance(np.zeros(n, dtype=complex), 1.0, bins)
    assert inst.n_vars == n - 1


@PROPERTY_SETTINGS
@given(method=st.sampled_from(["dp", "dp_omp", "dp_omp_iter", "omp_only"]),
       n=st.integers(32, 96), gamma=st.floats(3.0, 12.0),
       beta_at=st.floats(0.05, 0.6), p=st.integers(1, 3),
       lam=st.floats(0.3, 1.0), snr_db=st.floats(5.0, 40.0),
       k=st.integers(1, 3), seed=SEEDS)
def test_objective_trace_never_increases(method, n, gamma, beta_at, p, lam,
                                         snr_db, k, seed):
    rng = np.random.default_rng(seed)
    spec = gen_random_spectrum(k, gamma, rng, min_separation=2 * np.pi / n)
    y = modulo_sample(add_noise(synth_line_spectral(spec, n), snr_db, rng), lam)
    lo, hi = beta_limits(n, gamma)
    cfg = PipelineConfig(p=p, beta=lo + beta_at * (hi - lo), iter_max=3)
    trace = recover_residual(y, cfg, lam, gamma, method).objective_trace
    assert np.all(np.diff(trace) <= 0.0)
