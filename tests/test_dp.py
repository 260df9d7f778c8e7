import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from modlse import (
    METHODS,
    BudgetExceeded,
    DpStats,
    ExperimentConfig,
    PipelineConfig,
    SamplingConfig,
    check_dp,
    add_noise,
    banded_objective,
    brute_force_solve,
    build_instance,
    dp_solve,
    gen_random_spectrum,
    modulo_sample,
    select_subset,
    state_alphabet,
    synth_line_spectral,
)
from modlse.dp import DEFAULT_BUDGET


def random_instance(n, rng, subset_size=None, randomize_obs=True):
    """Small instance over a random bin selection (test-only geometry)."""
    m = n - 1
    if subset_size is None:
        subset_size = max(1, m // 2)
    bins = np.sort(rng.choice(np.arange(m), size=subset_size, replace=False))
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    inst = build_instance(y, 0.5, bins)
    if randomize_obs:
        z = rng.normal(size=subset_size) + 1j * rng.normal(size=subset_size)
        inst = inst.with_observation(z)
    return inst


class TestStateAlphabet:
    def test_order_and_size(self):
        states = state_alphabet(1)
        assert states.size == 9
        np.testing.assert_array_equal(
            states, [-1 - 1j, -1, -1 + 1j, -1j, 0, 1j, 1 - 1j, 1, 1 + 1j])


class TestDecomposition:
    def test_stage_sum_equals_quadratic_form(self):
        # 200 instances x 5 evaluation points = 1000 (instance, eps) pairs
        rng = np.random.default_rng(50)
        for _ in range(200):
            n = int(rng.integers(8, 14))
            p = int(rng.integers(1, 4))
            inst = random_instance(n, rng)
            q_banded = inst.q_banded_dense(p)
            for _ in range(5):
                eps = rng.integers(-2, 3, inst.n_vars) \
                    + 1j * rng.integers(-2, 3, inst.n_vars)
                eps = eps.astype(complex)
                direct = np.real(np.conj(eps) @ q_banded @ eps) \
                    + 2 * np.real(np.conj(inst.b) @ eps)
                assert banded_objective(inst, eps, p) == pytest.approx(direct, abs=1e-10)

    def test_rejects_oversized_band(self):
        # n_vars = p + 1 leaves no forward stage
        rng = np.random.default_rng(53)
        for p in (3, 1, 2):
            inst = random_instance(p + 2, rng)
            assert inst.n_vars == p + 1
            with pytest.raises(ValueError, match="instance too short"):
                dp_solve(inst, p, 1)

    @pytest.mark.parametrize("p", [1, 4])
    def test_short_instance_error_names_sizes(self, p):
        inst = random_instance(p + 2, np.random.default_rng(69))
        with pytest.raises(ValueError, match=rf"^instance too short: n_vars={p + 1} "
                                             rf"needs n_vars >= p \+ 2 at p={p}$"):
            dp_solve(inst, p, 1)


def exhaustive_minimum(inst, p, v, banded=True):
    """Independent oracle: explicit loop over every candidate tuple."""
    states = state_alphabet(v)
    q = inst.q_banded_dense(p) if banded else inst.q_dense()
    best = np.inf
    for combo in itertools.product(states, repeat=inst.n_vars):
        eps = np.array(combo)
        val = np.real(np.conj(eps) @ q @ eps) + 2 * np.real(np.conj(inst.b) @ eps)
        best = min(best, val)
    return best


class TestDpSolve:
    def test_zero_linear_term_returns_zero(self):
        rng = np.random.default_rng(54)
        inst = random_instance(20, rng, randomize_obs=False)
        inst = inst.with_observation(np.zeros(inst.bins.size, dtype=complex))
        eps = dp_solve(inst, 2, 1)
        np.testing.assert_array_equal(eps, np.zeros(19, dtype=complex))

    def test_matches_exhaustive_small(self):
        rng = np.random.default_rng(55)
        inst = random_instance(5, rng)  # 9^4 = 6561 candidates
        eps = dp_solve(inst, 1, 1)
        assert banded_objective(inst, eps, 1) == pytest.approx(
            exhaustive_minimum(inst, 1, 1), abs=1e-9)

    @pytest.mark.parametrize("n,p", [(6, 1), (7, 1), (7, 2), (8, 2)])
    def test_matches_brute_force(self, n, p):
        rng = np.random.default_rng(56 + n + p)
        for _ in range(15):
            inst = random_instance(n, rng)
            eps_dp = dp_solve(inst, p, 1)
            eps_bf = brute_force_solve(inst, p, 1, use_banded=True)
            assert banded_objective(inst, eps_dp, p) == pytest.approx(
                banded_objective(inst, eps_bf, p), abs=1e-9)

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(57)
        inst = random_instance(10, rng)
        np.testing.assert_array_equal(dp_solve(inst, 2, 1), dp_solve(inst, 2, 1))

    def test_budget_guard(self):
        rng = np.random.default_rng(58)
        inst = random_instance(12, rng)  # 49^5 ~ 2.8e8 entries
        assert 49 ** 5 > DEFAULT_BUDGET == 10 ** 8
        with pytest.raises(BudgetExceeded):
            dp_solve(inst, 4, 3)
        assert issubclass(BudgetExceeded, ValueError)

    def test_solution_stays_on_bounded_lattice(self):
        rng = np.random.default_rng(59)
        inst = random_instance(16, rng)
        eps = dp_solve(inst, 2, 1)
        assert np.all(np.abs(eps.real) <= 1) and np.all(np.abs(eps.imag) <= 1)
        assert np.all(eps.real == np.round(eps.real))
        assert np.all(eps.imag == np.round(eps.imag))

    def test_candidate_count_growth_with_band_order(self):
        # per the stage recursion, incrementing p multiplies the enumeration
        # by at most the state-alphabet size
        rng = np.random.default_rng(60)
        inst1 = random_instance(24, rng)
        rng = np.random.default_rng(60)
        inst2 = random_instance(24, rng)
        _, s1 = dp_solve(inst1, 1, 1, return_stats=True)
        _, s2 = dp_solve(inst2, 2, 1, return_stats=True)
        assert s2.candidates_evaluated / s1.candidates_evaluated <= 9 * 1.05
        assert s1.state_count == 9
        assert s1.value_table_entries == 9

    def test_respects_linear_term_override(self):
        rng = np.random.default_rng(61)
        inst = random_instance(10, rng)
        other = rng.normal(size=inst.n_vars) + 1j * rng.normal(size=inst.n_vars)
        eps_override = dp_solve(dataclasses.replace(inst, b=other), 1, 1)
        moved = inst.with_observation(inst.z_s)  # same instance, sanity
        assert banded_objective(moved, eps_override, 1) >= \
            banded_objective(moved, dp_solve(inst, 1, 1), 1) - 1e-9


    def test_rejects_non_finite_instance_term(self):
        rng = np.random.default_rng(66)
        inst = random_instance(12, rng)
        b = inst.b.copy()
        b[7] = np.nan
        with pytest.raises(ValueError, match="non-finite linear term at index 7"):
            dp_solve(dataclasses.replace(inst, b=b), 2, 1)

    @pytest.mark.parametrize("p", [0, 11, 12])
    def test_band_order_outside_instance_rejected(self, p):
        # 11 variables: no band at p = 0, and a stage table of 9^(2(p+1))
        # entries at p >= 11, so the error names p before any stage runs
        inst = build_instance(np.zeros(12, dtype=complex), 0.5, np.arange(3, 6))
        with pytest.raises(ValueError, match=rf"p( must be >= 1, got |=){p}\b"):
            dp_solve(inst, p, 1)

    @pytest.mark.parametrize("solver", [dp_solve, brute_force_solve])
    @pytest.mark.parametrize("p,v,message", [
        (0, 1, "^p must be >= 1, got 0"),
        (-2, 1, "^p must be >= 1, got -2"),
        (2.5, 1, "^p must be an integer, got 2.5"),
        (1, 0, "^v_bound must be >= 1, got 0"),
        (1, 1.0, "^v_bound must be an integer, got 1.0"),
        (4, 3, "reduce p=4 or v_bound=3"),
    ])
    def test_rejected_knob_is_named(self, solver, p, v, message):
        inst = random_instance(8, np.random.default_rng(68))
        with pytest.raises(ValueError, match=message):
            solver(inst, p, v)
        with pytest.raises(ValueError, match=message):
            check_dp(inst.n_vars, p, v)

    def test_rejects_non_finite_override(self):
        rng = np.random.default_rng(67)
        inst = random_instance(12, rng)
        b = inst.b.copy()
        b[[4, 9]] = [complex(np.inf, 0.0), complex(0.0, np.nan)]
        with pytest.raises(ValueError, match="non-finite linear term at index 4"):
            dp_solve(dataclasses.replace(inst, b=b), 2, 1)


class TestAdmission:
    """The one rule bounds the kept tables as well as the stage table."""

    @staticmethod
    def apply_rule(where, n, p, v):
        pipe = PipelineConfig(p=p, v_bound=v)
        if where == "ExperimentConfig":
            ExperimentConfig(sampling=SamplingConfig(n=n), pipeline=pipe,
                             snr_grid=(30.0,))
        elif where == "guard_bins":
            assert METHODS["dp_omp_iter"].guard_bins(n, 10.0, pipe).size > 0
        else:
            inst = build_instance(np.zeros(n, dtype=complex), 0.7,
                                  select_subset(n, 10.0, 0.04))
            tracemalloc.start()
            try:
                dp_solve(inst, p, v)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            # raised before the 2.2 GB or 1.6 GB of kept tables were allocated
            assert peak < 2 ** 20

    @pytest.mark.parametrize("where", ["ExperimentConfig", "guard_bins", "dp_solve"])
    @pytest.mark.parametrize("p,v", [(6, 1), (4, 2)])
    def test_kept_tables_over_budget_rejected(self, where, p, v):
        # at n=512 the stage table (9^7 or 25^5 entries) fits the budget, but
        # the 511 kept tables of 9^6 or 25^4 entries do not
        assert (2 * v + 1) ** (2 * (p + 1)) <= DEFAULT_BUDGET
        entries = 511 * (2 * v + 1) ** (2 * p)
        message = (f"^kept tables of {entries} entries exceeds budget {DEFAULT_BUDGET}; "
                   f"reduce p={p}, v_bound={v} or n_vars=511$")
        with pytest.raises(BudgetExceeded, match=message):
            self.apply_rule(where, 512, p, v)

    @pytest.mark.parametrize("n,p,v", [(512, 3, 1), (200, 3, 1), (1024, 4, 1), (512, 3, 2)])
    def test_configs_in_use_admitted(self, n, p, v):
        check_dp(n - 1, p, v)
        self.apply_rule("ExperimentConfig", n, p, v)
        self.apply_rule("guard_bins", n, p, v)


def reference_dp_solve(inst, p, v):
    """Test-only oracle: the gather + ``argmin(axis=0)`` forward pass.

    Keys its tables with the leading variable most significant, gathers each
    stage's predecessor values through an explicit key table and recovers the
    next value table with ``take_along_axis``, so it shares with
    :func:`dp_solve` only the stage arithmetic, ``(value + linear row) +
    coupling`` for every candidate, not the key layout, the reductions or the
    tie-break.  Returns ``(eps, DpStats)``.
    """
    m, b = inst.n_vars, inst.b
    states = state_alphabet(v)
    bsz = states.size
    band = inst.q[:p + 1]
    q0 = float(band[0].real)

    keys = np.arange(bsz ** p)
    coupled = np.zeros(bsz ** p, dtype=complex)
    for t in range(p):
        digit = (keys // bsz ** (p - 1 - t)) % bsz
        coupled += band[t + 1] * states[digit]
    cross = 2.0 * np.real(np.conj(states)[:, None] * coupled[None, :])
    prev_key = np.arange(bsz)[:, None] * bsz ** (p - 1) + keys[None, :] // bsz
    base_quad = q0 * np.abs(states) ** 2

    value = np.zeros(bsz ** p)
    argmins = np.empty((m, bsz ** p), dtype=np.min_scalar_type(bsz - 1))
    evaluated = 0
    for k in range(m):
        stage = (value[prev_key]
                 + (base_quad + 2.0 * np.real(np.conj(states) * b[k]))[:, None]) \
            + cross
        argmins[k] = np.argmin(stage, axis=0)
        value = np.take_along_axis(stage, argmins[k][None, :].astype(np.intp),
                                   axis=0)[0]
        evaluated += stage.size

    # p padding variables at state 0 follow the last one: start from the key
    # whose every digit is the index of state 0
    eps = np.zeros(m, dtype=complex)
    key = int(np.flatnonzero(states == 0)[0]) * (bsz ** p - 1) // (bsz - 1)
    for k in range(m - 1, -1, -1):
        s = int(argmins[k][key])
        eps[k] = states[s]
        key = s * bsz ** (p - 1) + key // bsz
    return eps, DpStats(n_stages=m, state_count=bsz,
                        candidates_evaluated=evaluated,
                        value_table_entries=bsz ** p)


def assert_matches_reference(inst, p, v):
    eps, stats = dp_solve(inst, p, v, return_stats=True)
    eps_ref, stats_ref = reference_dp_solve(inst, p, v)
    np.testing.assert_array_equal(eps, eps_ref)
    assert stats == stats_ref
    return eps


class TestMatchesReferenceSolver:
    """``dp_solve`` must return exactly what the gather/argmin oracle does."""

    @pytest.mark.parametrize("p,v", [(1, 1), (2, 1), (3, 1), (4, 1),
                                     (1, 2), (2, 2), (3, 2)])
    def test_random_instances(self, p, v):
        rng = np.random.default_rng(70 + 10 * p + v)
        for _ in range(6 if v == 1 else 3):
            n = int(rng.integers(p + 3, p + 12))
            assert_matches_reference(random_instance(n, rng), p, v)

    def test_linear_term_override(self):
        rng = np.random.default_rng(71)
        for p in (1, 2, 3):
            inst = random_instance(14, rng)
            other = rng.normal(size=inst.n_vars) + 1j * rng.normal(size=inst.n_vars)
            assert_matches_reference(dataclasses.replace(inst, b=other), p, 1)

    @pytest.mark.parametrize("scale", [0.0, 1.0, 0.5])
    def test_lattice_terms_force_ties(self, scale):
        # zero, integer and half-integer observations and linear terms; on a
        # dyadic band every stage sum is exact, so candidates tie exactly
        rng = np.random.default_rng(72)
        dyadic = np.array([2.0, 0.5 + 0.5j, -0.25, 0.25j, -0.125 + 0.125j])
        for p in (1, 2, 3, 4):
            inst = random_instance(13, rng, randomize_obs=False)
            size = inst.bins.size
            z = scale * (rng.integers(-2, 3, size) + 1j * rng.integers(-2, 3, size))
            assert_matches_reference(inst.with_observation(z), p, 1)
            b = scale * (rng.integers(-2, 3, inst.n_vars)
                         + 1j * rng.integers(-2, 3, inst.n_vars))
            assert_matches_reference(dataclasses.replace(inst, b=b), p, 1)
            # a band given rather than derived from the bins
            assert_matches_reference(
                dataclasses.replace(inst, b=b, q=dyadic[:p + 1]), p, 1)

    def test_rounded_sums_keep_the_forward_order(self):
        # linear terms near 2^51, where a float64 ulp is 0.5 and each stage
        # sum rounds: the backtrack finds the forward pass's minimizers only
        # if it adds the same terms in the same order
        rng = np.random.default_rng(76)
        for p in (1, 2, 3):
            for _ in range(10):
                inst = random_instance(p + 5, rng)
                m = inst.n_vars
                b = 2.0 ** 51 + rng.normal(size=m) + 1j * rng.normal(size=m)
                assert_matches_reference(dataclasses.replace(inst, b=b), p, 1)

    @pytest.mark.parametrize("p,v", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2)])
    def test_all_tied_tables_pick_smallest_index(self, p, v):
        # with no coupling and a real linear term every stage column ties
        # across the imaginary parts, so the tie-break alone fixes them:
        # real part v (b = -1), imaginary part -v (smallest index)
        rng = np.random.default_rng(73)
        inst = random_instance(11, rng)
        flat = dataclasses.replace(inst, q=np.zeros(p + 1, dtype=complex))
        eps = assert_matches_reference(
            dataclasses.replace(flat, b=-np.ones(inst.n_vars, dtype=complex)), p, v)
        np.testing.assert_array_equal(eps, np.full(inst.n_vars, v - 1j * v))
        eps = assert_matches_reference(
            dataclasses.replace(flat, b=np.zeros(inst.n_vars, dtype=complex)), p, v)
        np.testing.assert_array_equal(eps, np.full(inst.n_vars, -v - 1j * v))

    def test_ties_go_to_last_variable_first(self):
        # the second draw of test_random_instances[2-1]: several states tie
        # at the minimum, and brute force (leading variable most significant)
        # picks another of them
        rng = np.random.default_rng(91)
        for _ in range(2):
            inst = random_instance(int(rng.integers(5, 14)), rng)
        assert inst.n_vars == 4 and list(inst.bins) == [0, 2]
        p, v = 2, 1
        eps, stats = dp_solve(inst, p, v, return_stats=True)
        np.testing.assert_array_equal(eps, [-1 + 1j, 1 - 1j, -1, -1j])
        eps_bf = brute_force_solve(inst, p, v)
        np.testing.assert_array_equal(eps_bf, [-1, -1j, -1 + 1j, 1 - 1j])
        assert banded_objective(inst, eps, p) == banded_objective(inst, eps_bf, p) \
            == -4.888230670450156
        # one stage per variable, each the size check_dp admits
        assert stats.n_stages == inst.n_vars
        assert stats.candidates_evaluated == inst.n_vars * (2 * v + 1) ** (2 * (p + 1))
        assert_matches_reference(inst, p, v)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("extra", [2, 3])
    def test_shortest_instances(self, p, extra):
        # n_vars = p + 2: one forward stage and one backtrack step;
        # n_vars = p + 3: two of each
        rng = np.random.default_rng(75 + 10 * p + extra)
        for _ in range(4):
            inst = random_instance(p + extra + 1, rng)
            assert inst.n_vars == p + extra
            eps = assert_matches_reference(inst, p, 1)
            assert banded_objective(inst, eps, p) == pytest.approx(
                banded_objective(inst, brute_force_solve(inst, p, 1), p), abs=1e-9)

    def test_reference_scenes(self):
        # n=512, k=3, p=3: the scene of the paper's reference experiment,
        # solved on the instance term and on a re-centred one; a fourth scene
        # at p=4, the widest table in use
        rng = np.random.default_rng(74)
        bins = select_subset(512, 10.0, 0.04)
        for p in (3, 3, 3, 4):
            spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 512)
            g = add_noise(synth_line_spectral(spec, 512), 30.0, rng)
            inst = build_instance(modulo_sample(g, 0.7), 0.7, bins)
            eps = assert_matches_reference(inst, p, 1)
            assert_matches_reference(
                inst.with_observation(inst.z_s + inst.forward(eps)), p, 1)


class TestBruteForce:
    def test_covers_full_candidate_set(self):
        # m = 3, V = 1: 9^3 = 729 candidates; cross-check an explicit loop
        rng = np.random.default_rng(62)
        inst = random_instance(4, rng)
        eps = brute_force_solve(inst, 1, 1, use_banded=True)
        assert banded_objective(inst, eps, 1) == pytest.approx(
            exhaustive_minimum(inst, 1, 1), abs=1e-12)

    def test_exact_objective_mode(self):
        rng = np.random.default_rng(63)
        inst = random_instance(5, rng)
        eps = brute_force_solve(inst, 1, 1, use_banded=False)
        states = state_alphabet(1)
        q = inst.q_dense()
        best = min(
            np.real(np.conj(np.array(c)) @ q @ np.array(c))
            + 2 * np.real(np.conj(inst.b) @ np.array(c))
            for c in itertools.product(states, repeat=4))
        val = np.real(np.conj(eps) @ q @ eps) + 2 * np.real(np.conj(inst.b) @ eps)
        assert val == pytest.approx(best, abs=1e-12)

    def test_banded_exact_gap_bounded(self):
        rng = np.random.default_rng(64)
        inst = random_instance(8, rng)
        gap_norm = np.linalg.norm(inst.q_dense() - inst.q_banded_dense(1), "fro")
        for _ in range(50):
            eps = (rng.integers(-1, 2, 7) + 1j * rng.integers(-1, 2, 7)).astype(complex)
            exact_form = np.real(np.conj(eps) @ inst.q_dense() @ eps) \
                + 2 * np.real(np.conj(inst.b) @ eps)
            gap = abs(banded_objective(inst, eps, 1) - exact_form)
            assert gap <= gap_norm * np.linalg.norm(eps) ** 2 + 1e-9

    def test_budget_guard(self):
        rng = np.random.default_rng(65)
        inst = random_instance(30, rng)
        with pytest.raises(ValueError):
            brute_force_solve(inst, 1, 1)
