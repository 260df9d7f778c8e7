import math
import re

import numpy as np
import pytest

from modlse import (
    anti_difference,
    banded_objective,
    beta_limits,
    brute_force_solve,
    build_instance,
    dft,
    dp_solve,
    exact_objective,
    first_difference,
    gen_random_spectrum,
    modulo_sample,
    omp_refine,
    select_subset,
    select_subset_tail,
    synth_line_spectral,
)


def unitary_dft_matrix(m):
    return np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)


def dense_fs(inst):
    """Dense ``F_s`` (|S| x n_vars): the rows of the unitary DFT at the bins."""
    return unitary_dft_matrix(inst.n_vars)[inst.bins]


class TestFirstDifference:
    def test_small_example(self):
        np.testing.assert_array_equal(first_difference(np.array([0, 1, 3])), [1, 2])

    def test_constant_gives_zero(self):
        np.testing.assert_array_equal(first_difference(np.full(5, 2.5)), np.zeros(4))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            first_difference(np.array([1.0]))

    def test_differenced_spectrum_matrix_oracle(self):
        # dft(first_difference(x)) must equal F J A(omega) c built densely
        rng = np.random.default_rng(21)
        n = 16
        spec = gen_random_spectrum(2, 4.0, rng)
        x = synth_line_spectral(spec, n)
        eye = np.eye(n)
        j_mat = eye[1:, :] - eye[:-1, :]
        a_mat = np.exp(1j * np.outer(np.arange(n), spec.omegas))
        expected = unitary_dft_matrix(n - 1) @ j_mat @ a_mat @ spec.coeffs
        np.testing.assert_allclose(dft(first_difference(x)), expected, atol=1e-12)


class TestAntiDifference:
    def test_small_example(self):
        np.testing.assert_array_equal(anti_difference(np.array([1, 1j, -1])),
                                      [0, 1, 1 + 1j, 1j])

    def test_inverse_up_to_constant(self):
        rng = np.random.default_rng(22)
        v = rng.normal(size=20) + 1j * rng.normal(size=20)
        np.testing.assert_allclose(anti_difference(first_difference(v)),
                                   v - v[0], atol=1e-12)

    def test_exact_on_gaussian_integers(self):
        rng = np.random.default_rng(23)
        v = rng.integers(-5, 6, 50) + 1j * rng.integers(-5, 6, 50)
        recovered = anti_difference(first_difference(v)) + v[0]
        np.testing.assert_array_equal(recovered, v.astype(complex))

    def test_empty_input(self):
        np.testing.assert_array_equal(anti_difference(np.array([])), [0.0])


class TestDft:
    def test_all_ones(self):
        out = dft(np.ones(9))
        expected = np.zeros(9, dtype=complex)
        expected[0] = 3.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_delta(self):
        v = np.zeros(8)
        v[0] = 1.0
        np.testing.assert_allclose(dft(v), np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(24)
        v = rng.normal(size=17) + 1j * rng.normal(size=17)
        naive = np.array([
            sum(v[t] * np.exp(-2j * np.pi * m * t / 17) for t in range(17))
            for m in range(17)
        ]) / np.sqrt(17)
        np.testing.assert_allclose(dft(v), naive, atol=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(25)
        for size in (5, 32, 100):
            v = rng.normal(size=size) + 1j * rng.normal(size=size)
            assert abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) < 1e-10


class TestSelectSubset:
    def test_reference_selection(self):
        sel = select_subset(512, 10.0, 0.04)
        # 1-based element numbers 73..491 are 0-based bins 72..490
        np.testing.assert_array_equal(sel, np.arange(72, 491))
        assert np.issubdtype(sel.dtype, np.integer)

    def test_beta_bounds(self):
        select_subset(512, 10.0, 0.25)  # inside (1/511, 0.45)
        with pytest.raises(ValueError):
            select_subset(512, 10.0, 0.46)
        with pytest.raises(ValueError):
            select_subset(512, 10.0, 1 / 511)

    def test_near_minimal_beta_maximizes_subset(self):
        lo, _ = beta_limits(128, 8.0)
        small = select_subset(128, 8.0, lo * 1.01)
        bigger_beta = select_subset(128, 8.0, 0.1)
        assert small.size > bigger_beta.size

    def test_cardinality_approximation(self):
        sel = select_subset(512, 10.0, 0.04)
        approx = 511 * (1 - 1 / 10.0 - 2 * 0.04)
        assert abs(sel.size - approx) <= 2

    def test_tail_variant(self):
        # 1-based elements floor(511/10)+2 .. 511 are 0-based bins 52 .. 510
        sel = select_subset_tail(512, 10.0)
        np.testing.assert_array_equal(sel, np.arange(52, 511))
        assert np.issubdtype(sel.dtype, np.integer)

    @pytest.mark.parametrize("n", [16, 128, 512])
    @pytest.mark.parametrize("gamma", [np.nextafter(1.0, 2.0), 1.0 + 1e-6, 1.001])
    def test_gamma_just_above_one_rejected(self, n, gamma):
        # the signal band covers every bin, so no guard band is left
        lo, hi = beta_limits(n, gamma)
        assert hi < lo
        with pytest.raises(ValueError, match=re.escape(
                f"gamma={gamma} leaves no admissible beta at n={n}")):
            select_subset(n, gamma, 0.5 * (lo + hi))
        with pytest.raises(ValueError, match=re.escape(
                f"gamma={gamma} leaves no guard band at n={n}: the first tail "
                f"bin floor((n-1)/gamma) + 1 = {n - 1} is not below n - 1 = {n - 1}")):
            select_subset_tail(n, gamma)

    @pytest.mark.parametrize("n,gamma", [(7, 4.0), (16, 4.0), (128, 8.0), (512, 10.0)])
    def test_beta_at_interval_ends_rejected(self, n, gamma):
        for beta in beta_limits(n, gamma):
            with pytest.raises(ValueError, match="outside admissible interval"):
                select_subset(n, gamma, beta)


def make_instance(n=16, gamma=4.0, beta=0.08, seed=26, lam=0.5):
    rng = np.random.default_rng(seed)
    spec = gen_random_spectrum(2, gamma, rng)
    g = synth_line_spectral(spec, n) + 0.05 * (rng.normal(size=n)
                                               + 1j * rng.normal(size=n))
    y = modulo_sample(g, lam)
    return build_instance(y, lam, select_subset(n, gamma, beta)), y


class TestBuildInstance:
    def test_full_subset_gives_identity_gram(self):
        # bypass the beta constraint: select every bin directly
        n = 12
        rng = np.random.default_rng(27)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        inst = build_instance(y, 0.5, np.arange(n - 1))
        np.testing.assert_allclose(inst.q_dense(), np.eye(n - 1), atol=1e-12)

    def test_gram_matches_dense_product(self):
        inst, _ = make_instance()
        fs = dense_fs(inst)
        np.testing.assert_allclose(inst.q_dense(), fs.conj().T @ fs, atol=1e-12)

    def test_banded_gram_zeroes_outside_band(self):
        inst, _ = make_instance()
        qb = inst.q_banded_dense(2)
        q = inst.q_dense()
        m = inst.n_vars
        for i in range(m):
            for jj in range(m):
                if abs(i - jj) <= 2:
                    assert qb[i, jj] == q[i, jj]
                else:
                    assert qb[i, jj] == 0

    def test_diagonal_is_subset_fraction(self):
        inst, _ = make_instance(n=32, gamma=8.0, beta=0.05)
        expected = inst.bins.size / inst.n_vars
        np.testing.assert_allclose(np.diag(inst.q_dense()), expected, atol=1e-12)

    def test_observation_definition(self):
        inst, y = make_instance(lam=0.5)
        expected = dft(first_difference(y))[inst.bins] / 1.0
        np.testing.assert_allclose(inst.z_s, expected, atol=1e-12)

    def test_linear_term_is_adjoint_of_observation(self):
        inst, _ = make_instance()
        fs = dense_fs(inst)
        np.testing.assert_allclose(inst.b, fs.conj().T @ inst.z_s, atol=1e-12)

    def test_forward_adjoint_match_dense(self):
        inst, _ = make_instance()
        rng = np.random.default_rng(28)
        v = rng.normal(size=inst.n_vars) + 1j * rng.normal(size=inst.n_vars)
        u = rng.normal(size=inst.bins.size) + 1j * rng.normal(size=inst.bins.size)
        fs = dense_fs(inst)
        np.testing.assert_allclose(inst.forward(v), fs @ v, atol=1e-12)
        np.testing.assert_allclose(inst.adjoint(u), fs.conj().T @ u, atol=1e-12)

    def test_gram_block_in_selection_order(self):
        # a greedy support is kept in selection order, not sorted
        inst, _ = make_instance()
        idx = np.array([7, 2, 11, 0, 5, 3])
        np.testing.assert_array_equal(inst.gram(idx),
                                      inst.q_dense()[np.ix_(idx, idx)])
        fs = dense_fs(inst)[:, idx]
        np.testing.assert_allclose(inst.gram(idx), fs.conj().T @ fs, atol=1e-12)

    @pytest.mark.parametrize("bins,problem", [
        # three bins from 5 to 7 would pass for the block 5..7 in the Gram
        ([5, 3, 7], "strictly increasing"),
        # a repeated row would leave forward and adjoint no longer adjoint
        ([3, 3, 5], "strictly increasing"),
        ([], "non-empty"),
        ([[3, 4], [5, 6]], "1-D"),
        ([3.0, 4.0], "integer array, got float64"),
        ([True, False], "integer array, got bool"),
        ([9, 10, 11], "outside 0..10"),  # bin n-1: past the 11-point DFT
        ([-1, 0, 1], "outside 0..10"),
    ], ids=["unsorted", "duplicate", "empty", "2d", "float", "bool",
            "out_of_range_high", "out_of_range_low"])
    def test_bad_bins_rejected(self, bins, problem):
        y = np.zeros(12, dtype=complex)
        with pytest.raises(ValueError, match=problem):
            build_instance(y, 0.5, np.array(bins))

    def test_recentering_preserves_geometry(self):
        inst, _ = make_instance()
        rng = np.random.default_rng(29)
        z_new = rng.normal(size=inst.bins.size) + 1j * rng.normal(size=inst.bins.size)
        moved = inst.with_observation(z_new)
        assert moved.q is inst.q and moved.bins is inst.bins
        fs = dense_fs(inst)
        np.testing.assert_allclose(moved.b, fs.conj().T @ z_new, atol=1e-12)


class TestGramSpectrum:
    def test_hermitian_toeplitz_and_eigenvalue_range(self):
        for n, gamma, beta in ((16, 4.0, 0.08), (33, 5.0, 0.1), (64, 8.0, 0.05)):
            inst, _ = make_instance(n=n, gamma=gamma, beta=beta)
            q = inst.q_dense()
            np.testing.assert_allclose(q, q.conj().T, atol=1e-12)
            for d in range(1, q.shape[0]):
                diag = np.diagonal(q, offset=d)
                np.testing.assert_allclose(diag, diag[0], atol=1e-12)
            eig = np.linalg.eigvalsh(q)
            assert eig.min() >= -1e-9
            assert eig.max() <= 1 + 1e-9


    @pytest.mark.parametrize("n,bins", [
        (512, select_subset(512, 10.0, 0.04)),
        (1024, select_subset(1024, 10.0, 0.04)),
        (1024, select_subset(1024, 3.0, 0.01)),
        (1024, np.sort(np.random.default_rng(30).choice(1023, 600, replace=False))),
        (200, np.sort(np.random.default_rng(31).choice(199, 17, replace=False))),
    ], ids=["contiguous_512", "contiguous_1024", "wide_1024", "random_1024",
            "sparse_200"])
    def test_offsets_match_exact_sum(self, n, bins):
        # q[d] = Q[0, d], the first row of F_s^H F_s; reference: every angle
        # 2*pi*(s*d mod m)/m reduced exactly in integers, the terms summed
        # without rounding by math.fsum
        inst = build_instance(np.zeros(n), 0.5, bins)
        fs = dense_fs(inst)
        np.testing.assert_allclose(inst.q, fs[:, 0].conj() @ fs, rtol=0, atol=1e-12)
        m = n - 1
        reduced = np.outer(np.arange(m), bins) % m
        angle = 2.0 * np.pi * np.where(reduced > m // 2, reduced - m, reduced) / m
        exact = np.array([complex(math.fsum(c), -math.fsum(s)) / m
                          for c, s in zip(np.cos(angle), np.sin(angle))])
        assert np.max(np.abs(inst.q - exact)) <= 1e-15


class TestNarrowGuardBand:
    # n = 7, gamma = 4: beta 0.17 keeps bins 3..4, beta 0.3 keeps bin 4 only
    @pytest.mark.parametrize("beta,size", [(0.17, 2), (0.3, 1)])
    @pytest.mark.parametrize("p", [1, 2])
    def test_solvers_run_on_one_or_two_bins(self, beta, size, p):
        rng = np.random.default_rng(31)
        n, gamma, lam = 7, 4.0, 0.5
        bins = select_subset(n, gamma, beta)
        assert bins.size == size
        g = synth_line_spectral(gen_random_spectrum(1, gamma, rng), n)
        inst = build_instance(modulo_sample(g, lam), lam, bins)
        fs = dense_fs(inst)
        assert fs.shape == (size, n - 1)
        eps_dp = dp_solve(inst, p, 1)
        eps_bf = brute_force_solve(inst, p, 1, use_banded=True)
        assert banded_objective(inst, eps_dp, p) == pytest.approx(
            banded_objective(inst, eps_bf, p), abs=1e-9)
        for eps in (np.zeros(inst.n_vars, dtype=complex), eps_dp):
            assert exact_objective(inst, eps) == pytest.approx(
                np.linalg.norm(inst.z_s + fs @ eps) ** 2, rel=1e-12, abs=1e-12)
            delta = omp_refine(inst, eps)
            np.testing.assert_array_equal(delta, np.round(delta.real)
                                          + 1j * np.round(delta.imag))
            assert np.count_nonzero(delta) <= bins.size  # Q has rank |S|
            assert exact_objective(inst, eps + delta) <= exact_objective(inst, eps)


class TestExactObjective:
    def test_matches_dense_norm(self):
        inst, _ = make_instance()
        rng = np.random.default_rng(30)
        eps = rng.integers(-2, 3, inst.n_vars) + 1j * rng.integers(-2, 3, inst.n_vars)
        fs = dense_fs(inst)
        expected = np.linalg.norm(inst.z_s + fs @ eps) ** 2
        assert exact_objective(inst, eps) == pytest.approx(expected, rel=1e-12)
