import numpy as np
import pytest

import modlse.pipeline as pipeline
from modlse import (
    PipelineConfig,
    QuadraticInstance,
    accept_if_improves,
    add_noise,
    build_instance,
    exact_objective,
    gen_random_spectrum,
    modulo_sample,
    omp_refine,
    recover_residual,
    synth_line_spectral,
)


def planted_instance(rng, n=64, subset_size=45, noise=1e-3, bins=None):
    """Instance whose exact minimizer is a known small lattice vector."""
    m = n - 1
    if bins is None:
        bins = np.sort(rng.choice(np.arange(m), size=subset_size, replace=False))
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    inst = build_instance(y, 0.5, bins)
    eps_true = (rng.integers(-1, 2, m) + 1j * rng.integers(-1, 2, m)).astype(complex)
    z = -inst.forward(eps_true)
    z = z + noise * (rng.normal(size=bins.size) + 1j * rng.normal(size=bins.size))
    return inst.with_observation(z), eps_true


def reference_refine(inst, eps_hat):
    """Dense oracle of :func:`omp_refine`: normal equations on ``q_dense()``.

    Stops on the first rounded update with no strict decrease.
    """
    m = inst.n_vars
    fs = np.exp(-2j * np.pi * np.outer(inst.bins, np.arange(m)) / m) / np.sqrt(m)
    q = inst.q_dense()
    base = inst.z_s + fs @ eps_hat
    rhs = -(fs.conj().T @ base)
    best_obj = np.vdot(base, base).real
    best_delta, residual, support = np.zeros(m, dtype=complex), base, []
    while True:
        corr = np.abs(fs.conj().T @ residual)
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        fit = np.linalg.solve(q[np.ix_(support, support)], rhs[support])
        delta = np.zeros(m, dtype=complex)
        delta[support] = np.round(fit.real) + 1j * np.round(fit.imag)
        candidate = base + fs @ delta
        obj = np.vdot(candidate, candidate).real
        if not obj < best_obj:
            break
        best_obj, best_delta, residual = obj, delta, candidate
    return best_delta


class TestOmpRefine:
    def test_no_improving_atom_returns_zero(self):
        rng = np.random.default_rng(70)
        inst, eps_true = planted_instance(rng)
        delta = omp_refine(inst, eps_true)
        np.testing.assert_array_equal(delta, np.zeros(inst.n_vars, dtype=complex))

    def test_recovers_planted_single_error(self):
        rng = np.random.default_rng(71)
        hits = 0
        for _ in range(200):
            inst, eps_true = planted_instance(rng)
            wrong = eps_true.copy()
            pos = int(rng.integers(0, inst.n_vars))
            wrong[pos] += 1.0
            delta = omp_refine(inst, wrong)
            hits += int(np.array_equal(wrong + delta, eps_true))
        assert hits >= 190

    def test_recovers_planted_double_error(self):
        rng = np.random.default_rng(72)
        hits = 0
        for _ in range(200):
            inst, eps_true = planted_instance(rng)
            wrong = eps_true.copy()
            pos = rng.choice(inst.n_vars, size=2, replace=False)
            wrong[pos[0]] += 1.0
            wrong[pos[1]] -= 1.0 + 1.0j
            delta = omp_refine(inst, wrong)
            hits += int(np.array_equal(wrong + delta, eps_true))
        assert hits >= 190

    def test_never_increases_objective(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            inst, eps_true = planted_instance(rng, noise=0.3)
            start = (rng.integers(-1, 2, inst.n_vars)
                     + 1j * rng.integers(-1, 2, inst.n_vars)).astype(complex)
            delta = omp_refine(inst, start)
            assert exact_objective(inst, start + delta) <= \
                exact_objective(inst, start) + 1e-12

    def test_output_stays_on_lattice_and_may_leave_state_bound(self):
        rng = np.random.default_rng(74)
        inst, eps_true = planted_instance(rng)
        # plant an error of magnitude 3: the correction must go beyond |1|
        wrong = eps_true.copy()
        wrong[5] += 3.0
        delta = omp_refine(inst, wrong)
        assert np.all(delta.real == np.round(delta.real))
        assert np.all(delta.imag == np.round(delta.imag))
        assert np.array_equal(wrong + delta, eps_true)
        assert np.max(np.abs(delta.real)) == 3.0

    def test_corrects_more_errors_than_a_quarter_of_the_band(self):
        # 16 planted errors on |S| = 45 bins, more than ceil(|S|/4) = 12: the
        # pass stops on its own guards only, so it corrects all 16, and a
        # second pass from the truth finds nothing left to correct
        rng = np.random.default_rng(75)
        inst, eps_true = planted_instance(rng)
        assert inst.bins.size == 45
        start = eps_true.copy()
        start[rng.choice(inst.n_vars, size=16, replace=False)] += 1.0
        delta = omp_refine(inst, start)
        np.testing.assert_array_equal(start + delta, eps_true)
        assert not omp_refine(inst, start + delta).any()

    def test_repeated_update_stops_the_pass(self, monkeypatch):
        # trial 4 of the 14 dB point of a (30, 14) dB snr_sweep at seed
        # 20240601 (dp_omp_iter, n=512, gamma=10, lam=0.7, k=3): in the first
        # pass a refit at support size 4 rounds to the update already kept
        # (the new coefficient rounds to 0); a column product summed in
        # another order scores it 7e-15 lower, which is no decrease, so the
        # pass must stop there with 3 nonzero corrections
        rng = np.random.default_rng(np.random.SeedSequence((20240601, 1, 4)))
        spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 512)
        g = add_noise(synth_line_spectral(spec, 512), 14.0, rng)
        calls = []

        def recorded(inst, eps_hat):
            calls.append((inst, eps_hat))
            return omp_refine(inst, eps_hat)

        monkeypatch.setattr(pipeline, "omp_refine", recorded)
        recover_residual(modulo_sample(g, 0.7), PipelineConfig(p=3, beta=0.04),
                         0.7, 10.0, "dp_omp_iter")
        assert len(calls) == 2
        for inst, eps_hat in calls:
            np.testing.assert_array_equal(omp_refine(inst, eps_hat),
                                          reference_refine(inst, eps_hat))
        assert np.count_nonzero(omp_refine(*calls[0])) == 3

    def test_singular_gram_block_stops_the_pass(self, monkeypatch):
        # every even bin of a 32-point domain: columns j and j + 16 coincide
        # on the rows, so a support holding both has a singular Gram block
        blocks = []
        gram = QuadraticInstance.gram

        def recorded(inst, idx):
            blocks.append(gram(inst, idx))
            return blocks[-1]

        monkeypatch.setattr(QuadraticInstance, "gram", recorded)
        rng = np.random.default_rng(80)
        for _ in range(200):
            inst, eps_true = planted_instance(rng, n=33, noise=0.1,
                                              bins=np.arange(0, 31, 2))
            start = eps_true.copy()
            start[rng.integers(0, inst.n_vars)] += 1.0
            delta = omp_refine(inst, start)
            np.testing.assert_array_equal(delta, np.round(delta.real)
                                          + 1j * np.round(delta.imag))
            assert exact_objective(inst, start + delta) <= exact_objective(inst, start)
        singular = sum(np.linalg.matrix_rank(b) < b.shape[0] for b in blocks)
        assert singular > 0

    def test_rejects_length_mismatch(self):
        rng = np.random.default_rng(76)
        inst, _ = planted_instance(rng)
        with pytest.raises(ValueError):
            omp_refine(inst, np.zeros(3, dtype=complex))


class TestAcceptIfImproves:
    def test_zero_delta_unchanged(self):
        rng = np.random.default_rng(77)
        inst, eps_true = planted_instance(rng)
        zero = np.zeros(inst.n_vars, dtype=complex)
        trace = [exact_objective(inst, eps_true)]
        out = accept_if_improves(inst, eps_true, zero, trace)
        np.testing.assert_array_equal(out, eps_true)
        assert trace[1] == trace[0]

    def test_improving_delta_accepted(self):
        rng = np.random.default_rng(78)
        inst, eps_true = planted_instance(rng)
        wrong = eps_true.copy()
        wrong[3] += 1.0
        fix = np.zeros(inst.n_vars, dtype=complex)
        fix[3] = -1.0
        trace = [exact_objective(inst, wrong)]
        out = accept_if_improves(inst, wrong, fix, trace)
        np.testing.assert_array_equal(out, eps_true)
        assert trace[1] == exact_objective(inst, eps_true) < trace[0]

    def test_worsening_delta_rejected(self):
        rng = np.random.default_rng(79)
        inst, eps_true = planted_instance(rng)
        bad = np.zeros(inst.n_vars, dtype=complex)
        bad[0] = 5.0
        trace = [exact_objective(inst, eps_true)]
        out = accept_if_improves(inst, eps_true, bad, trace)
        np.testing.assert_array_equal(out, eps_true)
        assert trace[1] == trace[0]

    def test_zero_delta_skips_objective(self, monkeypatch):
        # a zero delta is rejected as the input object itself, without
        # evaluating the objective; any other delta costs one evaluation,
        # since the trace already holds the objective of the input
        from modlse import omp

        calls = []

        def counted(inst, eps):
            calls.append(1)
            return exact_objective(inst, eps)

        monkeypatch.setattr(omp, "exact_objective", counted)
        rng = np.random.default_rng(77)
        inst, eps_true = planted_instance(rng)
        trace = [exact_objective(inst, eps_true)]
        assert accept_if_improves(inst, eps_true,
                                  np.zeros(inst.n_vars, dtype=complex),
                                  trace) is eps_true
        assert calls == []
        bad = np.zeros(inst.n_vars, dtype=complex)
        bad[0] = 5.0
        assert accept_if_improves(inst, eps_true, bad, trace) is eps_true
        assert len(calls) == 1
        assert trace == [trace[0]] * 3
