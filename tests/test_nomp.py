import numpy as np
import pytest

from modlse import (
    LineSpectrum,
    add_noise,
    gen_bandlimited,
    gen_random_spectrum,
    nmse,
    nomp,
    synth_line_spectral,
)
from modlse.lse import (
    GRID_OVERSAMPLE,
    _atoms,
    _detect,
    _drop_lossless,
    _newton_refine,
    _phasor_atoms,
    _project,
    _swap_weakest,
    _vp_refine,
    _vp_system,
)


class TestNomp:
    def test_single_on_grid_sinusoid_exact(self):
        n = 128
        omega = 2 * np.pi * 5 / n
        coeff = 1.3 * np.exp(0.4j)
        x = synth_line_spectral(LineSpectrum([omega], [coeff]), n)
        est = nomp(x, 1)
        assert est.order == 1
        assert abs(est.omegas[0] - omega) < 1e-8
        assert abs(est.coeffs[0] - coeff) < 1e-8

    def test_well_separated_off_grid_drives_residual_down(self):
        n = 256
        omegas = np.array([0.11, 0.11 + 5 * 2 * np.pi / n, 0.11 + 11 * 2 * np.pi / n])
        coeffs = np.array([1.0, 0.8 * np.exp(1j), 1.2 * np.exp(-0.5j)])
        x = synth_line_spectral(LineSpectrum(omegas, coeffs), n)
        est = nomp(x, 3)
        resid = x - synth_line_spectral(est, n)
        assert np.linalg.norm(resid) ** 2 < 1e-10 * np.linalg.norm(x) ** 2

    def test_success_rate_on_unfolded_noisy_data(self):
        # baseline for the end-to-end success criterion: the estimator alone
        # must succeed nearly always at 30 dB
        rng = np.random.default_rng(80)
        n = 512
        wins = 0
        for _ in range(100):
            spec = gen_random_spectrum(3, 10.0, rng,
                                       min_separation=2 * np.pi / n)
            x = synth_line_spectral(spec, n)
            g = add_noise(x, 30.0, rng)
            est = nomp(g, 3)
            wins += int(nmse(synth_line_spectral(est, n), x) < -15.0)
        assert wins >= 95

    def test_fit_on_noisy_bandlimited_data(self):
        # the estimator alone on the bandlimited scenes of criterion 11's
        # kind: every scene must fit the noise-free signal well at 30 dB
        rng = np.random.default_rng(80)
        n = 200
        for _ in range(12):
            x = gen_bandlimited(n, 10.0, rng)
            est = nomp(add_noise(x, 30.0, rng), 20)
            assert nmse(synth_line_spectral(est, n), x) < -30.0

    def test_frequencies_wrapped_and_distinct(self):
        rng = np.random.default_rng(81)
        spec = gen_random_spectrum(4, 6.0, rng, min_separation=2 * np.pi / 128)
        g = add_noise(synth_line_spectral(spec, 128), 20.0, rng)
        est = nomp(g, 4)
        assert np.all(est.omegas >= 0) and np.all(est.omegas < 2 * np.pi)
        if est.order > 1:
            gaps = np.diff(np.sort(est.omegas))
            assert np.min(gaps) >= 0.5 * 2 * np.pi / 128

    def test_duplicate_merge_sums_amplitudes(self):
        # one strong sinusoid, asked for two components: the spurious twin
        # must be merged back into a single atom
        n = 64
        x = synth_line_spectral(LineSpectrum([0.5], [2.0 + 0j]), n)
        est = nomp(x, 2)
        assert est.order <= 2
        total = np.sum(est.coeffs[np.abs(est.omegas - 0.5) < 0.1])
        assert abs(total - 2.0) < 1e-6

    @pytest.mark.parametrize("k", [2, 3])
    def test_on_grid_tone_comes_back_as_one_atom(self, k):
        # after the first detection the residual is at rounding level, so
        # detection stops there
        n = 64
        omega = 2 * np.pi * 5 / n
        coeff = 1.3 * np.exp(0.4j)
        est = nomp(synth_line_spectral(LineSpectrum([omega], [coeff]), n), k)
        assert est.order == 1
        assert abs(est.omegas[0] - omega) < 1e-12
        assert abs(est.coeffs[0] - coeff) < 1e-12

    @pytest.mark.parametrize("bins", [1.875, 6.5625])
    def test_tone_above_true_order_comes_back_as_one_atom(self, bins):
        # a second detection on a rounding-level residual used to return an
        # atom at omega 0 or pi with |c| near 1e-16
        n = 512
        omega = 2 * np.pi * bins / n
        est = nomp(synth_line_spectral(LineSpectrum([omega], [1.0]), n), 2)
        assert est.order == 1
        assert abs(est.omegas[0] - omega) < 1e-12
        assert abs(est.coeffs[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("rel_db", [-20.0, -30.0, -40.0])
    def test_finds_weak_target_beside_strong_one(self, rel_db):
        # the paper's case: a weak target 4 bins or more from one 3x stronger
        # than unit, at 50 dB SNR; found means within half a bin, wrapped
        rng = np.random.default_rng(5)
        n = 512
        found = 0
        for _ in range(40):
            spec = gen_random_spectrum(2, 10.0, rng, min_separation=4 * 2 * np.pi / n)
            coeffs = spec.coeffs / np.abs(spec.coeffs) * [3.0, 10.0 ** (rel_db / 20.0)]
            x = synth_line_spectral(LineSpectrum(spec.omegas, coeffs), n)
            est = nomp(add_noise(x, 50.0, rng), 2)
            miss = np.angle(np.exp(1j * (est.omegas - spec.omegas[1])))
            found += int(np.min(np.abs(miss)) <= np.pi / n)
        assert found >= 38

    @pytest.mark.parametrize("bins", [(10.0, 30.0), (10.3, 30.6), (10.0, 11.5)])
    @pytest.mark.parametrize("k", [3, 4])
    def test_spare_order_on_exact_tones_is_dropped(self, bins, k):
        n = 128
        omegas = 2 * np.pi * np.array(bins) / n
        x = synth_line_spectral(LineSpectrum(omegas, [1.0, 0.4j]), n)
        est = nomp(x, k)
        assert est.order == 2
        np.testing.assert_allclose(np.sort(est.omegas), omegas, rtol=0.0, atol=1e-12)

    def test_finds_weak_target_beside_close_strong_pair(self):
        # a greedy start biased by the pair leaves leakage above the weak
        # tone; the exchange step recovers it (the schedule before
        # variable projection found 14 of these 40)
        rng = np.random.default_rng(5)
        n = 512
        found = 0
        for _ in range(40):
            w0 = rng.uniform(0.0, 2.0 * np.pi)
            weak = w0 + rng.choice([-1, 1]) * rng.uniform(4.0, 40.0) * 2 * np.pi / n
            pair = w0 + rng.uniform(1.2, 2.0) * 2 * np.pi / n
            coeffs = np.exp(2j * np.pi * rng.uniform(size=3)) * [1.0, 1.0, 0.05]
            x = synth_line_spectral(
                LineSpectrum(np.array([w0, pair, weak]) % (2 * np.pi), coeffs), n)
            est = nomp(add_noise(x, 40.0, rng), 3)
            found += int(np.min(np.abs(np.angle(np.exp(1j * (est.omegas - weak)))))
                         <= np.pi / n)
        assert found >= 36

    def test_more_detections_never_increase_residual(self):
        rng = np.random.default_rng(83)
        spec = gen_random_spectrum(3, 8.0, rng, min_separation=2 * np.pi / 128)
        g = add_noise(synth_line_spectral(spec, 128), 15.0, rng)
        energies = []
        for k in (1, 2, 3):
            est = nomp(g, k)
            energies.append(np.linalg.norm(g - synth_line_spectral(est, 128)))
        assert energies[0] >= energies[1] >= energies[2]

    def test_rejects_excessive_order(self):
        with pytest.raises(ValueError):
            nomp(np.ones(16, dtype=complex), 9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_samples(self, bad):
        g = np.ones(16, dtype=complex)
        g[5] = bad
        g[9] = bad
        with pytest.raises(ValueError, match="2 non-finite sample\\(s\\), first at index 5"):
            nomp(g, 2)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
    def test_rejects_non_integer_order(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            nomp(np.ones(16, dtype=complex), k)

    def test_accepts_numpy_integer_order(self):
        g = synth_line_spectral(LineSpectrum([0.5, 1.5], [1.0, 0.5]), 32)
        assert nomp(g, np.int64(2)).order == 2


def assert_matches_reference_detection(g, k):
    # detection is Newton-refined OMP with a full least-squares refit after
    # every detection
    omegas, a, ginv, coeffs, resid, cost = _detect(g, k)
    ref_w, _, ref_c, ref_r = reference_qr_free_detect(g, k)
    scale = np.linalg.norm(g)
    np.testing.assert_allclose(omegas, ref_w, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(a, _atoms(omegas, g.size), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(coeffs, ref_c, rtol=0.0, atol=1e-8 * scale)
    np.testing.assert_allclose(resid, ref_r, rtol=0.0, atol=1e-8 * scale)
    np.testing.assert_allclose(ginv, np.linalg.inv(a.conj().T @ a),
                               rtol=0.0, atol=1e-8)
    assert cost == float(np.vdot(resid, resid).real)


class TestDetect:
    def test_matches_reference_detection(self):
        rng = np.random.default_rng(87)
        for _ in range(40):
            n = int(rng.integers(4, 300))
            k = int(rng.integers(1, min(n // 2, 8) + 1))
            spec = gen_random_spectrum(k, 2.0, rng)
            assert_matches_reference_detection(
                add_noise(synth_line_spectral(spec, n), rng.uniform(0.0, 40.0), rng), k)

    @pytest.mark.parametrize("n,scenes", [(200, 2), (400, 1)])
    def test_matches_reference_detection_at_bandlimited_order(self, n, scenes):
        # the bench's order (n=200, k=20) and twice it
        rng = np.random.default_rng(88)
        for _ in range(scenes):
            g = add_noise(gen_bandlimited(n, 10.0, rng), 30.0, rng)
            assert_matches_reference_detection(g, n // 10)

    @pytest.mark.parametrize("k", [2, 6])
    def test_stops_once_the_fit_is_exact(self, k):
        # a tone on the periodogram grid is detected exactly
        n = 128
        x = synth_line_spectral(LineSpectrum([2 * np.pi * 10.25 / n], [0.4j]), n)
        omegas, *_, cost = _detect(x, k)
        assert omegas.size == 1
        assert cost <= 1e-24 * float(np.vdot(x, x).real)

    def test_zero_signal_gives_one_zero_atom(self):
        omegas, _, _, coeffs, _, cost = _detect(np.zeros(16, dtype=complex), 3)
        assert omegas.size == 1 and coeffs[0] == 0.0 and cost == 0.0


class TestNewtonRefine:
    def test_matches_reference_newton_refine(self):
        rng = np.random.default_rng(93)
        for _ in range(40):
            n = int(rng.integers(4, 300))
            omega = rng.uniform(0.0, 2.0 * np.pi)
            x = synth_line_spectral(
                LineSpectrum([omega + rng.normal(0.0, 0.3) * 2.0 * np.pi / n], [1.0]), n)
            resid = add_noise(x, rng.uniform(0.0, 40.0), rng)
            assert _newton_refine(omega, resid) == pytest.approx(
                reference_newton_refine(omega, resid, REFERENCE_NEWTON_STEPS),
                abs=1e-9)


def fit_all(g, omegas):
    """Least-squares fit of ``g`` on the atoms of ``omegas``: ``a, coeffs, resid``."""
    a = _atoms(omegas, g.size)
    coeffs, *_ = np.linalg.lstsq(a, g, rcond=None)
    return a, coeffs, g - a @ coeffs


# The detection schedule that plain grid detection replaced (a 4x grid, three
# guarded Newton steps on each new atom, a merge of duplicates and re-issued
# detections), the joint damped Newton pass over frequencies and amplitudes
# that variable projection replaced, and the joint Gauss-Newton pass before
# it.  From the same detection variable projection must end with a residual
# energy no larger than the Gauss-Newton pass and within 1% of the damped
# Newton pass, and nomp must end within 1% of the residual energy the old
# schedule leads to.
REFERENCE_GRID_OVERSAMPLE = 4
REFERENCE_NEWTON_STEPS = 3
REFERENCE_JOINT_ROUNDS = 40


def reference_newton_refine(omega, resid, steps):
    n = np.arange(resid.size)
    for _ in range(steps):
        phase = np.exp(-1j * omega * n)
        s = np.dot(resid, phase)
        s1 = np.dot(-1j * n * resid, phase)
        s2 = np.dot(-(n ** 2) * resid, phase)
        gain = abs(s) ** 2
        d1 = 2.0 * np.real(np.conj(s) * s1)
        d2 = 2.0 * np.real(np.conj(s) * s2) + 2.0 * abs(s1) ** 2
        if d2 >= 0.0:
            break
        step = -d1 / d2
        for _ in range(10):
            cand = (omega + step) % (2.0 * np.pi)
            if abs(np.dot(resid, np.exp(-1j * cand * n))) ** 2 >= gain:
                omega = cand
                break
            step /= 2.0
        else:
            break
    return omega


def reference_merge_duplicates(omegas, coeffs, n):
    tol = 0.1 * 2.0 * np.pi / n
    order = np.argsort(omegas)
    out_w = []
    out_c = []
    for idx in order:
        if out_w and abs(omegas[idx] - out_w[-1]) < tol:
            keep = idx if abs(coeffs[idx]) > abs(out_c[-1]) else None
            out_c[-1] += coeffs[idx]
            if keep is not None:
                out_w[-1] = omegas[idx]
        else:
            out_w.append(float(omegas[idx]))
            out_c.append(complex(coeffs[idx]))
    return np.array(out_w), np.array(out_c)


def reference_gauss_newton(g, omegas):
    n = np.arange(g.size)
    k = omegas.size
    a, coeffs, resid = fit_all(g, omegas)
    cost = float(np.linalg.norm(resid) ** 2)
    floor = 1e-28 * float(np.linalg.norm(g) ** 2)
    for _ in range(REFERENCE_JOINT_ROUNDS):
        if cost <= floor:
            break
        prev_cost = cost
        datom = (1j * n)[:, None] * a * coeffs[None, :]
        jac = np.hstack([a, 1j * a, datom])
        jac = np.vstack([jac.real, jac.imag])
        rhs = np.concatenate([resid.real, resid.imag])
        upd, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        d_coeffs = upd[:k] + 1j * upd[k:2 * k]
        d_omegas = upd[2 * k:]
        step = 1.0
        for _ in range(20):
            cand = (omegas + step * d_omegas) % (2.0 * np.pi)
            a_cand = np.exp(1j * np.outer(n, cand))
            r_cand = g - a_cand @ (coeffs + step * d_coeffs)
            if float(np.linalg.norm(r_cand) ** 2) < cost:
                omegas = cand
                break
            step /= 2.0
        else:
            break
        a, coeffs, resid = fit_all(g, omegas)
        cost = float(np.linalg.norm(resid) ** 2)
        if prev_cost - cost <= 1e-12 * prev_cost:
            break
    return omegas, coeffs, cost


def reference_newton_system(a, coeffs, resid):
    """Half the gradient and half the exact Hessian of ``|g - A(w) c|^2``
    over ``(Re c, Im c, w)``."""
    n, k = a.shape
    t = np.arange(n)
    datom = (1j * t)[:, None] * a * coeffs[None, :]
    jac = np.empty((2, n, 3, k))
    jac[0, :, 0], jac[1, :, 0] = a.real, a.imag
    jac[0, :, 1], jac[1, :, 1] = -a.imag, a.real
    jac[0, :, 2], jac[1, :, 2] = datom.real, datom.imag
    jac = jac.reshape(2 * n, 3 * k)
    grad = -(jac.T @ np.concatenate([resid.real, resid.imag]))
    hess = jac.T @ jac
    u, v = np.conj(np.stack([t * np.conj(resid), t * t * np.conj(resid)]) @ a)
    re, im, w = np.arange(k), np.arange(k, 2 * k), np.arange(2 * k, 3 * k)
    hess[w, w] += (np.conj(coeffs) * v).real
    hess[w, re] -= u.imag
    hess[re, w] -= u.imag
    hess[w, im] += u.real
    hess[im, w] += u.real
    return grad, hess


def reference_damped_newton(g, omegas):
    """Damped Newton on the exact Hessian over all frequencies and
    amplitudes, carrying its own fit, refitted once at the end."""
    n, k = g.size, omegas.size
    a, coeffs, resid = fit_all(g, omegas)
    start_cost = cost = float(np.linalg.norm(resid) ** 2)
    floor = 1e-28 * float(np.linalg.norm(g) ** 2)
    w, c, mu = omegas, coeffs, 1e-3
    for _ in range(REFERENCE_JOINT_ROUNDS):
        if cost <= floor:
            break
        grad, hess = reference_newton_system(a, c, resid)
        diag = np.diag(hess)
        for _ in range(20):
            try:
                upd = np.linalg.solve(hess + np.diag(mu * diag), -grad)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            cand = (w + upd[2 * k:]) % (2.0 * np.pi)
            c_cand = c + upd[:k] + 1j * upd[k:2 * k]
            a_cand = _phasor_atoms(cand, n)
            r_cand = g - a_cand @ c_cand
            cand_cost = float(np.linalg.norm(r_cand) ** 2)
            if cand_cost < cost:
                mu /= 3.0
                break
            mu *= 10.0
        else:
            break
        prev_cost = cost
        w, c, a, resid, cost = cand, c_cand, a_cand, r_cand, cand_cost
        if prev_cost - cost <= 1e-12 * prev_cost:
            break
    if w is not omegas:
        _, c, resid = fit_all(g, w)
        cost = float(np.linalg.norm(resid) ** 2)
        if cost < start_cost:
            return w, c, cost
    return omegas, coeffs, start_cost


def reference_detect(g, k):
    g = np.asarray(g, dtype=complex)
    n = g.size
    omegas = np.zeros(0, dtype=float)
    coeffs = np.zeros(0, dtype=complex)
    resid = g.copy()
    grid = REFERENCE_GRID_OVERSAMPLE * n
    attempts = 0
    while omegas.size < k and attempts < 2 * k:
        attempts += 1
        spectrum = np.fft.fft(resid, grid)
        peak = int(np.argmax(np.abs(spectrum)))
        omega = reference_newton_refine(2.0 * np.pi * peak / grid, resid,
                                        REFERENCE_NEWTON_STEPS)
        omegas = np.append(omegas, omega)
        a, coeffs, resid = fit_all(g, omegas)
        merged_w, _ = reference_merge_duplicates(omegas, coeffs, n)
        if merged_w.size < omegas.size:
            omegas = merged_w
            a, coeffs, resid = fit_all(g, omegas)
    return omegas, a, coeffs, resid


def reference_merge_lossless(g, omegas, coeffs, cost, n):
    """Merge half-bin neighbours only when the refit shows no fit loss.

    ``coeffs`` and ``cost`` are the fit of ``omegas`` and its residual energy.
    True duplicates (two atoms chasing one peak) are nearly collinear, so
    dropping one and refitting re-absorbs its amplitude at no cost.  Close
    pairs that genuinely resolve two components would degrade the fit when
    collapsed, and are kept.
    """
    tol = np.pi / n  # half a DFT bin
    scale = float(np.linalg.norm(g) ** 2)
    while omegas.size > 1:
        order = np.argsort(omegas)
        gaps = np.diff(omegas[order])
        tight = int(np.argmin(gaps))
        if gaps[tight] >= tol:
            break
        i, j = order[tight], order[tight + 1]
        drop = i if abs(coeffs[i]) < abs(coeffs[j]) else j
        cand_w = np.delete(omegas, drop)
        _, cand_c, cand_r = fit_all(g, cand_w)
        cand_cost = float(np.linalg.norm(cand_r) ** 2)
        if cand_cost > cost + 1e-9 * scale:
            break
        omegas, coeffs, cost = cand_w, cand_c, cand_cost
    return omegas, coeffs


def reference_qr_free_detect(g, k):
    """``k`` detections on the ``GRID_OVERSAMPLE`` grid, each refined by
    ``reference_newton_refine`` and followed by a full refit."""
    grid = GRID_OVERSAMPLE * g.size
    omegas = np.zeros(0, dtype=float)
    resid = g
    for _ in range(k):
        peak = int(np.argmax(np.abs(np.fft.fft(resid, grid))))
        omegas = np.append(omegas, reference_newton_refine(
            2.0 * np.pi * peak / grid, resid, REFERENCE_NEWTON_STEPS))
        a, coeffs, resid = fit_all(g, omegas)
    return omegas, a, coeffs, resid


def residual_energy(g, est):
    return float(np.linalg.norm(g - synth_line_spectral(est, g.size)) ** 2)


def assert_matches_reference(g, k):
    detected = _detect(g, k)
    cost = _vp_refine(g, *detected)[-1]
    _, _, gn_cost = reference_gauss_newton(g, detected[0])
    assert cost <= gn_cost * (1.0 + 1e-12)
    _, _, newton_cost = reference_damped_newton(g, detected[0])
    scale = float(np.linalg.norm(g) ** 2)
    assert cost <= 1.01 * newton_cost + 1e-20 * scale
    # the old schedule: its detection, then the damped Newton pass and merge
    old_w, old_c, old_cost = reference_damped_newton(g, reference_detect(g, k)[0])
    old = LineSpectrum(*reference_merge_lossless(g, old_w, old_c, old_cost, g.size))
    assert (residual_energy(g, nomp(g, k))
            <= 1.01 * residual_energy(g, old) + 1e-20 * scale)


class TestNompMatchesReference:
    """Variable projection no worse than Gauss-Newton and within 1% of the
    damped Newton pass from the same detection, and nomp within 1% of the
    residual energy of the old detection schedule."""

    @pytest.mark.parametrize("snr_db", [30.0, 14.0])
    def test_three_lines(self, snr_db):
        rng = np.random.default_rng(84)
        n = 512
        for _ in range(3):
            spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / n)
            assert_matches_reference(
                add_noise(synth_line_spectral(spec, n), snr_db, rng), 3)

    @pytest.mark.parametrize("n,scenes", [(200, 2), (400, 1)])
    def test_bandlimited(self, n, scenes):
        rng = np.random.default_rng(85)
        for _ in range(scenes):
            g = add_noise(gen_bandlimited(n, 10.0, rng), 30.0, rng)
            assert_matches_reference(g, n // 10)

    def test_pair_half_a_bin_apart(self):
        n = 128
        omegas = [1.0, 1.0 + np.pi / n]
        rng = np.random.default_rng(86)
        x = synth_line_spectral(LineSpectrum(omegas, [1.0, 0.7j]), n)
        assert_matches_reference(x, 2)
        assert_matches_reference(add_noise(x, 25.0, rng), 2)


def projected_fit(g, omegas):
    a = _atoms(omegas, g.size)
    return (a, *_project(g, a))


class TestJointRefine:
    """Variable projection over the frequencies."""

    @pytest.mark.parametrize("n,k", [(2, 1), (24, 3), (64, 5)])
    def test_derivatives_match_central_differences(self, n, k):
        # the gradient away from any minimum, where the residual is large;
        # Re(J^H J) at an exact fit, where the term of the Golub-Pereyra
        # Jacobian that Kaufman's drops vanishes
        rng = np.random.default_rng(89)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        omegas = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        _, grad = _vp_system(*projected_fit(g, omegas)[:4])
        h = 1e-6
        steps = h * np.eye(k)
        fd_grad = np.array([projected_fit(g, omegas + e)[-1]
                            - projected_fit(g, omegas - e)[-1] for e in steps]) / (4.0 * h)
        assert np.max(np.abs(fd_grad - grad)) <= 1e-6 * np.max(np.abs(grad))
        exact = _atoms(omegas, n) @ (rng.normal(size=k) + 1j * rng.normal(size=k))
        hess, _ = _vp_system(*projected_fit(exact, omegas)[:4])
        jac = np.array([projected_fit(exact, omegas + e)[3]
                        - projected_fit(exact, omegas - e)[3] for e in steps]).T / (2.0 * h)
        np.testing.assert_allclose(hess, (jac.conj().T @ jac).real, rtol=0.0,
                                   atol=1e-6 * np.max(np.abs(hess)))

    def test_cost_never_increases_across_rounds(self, monkeypatch):
        from modlse import lse

        rng = np.random.default_rng(90)
        scenes = [(add_noise(gen_bandlimited(200, 10.0, rng), 30.0, rng), 20)]
        for snr_db in (30.0, 5.0):
            spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 256)
            scenes.append((add_noise(synth_line_spectral(spec, 256), snr_db, rng), 3))
        for g, k in scenes:
            fit = _detect(g, k)
            costs = []

            def recorded(a, ginv, coeffs, resid):
                costs.append(float(np.vdot(resid, resid).real))
                return lse_vp_system(a, ginv, coeffs, resid)

            lse_vp_system = lse._vp_system
            monkeypatch.setattr(lse, "_vp_system", recorded)
            w, a, ginv, c, resid, cost = _vp_refine(g, *fit)
            monkeypatch.undo()
            assert len(costs) > 2
            assert costs[0] == fit[-1]
            assert np.all(np.diff(costs) < 0.0) and cost < costs[-1]
            # the result is the least-squares fit of its frequencies
            np.testing.assert_allclose(a, _atoms(w, g.size), rtol=0.0, atol=1e-11)
            c_fit, *_ = np.linalg.lstsq(a, g, rcond=None)
            np.testing.assert_allclose(c, c_fit, rtol=0.0,
                                       atol=1e-10 * np.max(np.abs(c_fit)))
            np.testing.assert_allclose(resid, g - a @ c, rtol=0.0, atol=0.0)
            assert cost == float(np.vdot(resid, resid).real)

    @pytest.mark.parametrize("case", ["on_grid_atom", "no_rounds"])
    def test_returns_detection_fit_when_no_step_is_accepted(self, case, monkeypatch):
        from modlse import lse

        if case == "on_grid_atom":
            # an exact fit sits at the floor: no round is run
            n = 64
            g = synth_line_spectral(LineSpectrum([2 * np.pi * 5 / n], [1.5j]), n)
            k = 1
        else:
            rng = np.random.default_rng(91)
            spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 128)
            g = add_noise(synth_line_spectral(spec, 128), 20.0, rng)
            k = 3
            monkeypatch.setattr(lse, "VP_ROUNDS", 0)
        fit = _detect(g, k)
        for got, start in zip(_vp_refine(g, *fit), fit):
            assert got is start

    def test_stops_at_the_round_cap(self, monkeypatch):
        from modlse import lse

        rng = np.random.default_rng(95)
        g = add_noise(gen_bandlimited(200, 10.0, rng), 30.0, rng)
        fit = _detect(g, 20)
        calls = []
        lse_vp_system = lse._vp_system
        monkeypatch.setattr(lse, "_vp_system",
                            lambda *args: calls.append(1) or lse_vp_system(*args))
        _vp_refine(g, *fit)
        assert len(calls) == lse.VP_ROUNDS


class TestReferenceNewtonSystem:
    @staticmethod
    def cost(g, params, k):
        c = params[:k] + 1j * params[k:2 * k]
        return float(np.linalg.norm(g - _atoms(params[2 * k:], g.size) @ c) ** 2)

    @staticmethod
    def half_derivatives(g, params, k):
        c = params[:k] + 1j * params[k:2 * k]
        a = _atoms(params[2 * k:], g.size)
        return reference_newton_system(a, c, g - a @ c)

    @pytest.mark.parametrize("n,k", [(2, 1), (24, 3), (64, 5)])
    def test_derivatives_match_central_differences(self, n, k):
        # the oracle's exact Hessian, away from the least-squares fit
        rng = np.random.default_rng(89)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        params = np.concatenate([rng.normal(size=2 * k),
                                 rng.uniform(0.0, 2.0 * np.pi, k)])
        grad, hess = self.half_derivatives(g, params, k)
        h = 1e-6
        steps = h * np.eye(3 * k)
        fd_grad = np.array([self.cost(g, params + e, k) - self.cost(g, params - e, k)
                            for e in steps]) / (4.0 * h)
        fd_hess = np.array([self.half_derivatives(g, params + e, k)[0]
                            - self.half_derivatives(g, params - e, k)[0]
                            for e in steps]) / (2.0 * h)
        assert np.max(np.abs(fd_grad - grad)) <= 1e-6 * np.max(np.abs(grad))
        assert np.max(np.abs(fd_hess - hess)) <= 1e-6 * np.max(np.abs(hess))


class TestDropLossless:
    def test_drops_a_duplicate_and_keeps_a_resolved_pair(self):
        n = 128
        pair = 2.0 * np.pi * np.array([20.0, 20.6]) / n
        g = synth_line_spectral(LineSpectrum(pair, [1.0, -0.8j]), n)
        w, _ = _drop_lossless(g, (pair, *projected_fit(g, pair)))
        assert w.tobytes() == pair.tobytes()
        dup = np.insert(pair, 1, pair[0] + 0.05 * 2.0 * np.pi / n)
        w, c = _drop_lossless(g, (dup, *projected_fit(g, dup)))
        assert w.tobytes() == pair.tobytes()
        np.testing.assert_allclose(c, [1.0, -0.8j], rtol=0.0, atol=1e-12)

    def test_keeps_one_atom_of_a_zero_signal(self):
        g = np.zeros(16, dtype=complex)
        w = np.array([0.0, 1.0, 2.0])
        assert _drop_lossless(g, (w, *projected_fit(g, w)))[0].size == 1


class TestSwapWeakest:
    def test_trades_a_duplicate_for_a_missed_tone(self):
        n = 128
        rng = np.random.default_rng(96)
        true_w = 2.0 * np.pi * np.array([10.3, 40.7]) / n
        g = add_noise(synth_line_spectral(LineSpectrum(true_w, [1.0, 0.5j]), n),
                      40.0, rng)
        start = projected_fit(g, 2.0 * np.pi * np.array([10.3, 10.6]) / n)
        fit = (2.0 * np.pi * np.array([10.3, 10.6]) / n, *start)
        w, *_, cost = _swap_weakest(g, fit)
        assert cost < 0.01 * fit[-1]
        np.testing.assert_allclose(np.sort(w), true_w, rtol=0.0, atol=0.05 * 2 * np.pi / n)

    def test_keeps_a_fit_that_leaves_only_noise(self):
        rng = np.random.default_rng(97)
        for snr_db in (30.0, 20.0, 10.0):
            for _ in range(10):
                spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 256)
                g = add_noise(synth_line_spectral(spec, 256), snr_db, rng)
                fit = _vp_refine(g, *_detect(g, 3))
                assert _swap_weakest(g, fit) is fit


class TestPhasorAtoms:
    @pytest.mark.parametrize("n", [2, 200, 512, 4096])
    def test_entries_within_bound_of_exact_atoms(self, n):
        rng = np.random.default_rng(92)
        omegas = np.concatenate([[0.0, np.nextafter(2.0 * np.pi, 0.0)],
                                 rng.uniform(0.0, 2.0 * np.pi, 14)])
        err = np.abs(_phasor_atoms(omegas, n) - _atoms(omegas, n))
        bound = 16.0 * (np.arange(n) + 1.0) * (np.finfo(float).eps / 2.0)
        assert np.all(err <= bound[:, None])


class TestNmse:
    def test_perfect_estimate_floors(self):
        x = np.ones(8, dtype=complex)
        assert nmse(x, x) == -300.0

    def test_zero_estimate(self):
        x = np.ones(8, dtype=complex)
        assert nmse(np.zeros(8, dtype=complex), x) == pytest.approx(0.0, abs=1e-12)

    def test_ten_percent_error(self):
        x = (np.arange(8) + 1).astype(complex)
        assert nmse(1.1 * x, x) == pytest.approx(-20.0, abs=1e-9)

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            nmse(np.ones(4, dtype=complex), np.zeros(4, dtype=complex))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            nmse(np.ones(4, dtype=complex), np.ones(5, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("name", ["x_hat", "x"])
    def test_rejects_non_finite_input(self, bad, name):
        args = {"x_hat": np.ones(4, dtype=complex), "x": np.ones(4, dtype=complex)}
        args[name][2] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            nmse(**args)
