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
    JOINT_ROUNDS,
    _atoms,
    _detect,
    _fit_all,
    _joint_refine,
    _merge_lossless,
    _newton_system,
    _phasor_atoms,
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
        # after the first detection the residual is at rounding level, so the
        # spare detections repeat the tone's grid point and are merged away
        n = 64
        omega = 2 * np.pi * 5 / n
        coeff = 1.3 * np.exp(0.4j)
        est = nomp(synth_line_spectral(LineSpectrum([omega], [coeff]), n), k)
        assert est.order == 1
        assert abs(est.omegas[0] - omega) < 1e-12
        assert abs(est.coeffs[0] - coeff) < 1e-12

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


class TestDetect:
    def test_picks_distinct_grid_points_and_fits_them(self):
        rng = np.random.default_rng(87)
        for _ in range(40):
            n = int(rng.integers(4, 300))
            k = int(rng.integers(1, min(n // 2, 8) + 1))
            spec = gen_random_spectrum(k, 2.0, rng)
            g = add_noise(synth_line_spectral(spec, n), rng.uniform(0.0, 40.0), rng)
            omegas, a, coeffs, resid = _detect(g, k)
            grid = GRID_OVERSAMPLE * n
            picks = np.round(omegas * grid / (2.0 * np.pi))
            assert omegas.size == k
            assert np.unique(picks).size == k
            assert omegas.tobytes() == (2.0 * np.pi * picks / grid).tobytes()
            for got, want in zip((a, coeffs, resid), _fit_all(g, omegas)):
                assert got.tobytes() == want.tobytes()


# The detection schedule that plain grid detection replaced (a 4x grid, three
# guarded Newton steps on each new atom, a merge of duplicates and re-issued
# detections), and the joint Gauss-Newton pass that the damped Newton pass
# replaced.  From the same start the joint pass must end with a residual
# energy no larger than the Gauss-Newton pass reaches, and nomp must end
# within 1% of the residual energy the old detection schedule leads to.
REFERENCE_GRID_OVERSAMPLE = 4
REFERENCE_NEWTON_STEPS = 3


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


def reference_joint_refine(g, omegas):
    n = np.arange(g.size)
    k = omegas.size
    a, coeffs, resid = _fit_all(g, omegas)
    cost = float(np.linalg.norm(resid) ** 2)
    floor = 1e-28 * float(np.linalg.norm(g) ** 2)
    for _ in range(JOINT_ROUNDS):
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
        a, coeffs, resid = _fit_all(g, omegas)
        cost = float(np.linalg.norm(resid) ** 2)
        if prev_cost - cost <= 1e-12 * prev_cost:
            break
    return omegas, coeffs, cost


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
        a, coeffs, resid = _fit_all(g, omegas)
        merged_w, _ = reference_merge_duplicates(omegas, coeffs, n)
        if merged_w.size < omegas.size:
            omegas = merged_w
            a, coeffs, resid = _fit_all(g, omegas)
    return omegas, a, coeffs, resid


def residual_energy(g, est):
    return float(np.linalg.norm(g - synth_line_spectral(est, g.size)) ** 2)


def assert_matches_reference(g, k):
    detected = _detect(g, k)
    _, _, cost = _joint_refine(g, *detected)
    _, _, ref_cost = reference_joint_refine(g, detected[0])
    assert cost <= ref_cost * (1.0 + 1e-12)
    # the old schedule: its detection, then the same joint pass and merge
    old_w, old_c, old_cost = _joint_refine(g, *reference_detect(g, k))
    old = LineSpectrum(*_merge_lossless(g, old_w, old_c, old_cost, g.size))
    scale = float(np.linalg.norm(g) ** 2)
    assert (residual_energy(g, nomp(g, k))
            <= 1.01 * residual_energy(g, old) + 1e-20 * scale)


class TestNompMatchesReference:
    """Joint pass no worse than Gauss-Newton from the same start, and nomp
    within 1% of the residual energy of the old detection schedule."""

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


class TestJointRefine:
    @staticmethod
    def cost(g, params, k):
        c = params[:k] + 1j * params[k:2 * k]
        return float(np.linalg.norm(g - _atoms(params[2 * k:], g.size) @ c) ** 2)

    @staticmethod
    def half_derivatives(g, params, k):
        c = params[:k] + 1j * params[k:2 * k]
        a = _atoms(params[2 * k:], g.size)
        return _newton_system(a, c, g - a @ c)

    @pytest.mark.parametrize("n,k", [(2, 1), (24, 3), (64, 5)])
    def test_derivatives_match_central_differences(self, n, k):
        # away from the least-squares fit, so that every term counts
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
        np.testing.assert_allclose(hess, hess.T, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(hess)))

    def test_cost_never_increases_across_rounds(self, monkeypatch):
        from modlse import lse

        rng = np.random.default_rng(90)
        scenes = [(add_noise(gen_bandlimited(200, 10.0, rng), 30.0, rng), 20)]
        for snr_db in (30.0, 5.0):
            spec = gen_random_spectrum(3, 10.0, rng, min_separation=2 * np.pi / 256)
            scenes.append((add_noise(synth_line_spectral(spec, 256), snr_db, rng), 3))
        for g, k in scenes:
            omegas, a, coeffs, resid = _detect(g, k)
            costs = []

            def recorded(a, coeffs, resid):
                costs.append(float(np.linalg.norm(resid) ** 2))
                return _newton_system(a, coeffs, resid)

            monkeypatch.setattr(lse, "_newton_system", recorded)
            w, c, cost = _joint_refine(g, omegas, a, coeffs, resid)
            monkeypatch.undo()
            assert len(costs) > 2
            assert costs[0] == float(np.linalg.norm(resid) ** 2)
            assert np.all(np.diff(costs) <= 0.0)
            # the result is a least-squares fit on exact atoms
            _, c_fit, r_fit = _fit_all(g, w)
            assert c.tobytes() == c_fit.tobytes()
            assert cost == float(np.linalg.norm(r_fit) ** 2)
            assert cost <= costs[0]

    @pytest.mark.parametrize("case", ["on_grid_atom", "no_rounds"])
    def test_returns_detection_fit_when_no_step_is_accepted(self, case,
                                                            monkeypatch):
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
            monkeypatch.setattr(lse, "JOINT_ROUNDS", 0)
        omegas, a, coeffs, resid = _detect(g, k)
        w, c, cost = _joint_refine(g, omegas, a, coeffs, resid)
        assert w.tobytes() == omegas.tobytes()
        assert c.tobytes() == coeffs.tobytes()
        assert cost == float(np.linalg.norm(resid) ** 2)


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
