import numpy as np
import pytest

from modlse import (
    LineSpectrum,
    add_noise,
    gen_random_spectrum,
    nmse,
    nomp,
    synth_line_spectral,
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

    def test_newton_step_never_reduces_single_atom_gain(self):
        from modlse.lse import _newton_refine
        rng = np.random.default_rng(82)
        n = 128
        t = np.arange(n)
        resid = np.exp(1j * 0.31 * t) + 0.3 * (rng.normal(size=n)
                                               + 1j * rng.normal(size=n))

        def gain(omega):
            return abs(np.dot(resid, np.exp(-1j * omega * t))) ** 2

        for start in (0.25, 0.30, 0.33, 0.40):
            refined = _newton_refine(start, resid, steps=5)
            assert gain(refined) >= gain(start) - 1e-9

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
