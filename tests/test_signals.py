import numpy as np
import pytest

from modlse import (
    LineSpectrum,
    SamplingConfig,
    add_noise,
    bandlimited_bins,
    centered_modulo,
    gen_bandlimited,
    gen_random_spectrum,
    modulo_sample,
    residual_decompose,
    synth_line_spectral,
)

BAD_LAMS = (0.0, -1.0, np.nan, np.inf, -np.inf)


class TestSynth:
    def test_zero_frequency_is_constant(self):
        spec = LineSpectrum([0.0], [1.0 + 0j])
        np.testing.assert_allclose(synth_line_spectral(spec, 4), np.ones(4))

    def test_quarter_period_rotation(self):
        spec = LineSpectrum([np.pi / 2], [1.0 + 0j])
        np.testing.assert_allclose(synth_line_spectral(spec, 4),
                                   [1, 1j, -1, -1j], atol=1e-15)

    def test_matches_per_term_loop(self):
        rng = np.random.default_rng(42)
        spec = gen_random_spectrum(2, 8.0, rng)
        x = synth_line_spectral(spec, 8)
        # independent oracle: accumulate one term at a time, one sample at a time
        expected = np.zeros(8, dtype=complex)
        for t in range(8):
            for omega, coeff in zip(spec.omegas, spec.coeffs):
                expected[t] += coeff * np.exp(1j * omega * t)
        np.testing.assert_allclose(x, expected, rtol=1e-12)

    def test_rejects_short_record(self):
        with pytest.raises(ValueError):
            synth_line_spectral(LineSpectrum([0.1], [1.0]), 1)

    def test_rejects_empty_spectrum(self):
        with pytest.raises(ValueError):
            LineSpectrum(np.array([]), np.array([]))

    def test_rejects_duplicate_frequencies(self):
        with pytest.raises(ValueError):
            LineSpectrum([0.2, 0.2], [1.0, 1.0])

    @pytest.mark.parametrize("omegas,coeffs,name", [
        ([0.1, np.nan], [1.0, 1.0], "omegas"),
        ([0.1, np.inf], [1.0, 1.0], "omegas"),
        ([0.1, 0.2], [1.0, complex(0.0, np.nan)], "coeffs"),
        ([0.1, 0.2], [np.inf, 1.0], "coeffs"),
    ])
    def test_rejects_non_finite_component(self, omegas, coeffs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            LineSpectrum(omegas, coeffs)

    def test_rejects_non_integer_length(self):
        spec = LineSpectrum([0.1], [1.0])
        with pytest.raises(ValueError, match="^n must be an integer, got 2.5"):
            synth_line_spectral(spec, 2.5)
        assert synth_line_spectral(spec, np.int64(3)).size == 3


class TestRandomSpectrum:
    def test_frequencies_inside_band(self):
        rng = np.random.default_rng(0)
        hi = 2 * np.pi / 10.0
        for _ in range(1000):
            spec = gen_random_spectrum(3, 10.0, rng)
            assert np.all(spec.omegas > 0) and np.all(spec.omegas < hi)

    def test_seeded_reproducibility(self):
        a = gen_random_spectrum(1, 10.0, np.random.default_rng(5))
        b = gen_random_spectrum(1, 10.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a.omegas, b.omegas)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_magnitude_statistics(self):
        rng = np.random.default_rng(1)
        mags = np.concatenate([
            np.abs(gen_random_spectrum(3, 10.0, rng).coeffs)
            for _ in range(1000)
        ])
        assert abs(np.mean(mags) - 1.0) < 0.05
        assert np.all(mags > 0)

    def test_min_separation_honored(self):
        rng = np.random.default_rng(2)
        sep = 2 * np.pi / 64
        for _ in range(200):
            spec = gen_random_spectrum(4, 5.0, rng, min_separation=sep)
            assert np.min(np.diff(np.sort(spec.omegas))) >= sep

    def test_draws_match_unbounded_redraw_loop(self):
        # the redraw cap changes no draw that the unbounded loop finished
        def unbounded(k, gamma, rng, min_separation):
            hi = 2.0 * np.pi / gamma
            while True:
                omegas = rng.uniform(0.0, hi, size=k)
                if np.all(omegas > 0.0) and (
                    k == 1 or np.min(np.diff(np.sort(omegas))) >= min_separation
                ):
                    break
            mags = rng.normal(1.0, np.sqrt(0.1), size=k)
            while np.any(mags <= 0.0):
                bad = mags <= 0.0
                mags[bad] = rng.normal(1.0, np.sqrt(0.1), size=int(bad.sum()))
            phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
            return omegas, mags * np.exp(1j * phases)

        for k, gamma, sep in [(3, 10.0, 2 * np.pi / 512), (4, 5.0, 2 * np.pi / 64),
                              (1, 10.0, 2 * np.pi / 512), (8, 10.0, 2 * np.pi / 128)]:
            got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(20):
                spec = gen_random_spectrum(k, gamma, got_rng, min_separation=sep)
                omegas, coeffs = unbounded(k, gamma, want_rng, sep)
                assert spec.omegas.tobytes() == omegas.tobytes()
                assert spec.coeffs.tobytes() == coeffs.tobytes()

    def test_rejects_order_the_band_cannot_hold(self):
        with pytest.raises(ValueError, match=r"k=300 .*min_separation=0.01227.*"
                                             r"gamma=10"):
            gen_random_spectrum(300, 10.0, np.random.default_rng(4),
                                min_separation=2 * np.pi / 512)

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError, match="^k must be an integer, got 2.0"):
            gen_random_spectrum(2.0, 10.0, np.random.default_rng(4))

    @pytest.mark.parametrize("gamma,sep,message", [
        (0.0, None, "^gamma must be finite and exceed 1, got 0.0"),
        (np.nan, None, "^gamma must be finite and exceed 1, got nan"),
        (-2.0, None, "^gamma must be finite and exceed 1, got -2.0"),
        (1.0, None, "^gamma must be finite and exceed 1, got 1.0"),
        (np.inf, None, "^gamma must be finite and exceed 1, got inf"),
        (10.0, np.nan, "^min_separation must be non-negative, got nan"),
        (10.0, -1.0, "^min_separation must be non-negative, got -1.0"),
    ])
    def test_rejects_bad_argument_before_drawing(self, gamma, sep, message):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            gen_random_spectrum(3, gamma, rng, min_separation=sep)
        assert rng.bit_generator.state == state

    def test_gives_up_after_bounded_redraws(self):
        # ten frequencies fit in the band only when nearly evenly spaced
        sep = 0.999 * (2 * np.pi / 10.0) / 9
        with pytest.raises(ValueError, match=r"k=10 .*gamma=10"):
            gen_random_spectrum(10, 10.0, np.random.default_rng(4),
                                min_separation=sep)


class TestSamplingConfig:
    @pytest.mark.parametrize("k,message", [
        (300, "k may not exceed half the record length"),
        (2.5, "k must be an integer"),
        (0, "k must be >= 1"),
    ])
    def test_rejects_bad_order(self, k, message):
        with pytest.raises(ValueError, match=message):
            SamplingConfig(n=512, k=k)

    @pytest.mark.parametrize("field,value,message", [
        ("n", 64.5, "n must be an integer, got 64.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "^seed must be >= 0, got -1$"),
        ("snr_db", np.nan, "snr_db must be a number or \\+inf"),
        ("snr_db", -np.inf, "snr_db must be a number or \\+inf"),
    ])
    def test_rejects_bad_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SamplingConfig(**{field: value})


class TestBandlimited:
    def test_spectral_support(self):
        rng = np.random.default_rng(3)
        n, gamma = 256, 10.0
        x = gen_bandlimited(n, gamma, rng)
        mag = np.abs(np.fft.fft(x))
        band = int(np.floor(n / gamma))
        peak = mag.max()
        outside = np.concatenate([mag[:1], mag[band + 1:]])
        assert np.max(outside) < 1e-9 * peak

    @pytest.mark.parametrize("n", [64, 65, 200, 201])
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 10.0])
    def test_active_bins_follow_the_rule(self, n, gamma):
        # the band stops below the Nyquist bin however wide gamma makes it
        x = gen_bandlimited(n, gamma, np.random.default_rng(5))
        mag = np.abs(np.fft.fft(x))
        active = np.flatnonzero(mag > 1e-9 * mag.max())
        bins = bandlimited_bins(n, gamma)
        assert bins == min(int(np.floor(n / gamma)), (n - 1) // 2)
        np.testing.assert_array_equal(active, np.arange(1, bins + 1))

    def test_degenerate_single_bin(self):
        rng = np.random.default_rng(4)
        n = 16
        x = gen_bandlimited(n, 12.0, rng)  # floor(16/12) = 1 active bin
        atom = np.exp(2j * np.pi * np.arange(n) / n)
        scale = x[0] / atom[0]
        np.testing.assert_allclose(x, scale * atom, atol=1e-12)

    @pytest.mark.parametrize("n,gamma,message", [
        (200.0, 10.0, "^n must be an integer, got 200.0"),
        (3, 10.0, "^n must be >= 4"),
        (64, 70.0, "^band is empty; decrease gamma"),
    ])
    def test_rejects_scene_without_a_band(self, n, gamma, message):
        with pytest.raises(ValueError, match=message):
            bandlimited_bins(n, gamma)
        with pytest.raises(ValueError, match=message):
            gen_bandlimited(n, gamma, np.random.default_rng(9))

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, np.nan, -2.0])
    def test_rejects_bad_gamma_before_drawing(self, gamma):
        message = f"^gamma must be finite and exceed 1, got {gamma!r}"
        with pytest.raises(ValueError, match=message):
            bandlimited_bins(200, gamma)
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            gen_bandlimited(200, gamma, rng)
        assert rng.bit_generator.state == state

    def test_seeded_reproducibility(self):
        a = gen_bandlimited(64, 8.0, np.random.default_rng(9))
        b = gen_bandlimited(64, 8.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_unit_rms(self):
        x = gen_bandlimited(128, 10.0, np.random.default_rng(11))
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 1e-12


class TestAddNoise:
    def test_noiseless_passthrough(self):
        x = np.ones(16, dtype=complex)
        out = add_noise(x, np.inf, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_variance_scaling(self):
        # |x|^2 = 512, N = 512, 20 dB -> per-sample variance 0.01
        x = np.ones(512, dtype=complex)
        rng = np.random.default_rng(6)
        powers = []
        for _ in range(100):
            w = add_noise(x, 20.0, rng) - x
            powers.append(np.mean(np.abs(w) ** 2))
        assert abs(np.mean(powers) - 0.01) < 0.001

    def test_seeded_reproducibility(self):
        x = np.ones(32, dtype=complex)
        a = add_noise(x, 10.0, np.random.default_rng(7))
        b = add_noise(x, 10.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(8, dtype=complex), 20.0, np.random.default_rng(0))

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_rejects_nan_and_negative_infinite_snr(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be a number or \\+inf"):
            add_noise(np.ones(8, dtype=complex), snr_db, np.random.default_rng(0))


class TestCenteredModulo:
    def test_inside_range_identity(self):
        assert centered_modulo(0.3, 1.0) == pytest.approx(0.3)

    def test_formula_evaluation(self):
        # frac(2.5/2 + 0.5) = 0.75 -> 2*(0.75 - 0.5) = 0.5
        assert centered_modulo(2.5, 1.0) == pytest.approx(0.5)

    def test_boundary_maps_to_negative_end(self):
        assert centered_modulo(1.0, 1.0) == pytest.approx(-1.0)

    def test_output_range_and_idempotence(self):
        rng = np.random.default_rng(8)
        t = rng.uniform(-50, 50, size=2000)
        lam = 0.7
        out = centered_modulo(t, lam)
        assert np.all(out >= -lam) and np.all(out < lam)
        np.testing.assert_allclose(centered_modulo(out, lam), out, atol=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(9)
        t = rng.uniform(-5, 5, size=500)
        lam = 0.6
        for shift in (-3, -1, 1, 2, 10):
            np.testing.assert_allclose(
                centered_modulo(t + 2 * lam * shift, lam),
                centered_modulo(t, lam), atol=1e-12)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            centered_modulo(0.5, 0.0)
        for lam in BAD_LAMS:
            with pytest.raises(ValueError, match="lam must be finite and positive"):
                centered_modulo(1.0, lam)


class TestModuloSample:
    def test_no_folding_passthrough(self):
        rng = np.random.default_rng(10)
        g = 0.4 * (rng.normal(size=32) + 1j * rng.normal(size=32))
        g = np.clip(g.real, -0.9, 0.9) + 1j * np.clip(g.imag, -0.9, 0.9)
        np.testing.assert_array_equal(modulo_sample(g, 1.0), g)

    def test_componentwise_fold(self):
        np.testing.assert_allclose(modulo_sample(np.array([2.5 + 0.3j]), 1.0),
                                   [0.5 + 0.3j], atol=1e-12)

    def test_idempotence(self):
        rng = np.random.default_rng(11)
        g = 3.0 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        once = modulo_sample(g, 0.7)
        np.testing.assert_allclose(modulo_sample(once, 0.7), once, atol=1e-12)

    def test_rejects_bad_threshold(self):
        for lam in BAD_LAMS:
            with pytest.raises(ValueError, match="lam must be finite and positive"):
                modulo_sample(np.array([0.5 + 0.5j]), lam)


class TestResidualDecompose:
    def test_in_range_gives_zero(self):
        g = np.array([0.1 + 0.2j, -0.3 - 0.1j])
        eps = residual_decompose(g, modulo_sample(g, 1.0), 1.0)
        np.testing.assert_array_equal(eps, np.zeros(2, dtype=complex))

    def test_single_fold(self):
        eps = residual_decompose(np.array([2.5 + 0j]), np.array([0.5 + 0j]), 1.0)
        np.testing.assert_array_equal(eps, [1.0 + 0j])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(12)
        lam = 0.7
        for _ in range(50):
            g = 4.0 * (rng.normal(size=100) + 1j * rng.normal(size=100))
            y = modulo_sample(g, lam)
            eps = residual_decompose(g, y, lam)
            assert np.all(eps.real == np.round(eps.real))
            assert np.all(eps.imag == np.round(eps.imag))
            np.testing.assert_allclose(y + 2 * lam * eps, g, atol=1e-12)

    def test_rejects_inconsistent_inputs(self):
        g = np.array([1.23 + 0j])
        with pytest.raises(ValueError):
            residual_decompose(g, np.array([0.3 + 0j]), 1.0)

    def test_rejects_bad_threshold(self):
        g = np.array([0.5 + 0.5j])
        for lam in BAD_LAMS:
            with pytest.raises(ValueError, match="lam must be finite and positive"):
                residual_decompose(g, g, lam)
