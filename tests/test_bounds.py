import numpy as np
import pytest

from modlse import (
    LineSpectrum,
    band_energy_lower_bound,
    band_energy_ratio,
    dft,
    first_difference,
    gen_random_spectrum,
    grid_offsets,
    leakage_bound,
    modulo_sample,
    residual_decompose,
    residual_state_bound,
    select_subset,
    synth_line_spectral,
)


class TestStateBound:
    def test_formula_example(self):
        assert residual_state_bound(3, 1.3, 0.7, 10.0) == 2

    def test_vanishing_amplitude_limit(self):
        assert residual_state_bound(1, 1e-9, 0.7, 10.0) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            residual_state_bound(0, 1.0, 1.0, 10.0)

    @pytest.mark.parametrize("args,message", [
        ((2.5, 1.0, 0.7, 10.0), "^k must be an integer, got 2.5"),
        ((3, np.inf, 0.7, 10.0), "^c_max must be finite and positive, got inf"),
        ((3, np.nan, 0.7, 10.0), "^c_max must be finite and positive, got nan"),
        ((3, 1.0, np.inf, 10.0), "^lam must be finite and positive, got inf"),
        ((3, 1.0, np.nan, 10.0), "^lam must be finite and positive, got nan"),
        ((3, 1.0, 0.7, 1.0), "^gamma must be finite and exceed 1, got 1.0"),
        ((3, 1.0, 0.7, np.inf), "^gamma must be finite and exceed 1, got inf"),
        ((3, 1.0, 0.7, np.nan), "^gamma must be finite and exceed 1, got nan"),
    ])
    def test_rejects_argument_outside_formula(self, args, message):
        with pytest.raises(ValueError, match=message):
            residual_state_bound(*args)

    def test_empirical_verification(self):
        # noiseless scenes never violate the difference-domain bound
        rng = np.random.default_rng(40)
        n = 128
        for _ in range(60):
            gamma = float(rng.choice([5.0, 10.0, 20.0]))
            k = int(rng.integers(1, 6))
            lam = float(rng.uniform(0.3, 1.0))
            spec = gen_random_spectrum(k, gamma, rng)
            x = synth_line_spectral(spec, n)
            y = modulo_sample(x, lam)
            eps_d = first_difference(residual_decompose(x, y, lam))
            observed = max(np.max(np.abs(eps_d.real)), np.max(np.abs(eps_d.imag)))
            bound = residual_state_bound(k, float(np.max(np.abs(spec.coeffs))),
                                         lam, gamma)
            assert observed <= bound


class TestGridOffsets:
    def test_reconstruction(self):
        rng = np.random.default_rng(41)
        n = 129
        omegas = rng.uniform(0.01, 0.6, 5)
        a, delta = grid_offsets(omegas, n)
        np.testing.assert_allclose(2 * np.pi * (a + delta) / (n - 1), omegas,
                                   atol=1e-14)
        assert np.all(delta >= -0.5) and np.all(delta < 0.5)

    def test_on_grid_gives_zero_offset(self):
        n = 65
        omegas = 2 * np.pi * np.array([3, 7]) / (n - 1)
        _, delta = grid_offsets(omegas, n)
        np.testing.assert_array_equal(delta, [0.0, 0.0])


class TestLeakageBound:
    def test_on_grid_spectrum_is_leak_free(self):
        n = 128
        bins = np.array([2, 5, 9])
        spec = LineSpectrum(2 * np.pi * bins / (n - 1), np.ones(3, dtype=complex))
        x = synth_line_spectral(spec, n)
        leak = np.abs(dft(first_difference(x)))
        lo = int(np.floor((n - 1) / 10.0))
        assert np.max(leak[lo + 1:]) < 1e-12
        assert leakage_bound(spec, n, 10.0, lo + 1) == 0.0

    def test_bound_holds_off_grid(self):
        rng = np.random.default_rng(42)
        n = 128
        for _ in range(60):
            gamma = float(rng.choice([5.0, 10.0, 20.0]))
            k = int(rng.integers(1, 6))
            spec = gen_random_spectrum(k, gamma, rng)
            x = synth_line_spectral(spec, n)
            leak = np.abs(dft(first_difference(x)))
            lo = int(np.floor((n - 1) / gamma))
            for b in range(lo + 1, n - 1):
                assert leak[b] <= leakage_bound(spec, n, gamma, b) + 1e-12

    def test_uniform_band_bound_dominates(self):
        # inside the selected band the per-bin bound never exceeds the
        # beta-only simplification
        rng = np.random.default_rng(43)
        n, gamma, beta = 256, 10.0, 0.05
        spec = gen_random_spectrum(3, gamma, rng)
        _, delta = grid_offsets(spec.omegas, n)
        c_max = float(np.max(np.abs(spec.coeffs)))
        s_max = float(np.max(np.sin(spec.omegas / 2)))
        d_max = float(np.max(np.abs(delta)))
        uniform = 2 * 3 * np.pi * c_max * s_max * d_max / (
            np.sqrt(n - 1) * np.sin(beta * np.pi))
        for b in select_subset(n, gamma, beta):
            assert leakage_bound(spec, n, gamma, int(b)) <= uniform + 1e-12

    def test_rejects_in_band_bin(self):
        spec = LineSpectrum([0.1], [1.0])
        with pytest.raises(ValueError):
            leakage_bound(spec, 128, 10.0, 5)

    @pytest.mark.parametrize("n,gamma,bin_index,message", [
        (128, 10.0, 20.5, "^bin_index must be an integer, got 20.5"),
        (128.0, 10.0, 20, "^n must be an integer, got 128.0"),
        (128, 0.5, 20, "^gamma must be finite and exceed 1, got 0.5"),
        (128, 1.0, 20, "^gamma must be finite and exceed 1, got 1.0"),
        (128, np.inf, 20, "^gamma must be finite and exceed 1, got inf"),
        (128, np.nan, 20, "^gamma must be finite and exceed 1, got nan"),
    ])
    def test_rejects_argument_outside_formula(self, n, gamma, bin_index, message):
        spec = LineSpectrum([0.1], [1.0])
        with pytest.raises(ValueError, match=message):
            leakage_bound(spec, n, gamma, bin_index)

    @pytest.mark.parametrize("omega", [-0.1, 0.7])
    def test_rejects_tone_outside_signal_band(self, omega):
        # the bound does not hold for these: the leakage exceeds it by 1.1 and 6.6
        spec = LineSpectrum([omega], [1.0])
        with pytest.raises(ValueError, match=r"^spectrum frequencies must lie in"):
            leakage_bound(spec, 128, 10.0, 20)


def dense_energy_ratio(n, m_excl, p, start=0):
    """Independent oracle: build Q = F_S^H F_S explicitly and take norms."""
    big_l = n - 1
    f = np.exp(-2j * np.pi * np.outer(np.arange(big_l), np.arange(big_l))
               / big_l) / np.sqrt(big_l)
    fs = f[np.arange(start, start + n - m_excl), :]
    q = fs.conj().T @ fs
    offsets = np.abs(np.subtract.outer(np.arange(big_l), np.arange(big_l)))
    banded = np.where(offsets <= p, q, 0.0)
    return np.linalg.norm(banded, "fro") ** 2 / np.linalg.norm(q, "fro") ** 2


class TestBandEnergyRatio:
    def test_reference_value(self):
        assert band_energy_ratio(9, 3, 1) == pytest.approx(
            dense_energy_ratio(9, 3, 1), abs=1e-12)
        assert band_energy_ratio(9, 3, 1) == pytest.approx(0.8745, abs=5e-5)

    def test_diagonal_only(self):
        for n, m_excl in ((10, 4), (20, 2), (16, 15)):
            assert band_energy_ratio(n, m_excl, 0) == pytest.approx(
                1 - (m_excl - 1) / (n - 1), abs=1e-15)

    def test_matches_dense_oracle_sweep(self):
        # every band half-width up to n - 2, the largest Gram offset
        for n in (5, 8, 13, 21):
            for m_excl in range(2, n):
                for p in range(0, n - 1):
                    assert band_energy_ratio(n, m_excl, p) == pytest.approx(
                        dense_energy_ratio(n, m_excl, p), abs=1e-10)

    def test_block_position_invariance(self):
        n, m_excl, p = 17, 6, 3
        for start in (0, 2, 5):
            assert dense_energy_ratio(n, m_excl, p, start) == pytest.approx(
                band_energy_ratio(n, m_excl, p), abs=1e-12)

    def test_rejects_bad_exclusion(self):
        with pytest.raises(ValueError):
            band_energy_ratio(10, 1, 1)
        with pytest.raises(ValueError):
            band_energy_ratio(10, 10, 1)

    @pytest.mark.parametrize("args,message", [
        ((10, 3, 1.5), "^p must be an integer, got 1.5"),
        ((10, 3, -1), "^p must satisfy 0 <= p <= n - 2, got -1"),
        ((10, 3, 9), "^p must satisfy 0 <= p <= n - 2, got 9"),
        ((10, 3, 20), "^p must satisfy 0 <= p <= n - 2, got 20"),
        ((10.0, 3, 1), "^n must be an integer, got 10.0"),
        ((10, 3.0, 1), "^m_excluded must be an integer, got 3.0"),
    ])
    def test_rejects_argument_outside_formula(self, args, message):
        with pytest.raises(ValueError, match=message):
            band_energy_ratio(*args)


class TestBandEnergyLowerBound:
    def test_one_eighth_exclusion_constants(self):
        # large-record floor values at eta = 1/8 for p = 1..4
        n, m_excl = 800001, 100001
        expected = {1: 0.890, 2: 0.904, 3: 0.918, 4: 0.933}
        for p, value in expected.items():
            assert band_energy_lower_bound(n, m_excl, p) == pytest.approx(
                value, abs=2e-3)

    def test_never_exceeds_ratio(self):
        for n in (5, 9, 16, 24):
            for m_excl in range(2, n):
                for p in range(0, (n - 1) // 2 + 1):
                    assert band_energy_lower_bound(n, m_excl, p) <= \
                        band_energy_ratio(n, m_excl, p) + 1e-12

    def test_rejects_wide_band(self):
        with pytest.raises(ValueError):
            band_energy_lower_bound(11, 4, 6)

    @pytest.mark.parametrize("args,message", [
        ((10, 3, 1.5), "^p must be an integer, got 1.5"),
        ((10.0, 3, 1), "^n must be an integer, got 10.0"),
        ((10, 3.0, 1), "^m_excluded must be an integer, got 3.0"),
    ])
    def test_rejects_non_integer_argument(self, args, message):
        with pytest.raises(ValueError, match=message):
            band_energy_lower_bound(*args)
