import numpy as np
import pytest

from modlse import (
    LineSpectrum,
    add_noise,
    centered_modulo,
    gen_random_spectrum,
    modulo_sample,
    residual_decompose,
    select_usalg_order,
    synth_line_spectral,
    usalg,
)
from modlse.baseline import MAX_ORDER


def folded_scene(rng, n=256, gamma=25.0, lam=0.4, k=2, head_margin=0.8):
    """Noiseless oversampled scene that folds but starts inside the range.

    The unfolding baseline anchors the integration constant at zero, so
    scenes are redrawn until the first sample is unfolded and the first
    difference stays inside the ADC range.
    """
    while True:
        spec = gen_random_spectrum(k, gamma, rng)
        g = synth_line_spectral(spec, n)
        diff = np.diff(g)
        if (abs(g[0].real) < head_margin * lam
                and abs(g[0].imag) < head_margin * lam
                and max(np.abs(diff.real).max(), np.abs(diff.imag).max()) < 0.9 * lam
                and max(np.abs(g.real).max(), np.abs(g.imag).max()) > 1.2 * lam):
            return g


class TestUsalg:
    def test_unfolded_smooth_input_passthrough(self):
        n = 128
        spec = LineSpectrum([0.05], [0.3 + 0j])
        g = synth_line_spectral(spec, n)  # everything well inside lam = 1
        out = usalg(g, 1.0, 1)
        np.testing.assert_allclose(out, g, atol=1e-12)

    def test_first_order_round_trip(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            g = folded_scene(rng)
            y = modulo_sample(g, 0.4)
            assert np.max(np.abs(residual_decompose(g, y, 0.4))) > 0  # folds exist
            out = usalg(y, 0.4, 1)
            assert np.max(np.abs(out - g)) < 1e-6

    def test_second_order_round_trip(self):
        rng = np.random.default_rng(91)
        hits = 0
        for _ in range(20):
            g = folded_scene(rng, gamma=40.0, lam=0.25, head_margin=0.6)
            y = modulo_sample(g, 0.25)
            out = usalg(y, 0.25, 2)
            hits += int(np.max(np.abs(out - g)) < 1e-6)
        assert hits >= 18

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            usalg(np.ones(8, dtype=complex), 0.5, 0)

    def test_rejects_short_record(self):
        with pytest.raises(ValueError):
            usalg(np.ones(3, dtype=complex), 0.5, 3)

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError,
                           match="^difference order must be an integer, got 1.5$"):
            usalg(np.ones(8, dtype=complex), 0.5, 1.5)

    def test_rejects_non_finite_sample(self):
        y = np.zeros(16, dtype=complex)
        y[5] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="non-finite sample.*index 5"):
            usalg(y, 0.5, 1)


class TestOrderSelection:
    def test_matches_direct_sweep(self):
        rng = np.random.default_rng(92)
        lam = 0.5
        for _ in range(20):
            v = rng.normal(size=100) + 1j * rng.normal(size=100)
            v = np.cumsum(v) * 0.1  # correlated, mixed behaviour
            direct = []
            re, im = v.real, v.imag
            for _ in range(MAX_ORDER):
                re, im = np.diff(re), np.diff(im)
                direct.append(max(np.abs(centered_modulo(re, lam)).max(),
                                  np.abs(centered_modulo(im, lam)).max()))
            assert select_usalg_order(v, lam) == int(np.argmin(direct)) + 1

    def test_white_noise_selects_first_order(self):
        rng = np.random.default_rng(93)
        v = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        assert select_usalg_order(v, 100.0) == 1

    def test_smooth_signal_selects_deepest_order(self):
        g = synth_line_spectral(LineSpectrum([0.02], [1.0 + 0j]), 400)
        assert select_usalg_order(g, 0.5) == MAX_ORDER == 3
        assert select_usalg_order(modulo_sample(g, 0.5), 0.5) == 3

    def test_constant_ties_to_first_order(self):
        assert select_usalg_order(np.full(50, 2.0 + 1.0j), 0.5) == 1

    @pytest.mark.parametrize("gamma,lam", [(10.0, 0.7), (25.0, 0.5), (40.0, 0.25)])
    def test_folding_does_not_change_the_order(self, gamma, lam):
        # differences of y and g differ by multiples of 2*lam, which the
        # re-fold removes, so the modulo samples pick the signal's order
        rng = np.random.default_rng(94)
        orders = set()
        for snr in (np.inf, 40.0, 30.0, 14.0):
            for _ in range(10):
                spec = gen_random_spectrum(3, gamma, rng)
                g = add_noise(synth_line_spectral(spec, 512), snr, rng)
                y = modulo_sample(g, lam)
                assert np.max(np.abs(residual_decompose(g, y, lam))) > 0
                order = select_usalg_order(g, lam)
                assert select_usalg_order(y, lam) == order
                orders.add(order)
        assert len(orders) > 1

    @pytest.mark.parametrize("y,lam,message", [
        (np.array([0.1, np.inf, 0.2]), 0.5, "non-finite sample.*index 1"),
        (np.zeros(8), 0.0, "^lam must be finite"),
        (np.zeros(8), np.nan, "^lam must be finite"),
    ])
    def test_rejects_bad_input(self, y, lam, message):
        with pytest.raises(ValueError, match=message):
            select_usalg_order(y, lam)
