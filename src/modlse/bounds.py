"""Analytic guarantees behind the guard-band formulation.

Three families of bounds justify the solver design:

* a bound on how large the first-differenced folding counts can get, which
  fixes the Gaussian-integer state alphabet searched by the solver;
* a per-bin bound on the spectral leakage an off-grid line spectrum can
  deposit inside the guard band, which certifies that guard-band
  observations are dominated by folding content;
* the exact fraction of Gram-matrix energy captured by a band truncation,
  plus a closed-form lower bound on it, which justifies replacing the full
  Gram matrix by a banded one.
"""

from __future__ import annotations

import numpy as np

from .signals import LineSpectrum, check_gamma, check_lam_gamma, checked_int

__all__ = [
    "residual_state_bound",
    "grid_offsets",
    "leakage_bound",
    "band_energy_ratio",
    "band_energy_lower_bound",
]


def residual_state_bound(k: int, c_max: float, lam: float, gamma: float) -> int:
    """Bound on the folding-count differences in the noiseless case.

    Both integer parts of every first-differenced folding count lie in
    ``{-V..V}`` with ``V = floor(k*pi*c_max / (lam*gamma) + 1)``.
    """
    checked_int("k", k, 1)
    if not (np.isfinite(c_max) and c_max > 0):
        raise ValueError(f"c_max must be finite and positive, got {c_max!r}")
    check_lam_gamma(lam, gamma)
    return int(np.floor(k * np.pi * c_max / (lam * gamma) + 1.0))


def grid_offsets(omegas: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split frequencies into nearest difference-domain bin plus offset.

    Returns integer bins ``a`` and offsets ``delta`` in ``[-0.5, 0.5)`` with
    ``omega = 2*pi*(a + delta) / (n - 1)`` exactly.
    """
    pos = np.asarray(omegas, dtype=float) * (n - 1) / (2.0 * np.pi)
    a = np.floor(pos + 0.5)
    return a.astype(int), pos - a


def leakage_bound(spectrum: LineSpectrum, n: int, gamma: float, bin_index: int) -> float:
    """Upper bound on guard-band leakage of a differenced line spectrum.

    Bounds the magnitude of bin ``bin_index`` (0-based, strictly above
    ``floor((n-1)/gamma)``) of the unitary DFT of the first difference of the
    length-``n`` signal synthesized from ``spectrum``, whose frequencies must
    lie in ``[0, 2*pi/gamma]``.  Exactly on-grid spectra produce zero leakage
    and return 0.
    """
    m = checked_int("n", n) - 1
    check_gamma(gamma)
    if not np.all((spectrum.omegas >= 0) & (spectrum.omegas <= 2.0 * np.pi / gamma)):
        raise ValueError("spectrum frequencies must lie in [0, 2*pi/gamma]")
    if checked_int("bin_index", bin_index) <= int(np.floor(m / gamma)):
        raise ValueError(f"bin_index {bin_index} lies inside the signal band")
    if bin_index > m - 1:
        raise ValueError(f"bin_index {bin_index} is out of range")
    _, delta = grid_offsets(spectrum.omegas, n)
    delta_max = float(np.max(np.abs(delta)))
    if delta_max == 0.0:
        return 0.0
    k = spectrum.order
    c_max = float(np.max(np.abs(spectrum.coeffs)))
    s_max = float(np.max(np.sin(spectrum.omegas / 2.0)))
    denom = min(np.sin(np.pi * bin_index / m - np.pi / gamma),
                np.sin(np.pi * bin_index / m))
    return 2.0 * k * np.pi * c_max * s_max * delta_max / (np.sqrt(m) * denom)


def _wrap_distance(x: np.ndarray) -> np.ndarray:
    """Distance from each value to the nearest integer."""
    fr = x - np.floor(x)
    return np.where(fr < 0.5, fr, 1.0 - fr)


def _check_exclusion(n: int, m_excluded: int) -> None:
    if not 2 <= checked_int("m_excluded", m_excluded) < checked_int("n", n):
        raise ValueError("m_excluded must satisfy 2 <= m_excluded < n")


def band_energy_ratio(n: int, m_excluded: int, p: int) -> float:
    """Exact ``|Q_banded|_F^2 / |Q|_F^2`` for a contiguous guard-band Gram matrix.

    ``m_excluded`` is the number of bins left out of the selection
    (``n - |S|``); ``p`` is the band half-width.  ``p = 0`` keeps only the
    diagonal and the ratio reduces to ``1 - (m_excluded-1)/(n-1)``; ``p``
    may not exceed ``n - 2``, the largest offset in the Gram matrix.
    """
    _check_exclusion(n, m_excluded)
    if not 0 <= checked_int("p", p) <= n - 2:
        raise ValueError(f"p must satisfy 0 <= p <= n - 2, got {p}")
    big_l = n - 1
    out = 1.0 - (m_excluded - 1) / big_l
    if p == 0:
        return out
    k = np.arange(1, p + 1)
    num = (big_l - k) * np.sin(k * np.pi * (m_excluded - 1) / big_l) ** 2 \
        / np.sin(k * np.pi / big_l) ** 2
    return out + 2.0 * float(np.sum(num)) / (big_l ** 2 * (n - m_excluded))


def band_energy_lower_bound(n: int, m_excluded: int, p: int) -> float:
    """Closed-form lower bound on :func:`band_energy_ratio`, valid for
    ``p <= (n-1)/2``."""
    _check_exclusion(n, m_excluded)
    if not 0 <= 2 * checked_int("p", p) <= n - 1:
        raise ValueError(f"p must satisfy 0 <= p <= (n-1)/2, got {p}")
    big_l = n - 1
    eta = (m_excluded - 1) / big_l
    out = 1.0 - eta
    if p == 0:
        return out
    k = np.arange(1, p + 1)
    u = _wrap_distance(k * eta)
    denom = k ** 2 * (1.0 - (m_excluded - 1 - k) / (big_l - k))
    return out + (8.0 / np.pi ** 2) * float(np.sum(u ** 2 / denom))
