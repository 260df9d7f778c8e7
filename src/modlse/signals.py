"""Test-signal synthesis and the centered modulo (self-reset ADC) model.

A length-N complex signal is represented as a 1-D ``numpy`` array of
``complex128``.  Folding-count sequences ("simple functions") are Gaussian
integers stored as ``complex128`` with integer-valued real and imaginary
parts, so that ``g = y + 2*lam*eps`` holds exactly in double precision.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NOISELESS",
    "LineSpectrum",
    "SamplingConfig",
    "synth_line_spectral",
    "gen_random_spectrum",
    "bandlimited_bins",
    "gen_bandlimited",
    "add_noise",
    "centered_modulo",
    "modulo_sample",
    "residual_decompose",
]

NOISELESS = np.inf
"""SNR value (dB) that disables noise injection entirely."""
MAX_REDRAWS = 10_000
"""Cap on the frequency draws :func:`gen_random_spectrum` rejects."""


@dataclass(frozen=True)
class LineSpectrum:
    """A K-component line spectrum: frequencies in rad/sample plus complex weights."""

    omegas: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if omegas.size == 0:
            raise ValueError("spectrum must contain at least one component")
        if omegas.shape != coeffs.shape:
            raise ValueError("omegas and coeffs must have matching length")
        check_finite(omegas=omegas, coeffs=coeffs)
        if omegas.size > 1 and np.min(np.abs(np.subtract.outer(omegas, omegas))
                                      + np.eye(omegas.size)) == 0.0:
            raise ValueError("frequencies must be pairwise distinct")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.omegas.size


def check_finite(**arrays) -> None:
    """Raise a ``ValueError`` naming the first keyword array with a non-finite entry."""
    for name, values in arrays.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")


def check_lam(lam: float) -> None:
    """Reject a folding threshold ``lam`` that is not finite and positive."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam!r}")


def check_gamma(gamma: float) -> None:
    """Reject an oversampling factor ``gamma`` that is not finite and above 1."""
    if not (np.isfinite(gamma) and gamma > 1):
        raise ValueError(f"gamma must be finite and exceed 1, got {gamma!r}")


def check_lam_gamma(lam: float, gamma: float) -> None:
    """Reject a folding threshold ``lam`` that is not finite and positive, or
    an oversampling factor ``gamma`` that is not finite and above 1."""
    check_lam(lam)
    check_gamma(gamma)


def check_snr(snr_db: float) -> None:
    """Reject an SNR that is NaN or ``-inf``; ``+inf`` is :data:`NOISELESS`."""
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db must be a number or +inf (noiseless), got {snr_db!r}")


def finite_samples(x) -> np.ndarray:
    """Return ``x`` as a complex array, rejecting any non-finite sample."""
    x = np.asarray(x, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{bad.size} non-finite sample(s), first at index {bad[0]}")
    return x


def checked_int(name: str, value, least: int | None = None) -> int:
    """Return ``value`` as an ``int``, or raise a ``ValueError`` naming ``name``
    if it is a ``bool``, not an integer, or below ``least`` when that is given."""
    try:
        if isinstance(value, bool):  # operator.index(True) is True
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def checked_order(k, n: int) -> int:
    """Return the model order ``k`` as an ``int`` for a record of ``n`` samples.

    Raises ``ValueError`` unless ``k`` is an integer from 1 to ``n / 2``.
    """
    k = checked_int("k", k, 1)
    if k > n / 2:
        raise ValueError("k may not exceed half the record length")
    return k


@dataclass(frozen=True)
class SamplingConfig:
    """Scene parameters for simulated modulo acquisition."""

    n: int = 512
    gamma: float = 10.0
    lam: float = 0.7
    k: int = 3
    snr_db: float = 30.0
    seed: int = 0

    def __post_init__(self):
        checked_int("n", self.n, 2)
        check_lam_gamma(self.lam, self.gamma)
        checked_order(self.k, self.n)
        check_snr(self.snr_db)
        checked_int("seed", self.seed, 0)


def synth_line_spectral(spectrum: LineSpectrum, n: int) -> np.ndarray:
    """Evaluate ``x[t] = sum_k c_k exp(j w_k t)`` for ``t = 0..n-1``.

    Parameters
    ----------
    spectrum : LineSpectrum
        Frequencies and complex weights.
    n : int
        Number of samples, at least 2.
    """
    checked_int("n", n, 2)
    t = np.arange(n)
    return np.exp(1j * np.outer(t, spectrum.omegas)) @ spectrum.coeffs


def gen_random_spectrum(k: int, gamma: float, rng: np.random.Generator,
                        min_separation: float | None = None) -> LineSpectrum:
    """Draw a random K-component spectrum confined to ``(0, 2*pi/gamma)``.

    Frequencies are i.i.d. uniform on the admissible band; weight magnitudes
    are Gaussian with mean 1 and variance 0.1 (redrawn while non-positive);
    phases are uniform on ``(0, 2*pi)``.  When ``min_separation`` is given,
    draws whose minimum pairwise frequency gap falls below it are rejected
    wholesale; simulation callers pass ``2*pi/n`` so that every scene is
    resolvable at its record length.  Raises ``ValueError``, before any draw,
    if ``gamma`` is not finite and above 1, if ``min_separation`` is NaN or
    negative, or if the band cannot hold ``k`` frequencies that far apart;
    also if ``MAX_REDRAWS`` draws in a row are rejected.
    """
    checked_int("k", k, 1)
    check_gamma(gamma)
    hi = 2.0 * np.pi / gamma
    if min_separation is None:
        min_separation = 0.0
    if not min_separation >= 0:
        raise ValueError(f"min_separation must be non-negative, got {min_separation!r}")
    crowded = ValueError(
        f"cannot draw k={k} frequencies at least min_separation="
        f"{min_separation:g} apart in the band (0, 2*pi/gamma), gamma={gamma:g}")
    if (k - 1) * min_separation >= hi:
        raise crowded
    for _ in range(MAX_REDRAWS):
        omegas = rng.uniform(0.0, hi, size=k)
        if np.all(omegas > 0.0) and (
            k == 1 or np.min(np.diff(np.sort(omegas))) >= min_separation
        ):
            break
    else:
        raise crowded
    mags = rng.normal(1.0, np.sqrt(0.1), size=k)
    while np.any(mags <= 0.0):
        bad = mags <= 0.0
        mags[bad] = rng.normal(1.0, np.sqrt(0.1), size=int(bad.sum()))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    return LineSpectrum(omegas, mags * np.exp(1j * phases))


def bandlimited_bins(n: int, gamma: float) -> int:
    """Number of active DFT bins of a length-``n`` bandlimited signal.

    The band covers bins ``1..floor(n/gamma)``, clipped below the Nyquist
    bin: ``min(floor(n/gamma), (n-1)//2)``.  It is the model order of a
    bandlimited scene.  Raises ``ValueError`` if ``n`` is not an integer
    >= 4, ``gamma`` is not finite and above 1, or the band is empty.
    """
    checked_int("n", n, 4)
    check_gamma(gamma)
    bins = min(int(np.floor(n / gamma)), (n - 1) // 2)
    if bins < 1:
        raise ValueError("band is empty; decrease gamma")
    return bins


def gen_bandlimited(n: int, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """Generate a complex signal whose spectrum occupies only low positive bins.

    A real bandlimited signal is drawn first (Hermitian-symmetric random DFT
    coefficients on bins ``|m| <= bandlimited_bins(n, gamma)``), its
    non-positive frequency half is then zeroed, and the result is transformed
    back.  The output is normalized to unit per-sample RMS and its DFT
    magnitude is supported on bins ``1..bandlimited_bins(n, gamma)`` only.
    """
    b = bandlimited_bins(n, gamma)
    spec = np.zeros(n, dtype=complex)
    coef = rng.normal(size=b) + 1j * rng.normal(size=b)
    spec[1:b + 1] = coef
    spec[n - b:] = np.conj(coef[::-1])
    spec[0] = rng.normal()
    real_bl = np.fft.ifft(spec) * np.sqrt(n)
    half = np.fft.fft(real_bl) / np.sqrt(n)
    half[0] = 0.0
    half[(n + 1) // 2:] = 0.0
    x = np.fft.ifft(half) * np.sqrt(n)
    rms = np.sqrt(np.mean(np.abs(x) ** 2))
    if rms == 0.0:
        raise ValueError("degenerate zero draw")
    return x / rms


def add_noise(x: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex white Gaussian noise at the requested SNR.

    The per-sample noise variance is ``norm(x)^2 / (N * 10^(snr_db/10))``,
    split equally between real and imaginary parts.  ``snr_db = inf``
    (:data:`NOISELESS`) returns ``x`` unchanged; a NaN or ``-inf`` SNR raises
    ``ValueError``.
    """
    check_snr(snr_db)
    x = np.asarray(x, dtype=complex)
    if snr_db == NOISELESS:
        return x.copy()
    energy = float(np.linalg.norm(x) ** 2)
    if energy == 0.0:
        raise ValueError("cannot scale noise against a zero-energy signal")
    n = x.size
    var = energy / (n * 10.0 ** (snr_db / 10.0))
    sigma = np.sqrt(var / 2.0)
    w = rng.normal(0.0, sigma, size=n) + 1j * rng.normal(0.0, sigma, size=n)
    return x + w


def centered_modulo(t, lam: float):
    """Fold ``t`` into ``[-lam, lam)``: ``2*lam*(frac(t/(2*lam) + 1/2) - 1/2)``.

    Accepts scalars or arrays.  Evaluated as ``t - 2*lam*floor(t/(2*lam) + 1/2)``
    so that in-range inputs pass through bit-exactly.  The boundary
    ``t = lam`` maps to ``-lam`` (half-open interval, a consequence of the
    fractional-part definition).
    """
    check_lam(lam)
    t = np.asarray(t, dtype=float)
    out = t - 2.0 * lam * np.floor(t / (2.0 * lam) + 0.5)
    return out if out.ndim else float(out)


def modulo_sample(g: np.ndarray, lam: float) -> np.ndarray:
    """Apply the centered modulo to real and imaginary parts independently."""
    g = np.asarray(g, dtype=complex)
    return centered_modulo(g.real, lam) + 1j * centered_modulo(g.imag, lam)


def residual_decompose(g: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Recover the folding counts ``eps`` with ``g = y + 2*lam*eps`` exactly.

    Raises if ``(g - y) / (2*lam)`` is not integer-valued to within a scaled
    tolerance, which signals that ``y`` is not the modulo image of ``g``.
    """
    check_lam(lam)
    g = np.asarray(g, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if g.shape != y.shape:
        raise ValueError("g and y must have the same length")
    raw = (g - y) / (2.0 * lam)
    scale = max(1.0, float(np.max(np.abs(g))) / (2.0 * lam)) if g.size else 1.0
    tol = 1e-9 * scale
    eps = np.round(raw)
    if np.max(np.abs(raw.real - eps.real), initial=0.0) > tol or \
       np.max(np.abs(raw.imag - eps.imag), initial=0.0) > tol:
        raise ValueError("residual is not on the Gaussian-integer lattice; "
                         "inputs are inconsistent")
    return eps
