"""Difference/Fourier-domain machinery for the folding-count estimation problem.

Folding a heavily oversampled signal leaves a fingerprint that is easiest to
isolate after two steps: a first-order difference (which shrinks the folding
counts onto a small Gaussian-integer lattice) and a unitary DFT (which pushes
the signal content into the lowest bins).  On a guard band of high bins the
signal contribution is provably small, so the selected DFT rows constrain
only the folding-count differences.  This module builds that integer
least-squares instance; how a solver truncates or searches it (band order,
state alphabet) is the solver's business.

Index conventions: a length-``N`` signal has an ``N-1`` point difference
domain.  DFT bins are 0-based throughout (bin ``m`` has frequency
``2*pi*m/(N-1)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "QuadraticInstance",
    "first_difference",
    "anti_difference",
    "dft",
    "beta_limits",
    "select_subset",
    "select_subset_tail",
    "build_instance",
    "exact_objective",
]


def first_difference(v: np.ndarray) -> np.ndarray:
    """Forward difference ``out[t] = v[t+1] - v[t]``; length shrinks by one."""
    v = np.asarray(v)
    if v.size < 2:
        raise ValueError("need at least two samples")
    return np.diff(v)


def anti_difference(d: np.ndarray) -> np.ndarray:
    """Cumulative-sum inverse of :func:`first_difference`, anchored at zero.

    ``anti_difference(first_difference(v)) == v - v[0]``; the inverse is
    defined only up to that additive constant.
    """
    d = np.asarray(d)
    out = np.zeros(d.size + 1, dtype=complex if np.iscomplexobj(d) else float)
    np.cumsum(d, out=out[1:])
    return out


def dft(v: np.ndarray) -> np.ndarray:
    """Unitary DFT: ``out[m] = sum_t v[t] exp(-2j*pi*m*t/L) / sqrt(L)``."""
    v = np.asarray(v)
    if v.size < 1:
        raise ValueError("empty input")
    return np.fft.fft(v) / np.sqrt(v.size)


def beta_limits(n: int, gamma: float) -> tuple[float, float]:
    """Open interval of admissible guard-band fractions ``beta``."""
    return 1.0 / (n - 1), (gamma - 1.0) / (2.0 * gamma)


def select_subset(n: int, gamma: float, beta: float) -> np.ndarray:
    """Pick the guard-band bins for a length-``n`` record.

    With ``L = n - 1`` and ``Nb = L*beta``, the selected 0-based bins are
    ``floor(L/gamma + Nb) + 1 .. floor(L - Nb)`` inclusive, which excludes
    both the signal's spectral leakage and its wrap-around image.  ``beta``
    must lie strictly inside :func:`beta_limits`, which must not be empty.
    """
    lo_beta, hi_beta = beta_limits(n, gamma)
    if not lo_beta < hi_beta:
        raise ValueError(
            f"gamma={gamma} leaves no admissible beta at n={n}: the interval "
            f"({lo_beta:.6g}, {hi_beta:.6g}) is empty; increase n or gamma"
        )
    if not lo_beta < beta < hi_beta:
        raise ValueError(
            f"beta={beta} outside admissible interval ({lo_beta:.6g}, {hi_beta:.6g})"
        )
    big_l = n - 1
    nb = big_l * beta
    lo = int(np.floor(big_l / gamma + nb)) + 1
    hi = int(np.floor(big_l - nb))
    if hi < lo:
        raise ValueError("empty subset; beta too large for this n and gamma")
    return np.arange(lo, hi + 1)


def select_subset_tail(n: int, gamma: float) -> np.ndarray:
    """Variant used by greedy-only recovery: every bin above the signal band."""
    big_l = n - 1
    lo = int(np.floor(big_l / gamma)) + 1
    if lo >= big_l:
        raise ValueError(f"gamma={gamma} leaves no guard band at n={n}: the first tail "
                         f"bin floor((n-1)/gamma) + 1 = {lo} is not below n - 1 = "
                         f"{big_l}; increase n or gamma")
    return np.arange(lo, big_l)


@dataclass(frozen=True)
class QuadraticInstance:
    """Guard-band integer least-squares instance ``min |z_s + F_s eps|^2``.

    ``F_s`` is the ``n_vars``-point unitary DFT restricted to the rows
    ``bins``, ``z_s`` the scaled guard-band observations, ``b = F_s^H z_s``
    the linear term, and ``eps`` ranges over Gaussian-integer sequences of
    length ``n_vars``.  The Gram matrix ``Q = F_s^H F_s`` is Hermitian
    Toeplitz, so it is held as its offsets ``q[d] = Q[i, i+d]``: a banded
    solver reads ``q[:p + 1]`` and a greedy refit the block of its support
    (:meth:`gram`); dense copies are for tests and diagnostics.
    """

    bins: np.ndarray = field(repr=False)
    n_vars: int
    z_s: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)

    def forward(self, eps: np.ndarray) -> np.ndarray:
        """Apply ``F_s`` via FFT: unitary DFT followed by row selection."""
        return dft(eps)[self.bins]

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """Apply ``F_s^H`` via inverse FFT of the zero-embedded coefficients."""
        full = np.zeros(self.n_vars, dtype=complex)
        full[self.bins] = u
        return np.fft.ifft(full) * np.sqrt(self.n_vars)

    def gram(self, idx) -> np.ndarray:
        """Block ``Q[idx][:, idx]``, indices in any order, gathered from ``q``."""
        d = np.subtract.outer(idx, idx)
        out = self.q[np.abs(d)]
        return np.where(d > 0, np.conj(out), out)

    def q_dense(self) -> np.ndarray:
        """Dense Hermitian Toeplitz ``Q``; test-scale use only."""
        return self.gram(np.arange(self.n_vars))

    def q_banded_dense(self, p: int) -> np.ndarray:
        """Dense band-truncated ``Q`` (entries beyond offset ``p`` zeroed)."""
        m = self.n_vars
        idx = np.subtract.outer(np.arange(m), np.arange(m))
        return np.where(np.abs(idx) <= p, self.q_dense(), 0.0)

    def with_observation(self, z_s: np.ndarray) -> "QuadraticInstance":
        """Same ``bins`` and ``q``, new observation vector and matching linear term."""
        return replace(self, z_s=z_s, b=self.adjoint(z_s))


def build_instance(y: np.ndarray, lam: float, bins: np.ndarray) -> QuadraticInstance:
    """Assemble the guard-band instance from modulo samples.

    ``bins`` are the selected rows of the ``len(y) - 1`` point difference
    domain DFT, as :func:`select_subset` returns them: a non-empty, strictly
    increasing integer array inside ``0..len(y)-2``.  ``z_s`` is the selected
    unitary DFT of the first difference of ``y`` divided by ``2*lam``, and
    ``b = F_s^H z_s``.  The Gram offsets ``q[d] = (1/m) * sum_{s in bins}
    exp(-2j*pi*s*d/m)``, ``d = 0..m-1``, are computed here alone, by one FFT
    of the bins' indicator, to within a few ulps.
    """
    y = np.asarray(y, dtype=complex)
    m = y.size - 1
    bins = np.asarray(bins)
    if bins.ndim != 1 or bins.size == 0 or not np.issubdtype(bins.dtype, np.integer):
        raise ValueError("bins must be a non-empty 1-D integer array, got "
                         f"{bins.dtype} of shape {bins.shape}")
    if not np.all(bins[1:] > bins[:-1]):
        raise ValueError("bins must be strictly increasing (sorted, no duplicates)")
    if bins[0] < 0 or bins[-1] > m - 1:
        raise ValueError(f"bins {bins[0]}..{bins[-1]} outside 0..{m - 1} "
                         f"for {y.size} samples")
    z_s = dft(first_difference(y))[bins] / (2.0 * lam)
    indicator = np.zeros(m)
    indicator[bins] = 1.0
    return QuadraticInstance(bins=bins, n_vars=m, z_s=None, b=None,
                             q=np.fft.fft(indicator) / m).with_observation(z_s)


def exact_objective(inst: QuadraticInstance, eps: np.ndarray) -> float:
    """Un-approximated objective ``|z_s + F_s eps|^2``."""
    return float(np.linalg.norm(inst.z_s + inst.forward(eps)) ** 2)
