"""Higher-order-difference unfolding baseline.

Differencing a sufficiently oversampled signal shrinks it inside the ADC
range, at which point re-folding the differenced modulo samples recovers the
differenced original exactly and the folding counts follow by subtraction.
Each of the ``D`` integrations that undo the differencing introduces one
unknown integer constant; those are re-estimated from the partially folded
lower-order differences by a rounded median offset.  Real and imaginary
parts are processed independently.  The final output carries the usual
additive ``2*lam*Z`` ambiguity, which the caller resolves.
"""

from __future__ import annotations

import numpy as np

from .signals import centered_modulo, checked_int, finite_samples
from .transform import anti_difference

__all__ = ["usalg", "select_usalg_order"]

MAX_ORDER = 3
"""Highest difference order :func:`select_usalg_order` considers."""


def _recover_real(y: np.ndarray, lam: float, order: int) -> np.ndarray:
    diffs = [np.diff(y, d) for d in range(order + 1)]
    eps_d = np.round((centered_modulo(diffs[order], lam) - diffs[order])
                     / (2.0 * lam))
    for d in range(order - 1, 0, -1):
        raw = anti_difference(eps_d).real
        # Offset against the d-th difference wherever it is itself unfolded;
        # the rounded median tolerates the samples where it is not.
        probe = np.round((centered_modulo(diffs[d], lam) - diffs[d]) / (2.0 * lam))
        eps_d = raw + np.round(np.median(probe - raw))
    eps = anti_difference(eps_d).real
    return y + 2.0 * lam * eps


def usalg(y: np.ndarray, lam: float, order_d: int = 1) -> np.ndarray:
    """Unfold modulo samples through ``order_d``-th differences.

    Valid whenever the ``order_d``-th difference of the underlying signal
    stays inside ``[-lam, lam)`` componentwise; outside that regime the
    output is simply wrong and the caller is expected to score it.
    """
    order_d = checked_int("difference order", order_d, 1)
    y = finite_samples(y)
    if y.size <= order_d:
        raise ValueError("record too short for this difference order")
    return _recover_real(y.real, lam, order_d) \
        + 1j * _recover_real(y.imag, lam, order_d)


def select_usalg_order(y: np.ndarray, lam: float) -> int:
    """Difference order up to ``MAX_ORDER`` minimizing the sup norm over both
    components of the differences re-folded into ``[-lam, lam)``, the re-fold
    :func:`usalg` applies at its top order.

    Differences of the modulo samples and of the signal they fold differ by
    multiples of ``2*lam``, so the rule picks the same order from either.
    Ties break toward the smallest order.  White noise grows by sqrt(2) per
    difference, so noisy records select low orders; smooth oversampled
    records shrink under differencing and select high ones.
    """
    y = finite_samples(y)
    parts = np.stack([y.real, y.imag])
    best_order, best_val = 1, np.inf
    for d in range(1, MAX_ORDER + 1):
        parts = np.diff(parts)
        if parts.size == 0:
            break
        val = float(np.max(np.abs(centered_modulo(parts, lam))))
        if val < best_val:
            best_val, best_order = val, d
    return best_order
