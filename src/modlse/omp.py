"""Greedy lattice refinement of a folding-count estimate.

When the banded solve is nearly right, the remaining error is a sparse
Gaussian-integer vector, so it can be chased greedily: pick the dictionary
column most correlated with the current residual, refit the selected support
on its Gram block, round the fit back onto the lattice, and keep the update
only while the true (un-truncated) objective keeps dropping.  Columns of the
selected-row DFT all share one norm, so raw inner products rank correlations
correctly.  :func:`accept_if_improves` applies the same strict-decrease guard
to a whole update, evaluating each candidate's exact objective once.
"""

from __future__ import annotations

import numpy as np

from .transform import QuadraticInstance, exact_objective

__all__ = ["omp_refine", "accept_if_improves"]


def omp_refine(inst: QuadraticInstance, eps_hat: np.ndarray) -> np.ndarray:
    """Greedy integer correction ``delta`` reducing ``|z_s + F_s (eps_hat+delta)|^2``.

    Each selection re-fits the support on its Gram block against ``-F_s^H r0``
    (``r0`` the residual of ``eps_hat``) and scores the rounded update as
    ``r0 + F_s delta``.  Stops when no unselected column correlates with the
    residual, at a singular Gram block (``Q`` has rank ``|S|``), at a repeated
    update (unscored) or at no strict decrease.  Returns zero if none improves.
    """
    eps_hat = np.asarray(eps_hat, dtype=complex)
    if eps_hat.size != inst.n_vars:
        raise ValueError("estimate length does not match instance")
    base = inst.z_s + inst.forward(eps_hat)
    best_obj = float(np.linalg.norm(base) ** 2)
    best_delta = np.zeros(inst.n_vars, dtype=complex)
    rhs = -inst.adjoint(base)
    corr = np.abs(rhs)
    support: list[int] = []

    while True:
        corr[support] = -1.0
        j = int(np.argmax(corr))
        if corr[j] <= 0.0:
            break
        support.append(j)
        try:
            fit = np.linalg.solve(inst.gram(support), rhs[support])
        except np.linalg.LinAlgError:  # the new column is in the span
            break
        delta = np.zeros(inst.n_vars, dtype=complex)
        delta[support] = np.round(fit)
        if np.array_equal(delta, best_delta):  # would score the same
            break
        residual = base + inst.forward(delta)
        obj = float(np.linalg.norm(residual) ** 2)
        if not obj < best_obj:
            break
        best_obj, best_delta = obj, delta
        corr = np.abs(inst.adjoint(residual))
    return best_delta


def accept_if_improves(inst: QuadraticInstance, eps_hat: np.ndarray,
                       delta: np.ndarray, trace: list[float]) -> np.ndarray:
    """Return ``eps_hat + delta`` only if it strictly lowers the exact objective.

    ``trace[-1]`` holds the objective of ``eps_hat``; the objective of the
    result is appended.  A rejection returns ``eps_hat`` itself; an all-zero
    ``delta`` is rejected without evaluating the objective.
    """
    eps_hat = np.asarray(eps_hat, dtype=complex)
    delta = np.asarray(delta, dtype=complex)
    if eps_hat.shape != delta.shape:
        raise ValueError("length mismatch")
    if delta.any():
        candidate = eps_hat + delta
        obj = exact_objective(inst, candidate)
        if obj < trace[-1]:
            trace.append(obj)
            return candidate
    trace.append(trace[-1])
    return eps_hat
