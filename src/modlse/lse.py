"""Newton-refined greedy line spectral estimation with a known model order.

Each detection picks the peak of an oversampled periodogram of the residual
and refits all amplitudes jointly by least squares.  A final joint damped
Newton pass over all frequencies and amplitudes, on the exact Hessian of the
residual energy, then refines every atom together, including pairs within a
Rayleigh width of each other.  Its steps are guarded by heavier damping, so
the residual energy never increases.

The joint pass carries its own fit from round to round: an accepted
candidate's frequencies, amplitudes, phasor-power atoms and residual are the
next iterate, with no least-squares refit in between.  Only its result is
refitted once on exact atoms, and kept if that fit strictly improves on the
detection's.
"""

from __future__ import annotations

import numpy as np

from .signals import LineSpectrum, checked_order, finite_samples

__all__ = ["nomp", "nmse"]

NMSE_FLOOR_DB = -300.0

GRID_OVERSAMPLE = 16
"""Zero-padding factor of the detection periodogram."""
JOINT_ROUNDS = 40
"""Cap on the final joint damped Newton rounds."""


def _atoms(omegas: np.ndarray, n: int) -> np.ndarray:
    """Atom matrix; column ``i`` is ``exp(1j * omegas[i] * t)``, ``t < n``."""
    return np.exp(1j * np.outer(np.arange(n), omegas))


def _phasor_atoms(omegas: np.ndarray, n: int) -> np.ndarray:
    """Atom matrix from phasor powers, for iterates of the joint pass.

    ``k`` complex exponentials and one running product down the rows replace
    the ``n * k`` exponentials of :func:`_atoms`.  Entry ``t`` is within
    ``(2 + 2 sqrt 2) t u`` of ``exp(i t w)`` (unit roundoff ``u``), and the
    entry of :func:`_atoms` within ``2 pi t u + 2u``, from rounding ``t w``;
    the two differ by less than ``16 (t + 1) u``.
    """
    a = np.empty((n, omegas.size), dtype=complex)
    a[0] = 1.0
    a[1:] = np.exp(1j * omegas)
    np.multiply.accumulate(a, axis=0, out=a)
    return a


def _fit_all(g: np.ndarray, omegas: np.ndarray):
    """Least-squares fit of ``g`` on the atoms of ``omegas``: ``a, coeffs, resid``."""
    a = _atoms(omegas, g.size)
    coeffs, *_ = np.linalg.lstsq(a, g, rcond=None)
    return a, coeffs, g - a @ coeffs


def _newton_system(a: np.ndarray, coeffs: np.ndarray, resid: np.ndarray):
    """Half the gradient and half the Hessian of ``|g - A(w) c|^2``.

    The ``3k`` real parameters are ordered ``(Re c, Im c, w)``, and ``a``,
    ``resid`` are ``A(w)`` and ``g - A(w) c``.  With ``J`` the Jacobian of
    the model ``A(w) c``, the half Hessian is ``Re(J^H J) - Re<d2 m, r>``.
    The second term is block-diagonal per atom: only the ``(w_i, w_i)``,
    ``(w_i, Re c_i)`` and ``(w_i, Im c_i)`` entries are non-zero, so it
    costs ``O(n k)``.
    """
    n, k = a.shape
    t = np.arange(n)
    datom = (1j * t)[:, None] * a * coeffs[None, :]
    # rows: real, then imaginary parts; columns: the model's derivatives
    # along Re c (A), Im c (iA) and w
    jac = np.empty((2, n, 3, k))
    jac[0, :, 0], jac[1, :, 0] = a.real, a.imag
    jac[0, :, 1], jac[1, :, 1] = -a.imag, a.real
    jac[0, :, 2], jac[1, :, 2] = datom.real, datom.imag
    jac = jac.reshape(2 * n, 3 * k)
    grad = -(jac.T @ np.concatenate([resid.real, resid.imag]))
    hess = jac.T @ jac
    # u = A^H (t r) and v = A^H (t^2 r), from one product with A
    u, v = np.conj(np.stack([t * np.conj(resid), t * t * np.conj(resid)]) @ a)
    re, im, w = np.arange(k), np.arange(k, 2 * k), np.arange(2 * k, 3 * k)
    hess[w, w] += (np.conj(coeffs) * v).real
    hess[w, re] -= u.imag
    hess[re, w] -= u.imag
    hess[w, im] += u.real
    hess[im, w] += u.real
    return grad, hess


def _joint_refine(g: np.ndarray, omegas: np.ndarray, a: np.ndarray,
                  coeffs: np.ndarray, resid: np.ndarray):
    """Damped Newton over all (frequency, amplitude) pairs.

    Starts from the caller's fit ``a, coeffs, resid = _fit_all(g, omegas)``
    and returns the refined frequencies, their fit and its residual energy.
    Each round solves ``(H + mu diag H) d = -grad`` on the exact Hessian of
    :func:`_newton_system`; ``mu`` drops threefold after an accepted step and
    grows tenfold after a rejected one.  A step is accepted only if it
    strictly lowers the residual energy of the carried fit, and the accepted
    candidate (frequencies, its own amplitudes, phasor-power atoms and
    residual) is the next iterate.  After the last round the frequencies are
    refitted once by :func:`_fit_all`; that fit is returned only if its
    energy is strictly below the detection's, else the detection fit is
    returned unchanged, so the energy never increases.
    """
    n, k = g.size, omegas.size
    start_cost = cost = float(np.linalg.norm(resid) ** 2)
    floor = 1e-28 * float(np.linalg.norm(g) ** 2)
    w, c, mu = omegas, coeffs, 1e-3
    for _ in range(JOINT_ROUNDS):
        if cost <= floor:
            break
        grad, hess = _newton_system(a, c, resid)
        diag = np.diag(hess)
        for _ in range(20):
            try:
                upd = np.linalg.solve(hess + np.diag(mu * diag), -grad)
            except np.linalg.LinAlgError:  # singular: damp harder
                mu *= 10.0
                continue
            cand = (w + upd[2 * k:]) % (2.0 * np.pi)
            c_cand = c + upd[:k] + 1j * upd[k:2 * k]
            a_cand = _phasor_atoms(cand, n)
            r_cand = g - a_cand @ c_cand
            cand_cost = float(np.linalg.norm(r_cand) ** 2)
            if cand_cost < cost:
                mu /= 3.0
                break
            mu *= 10.0
        else:
            break
        prev_cost = cost
        w, c, a, resid, cost = cand, c_cand, a_cand, r_cand, cand_cost
        if prev_cost - cost <= 1e-12 * prev_cost:
            break
    if w is not omegas:  # a step was accepted
        _, c, resid = _fit_all(g, w)
        cost = float(np.linalg.norm(resid) ** 2)
        if cost < start_cost:
            return w, c, cost
    return omegas, coeffs, start_cost


def _merge_lossless(g: np.ndarray, omegas: np.ndarray, coeffs: np.ndarray,
                    cost: float, n: int):
    """Merge half-bin neighbours only when the refit shows no fit loss.

    ``coeffs`` and ``cost`` are the fit of ``omegas`` and its residual energy.
    True duplicates (two atoms chasing one peak) are nearly collinear, so
    dropping one and refitting re-absorbs its amplitude at no cost.  Close
    pairs that genuinely resolve two components would degrade the fit when
    collapsed, and are kept.
    """
    tol = np.pi / n  # half a DFT bin
    scale = float(np.linalg.norm(g) ** 2)
    while omegas.size > 1:
        order = np.argsort(omegas)
        gaps = np.diff(omegas[order])
        tight = int(np.argmin(gaps))
        if gaps[tight] >= tol:
            break
        i, j = order[tight], order[tight + 1]
        drop = i if abs(coeffs[i]) < abs(coeffs[j]) else j
        cand_w = np.delete(omegas, drop)
        _, cand_c, cand_r = _fit_all(g, cand_w)
        cand_cost = float(np.linalg.norm(cand_r) ** 2)
        if cand_cost > cost + 1e-9 * scale:
            break
        omegas, coeffs, cost = cand_w, cand_c, cand_cost
    return omegas, coeffs


def _detect(g: np.ndarray, k: int):
    """Detect ``k`` atoms greedily; returns ``omegas, a, coeffs, resid``.

    Each detection is the peak of a ``GRID_OVERSAMPLE``-times zero-padded
    periodogram of the residual, and ``a, coeffs, resid`` is the
    least-squares fit of ``g`` on the atoms of ``omegas``, as
    :func:`_fit_all` returns it.  The residual is orthogonal to every fitted
    atom, so a grid point already picked can win again only when the
    residual is at rounding level; the repeats then share one amplitude and
    :func:`_merge_lossless` folds them back into one atom.
    """
    grid = GRID_OVERSAMPLE * g.size
    omegas = np.zeros(0, dtype=float)
    resid = g
    for _ in range(k):
        peak = int(np.argmax(np.abs(np.fft.fft(resid, grid))))
        omegas = np.append(omegas, 2.0 * np.pi * peak / grid)
        a, coeffs, resid = _fit_all(g, omegas)
    return omegas, a, coeffs, resid


def nomp(g: np.ndarray, k: int) -> LineSpectrum:
    """Estimate ``k`` sinusoids from a uniformly sampled complex signal.

    ``g`` must be finite and ``k`` an integer from 1 to ``len(g) / 2``.  The
    schedule is fixed: each of ``k`` detections picks the peak of a
    ``GRID_OVERSAMPLE``-times zero-padded periodogram of the residual and
    refits all amplitudes jointly.  After the last detection a joint
    damped Newton pass of at most ``JOINT_ROUNDS`` rounds refines all
    frequencies and amplitudes together on the exact Hessian, carrying its
    own fit from round to round (damping divided by 3 after an accepted step,
    times 10 after a rejected one) and refitting once at the end; half-bin
    neighbours are then merged where the refit loses no fit.
    """
    g = finite_samples(g)
    k = checked_order(k, g.size)
    omegas, coeffs, cost = _joint_refine(g, *_detect(g, k))
    omegas, coeffs = _merge_lossless(g, omegas, coeffs, cost, g.size)
    return LineSpectrum(omegas, coeffs)


def nmse(x_hat: np.ndarray, x: np.ndarray) -> float:
    """Normalized mean squared error in dB, floored at ``NMSE_FLOOR_DB``."""
    x_hat = np.asarray(x_hat, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x_hat.shape != x.shape:
        raise ValueError("length mismatch")
    ref = float(np.linalg.norm(x) ** 2)
    if ref == 0.0:
        raise ValueError("reference signal has zero energy")
    ratio = float(np.linalg.norm(x_hat - x) ** 2) / ref
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(10.0 * np.log10(ratio))
