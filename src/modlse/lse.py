"""Greedy line spectral estimation with a known model order.

Detection is orthogonal matching pursuit.  Each of up to ``k`` detections
takes the peak of an oversampled periodogram of the residual, refines that
one frequency by a few guarded Newton steps and refits every atom found so
far by least squares.  Detection stops early when the new atom lowers the
residual energy only at rounding level.

The frequencies are then refined together by Levenberg-Marquardt variable
projection (Golub and Pereyra; Kaufman's Jacobian): the amplitudes are
eliminated, so every iterate carries the exact least-squares fit of its
frequencies, and a step is taken only if it strictly lowers the residual
energy.  One exchange step trades the atom that is cheapest to drop for the
residual's periodogram peak when that gains clearly more than noise could,
and atoms whose removal loses no fit are dropped.  Every least-squares fit
is one solve on the Gram matrix of the atoms (:func:`_project`).
"""

from __future__ import annotations

import numpy as np

from .signals import LineSpectrum, check_finite, checked_order, finite_samples

__all__ = ["nomp", "nmse"]

NMSE_FLOOR_DB = -300.0

GRID_OVERSAMPLE = 4
"""Zero-padding factor of the detection periodogram."""
NEWTON_STEPS = 3
"""Cap on the guarded Newton steps on each new atom's frequency."""
ROUNDING = 1e-13
"""A new atom that lowers the residual energy by at most ``(ROUNDING |g|)^2``
gains only rounding noise, and detection stops."""
VP_ROUNDS = 10
"""Cap on the variable projection rounds."""
VP_TOL = 1e-12
"""Relative cost decrease below which variable projection stops early."""
SWAP_FALSE_ALARM = 1e-3
"""Chance that white noise alone clears the margin of :func:`_swap_weakest`."""


def _atoms(omegas: np.ndarray, n: int) -> np.ndarray:
    """Atom matrix; column ``i`` is ``exp(1j * omegas[i] * t)``, ``t < n``."""
    return np.exp(1j * np.outer(np.arange(n), omegas))


def _phasor_atoms(omegas: np.ndarray, n: int) -> np.ndarray:
    """Atom matrix from phasor powers, for the iterates of variable projection.

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


def _project(g: np.ndarray, a: np.ndarray):
    """Least-squares fit of ``g`` on the atom matrix ``a``, by its Gram matrix.

    Returns ``ginv, coeffs, resid, cost``: ``(A^H A)^-1``, the coefficients,
    the residual and its energy.
    """
    ah = a.conj().T
    ginv = np.linalg.inv(ah @ a)
    coeffs = ginv @ (ah @ g)
    resid = g - a @ coeffs
    return ginv, coeffs, resid, float(np.vdot(resid, resid).real)


def _newton_refine(omega: float, resid: np.ndarray) -> float:
    """Guarded Newton ascent of one atom's gain ``|<resid, a(omega)>|^2``.

    At most ``NEWTON_STEPS`` steps; each is halved until the gain does not
    drop, and the ascent stops where the gain is not locally concave.
    """
    t = np.arange(resid.size)
    weighted = np.stack([resid, -1j * t * resid, -(t * t) * resid])
    s, s1, s2 = (weighted @ np.exp(-1j * omega * t)).tolist()
    for _ in range(NEWTON_STEPS):
        d1 = 2.0 * (s.conjugate() * s1).real
        d2 = 2.0 * (s.conjugate() * s2).real + 2.0 * abs(s1) ** 2
        if d2 >= 0.0:
            break
        step = -d1 / d2
        for _ in range(10):
            cand = (omega + step) % (2.0 * np.pi)
            sums = (weighted @ np.exp(-1j * cand * t)).tolist()
            if abs(sums[0]) >= abs(s):
                omega, (s, s1, s2) = cand, sums
                break
            step /= 2.0
        else:
            break
    return omega


def _peak(resid: np.ndarray):
    """Newton-refined peak of the residual's periodogram, and the grid power."""
    grid = GRID_OVERSAMPLE * resid.size
    power = np.abs(np.fft.fft(resid, grid)) ** 2
    peak = int(np.argmax(power))
    return _newton_refine(2.0 * np.pi * peak / grid, resid), float(power[peak])


def _detect(g: np.ndarray, k: int):
    """Detect up to ``k`` atoms greedily, refitting all of them each time.

    Each detection is :func:`_peak` of the residual; its atom joins the atom
    matrix and :func:`_project` refits every atom found so far.  Detection
    stops early when the new atom lowers the residual energy by no more than
    ``(ROUNDING |g|)^2`` or makes the Gram matrix singular, so an exact fit
    gains no spurious atom.  Returns the fit ``omegas, a, ginv, coeffs,
    resid, cost`` of :func:`_vp_refine`.
    """
    a = np.empty((g.size, k), dtype=complex)
    omegas = np.empty(k)
    floor = (ROUNDING * float(np.linalg.norm(g))) ** 2
    fit, resid, j = None, g, 0
    while j < k:
        omegas[j] = _peak(resid)[0]
        a[:, j:j + 1] = _atoms(omegas[j:j + 1], g.size)
        try:
            cand = _project(g, a[:, :j + 1])
        except np.linalg.LinAlgError:  # the new atom is in the span
            break
        if j and fit[-1] - cand[-1] <= floor:
            break
        fit, resid, j = cand, cand[2], j + 1
    return (omegas[:j], a[:, :j], *fit)


def _vp_system(a: np.ndarray, ginv: np.ndarray, coeffs: np.ndarray,
               resid: np.ndarray):
    """Gauss-Newton system of variable projection: ``hess, grad``.

    With Kaufman's Jacobian ``J_i = -P_perp (i t * a_i c_i)`` of the
    projected residual ``P_perp(w) g``, ``hess = Re(J^H J)`` and
    ``grad = Re(J^H r)``, half the gradient of the residual energy; the
    gradient is exact, because ``r`` is orthogonal to the atoms.
    """
    b = (1j * np.arange(a.shape[0]))[:, None] * a * coeffs
    ahb = a.conj().T @ b
    hess = (b.conj().T @ b - ahb.conj().T @ ginv @ ahb).real
    return hess, -(b.conj().T @ resid).real


def _vp_refine(g: np.ndarray, omegas: np.ndarray, a: np.ndarray,
               ginv: np.ndarray, coeffs: np.ndarray, resid: np.ndarray,
               cost: float):
    """Levenberg-Marquardt variable projection over the frequencies alone.

    Takes and returns a fit ``omegas, a, ginv, coeffs, resid, cost``: the
    atoms of ``omegas``, the inverse of their Gram matrix, the least-squares
    coefficients of ``g``, the residual and its energy.  The amplitudes are
    eliminated, so every iterate is the exact least-squares fit of its
    frequencies (:func:`_project` on :func:`_phasor_atoms`).  Each of at
    most ``VP_ROUNDS`` rounds solves ``(H + mu max(diag H) I) d = -grad`` on
    :func:`_vp_system`; ``mu`` drops threefold after an accepted step and
    grows tenfold after a rejected one, and a step is accepted only if it
    strictly lowers the residual energy.  The rounds stop early once that
    energy falls by less than ``VP_TOL`` of itself.
    """
    floor = 1e-28 * float(np.vdot(g, g).real)
    mu = 1e-3
    for _ in range(VP_ROUNDS):
        if cost <= floor:
            break
        hess, grad = _vp_system(a, ginv, coeffs, resid)
        damp = np.max(np.diag(hess)) * np.eye(omegas.size)
        for _ in range(20):
            try:
                w = (omegas + np.linalg.solve(hess + mu * damp, -grad)) % (2.0 * np.pi)
                a_w = _phasor_atoms(w, g.size)
                cand = _project(g, a_w)
            except np.linalg.LinAlgError:  # singular: damp harder
                mu *= 10.0
                continue
            if cand[-1] < cost:
                mu /= 3.0
                break
            mu *= 10.0
        else:
            break
        prev_cost = cost
        omegas, a, (ginv, coeffs, resid, cost) = w, a_w, cand
        if prev_cost - cost <= VP_TOL * prev_cost:
            break
    return omegas, a, ginv, coeffs, resid, cost


def _cheapest_drop(ginv: np.ndarray, coeffs: np.ndarray) -> tuple[int, float]:
    """The atom whose drop least raises a least-squares fit's residual energy,
    and that rise ``|c_i|^2 / [(A^H A)^-1]_ii``.  The drop removes the energy
    ``|<u, g>|^2 / |u|^2`` of ``g`` along ``u``, the part of ``a_i`` orthogonal
    to the others; ``<u, g> = c_i |u|^2``, ``|u|^2 = 1 / [(A^H A)^-1]_ii``."""
    loss = np.abs(coeffs) ** 2 / np.diag(ginv).real
    return int(np.argmin(loss)), float(np.min(loss))


def _swap_weakest(g: np.ndarray, fit):
    """Trade the atom that is cheapest to drop (:func:`_cheapest_drop`) for
    the residual's periodogram peak, which lowers the cost by at least its
    power over ``n``.  The trade must gain more than the margin
    ``s^2 ln(n / SWAP_FALSE_ALARM)``, about the highest periodogram peak
    that white noise of the estimated variance ``s^2 = cost / (n - k)``
    reaches, first by that estimate and then on the exchanged set's own fit;
    otherwise ``fit`` is returned as it is.  Below that margin the trade
    would fit noise, not a missed component.  The exchanged set is refined
    by :func:`_vp_refine`.
    """
    omegas, _, ginv, coeffs, resid, cost = fit
    n = g.size
    omega, power = _peak(resid)
    weak, loss = _cheapest_drop(ginv, coeffs)
    margin = cost / (n - omegas.size) * np.log(n / SWAP_FALSE_ALARM)
    if power / n - loss <= margin:
        return fit
    w = omegas.copy()
    w[weak] = omega
    a_w = _atoms(w, n)
    cand = _project(g, a_w)
    if cand[-1] >= cost - margin:
        return fit
    return _vp_refine(g, w, a_w, *cand)


def _drop_lossless(g: np.ndarray, fit):
    """While the cheapest atom to drop (:func:`_cheapest_drop`) loses at most
    ``1e-9`` of the signal energy, drop it and refit the rest; returns
    ``omegas, coeffs``.  True duplicates (two atoms on one peak) and atoms
    fitted to a rounding-level residual go, while close pairs that resolve
    two components would lose fit and stay."""
    omegas, a, ginv, coeffs, _, _ = fit
    tol = 1e-9 * float(np.vdot(g, g).real)
    while omegas.size > 1:
        drop, loss = _cheapest_drop(ginv, coeffs)
        if loss > tol:
            break
        omegas, a = np.delete(omegas, drop), np.delete(a, drop, axis=1)
        ginv, coeffs, _, _ = _project(g, a)
    return omegas, coeffs


def nomp(g: np.ndarray, k: int) -> LineSpectrum:
    """Estimate ``k`` sinusoids from a uniformly sampled complex signal.

    ``g`` must be finite and ``k`` an integer from 1 to ``len(g) / 2``.  The
    schedule is fixed: up to ``k`` detections, each the peak of a
    ``GRID_OVERSAMPLE``-times zero-padded periodogram of the residual with
    ``NEWTON_STEPS`` guarded Newton steps on its frequency and a
    least-squares refit of all atoms found so far; then at most
    ``VP_ROUNDS`` rounds of variable projection over the frequencies
    (damping divided by 3 after an accepted step, times 10 after a rejected
    one), whose amplitudes are always the exact least-squares fit; one
    exchange of the cheapest atom for a clearly stronger residual peak; and
    the removal of atoms that carry no fit, such as duplicates.  Fewer than
    ``k`` components come back when the fit is exact before the ``k``-th
    detection or an atom is removed.
    """
    g = finite_samples(g)
    k = checked_order(k, g.size)
    fit = _swap_weakest(g, _vp_refine(g, *_detect(g, k)))
    return LineSpectrum(*_drop_lossless(g, fit))


def nmse(x_hat: np.ndarray, x: np.ndarray) -> float:
    """Normalized mean squared error in dB, floored at ``NMSE_FLOOR_DB``.

    A non-finite sample in either argument is a ``ValueError``, not a NaN."""
    x_hat = np.asarray(x_hat, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x_hat.shape != x.shape:
        raise ValueError("length mismatch")
    check_finite(x_hat=x_hat, x=x)
    ref = float(np.linalg.norm(x) ** 2)
    if ref == 0.0:
        raise ValueError("reference signal has zero energy")
    ratio = float(np.linalg.norm(x_hat - x) ** 2) / ref
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(10.0 * np.log10(ratio))
