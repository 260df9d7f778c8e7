"""Newton-refined greedy line spectral estimation with a known model order.

Detection alternates an oversampled-periodogram peak pick with Newton ascent
on the single-sinusoid fit, followed by one round of cyclic per-atom
re-refinement and a joint least-squares amplitude refit.  A final joint
damped Newton pass over all frequencies and amplitudes, on the exact Hessian
of the residual energy, removes the slow coordinate-descent tail that
appears when two atoms sit within a Rayleigh width of each other.  Every
refinement step is guarded, by step halving in detection and by heavier
damping in the joint pass, so the residual energy never increases.

The joint pass screens each damped candidate before paying for its exact
residual: the atoms of the candidate frequencies are formed as phasor
powers (``k`` complex exponentials and one running product down the rows)
instead of ``n * k`` exponentials.  Only the verdict ``cost(candidate) <
cost`` is ever used, and an accepted candidate is refitted from exact atoms,
so the screen changes no output as long as its verdict is the exact one.
It returns a verdict only when the screened cost clears ``cost`` by a margin
that bounds the difference between the two evaluations (see
:func:`_screen_margin`); closer calls fall back to the exact residual.
"""

from __future__ import annotations

import operator

import numpy as np

from .signals import LineSpectrum, finite_samples

__all__ = ["nomp", "nmse"]

NMSE_FLOOR_DB = -300.0

GRID_OVERSAMPLE = 4
"""Zero-padding factor of the detection periodogram."""
NEWTON_STEPS = 3
"""Newton iterations per single-atom refinement."""
CYCLIC_ROUNDS = 1
"""Rounds of cyclic re-refinement over all atoms after each detection."""
JOINT_ROUNDS = 40
"""Cap on the final joint damped Newton rounds."""


def _atom(omega: float, n: int) -> np.ndarray:
    return np.exp(1j * omega * np.arange(n))


def _atoms(omegas: np.ndarray, n: int) -> np.ndarray:
    """Atom matrix; column ``i`` equals ``_atom(omegas[i], n)`` bit for bit."""
    return np.exp(1j * np.outer(np.arange(n), omegas))


def _fit(g: np.ndarray, a: np.ndarray):
    coeffs, *_ = np.linalg.lstsq(a, g, rcond=None)
    return coeffs, g - a @ coeffs


def _fit_all(g: np.ndarray, omegas: np.ndarray):
    a = _atoms(omegas, g.size)
    return (a, *_fit(g, a))


def _newton_refine(omega: float, resid: np.ndarray, steps: int) -> float:
    """Ascend ``|a(omega)^H r|^2`` by guarded Newton steps.

    Falls back to step halving whenever a full step would lower the single
    atom gain, and stops early if the local curvature is not concave.
    """
    n = np.arange(resid.size)
    d1_weighted = -1j * n * resid
    d2_weighted = -(n ** 2) * resid
    phase = np.exp(-1j * omega * n)
    for _ in range(steps):
        s = complex(np.dot(resid, phase))
        s1 = complex(np.dot(d1_weighted, phase))
        s2 = complex(np.dot(d2_weighted, phase))
        gain = abs(s) ** 2
        d1 = 2.0 * (s.conjugate() * s1).real
        d2 = 2.0 * (s.conjugate() * s2).real + 2.0 * abs(s1) ** 2
        if d2 >= 0.0:
            break
        step = -d1 / d2
        for _ in range(10):
            cand = (omega + step) % (2.0 * np.pi)
            # an accepted candidate's phase is the next step's phase
            phase = np.exp(-1j * cand * n)
            if abs(complex(np.dot(resid, phase))) ** 2 >= gain:
                omega = cand
                break
            step /= 2.0
        else:
            break
    return omega


_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _screen_margin(n: int, bound: float) -> float:
    """Bound on the gap between the screened and the exact candidate cost.

    ``bound`` is ``|g| + sqrt(n) |c|_1``, which bounds both residual norms
    because every atom entry has unit modulus.  With unit roundoff ``u``,
    entry ``t`` of a screened atom is within ``(2 + 2 sqrt 2) t u`` of
    ``exp(i t w)``: ``exp(i w)`` is within ``2u`` and each of the ``t``
    complex products adds at most ``2 sqrt 2 u``.  The exact atom is within
    ``2 pi t u + 2u``, from rounding the argument ``t w`` (``w < 2 pi``) and
    from the exponential.  So the atoms differ by at most ``13.2 t u``, and
    the products ``A c`` by at most ``13.2 u |c|_1 (n^3/3)^(1/2) <= 7.7 n u
    sqrt(n) |c|_1`` in norm.  Rounding in the two matrix-vector products
    (``k <= n/2`` terms a row) and the two subtractions from ``g`` adds
    ``(1.5 n + 8) u bound``, and each squared norm is computed within
    ``(n + 5) u bound^2``.  The costs thus differ by less than
    ``2 (9.2 n + 8) u bound^2 + 2 (n + 5) u bound^2 = (20.4 n + 26) u
    bound^2``, and the margin's factor ``32 (n + 1)`` leaves room for the
    second-order terms and the rounding of ``cost +- margin``.
    """
    return 32.0 * (n + 1) * _UNIT_ROUNDOFF * bound ** 2


def _screen_below(g: np.ndarray, cand: np.ndarray, c: np.ndarray,
                  cost: float) -> bool | None:
    """Whether ``|g - A(cand) c|^2 < cost``, or None when too close to call.

    ``A(cand)`` is formed from phasor powers: ``k`` complex exponentials and
    one running product down the rows, instead of the ``n * k`` exponentials
    of :func:`_atoms`.  A verdict is returned only when the screened cost
    clears ``cost`` by :func:`_screen_margin`, so it always equals the
    verdict of :func:`_exact_below`.
    """
    n = g.size
    powers = np.empty((n, cand.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = np.exp(1j * cand)
    np.multiply.accumulate(powers, axis=0, out=powers)
    r = g - powers @ c
    screened = float(np.vdot(r, r).real)
    bound = float(np.linalg.norm(g)) + np.sqrt(n) * float(np.sum(np.abs(c)))
    margin = _screen_margin(n, bound)
    if screened < cost - margin:
        return True
    if screened > cost + margin:
        return False
    return None


def _exact_below(g: np.ndarray, cand: np.ndarray, c: np.ndarray,
                 cost: float) -> bool:
    """Whether ``|g - A(cand) c|^2 < cost``, with the atoms of :func:`_atoms`."""
    r = g - _atoms(cand, g.size) @ c
    return float(np.linalg.norm(r) ** 2) < cost


def _newton_system(g: np.ndarray, a: np.ndarray, coeffs: np.ndarray,
                   resid: np.ndarray):
    """Half the gradient and half the Hessian of ``|g - A(w) c|^2``.

    The ``3k`` real parameters are ordered ``(Re c, Im c, w)``, and ``a``,
    ``resid`` are ``A(w)`` and ``g - A(w) c``.  With ``J`` the Jacobian of
    the model ``A(w) c``, the half Hessian is ``Re(J^H J) - Re<d2 m, r>``.
    The second term is block-diagonal per atom: only the ``(w_i, w_i)``,
    ``(w_i, Re c_i)`` and ``(w_i, Im c_i)`` entries are non-zero, so it
    costs ``O(n k)``.
    """
    t = np.arange(g.size)
    k = coeffs.size
    datom = (1j * t)[:, None] * a * coeffs[None, :]
    jac = np.hstack([a, 1j * a, datom])
    jac = np.vstack([jac.real, jac.imag])
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
    :func:`_newton_system`; ``mu`` drops tenfold after an accepted step and
    grows tenfold after a rejected one.  A step is accepted only if it
    strictly lowers the residual energy, and the accepted frequencies are
    refitted, so the energy never increases.
    """
    k = omegas.size
    cost = float(np.linalg.norm(resid) ** 2)
    floor = 1e-28 * float(np.linalg.norm(g) ** 2)
    mu = 1e-3
    for _ in range(JOINT_ROUNDS):
        if cost <= floor:
            break
        prev_cost = cost
        grad, hess = _newton_system(g, a, coeffs, resid)
        diag = np.diag(hess)
        for _ in range(20):
            try:
                upd = np.linalg.solve(hess + np.diag(mu * diag), -grad)
            except np.linalg.LinAlgError:  # singular: damp harder
                mu *= 10.0
                continue
            cand = (omegas + upd[2 * k:]) % (2.0 * np.pi)
            c_cand = coeffs + upd[:k] + 1j * upd[k:2 * k]
            # Only the verdict is used: an accepted step is refitted below
            # from exact atoms, so a screened verdict changes no output.
            below = _screen_below(g, cand, c_cand, cost)
            if below is None:
                below = _exact_below(g, cand, c_cand, cost)
            if below:
                mu /= 10.0
                omegas = cand
                break
            mu *= 10.0
        else:
            break
        a, coeffs, resid = _fit_all(g, omegas)
        cost = float(np.linalg.norm(resid) ** 2)
        if prev_cost - cost <= 1e-12 * prev_cost:
            break
    return omegas, coeffs, cost


def _merge_duplicates(omegas: np.ndarray, coeffs: np.ndarray, n: int):
    """Collapse estimates closer than a tenth of a DFT bin; amplitudes add up."""
    tol = 0.1 * 2.0 * np.pi / n
    order = np.argsort(omegas)
    out_w: list[float] = []
    out_c: list[complex] = []
    for idx in order:
        if out_w and abs(omegas[idx] - out_w[-1]) < tol:
            keep = idx if abs(coeffs[idx]) > abs(out_c[-1]) else None
            out_c[-1] += coeffs[idx]
            if keep is not None:
                out_w[-1] = omegas[idx]
        else:
            out_w.append(float(omegas[idx]))
            out_c.append(complex(coeffs[idx]))
    return np.array(out_w), np.array(out_c)


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
    """Detect up to ``k`` atoms greedily; returns ``omegas, a, coeffs, resid``.

    ``a, coeffs, resid`` is the least-squares fit of ``g`` on the atoms of
    ``omegas``, as :func:`_fit_all` returns it.
    """
    n = g.size
    omegas = np.zeros(0, dtype=float)
    coeffs = np.zeros(0, dtype=complex)
    resid = g.copy()
    grid = GRID_OVERSAMPLE * n
    # A detection that collapses onto an existing atom is merged away and the
    # spent detection is re-issued on the updated residual, so duplicate
    # picks cannot silently shadow a still-missing component.
    attempts = 0
    while omegas.size < k and attempts < 2 * k:
        attempts += 1
        spectrum = np.fft.fft(resid, grid)
        peak = int(np.argmax(np.abs(spectrum)))
        omega = _newton_refine(2.0 * np.pi * peak / grid, resid, NEWTON_STEPS)
        omegas = np.append(omegas, omega)
        a, coeffs, resid = _fit_all(g, omegas)
        for _ in range(CYCLIC_ROUNDS):
            for i in range(omegas.size):
                single = resid + a[:, i] * coeffs[i]
                omegas[i] = _newton_refine(omegas[i], single, NEWTON_STEPS)
                a[:, i] = _atom(omegas[i], n)
                coeffs[i] = np.dot(np.conj(a[:, i]), single) / n
                resid = single - a[:, i] * coeffs[i]
            # every column of ``a`` now holds the atom of its refined omega
            coeffs, resid = _fit(g, a)
        # Mid-loop, collapse only true duplicates (a wasted detection lands
        # nearly on top of an existing atom); estimates of distinct close
        # components are still settling and must not be chained together.
        merged_w, _ = _merge_duplicates(omegas, coeffs, n)
        if merged_w.size < omegas.size:
            omegas = merged_w
            a, coeffs, resid = _fit_all(g, omegas)
    return omegas, a, coeffs, resid


def nomp(g: np.ndarray, k: int) -> LineSpectrum:
    """Estimate ``k`` sinusoids from a uniformly sampled complex signal.

    ``g`` must be finite and ``k`` an integer from 1 to ``len(g) / 2``.  The
    schedule is fixed: each detection picks the peak of a
    ``GRID_OVERSAMPLE``-times zero-padded periodogram of the residual and
    refines it by ``NEWTON_STEPS`` guarded Newton steps, then one round
    (``CYCLIC_ROUNDS``) re-refines every atom in turn, followed by a joint
    amplitude refit.  After the last detection a joint damped Newton pass of
    at most ``JOINT_ROUNDS`` rounds refines all frequencies and amplitudes
    together on the exact Hessian, and half-bin neighbours are merged where
    the refit loses no fit.
    """
    g = finite_samples(g)
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > g.size / 2:
        raise ValueError("k may not exceed half the record length")
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
