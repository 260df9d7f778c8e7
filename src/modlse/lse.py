"""Newton-refined greedy line spectral estimation with a known model order.

Detection alternates an oversampled-periodogram peak pick with Newton ascent
on the single-sinusoid fit, followed by a joint least-squares amplitude
refit and cyclic per-atom re-refinement.  A final joint Gauss-Newton pass
over all frequencies and amplitudes removes the slow coordinate-descent
tail that appears when two atoms sit within a Rayleigh width of each other.
Every refinement step is guarded by a line search, so the residual energy
never increases.
"""

from __future__ import annotations

import numpy as np

from .signals import LineSpectrum

__all__ = ["nomp", "nmse"]

NMSE_FLOOR_DB = -300.0

GRID_OVERSAMPLE = 4
"""Zero-padding factor of the detection periodogram."""
NEWTON_STEPS = 3
"""Newton iterations per single-atom refinement."""
CYCLIC_ROUNDS = 3
"""Rounds of cyclic re-refinement over all atoms after each detection."""
JOINT_ROUNDS = 40
"""Cap on the final joint Gauss-Newton rounds."""


def _atom(omega: float, n: int) -> np.ndarray:
    return np.exp(1j * omega * np.arange(n))


def _fit_all(g: np.ndarray, omegas: np.ndarray):
    n = g.size
    a = np.exp(1j * np.outer(np.arange(n), omegas))
    coeffs, *_ = np.linalg.lstsq(a, g, rcond=None)
    return a, coeffs, g - a @ coeffs


def _newton_refine(omega: float, resid: np.ndarray, steps: int) -> float:
    """Ascend ``|a(omega)^H r|^2`` by guarded Newton steps.

    Falls back to step halving whenever a full step would lower the single
    atom gain, and stops early if the local curvature is not concave.
    """
    n = np.arange(resid.size)
    for _ in range(steps):
        phase = np.exp(-1j * omega * n)
        s = np.dot(resid, phase)
        s1 = np.dot(-1j * n * resid, phase)
        s2 = np.dot(-(n ** 2) * resid, phase)
        gain = abs(s) ** 2
        d1 = 2.0 * np.real(np.conj(s) * s1)
        d2 = 2.0 * np.real(np.conj(s) * s2) + 2.0 * abs(s1) ** 2
        if d2 >= 0.0:
            break
        step = -d1 / d2
        for _ in range(10):
            cand = (omega + step) % (2.0 * np.pi)
            if abs(np.dot(resid, np.exp(-1j * cand * n))) ** 2 >= gain:
                omega = cand
                break
            step /= 2.0
        else:
            break
    return omega


def _joint_refine(g: np.ndarray, omegas: np.ndarray):
    """Gauss-Newton over all (frequency, amplitude) pairs with line search."""
    n = np.arange(g.size)
    k = omegas.size
    a, coeffs, resid = _fit_all(g, omegas)
    cost = float(np.linalg.norm(resid) ** 2)
    floor = 1e-28 * float(np.linalg.norm(g) ** 2)
    for _ in range(JOINT_ROUNDS):
        if cost <= floor:
            break
        prev_cost = cost
        datom = (1j * n)[:, None] * a * coeffs[None, :]
        jac = np.hstack([a, 1j * a, datom])
        jac = np.vstack([jac.real, jac.imag])
        rhs = np.concatenate([resid.real, resid.imag])
        upd, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        d_coeffs = upd[:k] + 1j * upd[k:2 * k]
        d_omegas = upd[2 * k:]
        step = 1.0
        for _ in range(20):
            cand = (omegas + step * d_omegas) % (2.0 * np.pi)
            a_cand = np.exp(1j * np.outer(n, cand))
            r_cand = g - a_cand @ (coeffs + step * d_coeffs)
            if float(np.linalg.norm(r_cand) ** 2) < cost:
                omegas = cand
                break
            step /= 2.0
        else:
            break
        a, coeffs, resid = _fit_all(g, omegas)
        cost = float(np.linalg.norm(resid) ** 2)
        if prev_cost - cost <= 1e-12 * prev_cost:
            break
    return omegas, coeffs


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


def _merge_lossless(g: np.ndarray, omegas: np.ndarray, coeffs: np.ndarray, n: int):
    """Merge half-bin neighbours only when the refit shows no fit loss.

    True duplicates (two atoms chasing one peak) are nearly collinear, so
    dropping one and refitting re-absorbs its amplitude at no cost.  Close
    pairs that genuinely resolve two components would degrade the fit when
    collapsed, and are kept.
    """
    tol = np.pi / n  # half a DFT bin
    _, coeffs, resid = _fit_all(g, omegas)
    cost = float(np.linalg.norm(resid) ** 2)
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


def nomp(g: np.ndarray, k: int) -> LineSpectrum:
    """Estimate ``k`` sinusoids from a uniformly sampled complex signal.

    ``k`` must not exceed ``len(g) / 2``.  The schedule is fixed: each
    detection picks the peak of a ``GRID_OVERSAMPLE``-times zero-padded
    periodogram of the residual and refines it by ``NEWTON_STEPS`` guarded
    Newton steps, then ``CYCLIC_ROUNDS`` rounds re-refine every atom in turn
    with a joint amplitude refit after each round.  After the last detection
    a joint Gauss-Newton pass of at most ``JOINT_ROUNDS`` rounds refines all
    frequencies and amplitudes together, and half-bin neighbours are merged
    where the refit loses no fit.
    """
    g = np.asarray(g, dtype=complex)
    n = g.size
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n / 2:
        raise ValueError("k may not exceed half the record length")

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
            a, coeffs, resid = _fit_all(g, omegas)
        # Mid-loop, collapse only true duplicates (a wasted detection lands
        # nearly on top of an existing atom); estimates of distinct close
        # components are still settling and must not be chained together.
        merged_w, _ = _merge_duplicates(omegas, coeffs, n)
        if merged_w.size < omegas.size:
            omegas = merged_w
            a, coeffs, resid = _fit_all(g, omegas)
    omegas, coeffs = _joint_refine(g, omegas)
    omegas, coeffs = _merge_lossless(g, omegas, coeffs, n)
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
