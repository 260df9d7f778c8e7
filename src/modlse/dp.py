"""Exact dynamic-programming minimizer for the band-truncated lattice problem.

The DP, not the instance it solves, owns the band order ``p`` and the alphabet
bound ``V``; of the instance it reads the linear term ``b`` and the first
``p + 1`` Gram offsets ``q``.  Truncating the Gram matrix to half-bandwidth
``p`` couples each unknown only to its ``p`` neighbours, so the objective
splits into a chain of stage terms and admits an exact forward/backward sweep
over the finite state alphabet ``{a + jb : |a|, |b| <= V}``.  The sweep
returns a global minimizer of the *banded* objective; the brute-force
enumerator certifies that on test-scale instances.

State tuples are flattened to radix-``B`` integers (``B = (2V+1)^2``):
digit ``t`` of a key of a value table is the state of variable ``k + t``, so
the variable that stage ``k`` eliminates is the least significant digit.  Each
forward stage adds the variable's linear row to the ``B^p`` entries of the
previous value table, into the stage's pre-coupling table of shape ``(B,
B^(p-1))`` (eliminated state by the states of the next ``p - 1`` variables);
broadcasts that against the stage's coupling term into a ``(B, B^p)`` buffer
(eliminated state by key of the next ``p`` states); and takes the column
minima as the next value table, which overwrites the one value vector.  ``p``
padding variables follow the last one, held at state 0, which adds nothing to
any stage term; so every variable has one stage of the same shape, and the
last value table at the all-padding key (every digit the index of state 0) is
the minimum.  Every stage's pre-coupling table is kept, ``n_vars * B^p``
float64 entries (26.8 MB at ``n_vars = 511``, ``p = 4``, ``V = 1``), and
:func:`check_dp` bounds them before anything is allocated; no argmin is
stored.  The backward pass starts at the all-padding key and, for each stage,
adds the coupling column of the current key to the kept entries ``kept[k, :,
r]``, where ``r`` holds the next ``p - 1`` states: the forward pass's own
operands, summed in its order.  It takes the first minimizing state ``s`` and
moves on to key ``r*B + s``.  Ties therefore go to the smallest state index
(:func:`state_alphabet` order) of the last variable, then of the one before
it, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import checked_int
from .transform import QuadraticInstance

__all__ = [
    "BudgetExceeded",
    "check_dp",
    "DpStats",
    "state_alphabet",
    "banded_objective",
    "dp_solve",
    "brute_force_solve",
]

DEFAULT_BUDGET = 10 ** 8
"""Fail-fast ceiling, in table entries, on one stage table and on the kept
tables of one solve."""


def state_alphabet(v_bound: int) -> np.ndarray:
    """All Gaussian integers with ``|re|, |im| <= v_bound``, in tie-break order
    (real part ascending, then imaginary part ascending)."""
    r = np.arange(-v_bound, v_bound + 1)
    re, im = np.meshgrid(r, r, indexing="ij")
    return (re + 1j * im).ravel()


@dataclass(frozen=True)
class DpStats:
    """Work counters for one solve, used by complexity regression tests:
    ``n_stages = n_vars`` forward stages, ``state_count = B`` states,
    ``candidates_evaluated = n_vars * B^(p+1)`` stage entries (the padding
    variables' keys included) and ``value_table_entries = B^p`` per kept
    table."""

    n_stages: int
    state_count: int
    candidates_evaluated: int
    value_table_entries: int


def banded_objective(inst: QuadraticInstance, eps: np.ndarray, p: int) -> float:
    """``eps^H Q_banded eps + 2 Re{b^H eps}`` at band order ``p``, without
    forming dense ``Q``."""
    eps = np.asarray(eps, dtype=complex)
    band = inst.q[:p + 1]
    acc = float(band[0].real * np.sum(np.abs(eps) ** 2))
    for d in range(1, p + 1):
        acc += 2.0 * float(np.real(band[d] * np.sum(np.conj(eps[:-d]) * eps[d:])))
    return acc + 2.0 * float(np.real(np.conj(inst.b) @ eps))


class BudgetExceeded(ValueError):
    """An exact solve would exceed its table-entry budget."""


def _check_budget(what: str, entries: int, knobs: str) -> None:
    if entries > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{what} of {entries} entries exceeds budget {DEFAULT_BUDGET}; reduce {knobs}"
        )


def check_dp(n_vars: int, p: int, v_bound: int) -> None:
    """The DP's one admission rule, checked before anything is allocated:
    ``p`` and ``v_bound`` must be integers >= 1 (a ``ValueError`` names the
    knob); a stage table of ``B^(p+1)`` entries, ``B = (2V+1)^2``, must fit
    the budget (:class:`BudgetExceeded`); band order ``p`` needs ``n_vars >=
    p + 2`` unknowns (``ValueError``); and the kept pre-coupling tables,
    ``n_vars * B^p`` entries, must fit the same budget
    (:class:`BudgetExceeded`)."""
    checked_int("p", p, 1)
    checked_int("v_bound", v_bound, 1)
    bsz = (2 * v_bound + 1) ** 2
    _check_budget("state-space enumeration", bsz ** (p + 1), f"p={p} or v_bound={v_bound}")
    if n_vars <= p + 1:
        raise ValueError(f"instance too short: n_vars={n_vars} needs "
                         f"n_vars >= p + 2 at p={p}")
    _check_budget("kept tables", n_vars * bsz ** p,
                  f"p={p}, v_bound={v_bound} or n_vars={n_vars}")


def dp_solve(inst: QuadraticInstance, p: int, v_bound: int, *,
             return_stats: bool = False):
    """Globally minimize the objective truncated to band order ``p`` over
    states with ``|Re|, |Im| <= v_bound``.

    Runs one forward stage per variable over value tables keyed by
    ``p``-tuples of states (the variable a stage eliminates is the least
    significant digit), with ``p`` padding variables held at state 0 after
    the last one, keeping each stage's pre-coupling table (previous value
    table plus the variable's linear row; ``n_vars * B^p`` float64 entries in
    all, which :func:`check_dp` bounds).  It then backtracks from the
    all-padding key: for each variable, last first, it adds the current key's
    coupling column to the kept column ``r`` in one add, picks state ``s``
    and moves to key ``r*B + s``, where ``r`` is the current key's ``p - 1``
    low digits.  Of several exact minimizers it returns the one whose last
    variable has the smallest :func:`state_alphabet` index, then the one
    before it, and so on.  Re-centering passes an instance re-observed
    around the current estimate (:meth:`QuadraticInstance.with_observation`).

    Returns the minimizing Gaussian-integer sequence (``complex128`` with
    integral parts), plus a :class:`DpStats` when ``return_stats`` is set.
    """
    b, m = inst.b, inst.n_vars
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"non-finite linear term at index {bad[0]}")
    check_dp(m, p, v_bound)
    states = state_alphabet(v_bound)
    bsz = states.size

    band = inst.q[:p + 1]

    # Per-key digit tables: digit t of key is the state index of variable
    # k+1+t relative to stage k (least significant digit first).
    keys = np.arange(bsz ** p)
    coupled = np.zeros(bsz ** p, dtype=complex)
    for t in range(p):
        digit = (keys // bsz ** t) % bsz
        coupled += band[t + 1] * states[digit]
    cross = 2.0 * np.real(np.conj(states)[:, None] * coupled[None, :])
    base_quad = float(band[0].real) * np.abs(states) ** 2
    # lin[i, s]: diagonal plus linear term of variable i in state s.
    lin = base_quad[None, :] + 2.0 * np.real(np.conj(states)[None, :] * b[:, None])

    # Stage k: kept[k, s, r] = value[r * B + s] + lin[k, s], where s is the
    # state of variable k and value is keyed by the states of variables
    # k..k+p-1; stage[s, key] = kept[k, s, key % B^(p-1)] + cross[s, key], and
    # its column minima are the next value.  Variables m..m+p-1 are padding:
    # only keys whose padding digits are the index of state 0 are ever read,
    # and there they add nothing to cross.
    rest = bsz ** (p - 1)
    value = np.zeros(bsz ** p)
    kept = np.empty((m, bsz, rest))
    stage = np.empty((bsz, bsz ** p))
    cross3 = cross.reshape(bsz, bsz, rest)
    stage3 = stage.reshape(cross3.shape)
    for k in range(m):
        np.add(value.reshape(rest, bsz).T, lin[k][:, None], out=kept[k])
        np.add(kept[k][:, None, :], cross3, out=stage3)
        np.minimum.reduce(stage, axis=0, out=value)

    # Backtrack from the all-padding key (every digit bsz // 2, the index of
    # state 0): the kept column plus the coupling column is the stage column
    # the next states select, summed as the forward pass summed it, so argmin
    # finds the same first minimizing state.
    cross_t = np.ascontiguousarray(cross.T)
    key = bsz // 2 * (bsz ** p - 1) // (bsz - 1)
    idx = np.empty(m, dtype=np.intp)
    for k in range(m - 1, -1, -1):
        r = key % rest
        s = int((kept[k, :, r] + cross_t[key]).argmin())
        idx[k] = s
        key = r * bsz + s
    eps = states[idx]

    if return_stats:
        stats = DpStats(n_stages=m, state_count=bsz,
                        candidates_evaluated=m * stage.size,
                        value_table_entries=bsz ** p)
        return eps, stats
    return eps


def brute_force_solve(inst: QuadraticInstance, p: int, v_bound: int,
                      use_banded: bool = True) -> np.ndarray:
    """Exhaustively minimize the exact or band-``p`` objective over states with
    ``|Re|, |Im| <= v_bound`` (test-scale only).

    Enumerates the full ``(2V+1)^(2*n_vars)`` candidate set by splitting the
    variables into two halves and combining the halves' quadratic forms with
    a single cross matrix, so no candidate matrix is ever materialized.
    Ties resolve to the smallest flat candidate index (leading variable most
    significant, states in :func:`state_alphabet` order).  The linear term
    is ``inst.b``, and :func:`check_dp` admits the instance, as in
    :func:`dp_solve`.
    """
    m = inst.n_vars
    check_dp(m, p, v_bound)
    states = state_alphabet(v_bound)
    bsz = states.size
    _check_budget("state-space enumeration", bsz ** m, f"n_vars={m} or v_bound={v_bound}")

    q = inst.q_banded_dense(p) if use_banded else inst.q_dense()

    def half_tuples(count: int) -> np.ndarray:
        idx = np.arange(bsz ** count)
        cols = [(idx // bsz ** (count - 1 - t)) % bsz for t in range(count)]
        return states[np.stack(cols, axis=1)]

    h1 = m // 2
    left = half_tuples(h1)
    right = half_tuples(m - h1)
    q11, q22, q12 = q[:h1, :h1], q[h1:, h1:], q[:h1, h1:]
    quad_l = np.real(np.einsum("ci,ij,cj->c", np.conj(left), q11, left)) \
        + 2.0 * np.real(np.conj(left) @ inst.b[:h1])
    quad_r = np.real(np.einsum("ci,ij,cj->c", np.conj(right), q22, right)) \
        + 2.0 * np.real(np.conj(right) @ inst.b[h1:])
    cross = 2.0 * np.real(np.conj(left) @ q12 @ right.T)
    total = quad_l[:, None] + cross + quad_r[None, :]
    flat = int(np.argmin(total))
    li, ri = divmod(flat, right.shape[0])
    return np.concatenate([left[li], right[ri]])
