"""Two-stage recovery: unfold the modulo samples, then estimate the spectrum.

Stage one alternates the banded dynamic-programming solve, re-centered on
the running estimate between passes, with greedy lattice refinement on the
guard-band instance; both updates are guarded by a strict decrease of the
exact objective, evaluated once per candidate.  The accepted folding-count
differences are then integrated (anti-difference), which leaves a single
additive Gaussian-integer constant that simulation callers remove against
ground truth and blind callers remove by the one that leaves the unfolded
signal with the smallest mean, as its band excludes DC.  The ``usalg``
baseline replaces stage one by higher-order-difference unfolding, its order
picked from the modulo samples alone.  Stage two runs the Newton-refined
greedy estimator on the unfolded signal.

``METHODS`` maps each method name to the stages it runs and the bins they
select (:meth:`Method.guard_bins`); it is the one place that knows what a method is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baseline import select_usalg_order, usalg
from .dp import check_dp, dp_solve
from .lse import nomp
from .omp import accept_if_improves, omp_refine
from .signals import (LineSpectrum, check_lam, check_lam_gamma, checked_int,
                      checked_order, finite_samples, residual_decompose)
from .transform import (
    anti_difference,
    build_instance,
    exact_objective,
    select_subset,
    select_subset_tail,
)

__all__ = [
    "METHODS",
    "PipelineConfig",
    "ResidualRecovery",
    "RecoveryResult",
    "recover_residual",
    "resolve_constant_with_truth",
    "resolve_constant_blind",
    "recover_line_spectrum",
]


@dataclass(frozen=True)
class Method:
    """The stages one named method runs.

    ``iterate`` runs ``PipelineConfig.iter_max`` solve/refine passes instead
    of one.  ``usalg`` replaces the whole unfolding stage by the
    higher-order-difference baseline.
    """

    dp: bool = False
    omp: bool = False
    iterate: bool = False
    usalg: bool = False

    def guard_bins(self, n: int, gamma: float, cfg: PipelineConfig) -> np.ndarray | None:
        """Stage one's bins for a record of ``n`` samples: the two-sided guard
        band for a DP method, once ``cfg.p``, ``cfg.v_bound`` and ``n`` pass
        the DP's admission rule (:func:`~modlse.dp.check_dp`); every bin above the signal band without the DP; none
        for ``usalg``.  :func:`recover_residual` selects its bins here alone."""
        if self.usalg:
            return None
        if not self.dp:
            return select_subset_tail(n, gamma)
        check_dp(n - 1, cfg.p, cfg.v_bound)
        return select_subset(n, gamma, cfg.beta)


METHODS = {
    "dp": Method(dp=True),
    "dp_omp": Method(dp=True, omp=True),
    "dp_omp_iter": Method(dp=True, omp=True, iterate=True),
    "omp_only": Method(omp=True),
    "usalg": Method(usalg=True),
}


def lookup_method(method: str) -> Method:
    """The ``METHODS`` entry named ``method``; a ``ValueError`` lists the names."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    return METHODS[method]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the unfolding stage.  Only the DP methods read the band order
    ``p``, the state alphabet bound ``v_bound`` (which ``dp_solve`` checks)
    and the guard-band fraction ``beta``; only ``dp_omp_iter`` reads
    ``iter_max``, its number of solve/refine passes."""

    p: int = 3
    v_bound: int = 1
    beta: float = 0.04
    iter_max: int = 2

    def __post_init__(self):
        checked_int("iter_max", self.iter_max, 1)


@dataclass(frozen=True)
class ResidualRecovery:
    """Unfolding-stage output: folding counts up to an additive constant plus
    an audit trail.  ``usalg`` solves no instance and leaves the trail empty."""

    eps: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    dp_rejections: int = 0
    omp_rejections: int = 0


@dataclass(frozen=True)
class RecoveryResult:
    """Full two-stage output: ``eps_hat`` is ``stage_one.eps`` with its
    constant removed blind, and ``g_hat == y + 2*lam*eps_hat`` exactly."""

    eps_hat: np.ndarray
    g_hat: np.ndarray
    spectrum_hat: LineSpectrum
    stage_one: ResidualRecovery


def _checked_input(y: np.ndarray, lam: float, gamma: float) -> np.ndarray:
    check_lam_gamma(lam, gamma)
    return finite_samples(y)


def recover_residual(y: np.ndarray, cfg: PipelineConfig, lam: float,
                     gamma: float, method: str = "dp_omp_iter") -> ResidualRecovery:
    """Estimate the folding counts of ``y`` up to an additive constant.

    Starts from the all-zero difference estimate; each pass re-centers the
    banded solve on the current estimate, then applies greedy refinement,
    accepting each update only on strict objective decrease.  ``method``
    names the stages in ``METHODS``; ``usalg`` instead unfolds at the
    difference order :func:`select_usalg_order` picks from ``y``.
    """
    spec = lookup_method(method)
    y = _checked_input(y, lam, gamma)
    bins = spec.guard_bins(y.size, gamma, cfg)
    if bins is None:
        eps = residual_decompose(usalg(y, lam, select_usalg_order(y, lam)), y, lam)
        return ResidualRecovery(eps=eps)
    inst = build_instance(y, lam, bins)
    eps_d = np.zeros(inst.n_vars, dtype=complex)
    trace = [exact_objective(inst, eps_d)]
    dp_rejected = 0
    omp_rejected = 0
    for _ in range(cfg.iter_max if spec.iterate else 1):
        if spec.dp:
            recentered = inst.with_observation(inst.z_s + inst.forward(eps_d))
            solved = dp_solve(recentered, cfg.p, cfg.v_bound)
            updated = accept_if_improves(inst, eps_d, solved, trace)
            dp_rejected += updated is eps_d
            eps_d = updated
        if spec.omp:
            updated = accept_if_improves(inst, eps_d, omp_refine(inst, eps_d), trace)
            omp_rejected += updated is eps_d
            eps_d = updated
    return ResidualRecovery(eps=anti_difference(eps_d), objective_trace=trace,
                            dp_rejections=dp_rejected, omp_rejections=omp_rejected)


def resolve_constant_with_truth(eps_hat: np.ndarray,
                                eps_true: np.ndarray) -> np.ndarray:
    """Remove the additive constant by matching the true folding counts.

    Adds the Gaussian integer nearest to the mean of ``eps_true - eps_hat``;
    robust to a few wrong samples once the record is reasonably long.
    """
    eps_hat = np.asarray(eps_hat, dtype=complex)
    eps_true = np.asarray(eps_true, dtype=complex)
    if eps_hat.shape != eps_true.shape:
        raise ValueError("length mismatch")
    return eps_hat + np.round(np.mean(eps_true - eps_hat))


def resolve_constant_blind(eps_hat: np.ndarray, y: np.ndarray,
                           lam: float) -> np.ndarray:
    """Remove the additive constant without ground truth.

    The signal band excludes DC, so the right constant leaves
    ``g_hat = y + 2 lam eps_hat`` with the smallest mean: subtracts the
    Gaussian integer nearest to ``mean(y) / (2 lam) + mean(eps_hat)``,
    however many samples are folded.  It fails when a tone within about half
    a bin of DC has a mean beyond ``lam``, as in the ``reference`` bench scenes
    98, 130 and 152 at seed 20240601, and 37 and 152 at seed 7 (ROADMAP item 5).
    """
    eps_hat = np.asarray(eps_hat, dtype=complex)
    y = finite_samples(y)
    check_lam(lam)
    if eps_hat.size == 0:
        raise ValueError("empty estimate")
    if eps_hat.shape != y.shape:
        raise ValueError("length mismatch")
    return eps_hat - np.round(np.mean(y) / (2.0 * lam) + np.mean(eps_hat))


def recover_line_spectrum(y: np.ndarray, k: int, gamma: float, lam: float,
                          cfg: PipelineConfig | None = None,
                          method: str = "dp_omp_iter") -> RecoveryResult:
    """Run the full two-stage recovery on modulo samples.

    Serves every entry of ``METHODS`` through :func:`recover_residual`.  The
    additive constant is always removed blind
    (:func:`resolve_constant_blind`), the only option on real data.  A bad
    model order ``k`` is rejected before stage one runs.
    """
    if cfg is None:
        cfg = PipelineConfig()
    y = _checked_input(y, lam, gamma)
    k = checked_order(k, y.size)
    stage_one = recover_residual(y, cfg, lam, gamma, method)
    eps = resolve_constant_blind(stage_one.eps, y, lam)
    g_hat = y + 2.0 * lam * eps
    return RecoveryResult(eps_hat=eps, g_hat=g_hat, spectrum_hat=nomp(g_hat, k),
                          stage_one=stage_one)
