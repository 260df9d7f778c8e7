"""Recovery of line spectral and bandlimited signals from modulo samples.

Self-reset ADCs fold the input into ``[-lam, lam)`` before sampling; this
package unfolds heavily oversampled records by solving a banded
Gaussian-integer least-squares problem in the difference/Fourier domain
(exact dynamic programming plus greedy lattice refinement) and then
estimates the line spectrum of the unfolded signal with a Newton-refined
greedy estimator.  Analytic bounds that justify the construction ship with
checkable property suites, and a Monte Carlo harness reproduces the
method's behaviour at desk scale.
"""

from .bounds import (
    band_energy_lower_bound,
    band_energy_ratio,
    grid_offsets,
    leakage_bound,
    residual_state_bound,
)
from .dp import (
    BudgetExceeded,
    DpStats,
    banded_objective,
    brute_force_solve,
    dp_solve,
    state_alphabet,
)
from .harness import (
    ExperimentConfig,
    PropertyReport,
    SweepPoint,
    TrialResult,
    check_properties,
    read_iq_csv,
    run_sweep,
    run_trial,
    write_iq_csv,
    write_summary_json,
    write_trials_csv,
)
from .lse import nmse, nomp
from .omp import accept_if_improves, omp_refine
from .pipeline import (
    METHODS,
    PipelineConfig,
    RecoveryResult,
    ResidualRecovery,
    recover_line_spectrum,
    recover_residual,
    resolve_constant_blind,
    resolve_constant_with_truth,
)
from .signals import (
    NOISELESS,
    LineSpectrum,
    SamplingConfig,
    add_noise,
    bandlimited_bins,
    centered_modulo,
    gen_bandlimited,
    gen_random_spectrum,
    modulo_sample,
    residual_decompose,
    synth_line_spectral,
)
from .transform import (
    QuadraticInstance,
    anti_difference,
    beta_limits,
    build_instance,
    dft,
    exact_objective,
    first_difference,
    select_subset,
    select_subset_tail,
)
from .baseline import select_usalg_order, usalg

__version__ = "0.1.0"

__all__ = [
    "NOISELESS",
    "METHODS",
    "LineSpectrum",
    "SamplingConfig",
    "QuadraticInstance",
    "BudgetExceeded",
    "DpStats",
    "PipelineConfig",
    "ResidualRecovery",
    "RecoveryResult",
    "ExperimentConfig",
    "TrialResult",
    "SweepPoint",
    "PropertyReport",
    "synth_line_spectral",
    "gen_random_spectrum",
    "bandlimited_bins",
    "gen_bandlimited",
    "add_noise",
    "centered_modulo",
    "modulo_sample",
    "residual_decompose",
    "first_difference",
    "anti_difference",
    "dft",
    "beta_limits",
    "select_subset",
    "select_subset_tail",
    "build_instance",
    "exact_objective",
    "residual_state_bound",
    "grid_offsets",
    "leakage_bound",
    "band_energy_ratio",
    "band_energy_lower_bound",
    "state_alphabet",
    "banded_objective",
    "dp_solve",
    "brute_force_solve",
    "omp_refine",
    "accept_if_improves",
    "nomp",
    "nmse",
    "usalg",
    "select_usalg_order",
    "recover_residual",
    "resolve_constant_with_truth",
    "resolve_constant_blind",
    "recover_line_spectrum",
    "run_trial",
    "run_sweep",
    "check_properties",
    "read_iq_csv",
    "write_iq_csv",
    "write_trials_csv",
    "write_summary_json",
]
