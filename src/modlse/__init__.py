"""Recovery of line spectral and bandlimited signals from modulo samples.

Self-reset ADCs fold the input into ``[-lam, lam)`` before sampling; this
package unfolds heavily oversampled records by solving a banded
Gaussian-integer least-squares problem in the difference/Fourier domain
(exact dynamic programming plus greedy lattice refinement) and then
estimates the line spectrum of the unfolded signal with a Newton-refined
greedy estimator.  The analytic bounds that justify the construction are
exposed as functions, and a Monte Carlo harness reproduces the method's
behaviour at desk scale.
"""

from . import baseline, bounds, dp, harness, lse, omp, pipeline, signals, transform
from .baseline import *
from .bounds import *
from .dp import *
from .harness import *
from .lse import *
from .omp import *
from .pipeline import *
from .signals import *
from .transform import *

__version__ = "0.1.0"

# each module's own __all__ is the one list of its public names
__all__ = [name for module in (signals, transform, bounds, dp, omp, lse,
                               baseline, pipeline, harness)
           for name in module.__all__]
