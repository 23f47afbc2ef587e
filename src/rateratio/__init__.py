"""Bayesian inference for Poisson process rates and their ratio.

Conjugate Gamma posteriors for a single rate, closed-form densities for the
ratio of two rates under two causal models, forward predictive simulation of
counts, count differences and count ratios, and a small exact Gibbs sampler
for the variants with detection efficiencies and backgrounds.
"""

from . import distributions, inference, mcmc, montecarlo, ratio
from .distributions import *  # noqa: F403 -- each module's __all__ is its public list
from .inference import *  # noqa: F403
from .mcmc import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .ratio import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *distributions.__all__,
    *inference.__all__,
    *mcmc.__all__,
    *montecarlo.__all__,
    *ratio.__all__,
    "__version__",
]
