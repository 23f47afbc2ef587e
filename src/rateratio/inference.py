"""Conjugate Bayesian updating for Poisson intensities.

A Poisson likelihood with a Gamma prior stays Gamma: observing x counts
updates the shape by x, and the rate by the observation time (or by 1 when
inferring the expected count lambda directly).  The flat prior is the
improper limit Gamma(1, 0), kept exact here; samplers elsewhere use a tiny
positive rate instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _PUBLIC
from .distributions import GammaParams, SummaryStats, gamma_summaries


__all__ = list(_PUBLIC["inference"])


FLAT_PRIOR = GammaParams(1.0, 0.0)


@dataclass(frozen=True)
class CountObservation:
    """One measurement: x counts observed over live time T."""

    x: int
    T: float

    def __post_init__(self) -> None:
        if self.x < 0 or self.x != int(self.x):
            raise ValueError(f"x must be a non-negative integer, got {self.x}")
        if not (self.T > 0):
            raise ValueError(f"T must be > 0, got {self.T}")


@dataclass(frozen=True)
class RateEstimate:
    """A rate posterior and its summaries."""

    posterior: GammaParams
    summaries: SummaryStats


def update_rate(prior: GammaParams, obs: CountObservation) -> GammaParams:
    """Posterior of the rate r after observing x counts in time T: Gamma(alpha0 + x, beta0 + T)."""
    return GammaParams(prior.alpha + obs.x, prior.beta + obs.T)


def update_lambda(prior: GammaParams, x: int) -> GammaParams:
    """Posterior of the expected count lambda after observing x counts: the rate update at T = 1."""
    return update_rate(prior, CountObservation(x, 1.0))


def combine_observations(
    prior: GammaParams, observations: Sequence[CountObservation] | Iterable[CountObservation]
) -> GammaParams:
    """Pool independent count observations of one rate into a single posterior.

    One update by the totals, (alpha0 + sum of x, beta0 + sum of T): folding
    update_rate over the list in any order gives it, up to the rounding of the sums.
    """
    observations = list(observations)
    if not observations:
        raise ValueError("observations must be non-empty")
    totals = CountObservation(sum(o.x for o in observations), sum(o.T for o in observations))
    return update_rate(prior, totals)


def elicit_gamma(mu0: float, sigma0: float) -> GammaParams:
    """Gamma parameters with mean mu0 and standard deviation sigma0.

    alpha0 = mu0^2 / sigma0^2, beta0 = mu0 / sigma0^2.  Raises ValueError
    when either leaves the range of normal floats (1e-308 to 1e308).
    """
    if not (mu0 > 0):
        raise ValueError(f"mu0 must be > 0, got {mu0}")
    if not (sigma0 > 0):
        raise ValueError(f"sigma0 must be > 0, got {sigma0}")
    try:
        mu_sq, sigma_sq = mu0**2, sigma0**2
    except OverflowError:  # a float ** raises past 1e308
        mu_sq = sigma_sq = 0.0
    if min(mu_sq, sigma_sq) >= sys.float_info.min:
        alpha, beta = mu_sq / sigma_sq, mu0 / sigma_sq
    else:  # a square left the normal floats, or lost precision as a subnormal
        ratio = mu0 / sigma0
        alpha, beta = ratio * ratio, ratio / sigma0
    for name, value in (("alpha0", alpha), ("beta0", beta)):
        if not (sys.float_info.min <= value < math.inf):
            raise ValueError(
                f"prior mean {mu0:g} and sd {sigma0:g} give {name} = {value:g}, "
                "outside the range of normal floats"
            )
    return GammaParams(alpha, beta)


def relative_belief_ratio(r: float, obs: CountObservation, r_ref: float) -> float:
    """Likelihood ratio L(r; x, T) / L(r_ref; x, T) with L(r) proportional to r^x exp(-rT).

    Expresses how the data reshape beliefs relative to the reference rate,
    independently of the prior.  r_ref = 0 is admissible only when x = 0
    (there L(0) = 1 and the ratio is exp(-rT)).
    """
    if r < 0 or r_ref < 0:
        raise ValueError("rates must be >= 0")

    def loglik(rate: float) -> float:
        if rate == 0.0:
            return 0.0 if obs.x == 0 else -math.inf
        return obs.x * math.log(rate) - rate * obs.T

    ref = loglik(r_ref)
    if ref == -math.inf:
        raise ValueError(f"likelihood vanishes at r_ref={r_ref} (x={obs.x} > 0)")
    log_ratio = loglik(r) - ref
    try:
        return math.exp(log_ratio)
    except OverflowError:
        raise ValueError(f"the ratio, e^{log_ratio:.6g}, is past the float range") from None


def rate_posterior(obs: CountObservation, prior: GammaParams = FLAT_PRIOR) -> RateEstimate:
    """Convenience wrapper: posterior and summaries for one observation.

    With the flat prior the posterior is Gamma(x+1, T): mode x/T, mean
    (x+1)/T, sd sqrt(x+1)/T.
    """
    posterior = update_rate(prior, obs)
    return RateEstimate(posterior=posterior, summaries=gamma_summaries(posterior))
