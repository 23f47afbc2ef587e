"""Closed-form posteriors of the rate ratio rho = r1/r2.

Two causal structures are covered.  Model A infers each rate from its own
counts under flat priors and deduces the ratio, giving a Gamma-ratio
posterior with parameters (x1+1, T1) and (x2+1, T2).  Model B places the
ratio itself at the top of the model (flat prior on rho, Gamma prior on r2),
and its marginal posterior is again a Gamma ratio, now with denominator
parameters (alpha0 + x2 - 1, beta0 + T2): one power of r2 is spent
integrating the deterministic link r1 = rho * r2.

Also here: the lambda-ratio special case T1 = T2 = 1 and the prior on r1
implied by uniform priors on rho and r2.  The density of a ratio of two
i.i.d. uniform rates is distributions.uniform_ratio_pdf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Literal

from . import _PUBLIC
from .distributions import (
    GammaParams,
    SummaryStats,
    _check_positive,
    _elementwise,
    _on_ratios,
    _ratio_summaries,
    gamma_ratio_cdf,
    gamma_ratio_logpdf,
    gamma_ratio_pdf,
    gamma_ratio_ppf,
)
from .inference import FLAT_PRIOR, CountObservation, _pooled, update_rate


__all__ = list(_PUBLIC["ratio"])


def lambda_ratio_pdf(rho, x1: int, x2: int):
    """Posterior density of lambda1/lambda2 under flat priors.

    f(rho) = (x1+x2+1)! / (x1! x2!) * rho^x1 * (1+rho)^-(x1+x2+2),
    i.e. Model A at T1 = T2 = 1: the Gamma ratio with parameters (x1+1, 1) and (x2+1, 1).
    """
    return model_a_pdf(rho, CountObservation(x1, 1.0), CountObservation(x2, 1.0))


def lambda_ratio_summaries(x1: int, x2: int) -> SummaryStats:
    """Mode x1/(x2+2); mean (x1+1)/x2 needs x2 > 0; sd needs x2 > 1."""
    return model_a_summaries(CountObservation(x1, 1.0), CountObservation(x2, 1.0))


def model_a_pdf(rho, d1: CountObservation, d2: CountObservation):
    """Ratio posterior when r1 and r2 are inferred independently (flat priors).

    f(rho) = (x1+x2+1)!/(x1! x2!) * T1^(x1+1) T2^(x2+1)
             * rho^x1 * (T2 + T1 rho)^-(x1+x2+2)
    """
    return RatioPosterior(RatioPosteriorSpec("A", d1, d2)).pdf(rho)


def model_a_summaries(d1: CountObservation, d2: CountObservation) -> SummaryStats:
    """Mode (x1/T1)/((x2+2)/T2); mean needs x2 > 0; sd needs x2 > 1."""
    return RatioPosterior(RatioPosteriorSpec("A", d1, d2)).summaries


def model_b_pdf(
    rho,
    d1: CountObservation,
    d2: CountObservation,
    prior_r2: GammaParams = FLAT_PRIOR,
):
    """Ratio posterior when rho is inferred directly (flat prior on rho).

    f(rho) = T1^(x1+1) (beta0+T2)^(alpha0+x2-1) / B(x1+1, alpha0+x2-1)
             * rho^x1 * (beta0 + T2 + T1 rho)^-(alpha0+x1+x2)

    With a flat prior on r2 this equals the Model A density with x2
    replaced by x2 - 1, which is why it needs alpha0 + x2 > 1.
    """
    return RatioPosterior(RatioPosteriorSpec("B", d1, d2, prior_r2)).pdf(rho)


def model_b_summaries(
    d1: CountObservation,
    d2: CountObservation,
    prior_r2: GammaParams = FLAT_PRIOR,
) -> SummaryStats:
    """Summaries of the direct-ratio posterior.

    Flat prior on r2: mode (x1/T1)/((x2+1)/T2), mean ((x1+1)/T1)/((x2-1)/T2)
    for x2 > 1, sd for x2 > 2.  A proper Gamma(alpha0, beta0) prior shifts
    the conditions to alpha0 + x2 - 1 > 1 (mean) and > 2 (variance).
    """
    return RatioPosterior(RatioPosteriorSpec("B", d1, d2, prior_r2)).summaries


def model_b_rate_posteriors(
    d1: CountObservation, d2: CountObservation
) -> tuple[GammaParams, GammaParams]:
    """Marginal rate posteriors under the direct-ratio model with flat priors.

    r1 ~ Gamma(x1+1, T1) exactly as in Model A; r2 ~ Gamma(x2, T2) — one
    power of x2 is spent on the ratio, so x2 >= 1 is required for a proper
    posterior.  These are the two Gamma laws of rho's Model B posterior.
    """
    if d2.x < 1:
        raise ValueError("r2 posterior is improper for x2 = 0 (requires x2 >= 1)")
    return RatioPosterior(RatioPosteriorSpec("B", d1, d2))._pair


@_on_ratios
def model_b_reweighted_pdf(
    rho,
    d1: CountObservation,
    d2: CountObservation,
    prior_r2: GammaParams,
    rho_prior_pdf: Callable[[float], float],
):
    """Unnormalized posterior for a non-flat prior f0(rho).

    The flat-prior closed form is proportional to the effective likelihood
    of rho, so reweighting it by f0 gives the shape of the general
    posterior; normalize numerically if needed.
    """
    import numpy as np

    prior = np.vectorize(rho_prior_pdf, otypes=[float])(rho)
    return model_b_pdf(rho, d1, d2, prior_r2) * prior


@_elementwise()
def implied_r1_pdf(r1, rho_max: float, r2_max: float):
    """Density of r1 = rho * r2 under independent uniform priors.

    rho ~ U(0, rho_max), r2 ~ U(0, r2_max) imply
    f(r1) = log(rho_max * r2_max / r1) / (rho_max * r2_max)
    on 0 < r1 <= rho_max * r2_max, and 0 outside (not an error).  The log
    and the support test are taken as sums of logs, and the division by
    rho_max * r2_max = m 2^e (frexp of each) as one by m and a power of two,
    so that neither the product, its reciprocal nor top / r1 leaves the float
    range first.
    """
    import numpy as np

    _check_positive("rho_max", rho_max)
    _check_positive("r2_max", r2_max)
    (m1, e1), (m2, e2) = math.frexp(rho_max), math.frexp(r2_max)
    log_top = math.log(rho_max) + math.log(r2_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r1 = np.log(np.where(r1 > 0, r1, 1.0))
        inside = (r1 > 0) & (log_r1 <= log_top)
        return np.where(inside, np.ldexp((log_top - log_r1) / (m1 * m2), -(e1 + e2)), 0.0)


@dataclass(frozen=True)
class RatioPosteriorSpec:
    """Everything defining a closed-form rho posterior.

    Model A uses flat priors on both rates (the only closed-form case);
    model B permits a Gamma prior on r2 under a flat prior on rho.
    """

    model: Literal["A", "B"]
    data1: CountObservation
    data2: CountObservation
    prior_r2: GammaParams = field(default=FLAT_PRIOR)

    def __post_init__(self) -> None:
        if self.model not in ("A", "B"):
            raise ValueError(f"model must be 'A' or 'B', got {self.model!r}")
        if self.model == "A" and self.prior_r2 != FLAT_PRIOR:
            raise ValueError("model A is closed-form only for flat priors on both rates")


@dataclass(frozen=True)
class RatioPosterior:
    """A closed-form rho posterior and its summaries.

    Both models give a Gamma-ratio law, so pdf, cdf and ppf are all exact.
    Its Gamma laws (numerator, denominator) are made once, on construction,
    by one inference.update_rate call each: Model A's are each rate's update
    of the flat prior, (x_i + 1, T_i); Model B's the same with x2 -> x2 - 1 in
    r2's update, (alpha0 + x2 - 1, beta0 + T2), which needs a positive shape.
    """

    spec: RatioPosteriorSpec
    _pair: tuple[GammaParams, GammaParams] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = self.spec
        num, den = update_rate(FLAT_PRIOR, spec.data1), update_rate(spec.prior_r2, spec.data2)
        if spec.model == "B":
            if den.alpha - 1.0 <= 0:
                raise ValueError(f"normalization undefined: alpha0 + x2 - 1 = {den.alpha - 1.0} must be > 0")
            den = GammaParams(den.alpha - 1.0, den.beta)
        object.__setattr__(self, "_pair", (num, den))

    @functools.cached_property
    def summaries(self) -> SummaryStats:
        """Mode / mean / sd, made on first use: a density needs none of them, and they may refuse."""
        # the mean needs the denominator's shape > 1, the variance > 2: x2 + 1 in A, alpha0 + x2 - 1 in B
        shape = "x2" if self.spec.prior_r2 == FLAT_PRIOR else "alpha0 + x2 - 1"
        low = 0 if self.spec.model == "A" else 1
        return _ratio_summaries(*self._pair, f"requires {shape} > {low}", f"requires {shape} > {low + 1}")

    def pdf(self, rho):
        return gamma_ratio_pdf(rho, *self._pair)

    def logpdf(self, rho):
        return gamma_ratio_logpdf(rho, *self._pair)

    def cdf(self, rho):
        """P(rho' <= rho) under this posterior."""
        return gamma_ratio_cdf(rho, *self._pair)

    def ppf(self, q):
        """Posterior quantile of rho at probability q."""
        return gamma_ratio_ppf(q, *self._pair)


def ratio_posterior(spec: RatioPosteriorSpec) -> RatioPosterior:
    """The closed-form posterior of one spec."""
    return RatioPosterior(spec=spec)


def combine_ratio_instances(
    instances: list[tuple[CountObservation, CountObservation]],
    prior_r2: GammaParams = FLAT_PRIOR,
) -> RatioPosterior:
    """Combine N instances of (x1, T1, x2, T2) into one direct-ratio posterior.

    When rho and r2 are assumed constant across instances, the joint
    posterior has exactly the single-measurement form with each channel's
    counts and times summed, so combination reduces to pooling totals.
    """
    if not instances:
        raise ValueError("instances must be non-empty")
    data1, data2 = (
        CountObservation(_pooled(f"counts x{i}", [d.x for d in side]), _pooled(f"times T{i}", [d.T for d in side]))
        for i, side in enumerate(zip(*instances), 1)
    )
    spec = RatioPosteriorSpec(model="B", data1=data1, data2=data2, prior_r2=prior_r2)
    return ratio_posterior(spec)

