"""Core probability distributions for counting processes.

Gamma densities and summaries, Poisson/binomial masses, the distribution of
the difference of two Poisson counts, ratio-of-Gamma densities (Beta prime as
the unit-rate special case), the ratio law implied by independent uniform
rates, and seeded samplers.  All densities are evaluated in log domain via
log-Gamma / log-Beta and exponentiated at the boundary.  CDFs and quantiles
are exact special-function identities: the regularized incomplete Gamma
function for a rate and the regularized incomplete Beta function for a
ratio, each with its inverse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

# scipy.special is imported inside each function that calls it, not here:
# `mc`, `predict ratio` and `mcmc` never need SciPy, and importing it costs
# about 0.3 s of every launch.  Once loaded, a local import is a dict lookup.


__all__ = [
    "GammaParams",
    "SummaryStats",
    "DiscreteDist",
    "poisson_pmf",
    "poisson_cdf",
    "skellam_pmf",
    "skellam_dist",
    "gamma_pdf",
    "gamma_logpdf",
    "gamma_cdf",
    "gamma_ppf",
    "gamma_summaries",
    "gamma_sample",
    "binomial_pmf",
    "gamma_ratio_pdf",
    "gamma_ratio_logpdf",
    "gamma_ratio_cdf",
    "gamma_ratio_ppf",
    "gamma_ratio_summaries",
    "beta_prime_pdf",
    "uniform_ratio_pdf",
    "uniform_ratio_cdf",
    "poisson_process_waiting_times",
]


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate pair (alpha, beta) of a Gamma distribution.

    beta carries units 1/time when the variable is a rate.  beta == 0 is
    permitted as the improper flat-prior limit: it may enter conjugate
    update rules, but density, CDF, sampling and summaries require a
    proper distribution and reject it.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not (self.beta >= 0):
            raise ValueError(f"beta must be >= 0, got {self.beta}")

    @property
    def is_proper(self) -> bool:
        return self.beta > 0

    def require_proper(self) -> None:
        if not self.is_proper:
            raise ValueError(
                "improper Gamma (beta == 0) is only valid as a prior in "
                "update rules, not as a distribution"
            )

    def pdf(self, x):
        """Density of this Gamma law; see gamma_pdf."""
        return gamma_pdf(x, self)

    def cdf(self, x):
        """P(X <= x); see gamma_cdf."""
        return gamma_cdf(x, self)

    def ppf(self, q):
        """Quantile at probability q; see gamma_ppf."""
        return gamma_ppf(q, self)


@dataclass(frozen=True)
class SummaryStats:
    """Mode / mean / variance / sd, each either a float or None.

    A None entry is a legitimate regime, not an error; `undefined` maps the
    field name to the violated condition (e.g. "requires x2 > 1").
    sd equals sqrt(variance) where both are defined; sd is defined iff variance
    is, except that a variance past the float range beside a finite sd is None.
    A defined entry that is not finite is refused when the stats are made.
    """

    mode: float | None
    mean: float | None
    variance: float | None
    sd: float | None
    undefined: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("mode", "mean", "variance", "sd"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} = {value} is outside the float range")

    def as_dict(self) -> dict:
        """JSON-ready form: undefined entries are null plus a reason."""
        return {
            "mode": self.mode,
            "mean": self.mean,
            "variance": self.variance,
            "sd": self.sd,
            "undefined": dict(self.undefined),
        }


@dataclass(frozen=True)
class DiscreteDist:
    """A probability mass function over a contiguous integer support."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.probs.shape:
            raise ValueError("values and probs must have the same shape")
        # Tail truncation must leave < 1e-9 of mass outside the support.
        if not abs(float(self.probs.sum()) - 1.0) <= 1e-9:  # "not <=" also rejects NaN
            raise ValueError("probabilities must sum to 1 within 1e-9")

    def prob(self, value: int) -> float:
        hit = np.nonzero(self.values == value)[0]
        return float(self.probs[hit[0]]) if hit.size else 0.0

    def mean(self) -> float:
        return float(np.sum(self.values * self.probs))

    def sd(self) -> float:
        m = self.mean()
        return math.sqrt(float(np.sum((self.values - m) ** 2 * self.probs)))


def _check_positive(name: str, value: float) -> None:
    if not (value > 0):
        raise ValueError(f"{name} must be > 0, got {value}")


def _elementwise(refuse=None, reason: str = ""):
    """Decorator for a law whose first argument is a scalar or an array.

    The law receives that argument as a float64 array, refused with
    ValueError(reason) where `refuse` holds for any element, and returns a
    Python float for a scalar or 0-d argument, an array otherwise.
    """

    def wrap(law):
        @functools.wraps(law)
        def checked(x, *args, **kwargs):
            x = np.asarray(x, dtype=float)
            if refuse is not None and np.any(refuse(x)):
                raise ValueError(reason)
            out = law(x, *args, **kwargs)
            return float(out) if x.ndim == 0 else out

        return checked

    return wrap


_on_rates = _elementwise(lambda x: x < 0, "x must be >= 0")
_on_ratios = _elementwise(lambda rho: rho < 0, "rho must be >= 0")
_on_levels = _elementwise(lambda q: ~((q >= 0.0) & (q <= 1.0)), "q must be in [0, 1]")  # also refuses NaN
_on_counts = _elementwise(lambda x: (x != np.floor(x)) | (x < 0), "x must be a non-negative integer")


def _sample_sd(values: np.ndarray) -> float:
    """Sample sd (ddof 1) of at least two values, also where their squares leave the float range.

    The values are scaled by a power of two to magnitudes below 1 and the sd
    scaled back; both scalings are exact, so values of ordinary size get
    np.std's result to the bit.
    """
    e = np.frexp(np.abs(values).max())[1]
    return float(np.ldexp(np.ldexp(values, -e).std(ddof=1), e))


@_on_counts
def poisson_pmf(x, lam: float):
    """P(X = x) for X ~ Poisson(lam), computed in log domain.

    Arguments:
        x: non-negative integer count, scalar or array.
        lam: positive Poisson parameter.
    """
    from scipy import special

    _check_positive("lambda", lam)
    return np.exp(special.xlogy(x, lam) - lam - special.gammaln(x + 1.0))


@_on_counts
def poisson_cdf(x, lam: float):
    """P(X <= x) for X ~ Poisson(lam): the sum of the pmf from 0 to x.

    Evaluated through the regularized upper incomplete Gamma function,
    which equals that sum exactly.
    """
    from scipy import special

    _check_positive("lambda", lam)
    return special.gammaincc(x + 1.0, lam)


SKELLAM_MAX_POINTS = 2**21  # the largest support skellam_dist tabulates: 16 MB per array

# Debye polynomials u_k(p) of the uniform asymptotic expansion of I_v
# (Abramowitz & Stegun 9.3.9, 9.3.10), as coefficients of p^0 .. p^12.
_DEBYE_U = [
    np.polynomial.Polynomial(np.array(c, dtype=float) / den)
    for c, den in (
        ([0, 3, 0, -5], 24.0),
        ([0, 0, 81, 0, -462, 0, 385], 1152.0),
        ([0, 0, 0, 30375, 0, -369603, 0, 765765, 0, -425425], 414720.0),
        (
            [0, 0, 0, 0, 4465125, 0, -94121676, 0, 349922430, 0, -446185740, 0, 185910725],
            39813120.0,
        ),
    )
]


def _log_ive_direct(v: np.ndarray, z: float) -> tuple[np.ndarray, np.ndarray]:
    """log(I_v(z) e^-z) where `special.ive` serves, and the mask where it does not.

    ive serves where its value is comfortably inside the float range.  It
    does not where that needs a large order (or a product lambda1*lambda2
    below 1e-15), or where ive returns NaN (z above 2^30, about 1.07e9).
    There, order 0 takes the large-argument series
    I_0(z) e^-z ~ (1 + 1/(8z) + 9/(128z^2)) / sqrt(2 pi z), which ive leaves
    only at such large z, and the orders v > 0 are returned in the mask for
    the Debye expansion (_debye_rest, _skellam_debye_exponent).
    """
    from scipy import special

    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(special.ive(v, z)))
    low = ~(out >= -600.0)  # also takes NaN
    large_z = low & (v == 0)
    if np.any(large_z):
        out[large_z] = -0.5 * np.log(2.0 * math.pi * z) + np.log1p((1.0 + 9.0 / (16.0 * z)) / (8.0 * z))
    return out, low & (v > 0)


def _debye_rest(n: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """log(sum_k u_k(p) / n^k) - log(2 pi eta) / 2 with p = n / eta: the Debye expansion less its exponent.

    I_n(z) ~ e^(eta - n asinh(n/z)) / sqrt(2 pi eta) * sum_k u_k(p) / n^k, with eta = sqrt(n^2 + z^2).
    """
    p = n / eta
    series = 1.0 + sum(u(p) / n ** (k + 1) for k, u in enumerate(_DEBYE_U))
    return np.log(series) - 0.5 * np.log(2.0 * math.pi * eta)


@_elementwise(lambda d: d != np.floor(d), "d must be an integer")
def skellam_pmf(d, lambda1: float, lambda2: float):
    """P(X1 - X2 = d) for independent X1 ~ Pois(lambda1), X2 ~ Pois(lambda2).

    Bessel form e^-(l1+l2) (l1/l2)^(d/2) I_|d|(2 sqrt(l1 l2)), evaluated in
    log domain with the exponentially scaled Bessel function `ive`, so
    e^-(l1+l2) e^z collapses to -(sqrt(l1) - sqrt(l2))^2.  The d/2 power is
    written 0.5*d*(log l1 - log l2), which keeps the (d, l1, l2) ->
    (-d, l2, l1) symmetry exact.

    Where I_|d| takes the Debye expansion, those terms and its exponent are
    each about lambda in size and would cancel; there the whole exponent is
    evaluated in one cancellation-free form instead (_skellam_debye_exponent).

    Arguments:
        d: integer difference, scalar or array.
        lambda1, lambda2: positive Poisson parameters.
    """
    _check_positive("lambda1", lambda1)
    _check_positive("lambda2", lambda2)
    v = np.abs(d)
    z = 2.0 * math.sqrt(lambda1 * lambda2)
    log_ive, rest = _log_ive_direct(v, z)
    logp = np.asarray(
        -((math.sqrt(lambda1) - math.sqrt(lambda2)) ** 2)
        + 0.5 * d * (math.log(lambda1) - math.log(lambda2))
        + log_ive
    )
    # the Debye expansion is poor at small orders, where z^2 / 4 = lambda1 lambda2
    # is tiny next to v + 1; there the power series of I_v converges at once
    series = rest & (lambda1 * lambda2 <= 1e-3 * (v + 1.0))
    if np.any(series):
        logp[series] = _skellam_series(d[series], lambda1, lambda2)
    debye = rest & ~series
    if np.any(debye):
        n = v[debye]
        eta = np.hypot(n, z)
        logp[debye] = _skellam_debye_exponent(d[debye], n, eta, lambda1, lambda2) + _debye_rest(n, eta)
    return np.exp(logp)


def _skellam_series(d, lambda1: float, lambda2: float):
    """log P(D = d) from the power series of I_|d|, for d != 0 and lambda1 lambda2 <= (|d| + 1) / 1000.

    With v = |d| and l_d = l1 for d > 0, l2 for d < 0, P(D = d) is
    e^-(l1 + l2) l_d^v / v! * sum_k (l1 l2)^k v! / (k! (v + k)!).  Each term
    is at most 1/1000 of the one before, so five terms leave an error below
    1e-17.  Nothing cancels, and lambda1 lambda2 may underflow to 0.
    """
    from scipy import special

    v = np.abs(d)
    term = total = np.ones_like(v)
    for k in range(1, 5):
        term = term * (lambda1 * lambda2) / (k * (v + k))
        total = total + term
    log_rate = np.log(np.where(d > 0, lambda1, lambda2))
    return -(lambda1 + lambda2) + v * log_rate - special.gammaln(v + 1.0) + np.log(total)


def _skellam_debye_exponent(d, v, eta, lambda1: float, lambda2: float):
    """-(l1 + l2) + d/2 log(l1/l2) + eta - v asinh(v/z), for d != 0, without cancellation.

    With S = l1 + l2, v = |d| and l_d = l1 for d > 0, l2 for d < 0, the sum
    is exactly (eta - S) + v log(2 l_d / (v + eta)).  eta - S is evaluated
    as (v - |l1 - l2|)(v + |l1 - l2|) / (eta + S), since
    eta^2 - S^2 = v^2 - (l1 - l2)^2, and the log as log1p of
    (2 l_d - v - eta) / (v + eta), whose numerator is
    (l_d - l_other - v) - (eta - S).  Swapping (d, l1, l2) -> (-d, l2, l1)
    leaves every operand unchanged, so the symmetry stays exact.
    """
    s = lambda1 + lambda2
    gap = abs(lambda1 - lambda2)
    eta_minus_s = (v - gap) * (v + gap) / (eta + s)
    toward_d = np.where(d > 0, lambda1 - lambda2, lambda2 - lambda1)
    return eta_minus_s + v * np.log1p((toward_d - v - eta_minus_s) / (v + eta))


def skellam_dist(lambda1: float, lambda2: float) -> DiscreteDist:
    """Tabulate the count-difference pmf of D = X1 - X2.

    The support covers mean +- (8 sd + 11) of D.  The 8 sd keep the
    truncated tail mass far below the DiscreteDist 1e-9 contract for large
    lambda; the fixed margin covers the Poisson tail, which is much heavier
    than 8 sd suggests when lambda is small.  A support of more than
    SKELLAM_MAX_POINTS = 2^21 points (lambda1 + lambda2 above about 1.7e10)
    is refused with a ValueError before anything is allocated.
    """
    _check_positive("lambda1", lambda1)
    _check_positive("lambda2", lambda2)
    center = lambda1 - lambda2
    half = 8.0 * math.sqrt(lambda1 + lambda2) + 11.0
    if 2.0 * half + 1.0 > SKELLAM_MAX_POINTS:
        raise ValueError(
            f"the difference pmf needs about {2.0 * half + 1.0:.4g} support points, "
            f"more than {SKELLAM_MAX_POINTS} (lambda1 + lambda2 must stay below about 1.7e10)"
        )
    d_min = int(math.floor(center - half))
    d_max = int(math.ceil(center + half))
    values = np.arange(d_min, d_max + 1)
    return DiscreteDist(values=values, probs=skellam_pmf(values, lambda1, lambda2))


@_on_rates
def gamma_logpdf(x, p: GammaParams):
    """log f(x | alpha, beta) with f(x) = beta^alpha / Gamma(alpha) * x^(alpha-1) * exp(-beta x)."""
    from scipy import special

    p.require_proper()
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = (
            p.alpha * math.log(p.beta)
            - special.gammaln(p.alpha)
            + (p.alpha - 1.0) * np.log(x)
            - p.beta * x
        )
    if p.alpha == 1.0:
        # 0 * log(0) above is nan; the exponential density is beta at x = 0
        logp = np.where(x == 0.0, math.log(p.beta), logp)
    return logp


@_on_rates
def gamma_pdf(x, p: GammaParams):
    """Gamma density; at x = 0 it is 0 for alpha > 1, beta for alpha = 1, +inf for alpha < 1."""
    with np.errstate(over="ignore"):  # past the float range the density reads inf
        return np.exp(gamma_logpdf(x, p))


@_on_rates
def gamma_cdf(x, p: GammaParams):
    """P(X <= x) for X ~ Gamma(alpha, beta) via the regularized lower incomplete Gamma."""
    from scipy import special

    p.require_proper()
    return special.gammainc(p.alpha, p.beta * x)


@_on_levels
def gamma_ppf(q, p: GammaParams):
    """Quantile of Gamma(alpha, beta) at probability q: gammaincinv(alpha, q) / beta."""
    from scipy import special

    p.require_proper()
    with np.errstate(over="ignore"):  # a quantile past the float range reads inf
        return special.gammaincinv(p.alpha, q) / p.beta


def gamma_summaries(p: GammaParams) -> SummaryStats:
    """Mean alpha/beta, sd sqrt(alpha)/beta, mode (alpha-1)/beta for alpha >= 1 else 0."""
    p.require_proper()
    mode = (p.alpha - 1.0) / p.beta if p.alpha >= 1.0 else 0.0
    sd = math.sqrt(p.alpha) / p.beta
    variance = sd * sd  # past the float range for sd > ~1.3e154, where sd itself is still an answer
    undefined = {"variance": "past the float range"} if math.isinf(variance) else {}
    return SummaryStats(mode, p.alpha / p.beta, None if undefined else variance, sd, undefined)


def gamma_sample(p: GammaParams, n: int, seed) -> np.ndarray:
    """Draw n Gamma(alpha, beta) variates.

    Arguments:
        p: proper Gamma parameters.
        n: number of draws, >= 1.
        seed: integer seed or numpy Generator; the caller owns the RNG state.
    """
    p.require_proper()
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.gamma(shape=p.alpha, scale=1.0 / p.beta, size=int(n))


@_elementwise(lambda x: x != np.floor(x), "x must be an integer")
def binomial_pmf(x, n: int, prob: float):
    """P(X = x) for X ~ Binom(n, prob); 0 outside [0, n] rather than an error."""
    from scipy import special

    if not (0.0 <= prob <= 1.0):
        raise ValueError(f"prob must be in [0, 1], got {prob}")
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a non-negative integer, got {n}")
    inside = (x >= 0) & (x <= n)
    xs = np.where(inside, x, 0)
    logp = (
        special.gammaln(n + 1.0)
        - special.gammaln(xs + 1.0)
        - special.gammaln(n - xs + 1.0)
        + special.xlogy(xs, prob)
        + special.xlog1py(n - xs, -prob)
    )
    return np.where(inside, np.exp(logp), 0.0)


@_on_ratios
def gamma_ratio_logpdf(rho, p1: GammaParams, p2: GammaParams):
    """log density of Z1/Z2 for independent Z1 ~ Gamma(p1), Z2 ~ Gamma(p2)."""
    from scipy import special

    p1.require_proper()
    p2.require_proper()
    a1, b1, a2, b2 = p1.alpha, p1.beta, p2.alpha, p2.beta
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = (
            a1 * math.log(b1)
            + a2 * math.log(b2)
            - special.betaln(a1, a2)
            + (a1 - 1.0) * np.log(rho)
            - (a1 + a2) * np.log(b2 + rho * b1)
        )
    if a1 == 1.0:
        logp = np.where(
            rho == 0.0,
            math.log(b1) + a2 * math.log(b2) - special.betaln(1.0, a2) - (1.0 + a2) * math.log(b2),
            logp,
        )
    return logp


@_on_ratios
def gamma_ratio_pdf(rho, p1: GammaParams, p2: GammaParams):
    """Density of the ratio of two independent Gamma variables.

    f(rho) = b1^a1 b2^a2 / B(a1, a2) * rho^(a1-1) * (b2 + rho*b1)^-(a1+a2),
    evaluated through the log-Beta function.
    """
    with np.errstate(over="ignore"):  # past the float range the density reads inf
        return np.exp(gamma_ratio_logpdf(rho, p1, p2))


@_on_ratios
def gamma_ratio_cdf(rho, p1: GammaParams, p2: GammaParams):
    """P(Z1/Z2 <= rho) = I_u(a1, a2) with u = b1 rho / (b2 + b1 rho).

    b1 Z1 / (b1 Z1 + b2 Z2) is Beta(a1, a2) distributed, and Z1/Z2 <= rho
    exactly when it is <= u.
    """
    from scipy import special

    p1.require_proper()
    p2.require_proper()
    # where b1 rho leaves the float range, u = 1, not inf / inf
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = p1.beta * rho
        u = np.where(np.isinf(scaled), 1.0, scaled / (p2.beta + scaled))
    return special.betainc(p1.alpha, p2.alpha, u)


@_on_levels
def gamma_ratio_ppf(q, p1: GammaParams, p2: GammaParams):
    """Quantile of Z1/Z2 at probability q: b2 u / (b1 (1 - u)) with u = I^-1_q(a1, a2).

    1 - u comes from the complementary inverse I^-1_{1-q}(a2, a1), not from
    a subtraction, so quantiles of sharply peaked ratios (large counts on
    both sides) keep full precision.
    """
    from scipy import special

    p1.require_proper()
    p2.require_proper()
    u = special.betaincinv(p1.alpha, p2.alpha, q)
    one_minus_u = special.betaincinv(p2.alpha, p1.alpha, 1.0 - q)
    with np.errstate(divide="ignore", over="ignore"):  # a quantile past the float range reads inf
        return p2.beta * u / (p1.beta * one_minus_u)


def _ratio_summaries(
    num: GammaParams, den: GammaParams, mean_reason: str, variance_reason: str
) -> SummaryStats:
    """Mode / mean / sd of the Gamma ratio num/den, each missing moment with its reason.

    Mean requires den.alpha > 1, variance den.alpha > 2; mode uses the
    0-at-the-boundary convention when num.alpha < 1 (the density is
    unbounded at 0 there), and is 0 at num.alpha = 1 whatever the scale.
    """
    a1, a2 = num.alpha, den.alpha
    scale = den.beta / num.beta
    mode = scale * (a1 - 1.0) / (a2 + 1.0) if a1 > 1.0 else 0.0
    mean = variance = sd = None
    undefined = {}
    if a2 > 1.0:
        mean = scale * a1 / (a2 - 1.0)
    else:
        undefined["mean"] = mean_reason
    if a2 > 2.0:
        # m2 = (a1 + 1)/(a2 - 2) - a1/(a2 - 1), without the difference that cancels at large shapes
        m1, m2 = a1 / (a2 - 1.0), (a1 + a2 - 1.0) / (a2 - 1.0) / (a2 - 2.0)
        try:
            variance = scale**2 * m1 * m2
        except OverflowError:  # a float ** raises past 1e308, where a float * reads inf
            variance = scale * (scale * m1 * m2)
        sd = math.sqrt(variance)
    else:
        undefined["variance"] = undefined["sd"] = variance_reason
    return SummaryStats(mode, mean, variance, sd, undefined)


def gamma_ratio_summaries(p1: GammaParams, p2: GammaParams) -> SummaryStats:
    """Mode / mean / sd of Z1/Z2; mean needs alpha2 > 1, variance alpha2 > 2."""
    p1.require_proper()
    p2.require_proper()
    return _ratio_summaries(p1, p2, "requires alpha2 > 1", "requires alpha2 > 2")


def beta_prime_pdf(x, alpha: float, beta: float):
    """Beta prime density x^(alpha-1) (1+x)^-(alpha+beta) / B(alpha, beta).

    Identical to gamma_ratio_pdf with both rate parameters equal to 1.
    """
    _check_positive("alpha", alpha)
    _check_positive("beta", beta)
    return gamma_ratio_pdf(x, GammaParams(alpha, 1.0), GammaParams(beta, 1.0))


@_on_ratios
def uniform_ratio_pdf(rho):
    """Density of U1/U2 with both uniform on (0, r_max); independent of r_max.

    1/2 on 0 <= rho <= 1 and 1/(2 rho^2) beyond.
    """
    return np.where(rho <= 1.0, 0.5, 0.5 / np.maximum(rho, 1.0) ** 2)


@_on_ratios
def uniform_ratio_cdf(rho):
    """P(U1/U2 <= rho): rho/2 up to 1, then 1 - 1/(2 rho)."""
    return np.where(rho <= 1.0, rho / 2.0, 1.0 - 0.5 / np.maximum(rho, 1.0))


def poisson_process_waiting_times(rate: float, k: int, seed, n_paths: int | None = None):
    """Arrival times of the first k events of a Poisson process.

    Cumulative sums of i.i.d. exponential(rate) waiting times; the k-th
    arrival is Gamma(k, rate) distributed.  Returns shape (k,) for a single
    path, or (n_paths, k) when n_paths is given.
    """
    _check_positive("rate", rate)
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    size = (int(n_paths), int(k)) if n_paths is not None else int(k)
    if n_paths is not None and n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    gaps = rng.exponential(scale=1.0 / rate, size=size)
    return np.cumsum(gaps, axis=-1)
