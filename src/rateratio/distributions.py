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
from typing import TYPE_CHECKING, Mapping

from . import _PUBLIC

if TYPE_CHECKING:
    import numpy as np

# NumPy and scipy.special are imported inside each function that calls them,
# not here: `mc`, `predict` and `mcmc` never need SciPy, which costs about
# 0.3 s of a launch, and the text closed-form commands (a Gamma law's
# parameters and summaries) need neither, while NumPy costs about 0.1 s.
# Once loaded, a local import is a dict lookup.


__all__ = list(_PUBLIC["distributions"])


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate pair (alpha, beta) of a Gamma distribution.

    beta carries units 1/time when the variable is a rate.  alpha must be
    finite and > 0, and beta finite and >= 0: beta == 0 is permitted as the
    improper flat-prior limit.  It may enter conjugate update rules, but
    density, CDF, sampling and summaries require a proper distribution and
    reject it.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)
        if not (0 <= self.beta < math.inf):  # beta = 0, the improper limit, is this rule's one exception
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

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
        import numpy as np

        hit = np.nonzero(self.values == value)[0]
        return float(self.probs[hit[0]]) if hit.size else 0.0

    def mean(self) -> float:
        import numpy as np

        return float(np.sum(self.values * self.probs))

    def sd(self) -> float:
        import numpy as np

        m = self.mean()
        return math.sqrt(float(np.sum((self.values - m) ** 2 * self.probs)))


_FLOAT_MAX = (2.0 - 2.0**-52) * 2.0**1023  # sys.float_info.max


def _check_positive(name: str, value: float) -> float:
    """value, if it is finite and > 0: the one rule of every rate, time, scale and Gamma shape; else ValueError."""
    if not (0 < value < math.inf):  # also refuses NaN
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def _size(name: str, value, least: int = 1) -> int:
    """value as an int, if it is a whole number >= least: the one rule of every count and size; else ValueError.

    A whole float or a NumPy integer is taken; inf and NaN are refused, and so
    is a Python int past the largest float, which no float can hold.
    """
    if not (least <= value < math.inf) or value != int(value):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value}")
    if value > _FLOAT_MAX:  # an int compares with a float exactly
        raise ValueError(
            f"{name} must be at most {_FLOAT_MAX:.6g}, the largest float, got about 10^{math.log10(value):.0f}"
        )
    return int(value)


def _elementwise(refuse=None, reason: str = ""):
    """Decorator for a law whose first argument is a scalar or an array.

    The law receives that argument as a float64 array, refused with
    ValueError(reason) where `refuse` holds for any element, and returns a
    Python float for a scalar or 0-d argument, an array otherwise.
    """

    def wrap(law):
        @functools.wraps(law)
        def checked(x, *args, **kwargs):
            import numpy as np

            x = np.asarray(x, dtype=float)
            if refuse is not None and np.any(refuse(x)):
                raise ValueError(reason)
            out = law(x, *args, **kwargs)
            return float(out) if x.ndim == 0 else out

        return checked

    return wrap


def _fractional(x):
    """True where an element of the float array x is not a whole number; NaN is not, inf is."""
    import numpy as np

    return x != np.floor(x)


_on_rates = _elementwise(lambda x: x < 0, "x must be >= 0")
_on_ratios = _elementwise(lambda rho: rho < 0, "rho must be >= 0")
_on_levels = _elementwise(lambda q: ~((q >= 0.0) & (q <= 1.0)), "q must be in [0, 1]")  # also refuses NaN
_on_counts = _elementwise(lambda x: _fractional(x) | (x < 0), "x must be a non-negative integer")


# The largest mean NumPy draws a Poisson variate at, INT64_MAX - 10 sqrt(INT64_MAX) (its POISSON_LAM_MAX)
_POISSON_LAM_MAX = 2.0**63 - 10.0 * math.sqrt(2.0**63)


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(values * 2^-e - ref, ref, e): the values scaled by a power of two to magnitudes below 1, less the first.

    ref is the first scaled value.  A mean or sd of the centred values, ref
    added back and scaled back by 2^e, stays in the float range where a sum
    or the squares of the values would leave it, and values that are all
    equal give their own value and an sd of 0.  The scaling is exact, so
    the centring rounds as it would on the values themselves.  Values with
    a non-finite element are returned as they are, with ref = 0 and e = 0.
    """
    import numpy as np

    top = np.abs(values).max()
    if not np.isfinite(top):
        return values, 0.0, 0
    e = int(np.frexp(top)[1])
    scaled = np.ldexp(values, -e)
    ref = scaled[0]
    return scaled - ref, ref, e


def _sample_sd(values: np.ndarray) -> float:
    """Sample sd (ddof 1) of at least two values, also where their squares leave the float range."""
    import numpy as np

    centred, _, e = _unit_scaled(values)
    return float(np.ldexp(centred.std(ddof=1), e))


def _write_csv(fh, columns: dict) -> None:
    """CSV of named, equal-length columns of ints, strings and Python floats.

    "%s" writes a Python float as its repr, the shortest string that reads
    back to the same float.
    """
    fh.write(",".join(columns) + "\n")
    line = ",".join(["%s"] * len(columns)) + "\n"
    fh.writelines(line % row for row in zip(*columns.values()))


@_on_counts
def poisson_pmf(x, lam: float):
    """P(X = x) for X ~ Poisson(lam), computed in log domain.

    Arguments:
        x: non-negative integer count, scalar or array.
        lam: positive Poisson parameter.
    """
    import numpy as np
    from scipy import special

    _check_positive("lambda", lam)
    with np.errstate(invalid="ignore"):  # inf - inf at x = inf, where the mass is 0
        logp = special.xlogy(x, lam) - lam - special.gammaln(x + 1.0)
    return np.where(x == math.inf, 0.0, np.exp(logp))


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


def _skellam_bulk(lambda1: float, lambda2: float, limit: int) -> tuple[int, int]:
    """Ends of mean +- (8 sd + 11) of D = X1 - X2, for lambdas _check_positive takes and at most `limit` points."""
    _check_positive("lambda1", lambda1)
    _check_positive("lambda2", lambda2)
    center, half = lambda1 - lambda2, 8.0 * math.sqrt(lambda1 + lambda2) + 11.0
    if 2.0 * half + 1.0 > limit:
        raise ValueError(f"the difference pmf needs about {2.0 * half + 1.0:.4g} support points, more than {limit} "
                         f"(lambda1 + lambda2 must stay below about {((limit - 23) / 16) ** 2:.2g})")
    return math.floor(center - half), math.ceil(center + half)


def _skellam_log_rise(lambda1: float, lambda2: float, d0: int, hi: int):
    """log P(d) - log P(d0) for d = d0 + 1, ..., hi, where d0 >= 0.

    t_d = P(d) / P(d - 1) = lambda1 / (d + lambda2 t_(d+1)) runs down from 0 at
    60 + 8 sqrt(lambda1 + lambda2) terms past hi, carried as q_d = lambda1 / t_d
    - lambda1 to keep the digits of t_d ~ 1 near the mode.  The logs are summed
    with each addition's rounding error carried (Knuth's two-sum).
    """
    import numpy as np

    if hi <= d0:
        return np.empty(0)
    mu = lambda1 - lambda2
    start = hi + 60 + int(8.0 * math.sqrt(lambda1 + lambda2))
    q, qs = start - lambda1, []  # t_(start+1) = 0; qs runs from d = start - 1 down to d0 + 1
    for d in range(start - 1, d0, -1):
        q = (d - mu) - lambda2 * q / (lambda1 + q)
        qs.append(q)
    with np.errstate(over="ignore"):  # q / lambda1 past the float range: that P(d) reads 0 either way
        logs = np.maximum(-np.log1p(np.array(qs[start - 1 - hi:][::-1]) / lambda1), -1e4)
    sums = np.cumsum(logs)
    before = np.concatenate(([0.0], sums[:-1]))
    part = sums - before
    return sums + np.cumsum((before - (sums - part)) + (logs - part))


def _skellam_table(lambda1: float, lambda2: float, lo: int, hi: int):
    """P(D = d) for d = lo, ..., hi, normalized by their sum; the log ratios run outward from 0 or the nearer end."""
    import numpy as np

    d0 = min(max(0, lo), hi)
    up, down = _skellam_log_rise(lambda1, lambda2, d0, hi), _skellam_log_rise(lambda2, lambda1, -d0, -lo)
    top = max(up.max(initial=0.0), down.max(initial=0.0))
    up, down, at_d0 = np.exp(up - top), np.exp(down - top), math.exp(-top)
    return np.concatenate((down[::-1], [at_d0], up)) / (at_d0 + (down.sum() + up.sum()))


@_elementwise(_fractional, "d must be an integer")
def skellam_pmf(d, lambda1: float, lambda2: float):
    """P(X1 - X2 = d) for independent X1 ~ Pois(lambda1), X2 ~ Pois(lambda2), d an integer or array of them.

    By lambda1 P(d - 1) = d P(d) + lambda2 P(d + 1) (DLMF 10.29.1), the ratios
    t_d = P(d) / P(d - 1) = lambda1 / (d + lambda2 t_(d+1)) for d > 0, run
    down from 0, converge to the pmf's (Miller's algorithm; Gautschi 1967,
    SIAM Review 9(1)); P(-d | lambda1, lambda2) = P(d | lambda2, lambda1)
    gives d < 0.  The table spans skellam_dist's support and the d's asked
    for, and is normalized by sum P = 1; d -> -d with lambda1 <-> lambda2
    keeps each value to the bit.  A d outside that support whose Chernoff
    bound on P(D = d) is below the smallest subnormal reads 0.0 untabulated;
    d's that all lie inside it skip the bound.  A support of more than
    2 SKELLAM_MAX_POINTS points is refused with a ValueError.
    """
    import numpy as np

    lo, hi = _skellam_bulk(lambda1, lambda2, 2 * SKELLAM_MAX_POINTS)
    if d.size and lo <= d.min() and d.max() <= hi:  # every d in the bulk, as in skellam_dist: no bound to check
        return _skellam_table(lambda1, lambda2, lo, hi)[(d - lo).astype(int)]
    # min_s log E[e^(s (D - d))] = w - l1 - l2 - |d| log((|d| + w) / (2 l_d)), w = sqrt(d^2 + 4 l1 l2),
    # l_d = l1 for d > 0 and l2 otherwise; NaN at d = +-inf
    v = np.abs(d)
    w = np.hypot(v, 2.0 * math.sqrt(lambda1 * lambda2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = w - (lambda1 + lambda2) - v * np.log((v + w) / (2.0 * np.where(d > 0, lambda1, lambda2)))
    live = ((d >= lo) & (d <= hi)) | (bound >= math.log(math.ulp(0.0)))
    out = np.zeros_like(d)
    if live.any():
        lo, hi = min(lo, int(d[live].min())), max(hi, int(d[live].max()))
        out[live] = _skellam_table(lambda1, lambda2, lo, hi)[(d[live] - lo).astype(int)]
    return out


def skellam_dist(lambda1: float, lambda2: float) -> DiscreteDist:
    """Tabulate the count-difference pmf of D = X1 - X2 over mean +- (8 sd + 11).

    The 8 sd leave far below 1e-9 of the mass outside at large lambda, and the
    11 cover the heavier Poisson tail at small lambda.  More than 2^21 points
    (lambda1 + lambda2 above about 1.7e10) are refused before any is allocated.
    """
    import numpy as np

    lo, hi = _skellam_bulk(lambda1, lambda2, SKELLAM_MAX_POINTS)
    values = np.arange(lo, hi + 1)
    return DiscreteDist(values=values, probs=skellam_pmf(values, lambda1, lambda2))


@_on_rates
def gamma_logpdf(x, p: GammaParams):
    """log f(x | alpha, beta) with f(x) = beta^alpha / Gamma(alpha) * x^(alpha-1) * exp(-beta x)."""
    import numpy as np
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
    # inf - inf above is nan; the density vanishes at x = inf
    return np.where(x == math.inf, -math.inf, logp)


@_on_rates
def gamma_pdf(x, p: GammaParams):
    """Gamma density; at x = 0 it is 0 for alpha > 1, beta for alpha = 1, +inf for alpha < 1."""
    import numpy as np

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
    import numpy as np
    from scipy import special

    p.require_proper()
    with np.errstate(over="ignore"):  # a quantile past the float range reads inf
        return special.gammaincinv(p.alpha, q) / p.beta


def _finite_variance(variance: float, undefined: dict) -> float | None:
    """variance, or None where it reads inf, with that reason put in undefined; an sd past ~1.3e154 still stands."""
    if math.isinf(variance):
        undefined["variance"] = "past the float range"
        return None
    return variance


def gamma_summaries(p: GammaParams) -> SummaryStats:
    """Mean alpha/beta, sd sqrt(alpha)/beta, mode (alpha-1)/beta for alpha >= 1 else 0."""
    p.require_proper()
    mode = (p.alpha - 1.0) / p.beta if p.alpha >= 1.0 else 0.0
    sd = math.sqrt(p.alpha) / p.beta
    undefined = {}
    variance = _finite_variance(sd * sd, undefined)
    return SummaryStats(mode, p.alpha / p.beta, variance, sd, undefined)


def gamma_sample(p: GammaParams, n: int, seed) -> np.ndarray:
    """Draw n Gamma(alpha, beta) variates.

    Arguments:
        p: proper Gamma parameters.
        n: number of draws, >= 1.
        seed: integer seed or numpy Generator; the caller owns the RNG state.
    """
    import numpy as np

    p.require_proper()
    n = _size("n", n)
    rng = np.random.default_rng(seed)
    return rng.gamma(shape=p.alpha, scale=1.0 / p.beta, size=n)


@_elementwise(_fractional, "x must be an integer")
def binomial_pmf(x, n: int, prob: float):
    """P(X = x) for X ~ Binom(n, prob); 0 outside [0, n] rather than an error."""
    import numpy as np
    from scipy import special

    if not (0.0 <= prob <= 1.0):
        raise ValueError(f"prob must be in [0, 1], got {prob}")
    n = _size("n", n, least=0)
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
    """log density of Z1/Z2 for independent Z1 ~ Gamma(p1), Z2 ~ Gamma(p2), in scale-free form.

    With s = b2/b1 and u = rho/s,
    log f = -log s + (a1 - 1) log u - (a1 + a2) log1p(u) - betaln(a1, a2),
    so no term carries the magnitude of b1 or b2.  log s is log b2 - log b1
    and log u is log rho - log s, so neither b2/b1 nor rho/s is formed;
    u = e^(log u) reads inf only past the float range, where log1p(u) is
    log u to the last bit.
    """
    import numpy as np
    from scipy import special

    p1.require_proper()
    p2.require_proper()
    a1, a2 = p1.alpha, p2.alpha
    log_s = math.log(p2.beta) - math.log(p1.beta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_u = np.log(rho) - log_s
        u = np.exp(log_u)
        log1p_u = np.where(u < math.inf, np.log1p(u), log_u)
        logp = -log_s + (a1 - 1.0) * log_u - (a1 + a2) * log1p_u - special.betaln(a1, a2)
    if a1 == 1.0:
        # 0 * log(0) above is nan; at rho = 0 the density is 1 / (s B(1, a2))
        logp = np.where(rho == 0.0, -log_s - special.betaln(1.0, a2), logp)
    # inf - inf above is nan; the density vanishes at rho = inf
    return np.where(rho == math.inf, -math.inf, logp)


@_on_ratios
def gamma_ratio_pdf(rho, p1: GammaParams, p2: GammaParams):
    """Density of the ratio of two independent Gamma variables.

    f(rho) = b1^a1 b2^a2 / B(a1, a2) * rho^(a1-1) * (b2 + rho*b1)^-(a1+a2),
    evaluated through the log-Beta function.
    """
    import numpy as np

    with np.errstate(over="ignore"):  # past the float range the density reads inf
        return np.exp(gamma_ratio_logpdf(rho, p1, p2))


@_on_ratios
def gamma_ratio_cdf(rho, p1: GammaParams, p2: GammaParams):
    """P(Z1/Z2 <= rho) = I_u(a1, a2) with u = b1 rho / (b2 + b1 rho).

    b1 Z1 / (b1 Z1 + b2 Z2) is Beta(a1, a2) distributed, and Z1/Z2 <= rho
    exactly when it is <= u.
    """
    import numpy as np
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
    import numpy as np
    from scipy import special

    p1.require_proper()
    p2.require_proper()
    u = special.betaincinv(p1.alpha, p2.alpha, q)
    one_minus_u = special.betaincinv(p2.alpha, p1.alpha, 1.0 - q)
    with np.errstate(divide="ignore", over="ignore"):  # a quantile past the float range reads inf
        return p2.beta * u / (p1.beta * one_minus_u)


def _gamma_ratio_lacks(
    alpha2: float, mean_reason: str = "requires alpha2 > 1", variance_reason: str = "requires alpha2 > 2"
) -> dict[str, str]:
    """The moments a Gamma ratio whose denominator has shape alpha2 lacks, each with its reason.

    The mean needs alpha2 > 1, the variance and sd alpha2 > 2.
    """
    lacks = {} if alpha2 > 1.0 else {"mean": mean_reason}
    if not alpha2 > 2.0:
        lacks["variance"] = lacks["sd"] = variance_reason
    return lacks


def _ratio_summaries(num: GammaParams, den: GammaParams, *reasons: str) -> SummaryStats:
    """Mode / mean / sd of the Gamma ratio num/den, each missing moment with its reason.

    The moments lacking are _gamma_ratio_lacks(den.alpha, *reasons); mode uses
    the 0-at-the-boundary convention when num.alpha < 1 (the density is
    unbounded at 0 there), and is 0 at num.alpha = 1 whatever the scale.
    """
    a1, a2 = num.alpha, den.alpha
    scale = den.beta / num.beta

    def scaled(top: float, bottom: float) -> float:
        """scale * top / bottom, regrouped as scale * (top / bottom) only where scale * top reads inf."""
        return scale * top / bottom if scale * top < math.inf else scale * (top / bottom)

    mode = scaled(a1 - 1.0, a2 + 1.0) if a1 > 1.0 else 0.0
    mean = variance = sd = None
    undefined = _gamma_ratio_lacks(a2, *reasons)
    if "mean" not in undefined:
        mean = scaled(a1, a2 - 1.0)
    if "sd" not in undefined:
        # m2 = (a1 + 1)/(a2 - 2) - a1/(a2 - 1), without the difference that cancels at large shapes
        m1, m2 = a1 / (a2 - 1.0), (a1 + a2 - 1.0) / (a2 - 1.0) / (a2 - 2.0)
        try:
            variance = scale**2 * m1 * m2
        except OverflowError:  # a float ** raises past 1e308, where a float * reads inf
            variance = scale * (scale * m1 * m2)
        sd = math.sqrt(variance) if math.isfinite(variance) else scale * math.sqrt(m1) * math.sqrt(m2)
        variance = _finite_variance(variance, undefined)
    return SummaryStats(mode, mean, variance, sd, undefined)


def gamma_ratio_summaries(p1: GammaParams, p2: GammaParams) -> SummaryStats:
    """Mode / mean / sd of Z1/Z2; mean needs alpha2 > 1, variance alpha2 > 2."""
    p1.require_proper()
    p2.require_proper()
    return _ratio_summaries(p1, p2)


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
    import numpy as np

    return np.where(rho <= 1.0, 0.5, 0.5 / np.maximum(rho, 1.0) ** 2)


@_on_ratios
def uniform_ratio_cdf(rho):
    """P(U1/U2 <= rho): rho/2 up to 1, then 1 - 1/(2 rho)."""
    import numpy as np

    return np.where(rho <= 1.0, rho / 2.0, 1.0 - 0.5 / np.maximum(rho, 1.0))


def poisson_process_waiting_times(rate: float, k: int, seed, n_paths: int | None = None):
    """Arrival times of the first k events of a Poisson process.

    Cumulative sums of i.i.d. exponential(rate) waiting times; the k-th
    arrival is Gamma(k, rate) distributed.  Returns shape (k,) for a single
    path, or (n_paths, k) when n_paths is given.
    """
    import numpy as np

    _check_positive("rate", rate)
    k = _size("k", k)
    size = (_size("n_paths", n_paths), k) if n_paths is not None else k
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate, size=size)
    return np.cumsum(gaps, axis=-1)
