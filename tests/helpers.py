"""Shared oracles for statistical comparisons.

Monte Carlo checks use a binomial error model per histogram bin: a bin with
exact probability p collects about n*p draws with standard deviation
sqrt(n*p*(1-p)).  All sampling tests run on fixed seeds, so a passing run is
deterministic, not merely probable.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats


def bin_probabilities(pdf, edges: np.ndarray) -> np.ndarray:
    """Exact probability in each [edges[i], edges[i+1]) by adaptive quadrature."""
    probs = np.empty(edges.size - 1)
    for i in range(probs.size):
        probs[i], _ = integrate.quad(pdf, edges[i], edges[i + 1], limit=200)
    return probs


def count_ratio_moments(lambda1: float, lambda2: float) -> tuple[float, float]:
    """Exact (mean, sd) of X1/X2 given X2 >= 1, for independent X1 ~ Pois(lambda1) and X2 ~ Pois(lambda2).

    By independence E[X1^j / X2^j | X2 >= 1] = E[X1^j] E[X2^-j | X2 >= 1].
    Since Ei(x) = gamma + ln x + sum over k >= 1 of x^k / (k k!) (DLMF 6.6.2),
    E[1/X2 | X2 >= 1] = e^-lambda2 (Ei(lambda2) - gamma - ln lambda2) / (1 - e^-lambda2).
    E[X1^2] = lambda1 + lambda1^2, and E[1/X2^2 | X2 >= 1] is the sum of
    p_k / k^2 over k >= 1, up to lambda2 + 12 sd + 30 (the rest is below
    1e-15), renormalized over k >= 1.
    """
    p_positive = -math.expm1(-lambda2)
    mean = lambda1 * math.exp(-lambda2) * (float(special.expi(lambda2)) - np.euler_gamma - math.log(lambda2)) / p_positive
    k = np.arange(1.0, int(lambda2 + 12 * math.sqrt(lambda2) + 30))
    second = (lambda1 + lambda1**2) * float(np.sum(stats.poisson.pmf(k, lambda2) / k**2)) / p_positive
    return mean, math.sqrt(second - mean**2)


def bin_zscores(counts: np.ndarray, probs: np.ndarray, n: int) -> np.ndarray:
    """(observed - expected) / binomial sd, for bins with nonzero variance."""
    expected = n * probs
    sd = np.sqrt(n * probs * (1.0 - probs))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (counts - expected) / sd
    return z


def fraction_within(counts, probs, n, z_max=3.0, min_expected=10.0) -> float:
    """Fraction of well-populated bins whose z-score is within z_max.

    Bins with expected count below min_expected are excluded: the normal
    approximation to the binomial is poor there.
    """
    z = bin_zscores(np.asarray(counts, dtype=float), probs, n)
    keep = n * probs >= min_expected
    if not keep.any():
        raise AssertionError("no bin has enough expected mass to test")
    return float(np.mean(np.abs(z[keep]) <= z_max))


def assert_all_bins_within(counts, probs, n, z_max=3.0, min_expected=10.0) -> None:
    frac = fraction_within(counts, probs, n, z_max, min_expected)
    assert frac == 1.0, f"only {frac:.3f} of bins within {z_max} sigma"
