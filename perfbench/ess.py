"""Effective sample size of one MCMC chain.

ESS uses Geyer's initial monotone sequence estimator (Geyer 1992,
"Practical Markov Chain Monte Carlo", Statistical Science 7:473-483).
"""

from __future__ import annotations

import math

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation at lags 0..n-1, computed by FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n
    if acov[0] <= 0.0:
        return np.zeros(n)
    return acov / acov[0]


def integrated_time(x: np.ndarray) -> float:
    """Integrated autocorrelation time tau, so that ESS = n / tau.

    Sums the pairs Gamma_k = rho(2k) + rho(2k+1) while they stay positive
    (initial positive sequence) and forces them to be non-increasing (initial
    monotone sequence); tau = -1 + 2 * sum(Gamma_k).  As in Stan, tau is kept
    at or above 1 / log10(n), so ESS never exceeds n * log10(n).
    """
    rho = autocorrelation(x)
    n_pairs = rho.size // 2
    pairs = rho[: 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    total = 0.0
    previous = math.inf
    for gamma in pairs:
        if gamma <= 0.0:
            break
        previous = min(previous, float(gamma))
        total += previous
    return max(-1.0 + 2.0 * total, 1.0 / math.log10(max(rho.size, 10)))


def effective_sample_size(x: np.ndarray) -> float:
    """ESS of a chain; a constant chain has ESS 0."""
    x = np.asarray(x, dtype=float)
    if x.size < 4 or np.all(x == x[0]):
        return 0.0
    return x.size / integrated_time(x)

