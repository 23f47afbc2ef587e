"""Checked quantiles and plot grids for closed-form laws on [0, inf).

A law is any object with vectorized `pdf`, `cdf` and `ppf` methods, such as
`GammaParams` or `RatioPosterior`.  Their CDFs and quantiles are exact
special-function identities, so nothing here integrates or searches.
"""

from __future__ import annotations

import numpy as np


__all__ = ["pdf_cdf", "pdf_quantile", "pdf_curve"]

N_POINTS = 512  # points on every plot grid
Q_HI = 0.999  # a plot grid ends at the largest of its laws' Q_HI quantiles
TOL = 1e-6  # how far, in probability, a quantile's CDF may miss its level


def pdf_cdf(law, x):
    """P(X <= x) under the law."""
    return law.cdf(x)


def pdf_quantile(law, q: float) -> float:
    """Quantile of the law at probability q, checked to TOL in probability.

    A quantile past the float range (ppf: inf) or below it (ppf: 0) is refused with its own reason.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must be in (0, 1), got {q}")
    root = float(law.ppf(q))
    if np.isinf(root):
        raise ValueError(f"the {q:g} quantile lies past the float range")
    if root == 0.0:
        raise ValueError(f"the {q:g} quantile lies below the smallest positive float")
    if not abs(pdf_cdf(law, root) - q) <= TOL:  # "not <=" also rejects a NaN root
        raise ValueError(f"quantile inversion did not reach tolerance {TOL}")
    return root


def pdf_curve(*laws) -> tuple[np.ndarray, ...]:
    """Sample the laws' densities on one even grid over [0, the largest Q_HI quantile].

    Returns (x, f_1(x), ..., f_k(x)), arrays of length N_POINTS, plot-ready.
    """
    xs = np.linspace(0.0, max(pdf_quantile(law, Q_HI) for law in laws), N_POINTS)
    ys = [law.pdf(xs) for law in laws]
    if not all(np.isfinite(y[0]) for y in ys):
        # a density with a pole at 0: nudge the first grid point off the origin
        xs[0] = xs[1] / 2.0
        for law, y in zip(laws, ys):
            y[0] = law.pdf(xs[0])
    if not all(np.isfinite(y).all() for y in ys):
        raise ValueError("the density leaves the float range on the plot grid")
    return (xs, *ys)
