"""Checked quantiles and plot grids for closed-form laws on [0, inf).

A law is any object with vectorized `pdf`, `cdf` and `ppf` methods, such as
`GammaParams` or `RatioPosterior`.  Their CDFs and quantiles are exact
special-function identities, so nothing here integrates or searches.
"""

from __future__ import annotations

import numpy as np


__all__ = ["pdf_cdf", "pdf_quantile", "pdf_curve", "finite_density"]


def pdf_cdf(law, x):
    """P(X <= x) under the law."""
    return law.cdf(x)


def pdf_quantile(law, q: float, tol: float = 1e-6) -> float:
    """Quantile of the law at probability q, checked to `tol` in probability.

    A quantile past the float range (ppf reads inf) is refused with its own reason.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must be in (0, 1), got {q}")
    root = float(law.ppf(q))
    if np.isinf(root):
        raise ValueError(f"the {q:g} quantile lies past the float range")
    if not abs(pdf_cdf(law, root) - q) <= tol:  # "not <=" also rejects a NaN root
        raise ValueError(f"quantile inversion did not reach tolerance {tol}")
    return root


def pdf_curve(law, n_points: int = 512, q_hi: float = 0.999) -> tuple[np.ndarray, np.ndarray]:
    """Sample the law's density on an even grid over [0, quantile(q_hi)].

    Returns (x, f(x)) arrays of length n_points, plot-ready.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    xs = np.linspace(0.0, pdf_quantile(law, q_hi), int(n_points))
    ys = law.pdf(xs)
    if not np.isfinite(ys[0]):
        # density with a pole at 0: nudge the first grid point off the origin
        xs[0] = xs[1] / 2.0
        ys[0] = law.pdf(xs[0])
    return xs, finite_density(ys)


def finite_density(ys: np.ndarray) -> np.ndarray:
    """The density values ys of a plot grid, refused where one leaves the float range."""
    if not np.isfinite(ys).all():
        raise ValueError("the density leaves the float range on the plot grid")
    return ys
