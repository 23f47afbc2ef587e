"""Forward predictive simulation and sampling-based cross-checks.

Simulators draw count ratios X1/X2 (with explicit NaN = 0/0 and
Inf = k/0 bookkeeping), count differences, Gamma-variate ratios and
uniform-variate ratios.  Work is split into fixed-size shards, each with an
RNG stream spawned deterministically from the master seed, so results depend
only on (seed, n, parameters) — never on how many workers processed the
shards — and merged reports are bit-reproducible.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .distributions import DiscreteDist, GammaParams


__all__ = [
    "RatioSampleReport",
    "simulate_count_ratio",
    "simulate_count_difference",
    "simulate_gamma_ratio",
    "simulate_uniform_ratio",
    "write_histogram_csv",
]


SHARD_SIZE = 1_000_000
MODE_BINS = 1000  # fine histogram used only for the mode estimate

DEFAULT_CUTOFF = 8.0
DEFAULT_BINS = 150


@dataclass(frozen=True)
class RatioSampleReport:
    """Histogram plus mass accounting for one ratio simulation.

    density integrates (over the histogram bins) to the in-histogram mass;
    frac_nan + frac_inf + in-histogram mass + frac_overflow = 1.  mean/sd
    cover every finite draw, including those beyond the cutoff; they are
    None when no draw was finite or when their sums leave the float range,
    and `undefined` maps each None one to its reason.  mode_estimate is the
    argmax bin center of a 1000-bin histogram — an estimate only.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    mean: float | None
    sd: float | None
    mode_estimate: float | None
    frac_nan: float
    frac_inf: float
    frac_overflow: float
    n: int
    seed: int
    undefined: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = self.frac_nan + self.frac_inf + self.hist_mass + self.frac_overflow
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mass accounting violated: total {total}")

    @property
    def hist_mass(self) -> float:
        return float(self.counts.sum()) / self.n

    @property
    def cutoff(self) -> float:
        return float(self.bin_edges[-1])

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "cutoff": self.cutoff,
            "bins": int(self.counts.size),
            "mean": self.mean,
            "sd": self.sd,
            "mode_estimate": self.mode_estimate,
            "frac_nan": self.frac_nan,
            "frac_inf": self.frac_inf,
            "frac_overflow": self.frac_overflow,
            "bin_edges": [float(e) for e in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "density": [float(d) for d in self.density],
        }


def write_histogram_csv(report: RatioSampleReport, fileobj) -> None:
    """Histogram rows as (bin_left, bin_right, density)."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["bin_left", "bin_right", "density"])
    for left, right, dens in zip(report.bin_edges[:-1], report.bin_edges[1:], report.density):
        writer.writerow([repr(float(left)), repr(float(right)), repr(float(dens))])


def _usable_cpus() -> int:
    """CPUs this process may run on; more threads buy no speed, and each holds a shard's arrays."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _shards(n: int, seed: int) -> list[tuple[np.random.SeedSequence, int]]:
    """(stream, size) of each shard: SHARD_SIZE draws, the rest in the last, one stream each."""
    full, rest = divmod(n, SHARD_SIZE)
    sizes = [SHARD_SIZE] * full + ([rest] if rest else [])
    return list(zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes))


def _tally(num: np.ndarray, den: np.ndarray, cutoff: float, bins: int) -> tuple:
    """(NaN count, Inf count, sum, sum of squares, count past cutoff, histogram, fine histogram) of num/den.

    Works in the two float64 draw buffers, which it overwrites, so that a shard
    holds little more than those two arrays at its peak.
    """
    zero_den = den == 0
    n_zero = int(np.count_nonzero(zero_den))
    n_nan = int(np.count_nonzero(num[zero_den] == 0)) if n_zero else 0  # 0/0; the rest are k/0
    # ratios and squares past the float range are inf; the report says what that means
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.divide(num, den, out=num)
        if n_zero:
            values = values[~zero_den]
        total = float(values.sum())
        total_sq = float(np.square(values, out=den[: values.size]).sum())
    n_over = int(np.count_nonzero(values > cutoff))
    hist, fine = (np.histogram(values, bins=b, range=(0.0, cutoff))[0] for b in (bins, MODE_BINS))
    return n_nan, n_zero - n_nan, total, total_sq, n_over, hist, fine


def _run_ratio_simulation(
    draw_pair: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    n: int,
    cutoff: float,
    bins: int,
    seed: int,
    workers: int,
) -> RatioSampleReport:
    """Draw (numerator, denominator) pairs shard by shard and tally the ratio."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not (cutoff > 0):
        raise ValueError("cutoff must be > 0")
    n, bins, cutoff = int(n), int(bins), float(cutoff)

    def shard(job) -> tuple:
        stream, size = job
        # tally here, in the worker, so no shard's draws outlive it
        return _tally(*draw_pair(np.random.default_rng(stream), size), cutoff, bins)

    jobs = _shards(n, seed)
    threads = min(workers, len(jobs), _usable_cpus())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(shard, jobs))
    else:
        tallies = [shard(job) for job in jobs]
    # fixed shard order keeps float sums identical: add one shard at a time,
    # as np.sum (pairwise from 8 terms) and Python 3.12's sum() would not
    n_nan, n_inf, total, total_sq, n_over, hist, fine = functools.reduce(
        lambda acc, tally: tuple(a + b for a, b in zip(acc, tally)), tallies
    )
    n_finite = n - n_nan - n_inf
    mean = sd = None
    if n_finite and math.isfinite(total):
        mean = total / n_finite  # total itself for one finite draw
    if n_finite == 1 and mean is not None:
        sd = 0.0
    elif n_finite > 1 and math.isfinite(total_sq):  # then total is finite too
        try:
            sd = math.sqrt(max(0.0, (total_sq - total**2 / n_finite) / (n_finite - 1)))
        except OverflowError:  # total**2; total * total would move the last bit of some finite sd
            pass
    reason = "sums past the float range" if n_finite else "no finite draws"
    mode = (int(np.argmax(fine)) + 0.5) * (cutoff / MODE_BINS) if fine.sum() > 0 else None
    return RatioSampleReport(
        bin_edges=np.linspace(0.0, cutoff, bins + 1),
        counts=hist,
        density=hist / (n * (cutoff / bins)),
        mean=mean,
        sd=sd,
        mode_estimate=mode,
        frac_nan=n_nan / n,
        frac_inf=n_inf / n,
        frac_overflow=n_over / n,
        n=n,
        seed=seed,
        undefined={name: reason for name, value in (("mean", mean), ("sd", sd)) if value is None},
    )


def simulate_count_ratio(
    lambda1: float,
    lambda2: float,
    n: int,
    cutoff: float = DEFAULT_CUTOFF,
    bins: int = DEFAULT_BINS,
    seed: int = 0,
    workers: int = 1,
) -> RatioSampleReport:
    """Distribution of X1/X2 for independent Poisson counts.

    0/0 draws are counted as NaN, k/0 (k > 0) as Inf; finite draws feed the
    histogram and the mean/sd.
    """
    if not (lambda1 > 0) or not (lambda2 > 0):
        raise ValueError("lambda1 and lambda2 must be > 0")

    def draw_pair(rng: np.random.Generator, size: int):
        return rng.poisson(lambda1, size).astype(float), rng.poisson(lambda2, size).astype(float)

    return _run_ratio_simulation(draw_pair, n, cutoff, bins, seed, workers)


def simulate_gamma_ratio(
    p1: GammaParams,
    p2: GammaParams,
    n: int,
    cutoff: float = DEFAULT_CUTOFF,
    bins: int = DEFAULT_BINS,
    seed: int = 0,
    workers: int = 1,
) -> RatioSampleReport:
    """Distribution of Z1/Z2 for independent Gamma variates."""
    p1.require_proper()
    p2.require_proper()

    def draw_pair(rng: np.random.Generator, size: int):
        return (
            rng.gamma(p1.alpha, 1.0 / p1.beta, size),
            rng.gamma(p2.alpha, 1.0 / p2.beta, size),
        )

    return _run_ratio_simulation(draw_pair, n, cutoff, bins, seed, workers)


def simulate_uniform_ratio(
    r_max: float,
    n: int,
    cutoff: float = DEFAULT_CUTOFF,
    bins: int = DEFAULT_BINS,
    seed: int = 0,
    workers: int = 1,
) -> RatioSampleReport:
    """Distribution of U1/U2 for independent U(0, r_max) variates.

    The resulting law does not depend on r_max; r_max only sets the scale of
    the two uniforms.
    """
    if not (r_max > 0):
        raise ValueError("r_max must be > 0")

    def draw_pair(rng: np.random.Generator, size: int):
        return rng.uniform(0.0, r_max, size), rng.uniform(0.0, r_max, size)

    return _run_ratio_simulation(draw_pair, n, cutoff, bins, seed, workers)


def simulate_count_difference(
    lambda1: float,
    lambda2: float,
    n: int,
    seed: int = 0,
) -> DiscreteDist:
    """Empirical pmf of D = X1 - X2 over the contiguous range of observed values."""
    if not (lambda1 > 0) or not (lambda2 > 0):
        raise ValueError("lambda1 and lambda2 must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    tallies: dict[int, int] = {}
    for stream, size in _shards(int(n), seed):
        rng = np.random.default_rng(stream)
        diff = rng.poisson(lambda1, size).astype(np.int64) - rng.poisson(lambda2, size)
        values, counts = np.unique(diff, return_counts=True)
        for value, count in zip(values, counts):
            tallies[int(value)] = tallies.get(int(value), 0) + int(count)
    lo, hi = min(tallies), max(tallies)
    support = np.arange(lo, hi + 1)
    probs = np.array([tallies.get(int(d), 0) / n for d in support])
    return DiscreteDist(values=support, probs=probs)
