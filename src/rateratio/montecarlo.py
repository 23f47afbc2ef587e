"""Forward predictive simulation and sampling-based cross-checks.

Simulators draw count ratios X1/X2 (with explicit NaN = 0/0 and
Inf = k/0 bookkeeping), count differences, Gamma-variate ratios and
uniform-variate ratios.  Work is split into fixed-size shards, each with two
RNG streams, one per side, spawned deterministically from the master seed.
A shard is drawn _CHUNK draws at a time in two chunk buffers of its own.
Continuous ratios, and count ratios with a side past the alias table's cap,
are divided, sorted and binned a chunk at a time; a count ratio whose two
alias tables span at most _PAIR_CAP (x1, x2) pairs counts its pairs instead,
and reads every ratio off that table once per pair.  The draws and every
count depend only on (seed, n, parameters): never on the chunk size, nor on
how many workers processed the shards.  Only on the sort path do the last
bits of the mean and sd follow the chunk size, and merged reports are
bit-reproducible for any worker count.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import _PUBLIC
from .distributions import _POISSON_LAM_MAX, SKELLAM_MAX_POINTS, DiscreteDist, GammaParams, _skellam_bulk, _write_csv


__all__ = list(_PUBLIC["montecarlo"])


SHARD_SIZE = 1_000_000
MODE_BINS = 1000  # fine histogram used only for the mode estimate

DEFAULT_CUTOFF = 8.0
DEFAULT_BINS = 150

POISSON_TABLE_CAP = 1 << 14  # alias-table entries; past them a rate is drawn by rng.poisson
_POISSON_TAIL = 43.0  # each tail outside the table holds < e^-43, so both together < 2^-60
_CHUNK = 1 << 15  # draws per pass of a shard's tally, on each side
_PAIR_CAP = 1 << 15  # largest (x1, x2) pair table a count ratio is tallied by: one default chunk buffer's size
# draw(rng, out) fills float64 out in place; quoted, the Generator leaves numpy.random unimported
_Draw = Callable[["np.random.Generator", np.ndarray], None]


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
            "bin_edges": self.bin_edges.tolist(),
            "counts": self.counts.tolist(),
            "density": self.density.tolist(),
        }


def write_histogram_csv(report: RatioSampleReport, fileobj) -> None:
    """Histogram rows as (bin_left, bin_right, density)."""
    edges = report.bin_edges.tolist()
    _write_csv(fileobj, {"bin_left": edges[:-1], "bin_right": edges[1:], "density": report.density.tolist()})


def _usable_cpus() -> int:
    """CPUs this process may run on; more threads buy no speed, as each tallies one shard at a time."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _shards(n: int, seed: int) -> list[tuple[tuple[np.random.Generator, np.random.Generator], int]]:
    """(streams, size) of each shard: SHARD_SIZE draws, the rest in the last; one spawned stream per side."""
    full, rest = divmod(n, SHARD_SIZE)
    sizes = [SHARD_SIZE] * full + ([rest] if rest else [])
    shards = np.random.SeedSequence(seed).spawn(len(sizes))
    return [(tuple(map(np.random.default_rng, shard.spawn(2))), size) for shard, size in zip(shards, sizes)]


def _chunk_pairs(streams, draw_num: _Draw, draw_den: _Draw, size: int):
    """Yield one shard's (num, den) _CHUNK draws at a time, each side from its own stream.

    Both come in the shard's two chunk buffers, which the next chunk overwrites.
    """
    num_buffer, den_buffer = np.empty(min(size, _CHUNK)), np.empty(min(size, _CHUNK))
    for start in range(0, size, _CHUNK):
        num, den = num_buffer[: size - start], den_buffer[: size - start]  # a slice stops at the buffer's end
        draw_num(streams[0], num)
        draw_den(streams[1], den)
        yield num, den


def _tally(streams, size: int, draw_num: _Draw, draw_den: _Draw, cutoff: float, bins: int) -> tuple:
    """(NaN count, Inf count, sum, sum of squares, count past cutoff, histogram, fine histogram) of num/den.

    Two alias-drawn sides whose tables span at most _PAIR_CAP pairs are
    tallied by _pair_tally.  Otherwise each chunk's 0/0 and k/0 are counted,
    its ratios divided in place and, past any zero denominator, kept in one
    masked copy.  Both sums are added in draw order, the squares made in the
    free denominator buffer; then one in-place sort lets every count be read
    as a difference of positions on the edges np.histogram builds, whose last
    bin is closed.
    """
    grids = [np.linspace(0.0, cutoff, k + 1) for k in (bins, MODE_BINS)]
    supports = [getattr(draw, "support", None) for draw in (draw_num, draw_den)]
    if None not in supports and supports[0][1] * supports[1][1] <= _PAIR_CAP:
        return _pair_tally(streams, size, draw_num, draw_den, grids, *supports)
    hists = [np.zeros(k, np.intp) for k in (bins, MODE_BINS)]
    n_nan = n_zero = n_over = 0
    total = total_sq = 0.0
    # ratios and squares past the float range are inf; the report says what that means
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for num, den in _chunk_pairs(streams, draw_num, draw_den, size):
            zero_den = den == 0
            zeros = int(np.count_nonzero(zero_den))
            n_zero += zeros
            n_nan += int(np.count_nonzero(num[zero_den] == 0)) if zeros else 0  # 0/0; the rest are k/0
            ratios = np.divide(num, den, out=num)
            if zeros:
                ratios = ratios[~zero_den]
            total += float(ratios.sum())
            total_sq += float(np.square(ratios, out=den[: ratios.size]).sum())
            ratios.sort()
            # a NaN ratio (inf/inf) sorts last, and no count takes it, as np.histogram counts none
            top, end = np.searchsorted(ratios, (cutoff, np.inf), side="right")
            n_over += int(end - top)
            for edges, hist in zip(grids, hists):
                positions = np.searchsorted(ratios, edges)
                positions[-1] = top
                hist += np.diff(positions)
    return n_nan, n_zero - n_nan, total, total_sq, n_over, *hists


def _pair_tally(streams, size: int, draw_num: _Draw, draw_den: _Draw, grids, support1, support2) -> tuple:
    """_tally's 7-tuple of two sides drawn from alias tables, whose (first count, size) are support1 and support2.

    Each chunk's pair index (x1 - lo1) m2 + (x2 - lo2) is formed in place in
    the numerator buffer (whole floats, so every step is exact) and counted
    into one shard table.  Then each pair drawn is read once: (0, 0) is 0/0,
    the rest of x2 = 0 is k/0, and x1/x2 is the IEEE value num/den gives,
    binned by the edges at or below it (the last bin closed) and weighted by
    its count.  The sums add count times ratio over the pairs in table order.
    """
    (lo1, m1), (lo2, m2) = support1, support2
    table = np.zeros(m1 * m2, np.intp)
    for num, den in _chunk_pairs(streams, draw_num, draw_den, size):
        num *= m2
        num += den
        num -= lo1 * m2 + lo2
        table += np.bincount(num.astype(np.intp), minlength=table.size)
    pairs = np.flatnonzero(table)
    counts, (x1, x2) = table[pairs], np.divmod(pairs, m2)
    x1 += lo1
    x2 += lo2
    zero_den = x2 == 0
    n_zero, n_nan = int(counts[zero_den].sum()), int(counts[zero_den & (x1 == 0)].sum())
    ratios, counts = x1[~zero_den] / x2[~zero_den], counts[~zero_den]
    total, total_sq = float(np.sum(counts * ratios)), float(np.sum(counts * np.square(ratios)))
    inside = ratios <= grids[0][-1]
    hists = []
    for edges in grids:
        bin_index = np.minimum(np.searchsorted(edges, ratios[inside], "right") - 1, edges.size - 2)
        hists.append(np.bincount(bin_index, weights=counts[inside], minlength=edges.size - 1).astype(np.intp))
    return n_nan, n_zero - n_nan, total, total_sq, int(counts[~inside].sum()), *hists


def _run_ratio_simulation(
    draw_num: _Draw,
    draw_den: _Draw,
    n: int,
    cutoff: float,
    bins: int,
    seed: int,
    workers: int,
) -> RatioSampleReport:
    """Tally num/den shard by shard; a side drawn in consecutive chunks must give the draws of one call."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not (cutoff > 0):
        raise ValueError("cutoff must be > 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n, bins, cutoff = int(n), int(bins), float(cutoff)
    grids = ((bins, f"{bins} bins"), (MODE_BINS, f"the mode estimate's {MODE_BINS} fine bins (bins = {bins})"))
    for k, grid in grids:
        if not np.all(np.diff(np.linspace(0.0, cutoff, k + 1)) > 0):  # the edges the tally searches
            raise ValueError(f"cutoff {cutoff!r} is too small for {grid}: their edges must increase")
    if not math.isfinite(1.0 / (cutoff / bins)):  # the density of a bin that holds every draw
        raise ValueError(
            f"cutoff {cutoff!r} over bins = {bins} gives a bin width of {cutoff / bins!r}, "
            "too narrow for the density to stay in the float range"
        )

    jobs = _shards(n, seed)
    threads = min(workers, len(jobs), _usable_cpus())

    def shard(job) -> tuple:
        return _tally(*job, draw_num, draw_den, cutoff, bins)

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
    # inf/inf is NaN: the one ratio that neither a count nor the histogram takes
    n_undefined = n - n_nan - n_inf - int(hist.sum()) - n_over
    if n_undefined:
        raise ValueError(
            f"{n_undefined} of the {n} draws overflowed the float range in both numerator "
            "and denominator (inf/inf), so their ratio is undefined"
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


def _poisson_window(lam: float) -> tuple[int, int] | None:
    """[lo, hi] outside which Pois(lam) puts less than 2^-60, or None past POISSON_TABLE_CAP.

    Bennett's inequality bounds the upper tail, P(X >= lam + t) <=
    exp(-t^2 / (2 (lam + t/3))), and Chernoff's the lower, P(X <= lam - t) <=
    exp(-t^2 / (2 lam)); each t sets its bound to e^-_POISSON_TAIL.  The
    window holds at most down + up + 1 entries, so the cap is checked before
    any rounding, and lam = inf gets None.
    """
    down = math.sqrt(2.0 * _POISSON_TAIL * lam)
    up = _POISSON_TAIL / 3.0 + math.sqrt(_POISSON_TAIL**2 / 9.0 + 2.0 * _POISSON_TAIL * lam)
    if not down + up < POISSON_TABLE_CAP:
        return None
    return max(0, math.ceil(lam - down)), math.floor(lam + up)


def _alias_table(lam: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walker's alias table (q, here, there) of Pois(lam) on lo..hi, built by Vose's O(m) method.

    Column j yields here[j] = lo + j with probability q[j], else its alias
    there[j].  The pmf is a product of ratios from the mode outward, each
    term a few ulp from the true one, then normalized: no lgamma, whose
    absolute error near lgamma(1e5) alone moves the pmf by 1e-10.
    """
    here = np.arange(lo, hi + 1, dtype=np.float64)
    m, mode = here.size, math.floor(lam) - lo
    pmf = np.empty(m)
    pmf[mode] = 1.0
    pmf[mode + 1 :] = np.cumprod(lam / here[mode + 1 :])  # p(k) = p(k - 1) lam / k
    pmf[:mode] = np.cumprod(here[mode:0:-1] / lam)[::-1]  # p(k - 1) = p(k) k / lam
    scaled = (pmf * (m / pmf.sum())).tolist()
    q, alias = [1.0] * m, list(range(m))  # a full column is its own alias
    small = [j for j, s in enumerate(scaled) if s < 1.0]
    large = [j for j, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        j, k = small.pop(), large.pop()
        q[j], alias[j] = scaled[j], k
        scaled[k] = (scaled[k] + scaled[j]) - 1.0  # keeps more bits than scaled[k] - (1 - scaled[j])
        (small if scaled[k] < 1.0 else large).append(k)
    return np.array(q), here, here[alias]


def _poisson_drawer(lam: float) -> _Draw:
    """draw(rng, out): fill float64 out with Pois(lam) counts, through an alias table built here, once.

    A draw takes one uniform u: column = floor(u m), fraction = u m - column,
    and the count is here[column] if fraction < q[column], else there[column],
    all written in place in out, which first holds the uniforms.  A rate whose
    table would pass POISSON_TABLE_CAP entries (lam above ~7.8e5) is drawn by
    rng.poisson instead, and its counts are cast into out.  Counts below 2^53
    are exact in float64.
    """
    window = _poisson_window(lam)
    if window is None:

        def draw_poisson(rng: np.random.Generator, out: np.ndarray) -> None:
            np.copyto(out, rng.poisson(lam, out.size), casting="unsafe")

        return draw_poisson
    q, here, there = _alias_table(lam, *window)
    m, outcomes = q.size, np.column_stack((here, there)).ravel()  # here[j] at 2j, there[j] at 2j + 1

    def draw_alias(rng: np.random.Generator, out: np.ndarray) -> None:
        rng.random(out=out)
        out *= m
        column = out.astype(np.intp)  # truncation: floor of u m >= 0
        np.minimum(column, m - 1, out=column)  # u m < m under round-to-nearest; rounded up, it is m
        out -= column  # the fraction
        aliased = out >= q[column]
        column += column
        column += aliased  # 2 column + aliased: one gather in place of a masked pick
        np.take(outcomes, column, out=out)

    draw_alias.support = window[0], m  # (first count, table size): _tally counts pairs of two such sides
    return draw_alias


def _poisson_drawers(lambda1: float, lambda2: float) -> tuple[_Draw, _Draw]:
    """The drawers of both rates, each refused unless > 0 and at most NumPy's Poisson limit."""
    for name, lam in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not 0 < lam <= _POISSON_LAM_MAX:
            raise ValueError(f"{name} must be > 0 and <= {_POISSON_LAM_MAX:.6g}, NumPy's Poisson limit, got {lam}")
    return _poisson_drawer(lambda1), _poisson_drawer(lambda2)


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
    draw1, draw2 = _poisson_drawers(lambda1, lambda2)
    return _run_ratio_simulation(draw1, draw2, n, cutoff, bins, seed, workers)


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

    def draw(p: GammaParams, rng: np.random.Generator, out: np.ndarray) -> None:
        # rng.gamma(alpha, 1 / beta, size)'s draws: it scales standard_gamma's, and overflows quietly
        rng.standard_gamma(p.alpha, out=out)
        with np.errstate(over="ignore"):
            out *= 1.0 / p.beta

    draw1, draw2 = functools.partial(draw, p1), functools.partial(draw, p2)
    return _run_ratio_simulation(draw1, draw2, n, cutoff, bins, seed, workers)


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

    def draw(rng: np.random.Generator, out: np.ndarray) -> None:
        # the draws of rng.uniform(0, r_max, size), which is 0 + r_max * random()
        rng.random(out=out)
        out *= r_max

    return _run_ratio_simulation(draw, draw, n, cutoff, bins, seed, workers)


def simulate_count_difference(
    lambda1: float,
    lambda2: float,
    n: int,
    seed: int = 0,
) -> DiscreteDist:
    """Empirical pmf of D = X1 - X2 over the contiguous range of observed values.

    Both counts come a chunk at a time, as in the ratio tally, and each chunk's differences are counted.
    The rates skellam_dist refuses, whose bulk spans more than SKELLAM_MAX_POINTS points, are refused
    here before any draw.
    """
    draw1, draw2 = _poisson_drawers(lambda1, lambda2)
    _skellam_bulk(lambda1, lambda2, SKELLAM_MAX_POINTS)
    if n < 1:
        raise ValueError("n must be >= 1")
    tallies: dict[int, int] = {}
    for streams, size in _shards(int(n), seed):
        for x1, x2 in _chunk_pairs(streams, draw1, draw2, size):
            diff = np.subtract(x1, x2, out=x1).astype(np.intp)  # whole floats, so the cast is exact
            lo = int(diff.min())
            counts = np.bincount(np.subtract(diff, lo, out=diff))
            for value in np.flatnonzero(counts).tolist():
                tallies[lo + value] = tallies.get(lo + value, 0) + int(counts[value])
    lo, hi = min(tallies), max(tallies)
    support = np.arange(lo, hi + 1)
    probs = np.array([tallies.get(int(d), 0) / n for d in support])
    return DiscreteDist(values=support, probs=probs)
