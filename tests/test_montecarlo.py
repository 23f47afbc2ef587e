import functools
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rateratio import distributions, montecarlo
from rateratio.distributions import GammaParams, gamma_ratio_pdf, poisson_pmf, skellam_pmf
from rateratio.montecarlo import (
    simulate_count_difference,
    simulate_count_ratio,
    simulate_gamma_ratio,
    simulate_uniform_ratio,
    write_histogram_csv,
)
from helpers import assert_all_bins_within, bin_probabilities, count_ratio_moments


def mass_identity(report):
    return report.frac_nan + report.frac_inf + report.hist_mass + report.frac_overflow


def count_ratio_masses(lambda1, lambda2, cutoff, bins):
    """Exact (nan, inf, per-bin, overflow) masses of X1/X2 for Poisson counts.

    Enumerates every pair (k1, k2) up to lambda + 12 sd + 30, where the
    truncated tail is below 1e-15, and bins the ratios with np.histogram,
    whose bins the simulator's tally reproduces.
    """
    ks = [np.arange(int(lam + 12 * math.sqrt(lam) + 30)) for lam in (lambda1, lambda2)]
    p1, p2 = poisson_pmf(ks[0], lambda1), poisson_pmf(ks[1], lambda2)
    k1, k2 = np.meshgrid(ks[0], ks[1][1:].astype(float), indexing="ij")
    weight = np.outer(p1, p2[1:])
    ratio = k1 / k2
    hist = np.histogram(ratio, bins=bins, range=(0.0, cutoff), weights=weight)[0]
    overflow = weight[ratio > cutoff].sum()
    return p1[0] * p2[0], (1.0 - p1[0]) * p2[0], hist, overflow


def assert_binomial_5sigma(count, n, p):
    """count lies in the exact binomial interval with 5-sigma normal tail mass on each side."""
    tail = stats.norm.sf(5.0)
    lo, hi = stats.binom.ppf(tail, n, p), stats.binom.isf(tail, n, p)
    assert np.all((lo <= count) & (count <= hi)), (count, lo, hi)


class TestCountRatio:
    @pytest.mark.parametrize(
        "lambda1,lambda2,cutoff,bins", [(2.0, 1.5, 8.0, 150), (0.3, 0.2, 4.0, 40)]
    )
    def test_exact_oracle(self, lambda1, lambda2, cutoff, bins):
        n = 1_000_000
        report = simulate_count_ratio(lambda1, lambda2, n, cutoff, bins, seed=5)
        p_nan, p_inf, p_bins, p_over = count_ratio_masses(lambda1, lambda2, cutoff, bins)
        assert p_nan == pytest.approx(math.exp(-(lambda1 + lambda2)), rel=1e-12)
        assert p_nan + p_inf + p_bins.sum() + p_over == pytest.approx(1.0, abs=1e-12)
        assert_binomial_5sigma(round(report.frac_nan * n), n, p_nan)
        assert_binomial_5sigma(round(report.frac_inf * n), n, p_inf)
        assert_binomial_5sigma(round(report.frac_overflow * n), n, p_over)
        # bins no ratio k1/k2 can reach have exact mass 0 and must stay empty
        assert_binomial_5sigma(report.counts, n, p_bins)

    def test_zero_denominator_classification(self):
        n = 1_000_000
        report = simulate_count_ratio(1.0, 1.0, n, seed=12)
        p_nan = math.exp(-2.0)  # both counts zero
        p_zero_den = math.exp(-1.0)  # denominator zero
        se_nan = 3 * math.sqrt(p_nan * (1 - p_nan) / n)
        se_den = 3 * math.sqrt(p_zero_den * (1 - p_zero_den) / n)
        assert abs(report.frac_nan - p_nan) <= se_nan
        assert abs(report.frac_nan + report.frac_inf - p_zero_den) <= se_den

    def test_large_denominator_rate(self):
        report = simulate_count_ratio(1.0, 1000.0, 1_000_000, seed=3)
        assert report.frac_nan + report.frac_inf < 1e-6

    def test_reproducible(self):
        a = simulate_count_ratio(2.0, 3.0, 200_000, seed=42)
        b = simulate_count_ratio(2.0, 3.0, 200_000, seed=42)
        assert np.array_equal(a.counts, b.counts)
        assert a.mean == b.mean and a.sd == b.sd
        assert a.frac_nan == b.frac_nan and a.frac_inf == b.frac_inf

    def test_mass_identity(self):
        report = simulate_count_ratio(1.0, 1.0, 300_000, seed=7)
        assert mass_identity(report) == pytest.approx(1.0, abs=1e-12)

    def test_worker_count_invariance(self):
        a = simulate_count_ratio(2.0, 2.0, 2_500_000, seed=9, workers=1)
        b = simulate_count_ratio(2.0, 2.0, 2_500_000, seed=9, workers=4)
        assert np.array_equal(a.counts, b.counts)
        assert a.mean == b.mean and a.sd == b.sd


class TestWorkerPool:
    """The pool holds min(workers, shards, usable CPUs) threads; no test here starts more than 3."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class Recording(montecarlo.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=min(max_workers, 3))

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 1000)
        return sizes

    @pytest.mark.parametrize("workers,cpus,threads", [(64, 2, 2), (64, 8, 3), (2, 8, 2), (64, 1, None)])
    def test_pool_size_is_capped(self, monkeypatch, pools, workers, cpus, threads):
        # once max_workers = workers: --workers 64 held up to 64 shards' arrays at once
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus, raising=False)
        p1, p2 = GammaParams(2.0, 1.0), GammaParams(3.0, 2.0)
        report = simulate_gamma_ratio(p1, p2, 2501, seed=4, workers=workers)  # three shards
        assert pools == ([] if threads is None else [threads])
        assert report.as_dict() == simulate_gamma_ratio(p1, p2, 2501, seed=4, workers=1).as_dict()


def test_import_leaves_numpy_random_unloaded():
    # where NumPy loads numpy.random lazily, a module-level np.random in montecarlo
    # would load it with the package: about 20 ms more on every command's start-up
    code = (
        "import sys, numpy; eager = 'numpy.random' in sys.modules; "
        "import rateratio.cli; print(eager or 'numpy.random' not in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "True"


class TestShardBuffers:
    """Each shard draws both sides into two float64 chunk buffers of its own, each from its own stream."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_draws_come_in_chunks_that_fill_each_shard(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 1000)
        monkeypatch.setattr(montecarlo, "_CHUNK", 300)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2, raising=False)
        sides = {}, {}  # each side's draw sizes, by the stream they came from

        def recording(calls):
            def draw(rng, out):
                assert out.dtype == np.float64 and out.size <= 300
                calls.setdefault(rng, []).append(out.size)
                out[:] = 1.0 + rng.random(out.size)

            return draw

        # five shards, each side of each in chunks of at most 300 from a stream of its own
        montecarlo._run_ratio_simulation(*map(recording, sides), 4500, 1.0, 10, seed=1, workers=workers)
        for calls in sides:
            assert sorted(sum(sizes) for sizes in calls.values()) == [500, 1000, 1000, 1000, 1000]
        assert not sides[0].keys() & sides[1].keys()

    def test_refuses_no_workers(self):
        # with no thread no shard would be drawn
        with pytest.raises(ValueError, match=r"^workers must be a whole number >= 1, got 0$"):
            simulate_uniform_ratio(1.0, 10, workers=0)


def parent_tally(num, den, cutoff, bins):
    """The mask-and-copy tally of a whole drawn pair that `montecarlo._tally` replaced: the byte reference."""
    zero_den = den == 0
    nan_mask = zero_den & (num == 0)
    inf_mask = zero_den & (num != 0)
    finite = ~zero_den
    values = num[finite] / den[finite]
    total, total_sq = float(values.sum()), float(np.square(values).sum())
    n_over = int(np.count_nonzero(values > cutoff))
    hist, fine = (
        np.histogram(values, bins=b, range=(0.0, cutoff))[0] for b in (bins, montecarlo.MODE_BINS)
    )
    return int(nan_mask.sum()), int(inf_mask.sum()), total, total_sq, n_over, hist, fine


# every ratio simulator; Poisson at low rates gives zero denominators (0/0 and k/0) in most shards
RATIO_SIMULATORS = {
    "poisson": lambda n, **kw: simulate_count_ratio(30.0, 30.0, n, **kw),
    "poisson_low": lambda n, **kw: simulate_count_ratio(0.3, 0.5, n, cutoff=4.0, bins=40, **kw),
    "gamma": lambda n, **kw: simulate_gamma_ratio(GammaParams(2.0, 1.0), GammaParams(3.0, 2.0), n, **kw),
    "uniform": lambda n, **kw: simulate_uniform_ratio(1.0, n, cutoff=3.0, bins=60, **kw),
}


# the numerator's rate past POISSON_TABLE_CAP, so it is drawn by rng.poisson
FOOTPRINT_SIMULATORS = {
    **RATIO_SIMULATORS,
    "poisson_past_cap": lambda n, **kw: simulate_count_ratio(1e6, 30.0, n, **kw),
}


def pair_reference(pairs, rng, n):
    """n (x1, x2) pairs from the pair table (q, alias, lo1, lo2, m2): rng.random(n) mapped at once, then decoded.

    Pair index i is x1 = lo1 + i // m2 and x2 = lo2 + i % m2, as float64 sides.
    """
    q, alias, lo1, lo2, m2 = pairs
    u = rng.random(n) * q.size
    column = np.minimum(u.astype(np.intp), q.size - 1)
    index = np.where(u - column >= q[column], alias[column], column)
    return (lo1 + index // m2).astype(np.float64), (lo2 + index % m2).astype(np.float64)


def whole_pair_tally(streams, size, draw_num, draw_den, cutoff, bins):
    """`montecarlo._tally`'s signature over the parent's path: each side drawn whole from its stream.

    Where the numerator carries a pair table, the pairs are drawn whole from the first stream and decoded.
    """
    pairs = getattr(draw_num, "pairs", None)
    if pairs is not None:
        num, den = pair_reference(pairs, streams[0], size)
    else:
        num, den = np.empty(size), np.empty(size)
        draw_num(streams[0], num)
        draw_den(streams[1], den)
    return parent_tally(num, den, cutoff, bins)


def order_bound(n_terms, abs_sum):
    """How far two orders of adding the same n_terms numbers can land apart.

    Any order lands within (n_terms - 1) 2^-53 sum |v| of the exact sum, to
    first order (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, section 4.2), so two orders differ by at most n_terms 2^-52 sum |v|.
    """
    return n_terms * 2.0**-52 * abs_sum


def assert_sums_agree(got, expected, n_terms):
    """Two sums of the same n_terms nonnegative ratios: both past the float range alike, or within order_bound."""
    assert math.isfinite(got) == math.isfinite(expected), (got, expected)
    if math.isfinite(expected):
        assert abs(got - expected) <= order_bound(n_terms, expected), (got, expected)
    else:
        assert np.array_equal(got, expected, equal_nan=True)


def assert_reports_agree(got, expected):
    """Every count, fraction and density alike; mean and sd within the rounding of another order of summing.

    With N finite ratios, S1 their sum and S2 that of their squares, the mean
    S1 / N moves by order_bound(N, S1) / N, and once more for the division.
    (N - 1) sd^2 = S2 - S1^2 / N: S2 moves by order_bound(N, S2), S1^2 / N by
    twice that at most (S1^2 / N <= S2), and the last roundings by once more.
    """
    got_dict, expected_dict = got.as_dict(), expected.as_dict()
    (mean, mean_ref), (sd, sd_ref) = ((got_dict.pop(k), expected_dict.pop(k)) for k in ("mean", "sd"))
    assert got_dict == expected_dict and got.undefined == expected.undefined
    assert (mean is None, sd is None) == (mean_ref is None, sd_ref is None)
    n_finite = expected.n - round(expected.n * expected.frac_nan) - round(expected.n * expected.frac_inf)
    if mean_ref is not None:
        assert abs(mean - mean_ref) <= order_bound(n_finite + 1, mean_ref), (mean, mean_ref)
    if sd_ref is not None and n_finite > 1:
        squares = sd_ref**2 + mean_ref**2 * n_finite / (n_finite - 1)  # S2 / (N - 1)
        assert abs(sd - sd_ref) * (sd + sd_ref) <= 4 * order_bound(n_finite, squares), (sd, sd_ref)


def copying(array):
    """draw(rng, out) that copies array's next out.size values into out, as a drawer would draw them."""
    taken = 0

    def draw(rng, out):
        nonlocal taken
        out[:] = array[taken : taken + out.size]
        taken += out.size

    return draw


class TestTally:
    @pytest.mark.parametrize("name", RATIO_SIMULATORS)
    @pytest.mark.parametrize("n", [1, 7, 999_999, 1_000_000, 2_500_001])
    def test_reports_match_parent_tally(self, monkeypatch, name, n):
        simulate = RATIO_SIMULATORS[name]
        reports = [simulate(n, seed=n, workers=w) for w in (1, 2)]
        assert json.dumps(reports[0].as_dict()) == json.dumps(reports[1].as_dict())
        monkeypatch.setattr(montecarlo, "_tally", whole_pair_tally)
        for workers, report in zip((1, 2), reports):
            assert_reports_agree(report, simulate(n, seed=n, workers=workers))

    @pytest.mark.parametrize("name", RATIO_SIMULATORS)
    def test_chunk_size_moves_no_count(self, monkeypatch, name):
        # the draws do not depend on the chunk size, so no count does: only the sums' last bits
        simulate, tally, default = RATIO_SIMULATORS[name], montecarlo._tally, montecarlo._CHUNK

        def run(chunk, workers):
            """The report at chunks of `chunk` draws, and the fine histogram of its shards."""
            fine = []

            def recording(*args):
                shard = tally(*args)
                fine.append(shard[-1])
                return shard

            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            monkeypatch.setattr(montecarlo, "_tally", recording)
            return simulate(2_500_001, seed=4, workers=workers), sum(fine)

        for workers in (1, 2):
            (report, fine), (reference, reference_fine) = run(300, workers), run(default, workers)
            assert np.array_equal(fine, reference_fine)
            assert_reports_agree(report, reference)

    @pytest.mark.parametrize("name", FOOTPRINT_SIMULATORS)
    def test_shard_footprint(self, name):
        # the mask-and-copy body peaked at 4.5 draw arrays (3.3 at low Poisson rates); a
        # numerator drawn whole held one, and two past the alias table's cap (rng.poisson's
        # int64 counts); drawn a chunk at a time, a shard holds two chunk buffers and the
        # temporaries of one chunk's draws and tally
        n = montecarlo.SHARD_SIZE
        FOOTPRINT_SIMULATORS[name](n, seed=1)  # the first run sets up what later runs reuse
        tracemalloc.start()
        try:
            FOOTPRINT_SIMULATORS[name](n, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * montecarlo._CHUNK, peak / (8 * montecarlo._CHUNK)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_parent_tally(self, data):
        # ratios on every bin edge and one ulp to either side, exact count ratios
        # (0/0, k/0, 1/2, 3/4), infinities and draws past the cutoff
        cutoff = data.draw(st.one_of(st.sampled_from([1.0, 3.0, 8.0]), st.floats(1e-300, 1e300)))
        bins = data.draw(st.integers(1, 4000))
        edges = np.concatenate([np.linspace(0.0, cutoff, k + 1) for k in (bins, montecarlo.MODE_BINS)])
        near_edge = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        pair = st.one_of(
            st.tuples(st.sampled_from(near_edge.tolist()), st.just(1.0)),
            st.tuples(st.integers(0, 8).map(float), st.integers(0, 8).map(float)),
            st.tuples(st.floats(0.0, 2 * cutoff), st.sampled_from([1.0, 0.5, 3.0])),
            st.sampled_from([(math.inf, 1.0), (math.inf, 0.0), (1.0, math.inf), (math.inf, math.inf)]),
        )
        pairs = data.draw(st.lists(pair, min_size=1, max_size=60))
        num, den = (np.array(side, dtype=float) for side in zip(*pairs))
        # 7-draw chunks, so 0/0, k/0 and the compaction cross chunk borders
        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_CHUNK", 7)
            expected = parent_tally(num.copy(), den.copy(), cutoff, bins)
            got = montecarlo._tally((None, None), num.size, copying(num), copying(den), cutoff, bins)
        assert len(got) == len(expected)
        for field_got, field_expected in zip(got, expected):
            assert type(field_got) is type(field_expected)
            assert np.asarray(field_got).dtype == np.asarray(field_expected).dtype
        for i in (0, 1, 4, 5, 6):  # the counts
            assert np.array_equal(got[i], expected[i])
        n_finite = num.size - expected[0] - expected[1]
        for i in (2, 3):  # the sum and the sum of squares
            assert_sums_agree(got[i], expected[i], n_finite)

    @pytest.mark.parametrize(
        "cutoff,grid", [(1e-322, "150 bins"), (2.5e-321, "mode estimate's 1000 fine bins (bins = 150)")]
    )
    def test_refuses_bin_grid_before_any_draw(self, cutoff, grid):
        # once NumPy's "Cannot create 1000 finite-sized bins", after a whole shard was drawn
        def draw(rng, out):
            raise AssertionError("drew before checking the bin grid")

        reason = re.escape(f"cutoff {cutoff!r} is too small for ") + ".*" + re.escape(grid)
        with pytest.raises(ValueError, match=reason):
            montecarlo._run_ratio_simulation(draw, draw, 10, cutoff, 150, seed=1, workers=1)

    def test_refuses_bin_width_past_float_range_before_any_draw(self):
        # a bin of width 1e-323 that held every draw would have a density of 1e323
        def draw(rng, out):
            raise AssertionError("drew before checking the bin width")

        with pytest.raises(ValueError, match=r"cutoff 1e-320 over bins = 1000 gives a bin width of 1e-323"):
            montecarlo._run_ratio_simulation(draw, draw, 10, 1e-320, 1000, seed=1, workers=1)

    def test_refuses_inf_over_inf(self):
        # 0/0 is counted as NaN and inf/2 lies past the cutoff; inf/inf is undefined
        num, den = copying(np.array([np.inf, np.inf, 1.0, 0.0])), copying(np.array([np.inf, 2.0, 4.0, 0.0]))
        with pytest.raises(ValueError, match=re.escape("1 of the 4 draws overflowed the float range")):
            montecarlo._run_ratio_simulation(num, den, 4, 8.0, 10, seed=1, workers=1)

    @pytest.mark.parametrize("alpha2,seed,undefined", [(0.01, 1, ["sd"]), (0.002, 3, ["mean", "sd"])])
    def test_sums_past_float_range(self, alpha2, seed, undefined):
        # total**2 once raised OverflowError; a sum of inf once gave sd = max(0, inf - inf) = 0
        with np.errstate(over="ignore"):
            report = simulate_gamma_ratio(GammaParams(1.0, 1.0), GammaParams(alpha2, 1.0), 1000, seed=seed)
        assert report.undefined == dict.fromkeys(undefined, "sums past the float range")
        assert report.sd is None and (report.mean is None) == ("mean" in undefined)
        assert report.mean is None or 1e280 < report.mean < math.inf
        assert mass_identity(report) == pytest.approx(1.0, abs=1e-12)

    def test_no_finite_draws_reason(self):
        report = simulate_count_ratio(1.0, 1e-300, 10, seed=1)
        assert report.mean is None and report.sd is None
        assert report.undefined == {"mean": "no finite draws", "sd": "no finite draws"}


# x2 = 0 (0/0 and k/0), x1 = 0 (ratios on the edge 0), lo1 > 0 and, at (400, 200), lo2 > 0 too
PAIR_RATES = [(0.3, 0.5), (0.3, 10.0), (30.0, 30.0), (5.0, 0.05), (400.0, 80.0), (400.0, 200.0)]
# edges the ratios hit exactly (0.5, 1, 1.5, ...), a cutoff that is an attainable ratio (3 = 3/1,
# 2 = 400/200), so the closed last bin holds it, edges one ulp off a ratio (2 (1/3) against 2/3),
# and ratios past every cutoff
PAIR_GRIDS = [(3.0, 6), (2.0, 4), (1.0, 3), (8.0, 150)]


def table_sizes(lambda1, lambda2):
    """(lo, m) of both rates' alias tables: the first count and the table size."""
    return [(lo, hi - lo + 1) for lo, hi in map(montecarlo._poisson_window, (lambda1, lambda2))]


class TestPairTally:
    """Count ratios within the cap draw each (x1, x2) pair from one alias table: every count as the sort path's."""

    @pytest.fixture
    def pair_calls(self, monkeypatch):
        calls, pair_tally = [], montecarlo._pair_tally

        def recording(rng, size, pairs, grids):
            calls.append(pairs[0].size)
            return pair_tally(rng, size, pairs, grids)

        monkeypatch.setattr(montecarlo, "_pair_tally", recording)
        return calls

    @pytest.mark.parametrize("cutoff,bins", PAIR_GRIDS)
    @pytest.mark.parametrize("lambda1,lambda2", PAIR_RATES)
    def test_matches_sort_path(self, monkeypatch, pair_calls, lambda1, lambda2, cutoff, bins):
        monkeypatch.setattr(montecarlo, "_PAIR_CAP", 1 << 20)  # (400, 80) and (400, 200) pass the cap
        draw_num, draw_den = montecarlo._poisson_drawers(lambda1, lambda2)
        draw_num.pairs = pairs = montecarlo._pair_table(lambda1, lambda2)
        (lo1, m1), (lo2, m2) = table_sizes(lambda1, lambda2)
        assert pairs[2:] == (lo1, lo2, m2)
        streams, size = montecarlo._shards(50_001, 3)[0]
        got = montecarlo._tally(streams, size, draw_num, draw_den, cutoff, bins)
        # the sort path, fed the same pairs decoded from the same stream
        streams, size = montecarlo._shards(50_001, 3)[0]
        num, den = pair_reference(pairs, streams[0], size)
        expected = montecarlo._tally(streams, size, copying(num), copying(den), cutoff, bins)
        assert pair_calls == [m1 * m2]
        for field_got, field_expected in zip(got, expected):
            assert type(field_got) is type(field_expected)
        for i in (0, 1, 4, 5, 6):  # the counts
            assert np.array_equal(got[i], expected[i]), i
        for i in (2, 3):  # the sum and the sum of squares
            assert_sums_agree(got[i], expected[i], size - expected[0] - expected[1])

    @pytest.mark.parametrize("lambda1,taken", [(296.0, True), (296.5, False)])
    def test_cap(self, monkeypatch, pair_calls, lambda1, taken):
        # tables of 334 and of 335 counts against 98 at lambda2 = 30: either side of 2^15 pairs
        (_, m1), (_, m2) = table_sizes(lambda1, 30.0)
        assert m1 * m2 == (32732 if taken else 32830)
        report = simulate_count_ratio(lambda1, 30.0, 20_000, seed=2)
        assert len(pair_calls) == taken
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_PAIR_CAP", 0 if taken else 1 << 20)
            simulate_count_ratio(lambda1, 30.0, 20_000, seed=2)
        assert len(pair_calls) == 1
        # the sort path, fed the decoded pairs where the pair table was taken and both sides' draws where not
        monkeypatch.setattr(montecarlo, "_tally", whole_pair_tally)
        assert_reports_agree(report, simulate_count_ratio(lambda1, 30.0, 20_000, seed=2))

    def test_cap_ignores_chunk_and_workers(self, monkeypatch, pair_calls):
        monkeypatch.setattr(montecarlo, "_CHUNK", 300)
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 1000)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2, raising=False)
        simulate_count_ratio(296.0, 30.0, 2500, seed=2, workers=2)
        assert len(pair_calls) == 3

    @pytest.mark.parametrize("lambda1,lambda2", [(2.0, 3.0), (0.3, 0.5), (30.0, 30.0), (296.0, 30.0)])
    @pytest.mark.parametrize("pair_cap", [montecarlo._PAIR_CAP, 0])
    def test_exact_moments(self, monkeypatch, pair_calls, lambda1, lambda2, pair_cap):
        # on the pair path, and on the sort path with the cap at 0
        monkeypatch.setattr(montecarlo, "_PAIR_CAP", pair_cap)
        n = 4_000_000
        report = simulate_count_ratio(lambda1, lambda2, n, seed=11)
        assert len(pair_calls) == (4 if pair_cap else 0)
        mean, sd = count_ratio_moments(lambda1, lambda2)
        n_finite = n - round(n * report.frac_nan) - round(n * report.frac_inf)
        assert abs(report.mean - mean) <= 5 * sd / math.sqrt(n_finite), (report.mean, mean)
        assert report.sd == pytest.approx(sd, rel=0.01)

    def test_pair_table_law(self):
        # the joint table is that of the outer product of the two laws, in the order the read-back decodes
        for lambda1, lambda2 in [(2.0, 0.3), (0.3, 2.0), (296.0, 30.0)]:
            q, alias, *_ = montecarlo._pair_table(lambda1, lambda2)
            assert_table_law(q, alias, joint_pmf(lambda1, lambda2))

    @pytest.mark.parametrize("lambda1,lambda2", [(296.5, 30.0), (1e6, 0.3), (0.3, 1e6)])
    def test_no_pair_table(self, lambda1, lambda2):
        # past _PAIR_CAP pairs, or a side past the alias table's cap
        assert montecarlo._pair_table(lambda1, lambda2) is None


def joint_pmf(lambda1, lambda2):
    """SciPy's pmf of (x1, x2) on both rates' alias-table windows, at index (x1 - lo1) m2 + (x2 - lo2)."""
    ks = [np.arange(lo, hi + 1) for lo, hi in map(montecarlo._poisson_window, (lambda1, lambda2))]
    return np.outer(stats.poisson.pmf(ks[0], lambda1), stats.poisson.pmf(ks[1], lambda2)).ravel()


def assert_table_law(q, alias, pmf):
    """Every q in [0, 1], and the law of the table, (q + bincount(alias, 1 - q)) / m, within 1e-12 of pmf."""
    assert q.dtype == np.float64 and q.shape == alias.shape == pmf.shape
    assert np.all((0.0 <= q) & (q <= 1.0))
    law = (q + np.bincount(alias, weights=1 - q, minlength=q.size)) / q.size
    assert 0.5 * np.abs(law - pmf / pmf.sum()).sum() <= 1e-12


# the joint pmfs of count ratios within the cap, and pmfs built to hit the sweep's edge cases:
# no light column; one heavy; lights that round to 0 units; and lights whose deficit starts
# exactly where a heavy's excess ends, which the next heavy must serve
JOINT_RATES = [(0.3, 0.5), (3.0, 5.0), (30.0, 30.0), (296.0, 30.0)]
BUILDER_PMFS = {
    **{f"joint{rates}": functools.partial(joint_pmf, *rates) for rates in JOINT_RATES},
    "uniform": lambda: np.full(1000, 1e-3),
    "one entry": lambda: np.eye(1, 50, 17).ravel(),
    "rounds to 0 units": lambda: np.array([0.5, 1e-30, 0.5, 1e-30]),
    "deficits end on excesses": lambda: np.array([1.0, 3.0, 1.0, 3.0]) / 8,
}


class TestAlias:
    @pytest.mark.parametrize("name", BUILDER_PMFS)
    def test_law(self, name):
        pmf = BUILDER_PMFS[name]()
        assert_table_law(*montecarlo._alias(pmf), pmf)

    def test_ties_take_the_next_heavy(self):
        # masses 0.5, 1.5, 0.5, 1.5: the second light's deficit starts where the first heavy's excess ends
        q, alias = montecarlo._alias(np.array([1.0, 3.0, 1.0, 3.0]) / 8)
        assert q.tolist() == [0.5, 1.0, 0.5, 1.0] and alias.tolist() == [1, 3, 3, 3]


def poisson_pmf_saddle(k, lam):
    """Pois(lam) pmf at k > 15 by Loader's saddle-point form, exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k).

    scipy.stats.poisson.pmf is exp(xlogy(k, lam) - gammaln(k + 1) - lam), whose terms
    near 1e6 at lam = 1e5 leave ~1e-10 of error in the log: against 30-digit values
    its pmf is 5.5e-11 off in total variation there, and this form 8e-15.
    """
    d = k - lam
    bd0 = k * np.log1p(d / lam) - d  # k log(k / lam) + lam - k, with no difference that cancels
    k2 = k * k
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * k2)) / k2) / k2) / k  # log k! less Stirling's
    return np.exp(-stirlerr - bd0) / np.sqrt(2 * np.pi * k)


def table_cap_rates():
    """(largest rate with an alias table, the next float up, which falls back), by bisection."""
    lo, hi = 1.0, 1e7
    while np.nextafter(lo, np.inf) < hi:
        mid = math.sqrt(lo * hi)
        mid = mid if lo < mid < hi else np.nextafter(lo, np.inf)
        lo, hi = (mid, hi) if montecarlo._poisson_window(mid) else (lo, mid)
    return lo, hi


TABLE_RATES = [1e-300, 0.05, 3.0, 9.99, 10.0, 30.0, 1e3, 1e5, "cap"]


def draw_poisson(lam, rng, n):
    """n counts from `montecarlo._poisson_drawer(lam)`, drawn into a fresh float64 array."""
    out = np.full(n, np.nan)
    montecarlo._poisson_drawer(lam)(rng, out)
    return out


def rate(lam):
    """lam itself, or for "cap" and "past cap" the largest tabled rate and the next float up."""
    return table_cap_rates()[lam == "past cap"] if isinstance(lam, str) else lam


class TestPoissonDrawer:
    @pytest.mark.parametrize("lam", TABLE_RATES)
    def test_table_law(self, lam):
        lam = rate(lam)
        q, here, there = montecarlo._alias_table(lam, *montecarlo._poisson_window(lam))
        law = (q + np.bincount((there - here[0]).astype(int), weights=1 - q, minlength=q.size)) / q.size
        reference = stats.poisson.pmf(here, lam) if lam <= 1e3 else poisson_pmf_saddle(here, lam)
        assert 0.5 * np.abs(law - reference).sum() <= 1e-12

    def test_saddle_point_reference_matches_scipy(self):
        # at lam = 1e3 scipy's pmf is still within 2.3e-13 of 30-digit values
        k = np.arange(700.0, 1301.0)
        assert 0.5 * np.abs(poisson_pmf_saddle(k, 1e3) - stats.poisson.pmf(k, 1e3)).sum() <= 1e-12

    @pytest.mark.parametrize("lam", TABLE_RATES)
    def test_window_omits_less_than_2_to_the_minus_60(self, lam):
        lam = rate(lam)
        lo, hi = montecarlo._poisson_window(lam)
        assert hi - lo + 1 <= montecarlo.POISSON_TABLE_CAP
        assert stats.poisson.cdf(lo - 1, lam) + stats.poisson.sf(hi, lam) < 2.0**-60

    def test_cap(self):
        largest, past = table_cap_rates()
        assert 7e5 < largest < 8e5
        assert montecarlo._poisson_window(past) is None
        assert montecarlo._poisson_window(math.inf) is None

    @pytest.mark.parametrize("lam", [0.05, 10.0, 1e3, "past cap"])
    def test_chi_square(self, lam):
        lam, n = rate(lam), 1_000_000
        draws = draw_poisson(lam, np.random.default_rng(17), n)
        assert draws.dtype == np.float64 and np.array_equal(draws, np.floor(draws))
        # bins of about 1 % each between the 1e-4 quantiles; bin i holds edges[i - 1] < k <= edges[i]
        levels = np.concatenate([[1e-4], np.linspace(0.01, 0.99, 99), [1 - 1e-4]])
        edges = np.unique(stats.poisson.ppf(levels, lam))
        expected = n * np.diff(np.concatenate([[0.0], stats.poisson.cdf(edges, lam), [1.0]]))
        observed = np.bincount(np.searchsorted(edges, draws), minlength=edges.size + 1)
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("u", [np.nextafter(1.0, 0.0), 1.0])
    def test_top_of_the_unit_interval_takes_the_top_column(self, u):
        # random() returns at most 1 - 2^-53, and u m then rounds below m; u = 1 stands for
        # a product rounded up to m, which would index one past the table
        class TopOfRange:  # no poisson method: below the cap nothing may call it
            def random(self, out):
                out[:] = u

        q, here, there = montecarlo._alias_table(10.0, *montecarlo._poisson_window(10.0))
        assert set(draw_poisson(10.0, TopOfRange(), 3)) <= {here[-1], there[-1]}

    def test_chunks_do_not_change_draws(self):
        # a side drawn in consecutive chunks from one stream gives the draws of one call
        for lam in (10.0, rate("past cap")):
            draws, chunked = draw_poisson(lam, np.random.default_rng(3), 100_003), np.empty(100_003)
            draw, rng = montecarlo._poisson_drawer(lam), np.random.default_rng(3)
            for start in range(0, chunked.size, 300):
                draw(rng, chunked[start : start + 300])
            assert np.array_equal(chunked, draws)


def alias_reference(lam, rng, n):
    """The allocating Poisson drawer: n uniforms from rng.random(n), mapped through the alias table at once."""
    window = montecarlo._poisson_window(lam)
    if window is None:
        return rng.poisson(lam, n).astype(np.float64)
    q, here, there = montecarlo._alias_table(lam, *window)
    u = rng.random(n) * q.size
    column = np.minimum(u.astype(np.intp), q.size - 1)
    return np.where(u - column >= q[column], there[column], here[column])


class TestInPlaceDraws:
    """Draws into the shard buffers equal NumPy's allocating calls bit for bit."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        # three shards, the last short, each side recorded as the tally draws it: in chunks
        # of 300 from its own stream, joined up here
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 1000)
        monkeypatch.setattr(montecarlo, "_CHUNK", 300)
        pairs, tally = [], montecarlo._tally

        def recording(streams, size, draw_num, draw_den, cutoff, bins):
            sides = [], []

            def record(side, draw):
                def draw_recorded(rng, out):
                    draw(rng, out)
                    side.append(out.copy())

                return draw_recorded

            try:
                return tally(streams, size, record(sides[0], draw_num), record(sides[1], draw_den), cutoff, bins)
            finally:
                pairs.append(tuple(np.concatenate(side) for side in sides))

        monkeypatch.setattr(montecarlo, "_tally", recording)
        return pairs

    @staticmethod
    def expected(seed, draw_num, draw_den):
        """Each shard's (num, den), each side drawn whole by NumPy's allocating call from its own stream."""
        return [(draw_num(rngs[0], size), draw_den(rngs[1], size)) for rngs, size in montecarlo._shards(2500, seed)]

    @staticmethod
    def assert_same(got, expected):
        assert len(got) == len(expected)
        for pair, pair_expected in zip(got, expected):
            for array, reference in zip(pair, pair_expected):
                assert array.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 37.5, 1e12])
    @pytest.mark.parametrize("beta", [3.0, 1e-308])  # at 1e-308 some draws overflow to inf
    def test_gamma(self, drawn, alpha, beta):
        p1, p2 = GammaParams(alpha, beta), GammaParams(2.0, 0.5)
        with np.errstate(over="ignore"):
            try:
                simulate_gamma_ratio(p1, p2, 2500, seed=5)
            except ValueError:  # inf/inf draws are refused after the tally
                pass
            expected = self.expected(
                5, lambda rng, n: rng.gamma(alpha, 1.0 / beta, n), lambda rng, n: rng.gamma(2.0, 1.0 / 0.5, n)
            )
        self.assert_same(drawn, expected)

    def test_uniform(self, drawn):
        simulate_uniform_ratio(3.7, 2500, seed=6)

        def uniform(rng, n):
            return rng.uniform(0.0, 3.7, n)

        self.assert_same(drawn, self.expected(6, uniform, uniform))

    @pytest.mark.parametrize("lambda1,lambda2", [(0.3, 10.0), (1e5, "past cap")])
    def test_poisson(self, drawn, lambda1, lambda2):
        lambda1, lambda2 = rate(lambda1), rate(lambda2)
        simulate_count_ratio(lambda1, lambda2, 2500, seed=7)
        drawers = (functools.partial(alias_reference, lam) for lam in (lambda1, lambda2))
        self.assert_same(drawn, self.expected(7, *drawers))

    @pytest.mark.parametrize("lambda1,lambda2", [(0.3, 10.0), (1e5, "past cap")])
    def test_count_difference(self, monkeypatch, lambda1, lambda2):
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 1000)
        monkeypatch.setattr(montecarlo, "_CHUNK", 300)
        lambda1, lambda2 = rate(lambda1), rate(lambda2)
        # both counts come in chunks of 300, each from its own stream, and each chunk's differences are counted
        drawers = (functools.partial(alias_reference, lam) for lam in (lambda1, lambda2))
        diffs = np.concatenate([np.subtract(*pair) for pair in self.expected(8, *drawers)]).astype(np.int64)
        dist = simulate_count_difference(lambda1, lambda2, 2500, seed=8)
        assert np.array_equal(dist.values, np.arange(diffs.min(), diffs.max() + 1))
        assert np.array_equal(dist.probs, np.bincount(diffs - diffs.min()) / 2500)


class TestCountDifference:
    def test_fractional_size_refused(self):
        with pytest.raises(ValueError, match=r"^n must be a whole number >= 1, got 2\.5$"):
            simulate_count_difference(1.0, 1.0, 2.5, seed=1)

    def test_matches_skellam(self):
        n = 1_000_000
        dist = simulate_count_difference(1.0, 1.0, n, seed=31)
        for d in range(-3, 4):
            p = skellam_pmf(d, 1.0, 1.0)
            assert abs(dist.prob(d) - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_moments(self):
        n = 1_000_000
        dist = simulate_count_difference(5.0, 2.0, n, seed=8)
        sd = math.sqrt(7.0)
        assert dist.mean() == pytest.approx(3.0, abs=3 * sd / math.sqrt(n))
        assert dist.sd() == pytest.approx(sd, rel=5e-3)

    def test_footprint(self):
        # two whole draw arrays and np.unique's sorted copy once peaked at 3.25 arrays, and one
        # whole X1 at one; both counts now come a chunk at a time, and each chunk is counted
        n = 1_000_000
        simulate_count_difference(30.0, 20.0, n, seed=1)  # the first run sets up what later runs reuse
        tracemalloc.start()
        try:
            simulate_count_difference(30.0, 20.0, n, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * montecarlo._CHUNK, peak / (8 * montecarlo._CHUNK)

    def test_refuses_what_skellam_dist_refuses(self, monkeypatch):
        # once a bincount over the ~1.7e9 drawn values: NumPy's MemoryError for 12.8 GiB
        def shards(n, seed):
            raise AssertionError("drew before checking the support")

        limit = distributions.SKELLAM_MAX_POINTS
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_shards", shards)
            with pytest.raises(ValueError, match=f"support points, more than {limit} "):
                simulate_count_difference(1e16, 1e16, 100_000, seed=1)
        assert distributions._skellam_bulk(8.5e9, 8.5e9, limit)  # just inside: it runs
        assert simulate_count_difference(8.5e9, 8.5e9, 10, seed=1).probs.sum() == pytest.approx(1.0)

    def test_positive_skew(self):
        dist = simulate_count_difference(5.0, 1.0, 400_000, seed=15)
        values = dist.values.astype(float)
        mean = dist.mean()
        third = float(np.sum((values - mean) ** 3 * dist.probs))
        assert third > 0


class TestGammaRatio:
    def test_reference_configuration_moments(self):
        # numerator shape 2 rate 1, denominator shape 3 rate 2:
        # exact mean 2, exact sd sqrt(8)
        n = 1_000_000
        report = simulate_gamma_ratio(
            GammaParams(2.0, 1.0), GammaParams(3.0, 2.0), n, cutoff=8.0, seed=5
        )
        assert report.mean == pytest.approx(2.0, abs=3 * math.sqrt(8 / n))
        # fourth moment diverges here, so the sample sd converges slowly;
        # loose tolerance, pinned by the fixed seed
        assert report.sd == pytest.approx(math.sqrt(8.0), rel=0.1)

    def test_unit_denominator_rate_mean(self):
        n = 1_000_000
        report = simulate_gamma_ratio(
            GammaParams(2.0, 1.0), GammaParams(2.0, 1.0), n, seed=6
        )
        assert report.mean == pytest.approx(2.0, abs=0.05)

    def test_histogram_matches_pdf(self):
        n = 1_000_000
        p1, p2 = GammaParams(4.0, 3.0), GammaParams(7.0, 6.0)
        report = simulate_gamma_ratio(p1, p2, n, cutoff=8.0, bins=80, seed=21)
        probs = bin_probabilities(lambda r: gamma_ratio_pdf(r, p1, p2), report.bin_edges)
        assert_all_bins_within(report.counts, probs, n)

    def test_no_undefined_draws(self):
        report = simulate_gamma_ratio(
            GammaParams(1.0, 1.0), GammaParams(1.0, 1.0), 100_000, seed=2
        )
        assert report.frac_nan == 0.0 and report.frac_inf == 0.0

    def test_mode_estimate_near_true_mode(self):
        # fine-histogram argmax is a rough estimate by design
        p1, p2 = GammaParams(4.0, 3.0), GammaParams(7.0, 6.0)
        report = simulate_gamma_ratio(p1, p2, 2_000_000, seed=13)
        assert report.mode_estimate == pytest.approx(0.75, abs=0.15)


class TestUniformRatio:
    def test_below_one_mass(self):
        n = 1_000_000
        report = simulate_uniform_ratio(1.0, n, cutoff=1.0, bins=10, seed=4)
        p = report.hist_mass
        assert abs(p - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_central_interval(self):
        n = 1_000_000
        # 1500 bins over [0, 10] puts an edge exactly at 0.1
        report = simulate_uniform_ratio(1.0, n, cutoff=10.0, bins=1500, seed=4)
        inside = report.counts[15:].sum() / n
        assert abs(inside - 0.9) <= 3 * math.sqrt(0.9 * 0.1 / n)

    def test_scale_invariance(self):
        n = 1_000_000
        a = simulate_uniform_ratio(10.0, n, seed=20)
        b = simulate_uniform_ratio(100.0, n, seed=78)
        za = a.counts / n
        zb = b.counts / n
        sd = np.sqrt(za * (1 - za) / n + zb * (1 - zb) / n)
        keep = (a.counts + b.counts) / (2 * n) * n >= 10
        z = np.abs(za - zb)[keep] / sd[keep]
        # With hundreds of bins a few ~3-sigma excursions are expected.
        assert np.mean(z <= 3.0) >= 0.99
        assert np.all(z <= 5.0)

    @pytest.mark.parametrize("size", ["n", "bins", "workers"])
    def test_fractional_size_refused(self, size):
        # once silently truncated to 2
        with pytest.raises(ValueError, match=rf"^{size} must be a whole number >= 1, got 2\.5$"):
            simulate_uniform_ratio(1.0, **{"n": 10, size: 2.5})

    def test_whole_float_and_numpy_sizes_pass(self):
        want = simulate_uniform_ratio(1.0, 1000, bins=20, seed=3)
        got = simulate_uniform_ratio(1.0, 1000.0, bins=np.int64(20), seed=3, workers=1.0)
        assert np.array_equal(got.counts, want.counts) and (got.mean, got.sd) == (want.mean, want.sd)

    def test_histogram_matches_law(self):
        from rateratio.distributions import uniform_ratio_pdf

        n = 1_000_000
        report = simulate_uniform_ratio(1.0, n, cutoff=8.0, bins=80, seed=25)
        probs = bin_probabilities(uniform_ratio_pdf, report.bin_edges)
        assert_all_bins_within(report.counts, probs, n)


class TestHistogramCsv:
    def test_format(self):
        report = simulate_gamma_ratio(
            GammaParams(2.0, 1.0), GammaParams(3.0, 2.0), 50_000, bins=10, cutoff=5.0, seed=1
        )
        buf = io.StringIO()
        write_histogram_csv(report, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,density"
        assert len(lines) == 11
        left, right, dens = lines[1].split(",")
        assert float(left) == 0.0 and float(right) == 0.5
        assert float(dens) >= 0.0

    def test_bytes_match_repr_rows(self):
        # The former writer's row format, kept as the reference for the bytes.  Z1 ~ Gamma(0.002)
        # puts a quarter of the ratios below the cutoff 1e-300, so the edges and densities are odd floats.
        report = simulate_gamma_ratio(
            GammaParams(0.002, 1.0), GammaParams(3.0, 2.0), 20_000, cutoff=1e-300, bins=5000, seed=1
        )
        assert np.count_nonzero(report.density) > 10
        edges = report.bin_edges.tolist()
        rows = zip(edges[:-1], edges[1:], report.density.tolist())
        buf = io.StringIO()
        write_histogram_csv(report, buf)
        assert buf.getvalue() == "bin_left,bin_right,density\n" + "".join("%r,%r,%r\n" % row for row in rows)

    def test_density_integrates_to_hist_mass(self):
        report = simulate_gamma_ratio(
            GammaParams(2.0, 1.0), GammaParams(3.0, 2.0), 200_000, seed=14
        )
        width = report.bin_edges[1] - report.bin_edges[0]
        assert float(report.density.sum() * width) == pytest.approx(report.hist_mass, rel=1e-9)


class TestPoissonLimit:
    """Both count simulators refuse a rate past NumPy's Poisson limit, by name, before any draw."""

    LIMIT = 9.223372006484771e18  # INT64_MAX - 10 sqrt(INT64_MAX)

    def test_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        assert montecarlo._POISSON_LAM_MAX == self.LIMIT
        assert rng.poisson(self.LIMIT) > 9.2e18
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(self.LIMIT, np.inf))

    @pytest.mark.parametrize("simulate", [simulate_count_ratio, simulate_count_difference])
    @pytest.mark.parametrize("side", ["lambda1", "lambda2"])
    def test_each_rate_on_both_sides_of_the_limit(self, simulate, side):
        rates = {"lambda1": 3.0, "lambda2": 3.0}
        if simulate is simulate_count_ratio:
            simulate(**{**rates, side: self.LIMIT}, n=1, seed=1)
        else:  # the rate passes, and the difference's support cap, skellam_dist's, refuses it
            with pytest.raises(ValueError, match="support points"):
                simulate(**{**rates, side: self.LIMIT}, n=1, seed=1)
        refusal = rf"^{side} must be > 0 and <= 9\.22337e\+18, NumPy's Poisson limit, got 1e\+300$"
        with pytest.raises(ValueError, match=refusal):
            simulate(**{**rates, side: 1e300}, n=1, seed=1)
        with pytest.raises(ValueError, match=f"^{side} must be > 0"):
            simulate(**{**rates, side: np.nextafter(self.LIMIT, np.inf)}, n=1, seed=1)
