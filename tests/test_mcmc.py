import csv
import io
import math
import re

import numpy as np
import pytest
from scipy import stats

from rateratio.distributions import GammaParams
from rateratio.inference import CountObservation
from rateratio.ratio import model_b_summaries
from rateratio.mcmc import (
    MCMC_FLAT_PRIOR,
    _VARIABLES,
    Chain,
    ModelSpec,
    build_model,
    chain_to_csv,
    format_chain_summary,
    run_chain,
    summarize_chain,
)

D1 = CountObservation(3, 3.0)
D2 = CountObservation(6, 6.0)
FLAT = {"rho": MCMC_FLAT_PRIOR, "r2": MCMC_FLAT_PRIOR}


def flat_spec(variant="B", **kwargs):
    priors = kwargs.pop("priors", None)
    if priors is None:
        priors = (
            {"r1": MCMC_FLAT_PRIOR, "r2": MCMC_FLAT_PRIOR} if variant == "A" else dict(FLAT)
        )
    return ModelSpec(variant=variant, data1=D1, data2=D2, priors=priors, **kwargs)


class TestModelSpec:
    def test_missing_prior_rejected(self):
        with pytest.raises(ValueError, match="missing priors"):
            ModelSpec(variant="B", data1=D1, data2=D2, priors={"rho": MCMC_FLAT_PRIOR})

    def test_unknown_prior_rejected(self):
        with pytest.raises(ValueError, match="unknown prior"):
            ModelSpec(
                variant="A",
                data1=D1,
                data2=D2,
                priors={"r1": MCMC_FLAT_PRIOR, "r2": MCMC_FLAT_PRIOR, "zz": MCMC_FLAT_PRIOR},
            )

    def test_improper_prior_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            ModelSpec(
                variant="B",
                data1=D1,
                data2=D2,
                priors={"rho": GammaParams(1.0, 0.0), "r2": MCMC_FLAT_PRIOR},
            )

    def test_efficiencies_only_for_eff_variants(self):
        with pytest.raises(ValueError, match="efficienc"):
            flat_spec("B", efficiencies=(0.9, 0.9))
        with pytest.raises(ValueError, match="efficienc"):
            flat_spec("B_EFF")

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            flat_spec("B_EFF", efficiencies=(0.0, 0.5))
        with pytest.raises(ValueError):
            flat_spec("B_EFF", efficiencies=(1.1, 0.5))

    @pytest.mark.parametrize(
        "eps,path",
        [
            (((math.nan, 1.0), 0.9), "efficiencies[0].a"),
            (((math.inf, 1.0), 0.9), "efficiencies[0].a"),
            (((2.0, math.nan), 0.9), "efficiencies[0].b"),
            ((True, 0.9), "efficiencies[0]"),
            ((0.9, math.nan), "efficiencies[1]"),
        ],
        ids=["nan-a", "inf-a", "nan-b", "bool", "nan-fixed"],
    )
    def test_non_numbers_rejected_naming_the_field(self, eps, path):
        # once nan reached run_chain as "cannot convert float NaN to integer", and True read as 1.0
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: must be"):
            flat_spec("B_EFF", efficiencies=eps)

    def test_b_eff_improper_under_flat_rho_rejected(self):
        # a flat rho prior leaves eps1 | x ~ Beta(a - 1, b): once a chain ran, its answer set
        # by the 1e-6 rate of MCMC_FLAT_PRIOR
        for a in (1.0, 0.5):
            with pytest.raises(ValueError, match=r"^efficiencies\[0\]: Beta.*improper"):
                flat_spec("B_EFF", efficiencies=((a, 1.0), 0.9))
        flat_spec("B_EFF", efficiencies=((1.5, 1.0), 0.9))
        flat_spec("B_EFF", efficiencies=(0.9, (1.0, 1.0)))
        flat_spec("B_EFF", priors={"rho": GammaParams(2.0, 1.0), "r2": MCMC_FLAT_PRIOR},
                  efficiencies=((1.0, 1.0), 0.9))
        background = {**FLAT, "rb1": GammaParams(2.0, 2.0), "rb2": GammaParams(2.0, 2.0)}
        flat_spec("B_EFF_BKG", priors=background, efficiencies=((1.0, 1.0), 0.9))

    def test_beta_sum_past_float_range_rejected(self):
        # a / (a + b) would read 1e308 / inf = 0, and NumPy's Beta draws read 0.0
        with pytest.raises(ValueError, match=r"^efficiencies\[0\]: Beta parameters sum"):
            flat_spec("B_EFF", efficiencies=((1e308, 1e308), 0.5))
        spec = flat_spec("B_EFF", efficiencies=((1e307, 1e307), 0.5))
        assert build_model(spec).init_state()["eps1"] == 0.5

    @pytest.mark.parametrize(
        "kwargs,path",
        [
            ({"variant": "A", "efficiencies": (0.9, 0.9)}, "efficiencies"),
            ({"variant": "B_EFF"}, "efficiencies"),
            ({"variant": "B", "priors": {"rho": MCMC_FLAT_PRIOR}}, "priors"),
            ({"variant": "B", "priors": {**FLAT, "r1": MCMC_FLAT_PRIOR}}, "priors"),
            ({"variant": "B", "priors": {**FLAT, "rho": GammaParams(1.0, 0.0)}}, "priors.rho"),
            ({"variant": "B", "monitor": ("rho", "eps1")}, "monitor"),
            ({"variant": "B", "monitor": ()}, "monitor"),
            ({"variant": "C"}, "variant"),
        ],
    )
    def test_errors_start_with_the_field_path(self, kwargs, path):
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: "):
            flat_spec(**kwargs)

    def test_json_priors_and_efficiencies(self):
        spec = flat_spec(
            "B_EFF",
            priors={"rho": "flat", "r2": {"alpha": 2, "beta": 3}},
            efficiencies=({"a": 20, "b": 5}, 0.9),
            monitor=["rho", "eps1"],
        )
        assert spec.priors == {"rho": MCMC_FLAT_PRIOR, "r2": GammaParams(2.0, 3.0)}
        assert spec.monitor == ("rho", "eps1")
        assert build_model(spec).init_state()["eps1"] == 0.8

    @pytest.mark.parametrize("variant", ["A", "B", "B_EFF", "B_EFF_BKG"])
    def test_every_monitorable_name_is_a_model_variable(self, variant):
        kwargs = {}
        if variant == "B_EFF":
            kwargs["efficiencies"] = ((20.0, 5.0), 0.9)
        if variant == "B_EFF_BKG":
            priors = {**FLAT, "rb1": GammaParams(2.0, 2.0), "rb2": GammaParams(2.0, 2.0)}
            kwargs.update(
                priors=priors, efficiencies=((20.0, 5.0), 0.9), background_efficiencies=(0.8, (3.0, 1.0))
            )
        spec = flat_spec(variant, monitor=_VARIABLES[variant], **kwargs)
        chain = run_chain(build_model(spec), 5, burn_in=2, seed=1)
        assert list(chain.monitored) == list(_VARIABLES[variant])
        assert all(np.isfinite(column).all() for column in chain.monitored.values())
        # a monitored fixed efficiency is a constant column of its value
        fixed = {"B_EFF": {"eps2": 0.9}, "B_EFF_BKG": {"epsS2": 0.9, "epsB1": 0.8}}.get(variant, {})
        for name, value in fixed.items():
            assert (chain.monitored[name] == value).all(), name

    def test_from_json_prefixes_the_path(self):
        payload = {
            "variant": "B",
            "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
            "priors": {"rho": "flat", "r2": "flat"},
        }
        assert ModelSpec.from_json(payload) == flat_spec("B")
        with pytest.raises(ValueError, match=r"^spec monitor: "):
            ModelSpec.from_json({**payload, "monitor": ["rho", "zz"]})
        with pytest.raises(ValueError, match=r"^spec data\.x1: must be a non-negative integer"):
            ModelSpec.from_json({**payload, "data": {"x1": 2.5, "T1": 3.0, "x2": 6, "T2": 6.0}})

    def test_background_variant_priors(self):
        spec = ModelSpec(
            variant="B_EFF_BKG",
            data1=D1,
            data2=D2,
            priors={
                "rho": MCMC_FLAT_PRIOR,
                "r2": MCMC_FLAT_PRIOR,
                "rb1": GammaParams(2.0, 4.0),
                "rb2": GammaParams(2.0, 4.0),
            },
            efficiencies=(0.9, 0.9),
        )
        assert spec.variant == "B_EFF_BKG"


class TestBuildModel:
    def test_variant_a_nodes(self):
        model = build_model(flat_spec("A", monitor=_VARIABLES["A"]))
        assert {n.name for n in model.nodes} == {"r1", "r2"}
        # the readouts, bit for bit
        m = run_chain(model, 500, seed=3).monitored
        np.testing.assert_array_equal(m["rho"], m["r1"] / m["r2"])
        np.testing.assert_array_equal(m["lambda1"], m["r1"] * D1.T)
        np.testing.assert_array_equal(m["lambda2"], m["r2"] * D2.T)

    def test_variant_b_nodes(self):
        model = build_model(flat_spec("B", monitor=_VARIABLES["B"]))
        assert {n.name for n in model.nodes} == {"rho", "r2"}
        # the readouts, bit for bit
        m = run_chain(model, 500, burn_in=10, seed=3).monitored
        np.testing.assert_array_equal(m["r1"], m["rho"] * m["r2"])
        np.testing.assert_array_equal(m["lambda1"], m["r1"] * D1.T)
        np.testing.assert_array_equal(m["lambda2"], m["r2"] * D2.T)
        # exact conditional draws: every update is accepted
        assert run_chain(model, 10, burn_in=0, seed=0).acceptance == {"rho": 1.0, "r2": 1.0}

    def test_monitor_validation(self):
        with pytest.raises(ValueError, match="monitor"):
            build_model(flat_spec("B", monitor=("r1", "nope")))

    def test_default_monitor(self):
        chain = run_chain(build_model(flat_spec("B")), 200, burn_in=50, seed=0)
        assert set(chain.monitored) == {"r1", "r2", "rho"}


class TestRunChain:
    def test_reproducible(self):
        model = build_model(flat_spec("B"))
        a = run_chain(model, 2000, seed=42)
        b = run_chain(model, 2000, seed=42)
        for name in a.monitored:
            assert np.array_equal(a.monitored[name], b.monitored[name])

    def test_lengths_and_positivity(self):
        chain = run_chain(build_model(flat_spec("B")), 5000, seed=1)
        for name, draws in chain.monitored.items():
            assert draws.shape == (5000,)
            assert (draws > 0).all(), name

    def test_default_burn_in(self):
        chain = run_chain(build_model(flat_spec("B")), 5000, seed=2)
        assert chain.burn_in == 1000

    def test_variant_a_posterior_means(self):
        chain = run_chain(build_model(flat_spec("A")), 100_000, seed=101)
        s = summarize_chain(chain)
        assert abs(s.variables["r1"].mean - 4 / 3) <= 4 * s.variables["r1"].batch_se
        assert abs(s.variables["r2"].mean - 7 / 6) <= 4 * s.variables["r2"].batch_se

    def test_b_eff_unit_efficiency_matches_b(self):
        eff = run_chain(
            build_model(flat_spec("B_EFF", efficiencies=(1.0, 1.0))), 60_000, seed=5
        )
        s = summarize_chain(eff).variables["rho"]
        assert abs(s.mean - 1.6) <= 4 * s.batch_se

    def test_b_eff_short_chain_starts_near_posterior(self):
        # Fixed efficiencies thin the counts, so the rho posterior is Model B's
        # closed form with T_i -> eps_i * T_i.  Latent counts that started at
        # x_i, far below x_i / eps_i, left a 3000-sweep chain about 6 SE high.
        d1, d2, eps = CountObservation(465, 5.0), CountObservation(800, 5.0), (0.9, 0.24)
        spec = ModelSpec("B_EFF", d1, d2, priors=dict(FLAT), efficiencies=eps)
        s = summarize_chain(run_chain(build_model(spec), 3000, seed=1)).variables["rho"]
        exact = model_b_summaries(
            CountObservation(d1.x, eps[0] * d1.T),
            CountObservation(d2.x, eps[1] * d2.T),
            MCMC_FLAT_PRIOR,
        ).mean
        assert abs(s.mean - exact) <= 5 * s.batch_se

    def test_b_eff_beta_efficiency_runs(self):
        chain = run_chain(
            build_model(flat_spec("B_EFF", efficiencies=((20.0, 5.0), 0.9))),
            20_000,
            seed=6,
        )
        s = summarize_chain(chain)
        assert set(chain.monitored) == {"r1", "r2", "rho"}
        assert s.variables["rho"].mean > 0

    def test_background_reduces_to_b_when_background_vanishes(self):
        spec = ModelSpec(
            variant="B_EFF_BKG",
            data1=D1,
            data2=D2,
            priors={
                "rho": MCMC_FLAT_PRIOR,
                "r2": MCMC_FLAT_PRIOR,
                "rb1": GammaParams(1.0, 1e6),
                "rb2": GammaParams(1.0, 1e6),
            },
            efficiencies=(1.0, 1.0),
        )
        chain = run_chain(build_model(spec), 60_000, seed=7)
        s = summarize_chain(chain).variables["rho"]
        assert abs(s.mean - 1.6) <= 4 * s.batch_se

    def test_background_zero_count_with_tiny_priors(self):
        # Gamma(0.001, 1) rates draw exactly 0.0 about half the time when a
        # channel saw nothing; the empty split must not divide 0 by 0.
        tiny = GammaParams(0.001, 1.0)
        spec = ModelSpec(
            variant="B_EFF_BKG",
            data1=CountObservation(0, 3.0),
            data2=D2,
            priors={"rho": tiny, "r2": MCMC_FLAT_PRIOR, "rb1": tiny, "rb2": GammaParams(2.0, 2.0)},
            efficiencies=(0.9, 0.9),
            monitor=("rho", "s1", "nS1"),
        )
        chain = run_chain(build_model(spec), 2000, seed=13)
        assert (chain.monitored["s1"] == 0).all()
        assert (chain.monitored["rho"] >= 0).all()

    def test_background_split_monitorable(self):
        spec = ModelSpec(
            variant="B_EFF_BKG",
            data1=D1,
            data2=D2,
            priors={
                "rho": MCMC_FLAT_PRIOR,
                "r2": GammaParams(6.25, 1.25),
                "rb1": GammaParams(2.0, 2.0),
                "rb2": GammaParams(2.0, 2.0),
            },
            efficiencies=(0.9, 0.9),
            monitor=("rho", "s1", "s2", "nS1", "nB1"),
        )
        chain = run_chain(build_model(spec), 10_000, seed=8)
        s1 = chain.monitored["s1"]
        assert ((0 <= s1) & (s1 <= D1.x)).all()
        assert (chain.monitored["nS1"] >= chain.monitored["s1"]).all()


K = 20_000  # replicas per invariance check


def _update_all(node, states, rng):
    for state in states:
        node.update(state, rng)


def _column(states, name):
    return np.array([state[name] for state in states], dtype=float)


def _uniform(u):
    assert stats.kstest(u, "uniform").pvalue > 1e-3


def _same_law(a, b):
    """Two samples of one continuous law: KS two-sample test."""
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def _same_counts(a, b, min_count=20):
    """Two samples of one discrete law: chi-square homogeneity over pooled categories."""
    values = np.union1d(a, b)
    table = np.array([[np.sum(a == v) for v in values], [np.sum(b == v) for v in values]])
    rare = table.sum(axis=0) < min_count
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    assert stats.chi2_contingency(table).pvalue > 1e-3


def _same_mean(a, b):
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) <= 4 * se


class TestConditionalUpdates:
    """Each exact conditional update leaves its target law invariant.

    K replicas drawn exactly from the target go through one update, and their
    law afterwards is compared with the target.  Seeds are fixed.
    """

    def test_model_b_rate_updates(self):
        # Flat priors: the Model B posterior is r1 = rho*r2 ~ Gamma(x1+1, T1)
        # and r2 ~ Gamma(x2, T2), independent.
        rng = np.random.default_rng(31)
        nodes = {n.name: n for n in build_model(flat_spec("B")).nodes}
        r1 = rng.gamma(D1.x + 1, 1 / D1.T, K)
        r2 = rng.gamma(D2.x, 1 / D2.T, K)
        states = [{"rho": a / b, "r2": b} for a, b in zip(r1, r2)]
        for name in ("rho", "r2"):
            _update_all(nodes[name], states, rng)
            rho, r2 = _column(states, "rho"), _column(states, "r2")
            u1 = stats.gamma.cdf(rho * r2, D1.x + 1, scale=1 / D1.T)
            u2 = stats.gamma.cdf(r2, D2.x, scale=1 / D2.T)
            _uniform(u1)
            _uniform(u2)
            assert abs(np.corrcoef(u1, u2)[0, 1]) < 4 / math.sqrt(K), name

    def test_b_eff_thinning_and_rate_updates(self):
        # Flat priors, fixed efficiencies: n1 - x1 ~ NegBin(x1 + 1, eps1) with
        # r1 | n1 ~ Gamma(n1 + 1, T1), and n2 - x2 ~ NegBin(x2, eps2) with
        # r2 | n2 ~ Gamma(n2, T2); the two channels are independent.
        eps = (0.6, 0.3)
        rng = np.random.default_rng(32)
        model = build_model(flat_spec("B_EFF", efficiencies=eps))
        nodes = {n.name: n for n in model.nodes}
        n1 = D1.x + rng.negative_binomial(D1.x + 1, eps[0], K)
        n2 = D2.x + rng.negative_binomial(D2.x, eps[1], K)
        r1, r2 = rng.gamma(n1 + 1.0, 1 / D1.T), rng.gamma(n2, 1 / D2.T)
        # the fixed efficiencies are state constants
        states = [
            {**model.init_state(), "rho": a / b, "r2": b, "n1": int(m1), "n2": int(m2)}
            for a, b, m1, m2 in zip(r1, r2, n1, n2)
        ]
        reference = {"n1": n1, "n2": n2}
        for name in ("n1", "n2", "rho", "r2"):
            _update_all(nodes[name], states, rng)
            rho, r2 = _column(states, "rho"), _column(states, "r2")
            n1, n2 = _column(states, "n1"), _column(states, "n2")
            u1 = stats.gamma.cdf(rho * r2, n1 + 1, scale=1 / D1.T)
            u2 = stats.gamma.cdf(r2, n2, scale=1 / D2.T)
            _uniform(u1)
            _uniform(u2)
            assert abs(np.corrcoef(u1, u2)[0, 1]) < 4 / math.sqrt(K), name
            for key in ("n1", "n2"):
                _same_counts(_column(states, key), reference[key])

    def test_b_eff_bkg_channel_updates(self):
        # Rates rho and r2 held fixed; the target is the joint law of
        # (rb1, epsS1, epsB1, s1, nS1, nB1) given x1, drawn by rejection from
        # the generative model.  One sweep over channel 1's nodes starts from
        # one exact sample and is compared with a second one.
        x, t = 4, 3.0
        rho, r2 = 0.8, 1.5
        prior_b, beta_s, beta_b = GammaParams(2.0, 2.0), (6.0, 3.0), (3.0, 3.0)
        spec = ModelSpec(
            variant="B_EFF_BKG",
            data1=CountObservation(x, t),
            data2=D2,
            priors={"rho": MCMC_FLAT_PRIOR, "r2": MCMC_FLAT_PRIOR, "rb1": prior_b, "rb2": prior_b},
            efficiencies=(beta_s, 0.9),
            background_efficiencies=(beta_b, 0.5),
        )
        nodes = {n.name: n for n in build_model(spec).nodes}
        rng = np.random.default_rng(33)

        def exact(size):
            m = 40 * size
            rb = rng.gamma(prior_b.alpha, 1 / prior_b.beta, m)
            eps_s, eps_b = rng.beta(*beta_s, m), rng.beta(*beta_b, m)
            ns, nb = rng.poisson(rho * r2 * t, m), rng.poisson(rb * t, m)
            s = rng.binomial(ns, eps_s)
            keep = np.flatnonzero(s + rng.binomial(nb, eps_b) == x)[:size]
            assert keep.size == size
            return {"rb1": rb[keep], "epsS1": eps_s[keep], "epsB1": eps_b[keep],
                    "s1": s[keep], "nS1": ns[keep], "nB1": nb[keep]}

        start, reference = exact(K), exact(K)
        states = [
            {"rho": rho, "r2": r2, **{key: value[i].item() for key, value in start.items()}}
            for i in range(K)
        ]
        for name in ("rb1", "s1", "epsS1", "epsB1"):
            _update_all(nodes[name], states, rng)
        got = {key: _column(states, key) for key in reference}
        for key in ("rb1", "epsS1", "epsB1"):
            _same_law(got[key], reference[key])
        _same_counts(got["s1"], reference["s1"])
        _same_counts(got["nS1"] - got["s1"], reference["nS1"] - reference["s1"])
        _same_counts(got["nB1"] - (x - got["s1"]), reference["nB1"] - (x - reference["s1"]))
        _same_mean(got["rb1"] * got["nB1"], reference["rb1"] * reference["nB1"])
        _same_mean(got["epsS1"] * got["s1"], reference["epsS1"] * reference["s1"])
        _same_mean(got["epsB1"] * got["nB1"], reference["epsB1"] * reference["nB1"])


class TestSummaries:
    def test_constant_chain(self):
        chain = Chain(
            monitored={"c": np.full(100, 2.5)}, n_iter=100, burn_in=0, seed=None
        )
        v = summarize_chain(chain).variables["c"]
        assert v.sd == 0.0 and v.naive_se == 0.0
        assert all(q == 2.5 for q in v.quantiles.values())

    def test_naive_se_definition(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(size=4096)
        chain = Chain(monitored={"x": draws}, n_iter=4096, burn_in=0, seed=None)
        v = summarize_chain(chain).variables["x"]
        assert v.naive_se == pytest.approx(v.sd / math.sqrt(4096), rel=1e-14)

    def test_quantiles_non_decreasing(self):
        chain = run_chain(build_model(flat_spec("B")), 5000, seed=9)
        for v in summarize_chain(chain).variables.values():
            qs = [v.quantiles[level] for level in (2.5, 25.0, 50.0, 75.0, 97.5)]
            assert qs == sorted(qs)

    def test_duplicated_chain_identity(self):
        rng = np.random.default_rng(4)
        draws = rng.gamma(4.0, size=10_000)
        single = Chain(monitored={"x": draws}, n_iter=10_000, burn_in=0, seed=None)
        double = Chain(
            monitored={"x": np.concatenate([draws, draws])},
            n_iter=20_000,
            burn_in=0,
            seed=None,
        )
        v1 = summarize_chain(single).variables["x"]
        v2 = summarize_chain(double).variables["x"]
        assert v2.mean == pytest.approx(v1.mean, rel=1e-12)
        for level in (2.5, 25.0, 50.0, 75.0, 97.5):
            assert v2.quantiles[level] == pytest.approx(v1.quantiles[level], rel=5e-3)
        assert v2.naive_se == pytest.approx(v1.naive_se / math.sqrt(2), rel=1e-3)

    def test_empty_chain_rejected(self):
        chain = Chain(monitored={"x": np.array([])}, n_iter=0, burn_in=0, seed=None)
        with pytest.raises(ValueError):
            summarize_chain(chain)


class TestFormatting:
    def test_summary_text_layout(self):
        chain = run_chain(build_model(flat_spec("B")), 2000, seed=10)
        text = format_chain_summary(summarize_chain(chain))
        assert "Iterations = 1001:3000" in text
        assert "1. Empirical mean and standard deviation for each variable," in text
        assert "plus standard error of the mean:" in text
        assert "2. Quantiles for each variable:" in text
        for name in ("r1", "r2", "rho"):
            assert f"\n{name} " in text or f"\n{name}" in text
        assert "97.5%" in text and "Naive SE" in text and "Time-series SE" in text

    def test_chain_csv_round_trip(self):
        chain = run_chain(build_model(flat_spec("B")), 50, burn_in=10, seed=11)
        buf = io.StringIO()
        chain_to_csv(chain, buf)
        lines = buf.getvalue().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "iteration"
        assert set(header[1:]) == {"r1", "r2", "rho"}
        assert len(lines) == 51
        first = lines[1].split(",")
        col = header.index("rho")
        assert float(first[col]) == chain.monitored["rho"][0]

    def test_chain_csv_bytes_match_row_writer(self):
        # The former row-by-row writer, kept as the reference for the bytes.
        def row_writer(chain):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            names = list(chain.monitored)
            writer.writerow(["iteration"] + names)
            for i in range(chain.n_iter):
                writer.writerow([i + 1] + [repr(float(chain.monitored[n][i])) for n in names])
            return buf.getvalue()

        odd = np.array([0.1 + 0.2, -0.0, 3.0, 1e-300, 1.7976931348623157e308, math.nan, math.inf])
        fixed = Chain(
            monitored={"x": odd, "k": np.arange(7), "y": np.linspace(0.0, 1.0, 7)},
            n_iter=7,
            burn_in=0,
            seed=None,
        )
        spec = ModelSpec(
            variant="B_EFF_BKG",
            data1=D1,
            data2=D2,
            priors={
                "rho": MCMC_FLAT_PRIOR,
                "r2": MCMC_FLAT_PRIOR,
                "rb1": GammaParams(2.0, 2.0),
                "rb2": GammaParams(2.0, 2.0),
            },
            efficiencies=(0.9, (6.0, 4.0)),
            monitor=("rho", "s1", "nB2", "epsS2", "lambda1"),
        )
        for chain in (fixed, run_chain(build_model(spec), 500, burn_in=10, seed=12)):
            buf = io.StringIO()
            chain_to_csv(chain, buf)
            assert buf.getvalue() == row_writer(chain)
