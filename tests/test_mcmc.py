import io
import math

import numpy as np
import pytest

from rateratio.distributions import GammaParams
from rateratio.inference import CountObservation
from rateratio.ratio import model_b_summaries
from rateratio.mcmc import (
    MCMC_FLAT_PRIOR,
    Chain,
    Model,
    ModelSpec,
    _Node,
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
        model = build_model(flat_spec("A"))
        assert {n.name for n in model.nodes} == {"r1", "r2"}
        assert "rho" in model.deterministics

    def test_variant_b_nodes(self):
        model = build_model(flat_spec("B"))
        assert {n.name for n in model.nodes} == {"rho", "r2"}
        assert "r1" in model.deterministics

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

    def test_acceptance_adapts_to_target(self):
        chain = run_chain(build_model(flat_spec("B")), 20000, seed=3)
        for name in ("rho", "r2"):
            assert 0.25 <= chain.acceptance[name] <= 0.6, name

    def test_single_gamma_target(self):
        # detailed-balance smoke test against a known stationary law
        target = GammaParams(4.0, 3.0)
        spec = flat_spec("A", monitor=("g",))
        node = _Node(
            name="g",
            kind="pos",
            logdensity=lambda s: (target.alpha - 1.0) * math.log(s["g"])
            - target.beta * s["g"],
        )
        model = Model(spec, [node], {}, {"g": 1.0})
        chain = run_chain(model, 100_000, seed=17)
        summary = summarize_chain(chain).variables["g"]
        mean, sd = 4.0 / 3.0, math.sqrt(4.0) / 3.0
        assert abs(summary.mean - mean) <= 4 * summary.batch_se
        assert summary.sd == pytest.approx(sd, rel=0.05)

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
