import csv
import io
import logging
import math
import re
import time

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats
from test_cli import SPLIT_UNDERFLOW_SPEC

from rateratio import mcmc
from rateratio.distributions import GammaParams, _sample_sd, _unit_scaled, gamma_ratio_ppf
from rateratio.inference import CountObservation
from rateratio.ratio import RatioPosteriorSpec, model_b_summaries, ratio_posterior
from rateratio.mcmc import (
    MCMC_FLAT_PRIOR,
    _MAX_POINTS,
    _VARIABLES,
    _readout,
    _thin,
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
        # a flat rho prior leaves eps1 | x ~ Beta(a - 1, b), and epsS1 | x in B_EFF_BKG whatever
        # the split: once a chain ran, its answer set by the 1e-6 rate of MCMC_FLAT_PRIOR
        background = {**FLAT, "rb1": GammaParams(2.0, 2.0), "rb2": GammaParams(2.0, 2.0)}
        for variant, priors, name in (("B_EFF", dict(FLAT), "eps1"), ("B_EFF_BKG", background, "epsS1")):
            for a in (1.0, 0.5):
                with pytest.raises(
                    ValueError, match=rf"^efficiencies\[0\]: Beta.*improper \({name} \| x ~ Beta"
                ):
                    flat_spec(variant, priors=priors, efficiencies=((a, 1.0), 0.9))
            flat_spec(variant, priors=priors, efficiencies=((1.5, 1.0), 0.9))
            flat_spec(variant, priors=priors, efficiencies=(0.9, (1.0, 1.0)))
            informative = {**priors, "rho": GammaParams(2.0, 1.0)}
            flat_spec(variant, priors=informative, efficiencies=((1.0, 1.0), 0.9))
        # the background efficiencies bound nothing
        flat_spec("B_EFF_BKG", priors=background, background_efficiencies=((1.0, 1.0), (0.5, 1.0)))

    @pytest.mark.parametrize("a,moment", [(1.5, "mean"), (2.0, "mean"), (2.5, "sd"), (3.0, "sd")])
    def test_background_signal_efficiency_warns(self, a, moment):
        priors = {**FLAT, "r2": GammaParams(5.0, 1.0), "rb1": GammaParams(2.0, 2.0),
                  "rb2": GammaParams(2.0, 2.0)}
        spec = flat_spec("B_EFF_BKG", priors=priors, efficiencies=((a, 2.0), 0.9))
        assert spec.warning() == (
            f"efficiencies[0]: Beta({a:g}, 2) under a flat rho prior gives rho an infinite "
            f"posterior {moment}"
        )
        assert flat_spec("B_EFF_BKG", priors=priors, efficiencies=((3.5, 2.0), 0.9)).warning() is None

    @pytest.mark.parametrize("variant", ["B", "B_EFF"])
    def test_flat_rho_bound_on_r2(self, variant):
        # a flat rho prior leaves r2 | x going as r2^(alpha2 + x2 - 2) near 0: proper only for
        # alpha2 + x2 > 1, with a finite rho mean for > 2 and sd for > 3.  x2 = 0 under a flat r2
        # once ran, its rho mean set by the 1e-6 rate of MCMC_FLAT_PRIOR
        eps = {"efficiencies": (0.9, (2.0, 2.0))} if variant == "B_EFF" else {}

        def spec(x2, r2=MCMC_FLAT_PRIOR, rho=MCMC_FLAT_PRIOR):
            data2 = CountObservation(x2, 1.0)
            return ModelSpec(variant, D1, data2, priors={"rho": rho, "r2": r2}, **eps)

        for r2 in (MCMC_FLAT_PRIOR, GammaParams(0.5, 1.0), GammaParams(1.0, 5.0)):
            with pytest.raises(ValueError, match=r"^priors\.r2: Gamma.*improper.*alpha2 \+ x2 > 1"):
                spec(0, r2)
        prefix = "priors.r2: Gamma(1, 1e-06) with x2 = {} under a flat rho prior gives rho "
        assert spec(1).warning() == prefix.format(1) + "an infinite posterior mean"
        assert spec(2).warning() == prefix.format(2) + "an infinite posterior sd"
        assert spec(3).warning() is None
        assert spec(0, GammaParams(2.5, 1.0)).warning().endswith("an infinite posterior sd")
        # an informative rho prior bounds nothing
        assert spec(0, rho=GammaParams(2.0, 1.0)).warning() is None

    def test_flat_rho_bounds_share_one_warning(self):
        data2 = CountObservation(1, 1.0)
        spec = ModelSpec("B_EFF", D1, data2, priors=dict(FLAT), efficiencies=((2.5, 1.0), 0.9))
        assert spec.warning() == (
            "efficiencies[0]: Beta(2.5, 1) under a flat rho prior gives rho an infinite posterior "
            "sd; priors.r2: Gamma(1, 1e-06) with x2 = 1 under a flat rho prior gives rho an "
            "infinite posterior mean"
        )

    def test_background_variant_has_no_r2_bound(self):
        # its background can absorb every count of channel 2; that bound is left to a later rule
        priors = {**FLAT, "rb1": GammaParams(2.0, 2.0), "rb2": GammaParams(2.0, 2.0)}
        spec = ModelSpec("B_EFF_BKG", D1, CountObservation(0, 1.0), priors=priors)
        assert spec.warning() is None

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
        with pytest.raises(ValueError, match=r"^spec data\.x1 must be a whole number >= 0, got 2\.5$"):
            ModelSpec.from_json({**payload, "data": {"x1": 2.5, "T1": 3.0, "x2": 6, "T2": 6.0}})
        with pytest.raises(ValueError, match=r"^spec data\.T2 must be finite and > 0, got 0\.0$"):
            ModelSpec.from_json({**payload, "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 0}})
        with pytest.raises(ValueError, match=r"^spec priors\.r2\.beta must be finite and >= 0, got -1\.0$"):
            ModelSpec.from_json({**payload, "priors": {"rho": "flat", "r2": {"alpha": 2, "beta": -1}}})
        with pytest.raises(ValueError, match=r"^spec efficiencies\[0\]\.b must be finite and > 0, got 0\.0$"):
            ModelSpec.from_json({**payload, "variant": "B_EFF", "efficiencies": [{"a": 2, "b": 0}, 0.9]})

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


def _mixed_spec(variant, monitor=("r1", "r2", "rho")):
    """The variant with a fixed and a Beta efficiency in each pair; B_EFF and B_EFF_BKG run Gibbs sweeps."""
    if variant == "B_EFF":
        return flat_spec(variant, efficiencies=(0.9, (20.0, 5.0)), monitor=monitor)
    if variant == "B_EFF_BKG":
        priors = {**FLAT, "rb1": GammaParams(2.0, 2.0), "rb2": GammaParams(2.0, 2.0)}
        return flat_spec(variant, priors=priors, efficiencies=((20.0, 5.0), 0.9),
                         background_efficiencies=(0.8, (3.0, 1.0)), monitor=monitor)
    return flat_spec(variant, monitor=monitor)


class TestBuildModel:
    @pytest.mark.parametrize("variant", ["A", "B", "B_EFF", "B_EFF_BKG"])
    def test_what_no_sampler_draws_has_a_readout(self, variant):
        model = build_model(_mixed_spec(variant))
        # Model A's drawer draws r1 and r2; in the B family every sampler draws nodes only
        drawn = {n.name for n in model.nodes} or set(model.draw(np.random.default_rng(0), 1)[0])
        assert set(_VARIABLES[variant]) - drawn <= set(model.readouts)

    @pytest.mark.parametrize("monitor, recorded", [
        (("nS1",), {"rho", "r2", "s1"}),
        (("r1", "lambda1"), {"rho", "r2"}),
        (("lambda2", "epsS2"), {"r2"}),
        (("rb2", "nB2"), {"rb2", "nB2"}),
    ], ids=["thinned", "rates", "constant", "nodes"])
    def test_a_sweep_records_what_its_monitor_reads(self, monitor, recorded):
        # nS1 at a fixed epsS1 is thinned from s1 and its mean rho * r2 * T1; nB2 at a Beta epsB2 is a node
        spec = ModelSpec(
            variant="B_EFF_BKG", data1=D1, data2=D2, monitor=monitor,
            priors={**FLAT, "rb1": GammaParams(2.0, 2.0), "rb2": GammaParams(2.0, 2.0)},
            efficiencies=(0.9, 0.9), background_efficiencies=(0.8, (3.0, 1.0)),
        )
        model = build_model(spec)
        columns = model.sweep(model.init_state(), np.random.default_rng(0), 2, 3)
        assert set(columns) == recorded
        assert all(len(column) == 3 for column in columns.values())

    @pytest.mark.parametrize("variant", ["B_EFF", "B_EFF_BKG"])
    def test_a_variable_monitored_alone_reads_the_draws(self, variant):
        # beside every node, or alone, a variable reads the same draws: no readout falls back to the start
        nodes = [n.name for n in build_model(_mixed_spec(variant)).nodes]
        for name in _VARIABLES[variant]:
            alone, beside = (
                run_chain(build_model(_mixed_spec(variant, monitor)), 50, burn_in=5, seed=2).monitored[name]
                for monitor in ((name,), (name, *(node for node in nodes if node != name)))
            )
            np.testing.assert_array_equal(alone, beside, err_msg=name)

    def test_variant_a_nodes(self):
        priors = {"r1": GammaParams(2.5, 0.75), "r2": MCMC_FLAT_PRIOR}
        model = build_model(flat_spec("A", priors=priors, monitor=_VARIABLES["A"]))
        # drawn iid from each rate's conjugate update: no Gibbs node, no initial state
        assert model.nodes == ()
        chain = run_chain(model, 500, seed=3)
        assert chain.acceptance == {"r1": 1.0, "r2": 1.0}
        m, rng = chain.monitored, np.random.default_rng(3)
        for name, prior, data in (("r1", priors["r1"], D1), ("r2", priors["r2"], D2)):
            want = rng.standard_gamma(prior.alpha + data.x, 500) / (prior.beta + data.T)
            np.testing.assert_array_equal(m[name], want)
        # the readouts, bit for bit
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
        # drawn iid: the flat stand-in's rejection step turns down about 1e-6 * rho of the proposals
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

    @pytest.mark.parametrize("n_iter,burn_in,name", [(50.5, None, "n_iter"), (50, 5.5, "burn_in")])
    def test_fractional_size_refused(self, n_iter, burn_in, name):
        # once silently truncated
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number >= [01], got \d+\.5$"):
            run_chain(build_model(flat_spec("A")), n_iter, burn_in=burn_in, seed=1)

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_negative_burn_in_refused(self, variant):
        # once ran and reported burn_in = -5, printed as "Iterations = -4:45"
        with pytest.raises(ValueError, match=r"^burn_in must be a whole number >= 0, got -5$"):
            run_chain(build_model(flat_spec(variant)), 50, burn_in=-5, seed=1)

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

    def test_b_eff_fixed_efficiency_produced_counts(self):
        # Flat priors, fixed efficiencies: the rates are Model B's with T_i -> eps_i*T_i,
        # and the produced counts read out behind them follow n1 - x1 ~ NegBin(x1 + 1, eps1)
        # and n2 - x2 ~ NegBin(x2, eps2).  Every 10th draw is kept, so that the kept
        # draws are close to independent.
        eps = (0.6, 0.3)
        spec = flat_spec("B_EFF", efficiencies=eps, monitor=("n1", "n2"))
        chain = run_chain(build_model(spec), 50_000, seed=35)
        for name, x, shape, p in (("n1", D1.x, D1.x + 1, eps[0]), ("n2", D2.x, D2.x, eps[1])):
            unseen = chain.monitored[name][::10] - x
            law = stats.nbinom(shape, p)
            # one bin per value up to where fewer than 20 draws are expected, then the tail
            top = int(law.isf(20 / unseen.size))
            observed = [np.sum(unseen == k) for k in range(top)] + [np.sum(unseen >= top)]
            expected = unseen.size * np.append(law.pmf(np.arange(top)), law.sf(top - 1))
            assert stats.chisquare(observed, expected).pvalue > 1e-3, name


K = 20_000  # replicas per invariance check


def _update_all(node, states, rng):
    for state in states:
        state[node.name] = node.update(state, rng)


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

    @pytest.mark.parametrize(
        "variant,eps", [("B", (1.0, 1.0)), ("B_EFF", (0.6, 0.3))], ids=["B", "B_EFF-fixed"]
    )
    def test_model_b_rate_updates(self, variant, eps):
        # Flat priors: the Model B posterior is r1 = rho*r2 ~ Gamma(x1+1, T1)
        # and r2 ~ Gamma(x2, T2), independent.  Fixed efficiencies thin each
        # seen count to Pois(r_i * eps_i * T_i): they only scale the exposures
        # to eps_i*T_i, and B_EFF draws no latent count.
        e1, e2 = eps[0] * D1.T, eps[1] * D2.T
        rng = np.random.default_rng(31)
        model = build_model(flat_spec(variant, **({"efficiencies": eps} if variant != "B" else {})))
        assert [n.name for n in model.nodes] == ["rho", "r2"]
        nodes = {n.name: n for n in model.nodes}
        r1 = rng.gamma(D1.x + 1, 1 / e1, K)
        r2 = rng.gamma(D2.x, 1 / e2, K)
        states = [{**model.init_state(), "rho": a / b, "r2": b} for a, b in zip(r1, r2)]
        for name in ("rho", "r2"):
            _update_all(nodes[name], states, rng)
            rho, r2 = _column(states, "rho"), _column(states, "r2")
            u1 = stats.gamma.cdf(rho * r2, D1.x + 1, scale=1 / e1)
            u2 = stats.gamma.cdf(r2, D2.x, scale=1 / e2)
            _uniform(u1)
            _uniform(u2)
            assert abs(np.corrcoef(u1, u2)[0, 1]) < 4 / math.sqrt(K), name

    def test_b_eff_thinning_and_rate_updates(self):
        # Flat priors, efficiencies held at eps: n1 - x1 ~ NegBin(x1 + 1, eps1) with
        # r1 | n1 ~ Gamma(n1 + 1, T1), and n2 - x2 ~ NegBin(x2, eps2) with
        # r2 | n2 ~ Gamma(n2, T2); the two channels are independent.  Only Beta
        # efficiencies give latent counts, so the model has them, and the states
        # hold them at eps: no efficiency node runs.
        eps = (0.6, 0.3)
        rng = np.random.default_rng(32)
        model = build_model(flat_spec("B_EFF", efficiencies=((6.0, 4.0), (3.0, 7.0))))
        nodes = {n.name: n for n in model.nodes}
        n1 = D1.x + rng.negative_binomial(D1.x + 1, eps[0], K)
        n2 = D2.x + rng.negative_binomial(D2.x, eps[1], K)
        r1, r2 = rng.gamma(n1 + 1.0, 1 / D1.T), rng.gamma(n2, 1 / D2.T)
        states = [
            {"eps1": eps[0], "eps2": eps[1], "rho": a / b, "r2": b, "n1": int(m1), "n2": int(m2)}
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

    @pytest.mark.parametrize("mean", [2e19, math.nan, np.array([1.0, 2e19]), np.array([math.nan])],
                             ids=["gibbs", "gibbs-nan", "readout", "readout-nan"])
    def test_thin_refuses_counts_past_int64(self, mean):
        # past a mean of about 9.22e18 NumPy's Poisson draw raises "lam value too large"
        refusal = r"^nB2: the produced count's mean reads .*, past the int64 range$"
        with pytest.raises(ValueError, match=refusal):
            _thin("nB2", 4, mean, 0.5, np.random.default_rng(0))
        assert _thin("nB2", 4, 2 * 9.1e18, 0.5, np.random.default_rng(0)) >= 9.0e18

    def test_thin_draws_up_to_numpys_poisson_limit(self):
        limit = 9.223372006484771e18  # INT64_MAX - 10 sqrt(INT64_MAX), where NumPy's poisson still draws
        assert _thin("nB2", 0, limit, 0.0, np.random.default_rng(0)) > 9.2e18
        with pytest.raises(ValueError, match="^nB2: the produced count's mean reads 9.22e"):
            _thin("nB2", 0, np.nextafter(limit, np.inf), 0.0, np.random.default_rng(0))

    def test_split_refuses_alike_in_both_evaluators(self):
        # node.update and the compiled sweep evaluate one expression, whose law refuses a split of 0 / 0
        refusal = "^s1: both seen means of channel 1 underflow to 0, so its split is undefined$"
        priors = {**FLAT, "rb1": GammaParams(2.0, 2.0), "rb2": GammaParams(2.0, 2.0)}
        model = build_model(flat_spec("B_EFF_BKG", priors=priors))
        split = {node.name: node for node in model.nodes}["s1"]
        with pytest.raises(ValueError, match=refusal):
            split.update({**model.init_state(), "rho": 0.0, "rb1": 0.0}, np.random.default_rng(0))
        # under this spec both seen means of channel 1 underflow in the first sweep
        model = build_model(ModelSpec.from_json(SPLIT_UNDERFLOW_SPEC))
        with pytest.raises(ValueError, match=refusal):
            model.sweep(model.init_state(), np.random.default_rng(1), 0, 200)

    def test_b_eff_bkg_channel_updates(self):
        # Rates rho and r2 held fixed; the target is the joint law of
        # (rb_i, epsS_i, epsB_i, s_i, nS_i, nB_i) given x_i, drawn by rejection
        # from the generative model.  Channel 1 has Beta efficiencies.  Channel 2
        # has fixed ones, which add no node: there rb2 | s2 ~ Gamma(a + x2 - s2,
        # b + epsB2*T2), and _readout draws nS2 and nB2 by thinning.  One sweep over
        # each channel's nodes starts from one exact sample and is compared with a
        # second one.
        rho, r2 = 0.8, 1.5
        prior_b = GammaParams(2.0, 2.0)
        data = {1: CountObservation(4, 3.0), 2: CountObservation(3, 2.0)}
        eff_s, eff_b = {1: (6.0, 3.0), 2: 0.7}, {1: (3.0, 3.0), 2: 0.4}
        spec = ModelSpec(
            variant="B_EFF_BKG",
            data1=data[1],
            data2=data[2],
            priors={"rho": MCMC_FLAT_PRIOR, "r2": MCMC_FLAT_PRIOR, "rb1": prior_b, "rb2": prior_b},
            efficiencies=(eff_s[1], eff_s[2]),
            background_efficiencies=(eff_b[1], eff_b[2]),
        )
        model = build_model(spec)
        nodes = {n.name: n for n in model.nodes}
        rng = np.random.default_rng(33)

        def exact(i, size):
            x, t, m = data[i].x, data[i].T, 40 * size
            rb = rng.gamma(prior_b.alpha, 1 / prior_b.beta, m)
            eps_s, eps_b = (
                rng.beta(*eff, m) if isinstance(eff, tuple) else np.full(m, eff)
                for eff in (eff_s[i], eff_b[i])
            )
            ns, nb = rng.poisson((rho * r2 if i == 1 else r2) * t, m), rng.poisson(rb * t, m)
            s = rng.binomial(ns, eps_s)
            keep = np.flatnonzero(s + rng.binomial(nb, eps_b) == x)[:size]
            assert keep.size == size
            draws = {"rb": rb, "epsS": eps_s, "epsB": eps_b, "s": s, "nS": ns, "nB": nb}
            return {f"{key}{i}": value[keep] for key, value in draws.items()}

        def check_legs(i, got, reference):
            x = data[i].x
            _same_counts(got[f"s{i}"], reference[f"s{i}"])
            for key, seen in ((f"nS{i}", got[f"s{i}"]), (f"nB{i}", x - got[f"s{i}"])):
                ref_seen = reference[f"s{i}"] if key[1] == "S" else x - reference[f"s{i}"]
                _same_counts(got[key] - seen, reference[key] - ref_seen)
            _same_mean(got[f"rb{i}"] * got[f"nB{i}"], reference[f"rb{i}"] * reference[f"nB{i}"])

        # channel 1: every latent count and efficiency has a node
        start, reference = exact(1, K), exact(1, K)
        states = [
            {"rho": rho, "r2": r2, **{key: value[i].item() for key, value in start.items()}}
            for i in range(K)
        ]
        for name in ("rb1", "s1", "nS1", "nB1", "epsS1", "epsB1"):
            _update_all(nodes[name], states, rng)
        got = {key: _column(states, key) for key in reference}
        for key in ("rb1", "epsS1", "epsB1"):
            _same_law(got[key], reference[key])
        check_legs(1, got, reference)
        _same_mean(got["epsS1"] * got["s1"], reference["epsS1"] * reference["s1"])
        _same_mean(got["epsB1"] * got["nB1"], reference["epsB1"] * reference["nB1"])

        # channel 2: the fixed efficiencies are state constants, and only rb2 and s2 have nodes
        assert not {"nS2", "nB2", "epsS2", "epsB2"} & set(nodes)
        start, reference = exact(2, K), exact(2, K)
        states = [
            {**model.init_state(), "rho": rho, "r2": r2, "rb2": rb.item(), "s2": split.item()}
            for rb, split in zip(start["rb2"], start["s2"])
        ]
        for name in ("rb2", "s2"):
            _update_all(nodes[name], states, rng)
        got = {key: _column(states, key) for key in ("rb2", "s2")}
        columns = {**got, "rho": np.full(K, rho), "r2": np.full(K, r2)}
        got.update({key: _readout(key, columns, model, rng) for key in ("nS2", "nB2")})
        _same_law(got["rb2"], reference["rb2"])
        check_legs(2, got, reference)


N_IID = 100_000  # iid draws per oracle check
LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)


def _quantiles_match(draws, ppf):
    """At each level p, the share of draws at or below the exact p-quantile is p within 5 binomial SE."""
    for p in LEVELS:
        share = np.mean(draws <= ppf(p))
        assert abs(share - p) <= 5 * math.sqrt(p * (1 - p) / draws.size), (p, share)


def _tilted_rho_law(d1, d2, beta_rho, pr2):
    """(ppf, mean) of rho in Model B under rho ~ Gamma(1, beta_rho) and r2 ~ pr2, by quadrature.

    Integrating r2 out leaves f(rho) ∝ exp(-beta_rho rho) rho^x1 (beta2 + T2 + rho T1)^-(alpha2 + x1 + x2).
    The density is summed by the trapezoid rule on a fine log-spaced grid.
    """
    rate = pr2.beta + d2.T
    scale = (d1.x + 1) / (beta_rho + (pr2.alpha + d2.x) / rate * d1.T)
    grid = scale * np.logspace(-6, 3, 200_001)
    log_f = -beta_rho * grid + d1.x * np.log(grid) - (pr2.alpha + d1.x + d2.x) * np.log1p(grid * d1.T / rate)
    f = np.exp(log_f - log_f.max())
    cdf = integrate.cumulative_trapezoid(f, grid, initial=0.0)
    mean = integrate.trapezoid(grid * f, grid) / cdf[-1]
    return (lambda p: np.interp(p, cdf / cdf[-1], grid)), mean


class TestIidDraws:
    """The iid draws of the B family against exact laws that each test builds itself.

    Under a flat rho prior, Model B's rho is a Gamma ratio, (beta2 + T2)/T1 times
    BetaPrime(x1 + 1, alpha2 + x2 - 1): Model A's law with x2 -> x2 - 1, and a
    fixed efficiency scales T_i to eps_i*T_i.  Seeds are fixed.
    """

    @pytest.mark.parametrize(
        "variant,eps,pr2",
        [("B", None, MCMC_FLAT_PRIOR), ("B", None, GammaParams(2.5, 0.5)),
         ("B_EFF", (0.6, 0.3), GammaParams(2.5, 0.5))],
        ids=["B-flat", "B-gamma-r2", "B_EFF-fixed"],
    )
    def test_rho_quantiles(self, variant, eps, pr2):
        kwargs = {"efficiencies": eps} if eps else {}
        spec = ModelSpec(variant, D1, D2, priors={"rho": MCMC_FLAT_PRIOR, "r2": pr2}, **kwargs)
        model = build_model(spec)
        assert model.draw is not None
        rho = run_chain(model, N_IID, seed=40).monitored["rho"]
        e1, e2 = eps or (1.0, 1.0)
        if pr2 == MCMC_FLAT_PRIOR:
            law = ratio_posterior(RatioPosteriorSpec(
                "A", CountObservation(D1.x, e1 * D1.T), CountObservation(D2.x - 1, e2 * D2.T)))
            _quantiles_match(rho, law.ppf)
        else:
            p1 = GammaParams(D1.x + 1.0, e1 * D1.T)
            p2 = GammaParams(pr2.alpha + D2.x - 1.0, pr2.beta + e2 * D2.T)
            _quantiles_match(rho, lambda p: gamma_ratio_ppf(p, p1, p2))

    def test_beta_efficiency_laws(self):
        # Flat rho prior, eps1 ~ Beta(a, b), eps2 fixed: eps1 | x ~ Beta(a - 1, b) and
        # r2 | x ~ Gamma(alpha2 + x2 - 1, beta2 + eps2*T2), independent; rho | eps1, r2 ~
        # Gamma(x1 + 1, eps1*r2*T1); and n1 - x1 | rest ~ Pois(rho*r2*T1*(1 - eps1)).
        (a, b), eps2, pr2 = (6.0, 4.0), 0.5, GammaParams(2.0, 0.5)
        spec = ModelSpec("B_EFF", D1, D2, priors={"rho": MCMC_FLAT_PRIOR, "r2": pr2},
                         efficiencies=((a, b), eps2), monitor=("rho", "r2", "eps1", "n1"))
        m = run_chain(build_model(spec), N_IID, seed=41).monitored
        u_eps = stats.beta.cdf(m["eps1"], a - 1, b)
        u_r2 = stats.gamma.cdf(m["r2"], pr2.alpha + D2.x - 1, scale=1 / (pr2.beta + eps2 * D2.T))
        for u in (u_eps, u_r2, stats.gamma.cdf(m["rho"] * m["eps1"] * m["r2"] * D1.T, D1.x + 1)):
            _uniform(u)
        assert abs(np.corrcoef(u_eps, u_r2)[0, 1]) < 4 / math.sqrt(N_IID)
        # the unseen count's mean given eps1, on either side of eps1's median
        unseen = m["n1"] - D1.x - m["rho"] * m["r2"] * D1.T * (1 - m["eps1"])
        low = m["eps1"] < np.median(m["eps1"])
        for part in (unseen[low], unseen[~low]):
            assert abs(part.mean()) <= 5 * part.std() / math.sqrt(part.size)

    def test_exponential_rho_prior(self):
        # rho ~ Gamma(1, 0.5) tilts the posterior by exp(-0.5 rho), and the rejection step turns
        # down about 40% of the proposals.  Its acceptance rate is E[(1 + beta_rho/(r2*T1))^-(x1+1)]
        # over the proposal r2 ~ Gamma(alpha2 + x2 - 1, beta2 + T2).
        d1, d2, beta_rho, pr2 = CountObservation(30, 3.0), CountObservation(60, 6.0), 0.5, MCMC_FLAT_PRIOR
        spec = ModelSpec("B", d1, d2, priors={"rho": GammaParams(1.0, beta_rho), "r2": pr2})
        chain = run_chain(build_model(spec), N_IID, seed=42)
        proposal = stats.gamma(pr2.alpha + d2.x - 1, scale=1 / (pr2.beta + d2.T))
        exact = integrate.quad(
            lambda r2: proposal.pdf(r2) * (1 + beta_rho / (r2 * d1.T)) ** -(d1.x + 1.0),
            0, proposal.isf(1e-15), points=[proposal.mean()],
        )[0]
        assert 0.5 < exact < 0.7
        rate = chain.acceptance["rho"]
        assert abs(rate - exact) <= 5 * math.sqrt(exact * (1 - exact) * rate / N_IID)
        assert chain.acceptance["r2"] == 1.0
        ppf, mean = _tilted_rho_law(d1, d2, beta_rho, pr2)
        rho = chain.monitored["rho"]
        _quantiles_match(rho, ppf)
        assert abs(rho.mean() - mean) <= 5 * rho.std() / math.sqrt(N_IID)

    def test_background_splits_and_rates(self):
        # Fixed efficiencies, alpha2 > 1, flat rho.  With rho and the background rates integrated
        # out, the splits are independent: s1 ∝ NB(x1 - s1; alpha_b1, q1) and
        # s2 ∝ NB(s2; alpha2 - 1, p2) * NB(x2 - s2; alpha_b2, q2), NB(k; alpha, p) ∝
        # Gamma(alpha + k)/k! p^k with q_i = epsB_i*T_i/(beta_b_i + epsB_i*T_i) and
        # p2 = epsS2*T2/(beta2 + epsS2*T2).  Given the splits rho is
        # (beta2 + epsS2*T2)/(epsS1*T1) * BetaPrime(1 + s1, alpha2 - 1 + s2), and
        # rb_i ~ Gamma(alpha_b_i + x_i - s_i, beta_b_i + epsB_i*T_i).
        data = (CountObservation(40, 2.0), CountObservation(25, 4.0))
        eps_s, eps_b = (0.8, 0.6), (0.5, 0.9)
        pr2, prb = GammaParams(2.0, 0.5), (GammaParams(2.0, 1.5), GammaParams(2.0, 2.5))
        spec = ModelSpec(
            "B_EFF_BKG", *data,
            priors={"rho": MCMC_FLAT_PRIOR, "r2": pr2, "rb1": prb[0], "rb2": prb[1]},
            efficiencies=eps_s, background_efficiencies=eps_b,
            monitor=("rho", "s1", "s2", "rb1", "rb2"),
        )
        m = run_chain(build_model(spec), N_IID, seed=43).monitored

        def nb(k, prior, exposure):
            # scipy's nbinom counts failures at success probability 1 - p
            return stats.nbinom.pmf(k, prior.alpha, prior.beta / (prior.beta + exposure))

        s1, s2 = np.arange(data[0].x + 1), np.arange(data[1].x + 1)
        w1 = nb(data[0].x - s1, prb[0], eps_b[0] * data[0].T)
        w2 = nb(s2, GammaParams(pr2.alpha - 1, pr2.beta), eps_s[1] * data[1].T)
        w2 = w2 * nb(data[1].x - s2, prb[1], eps_b[1] * data[1].T)
        w1, w2 = w1 / w1.sum(), w2 / w2.sum()
        for key, s, w in (("s1", s1, w1), ("s2", s2, w2)):
            mean = np.sum(s * w)
            sd = math.sqrt(np.sum((s - mean) ** 2 * w))
            assert abs(m[key].mean() - mean) <= 5 * sd / math.sqrt(N_IID), key
        scale = (pr2.beta + eps_s[1] * data[1].T) / (eps_s[0] * data[0].T)
        shapes = (1.0 + s1[:, None], pr2.alpha - 1.0 + s2[None, :])

        def cdf(rho):
            return np.sum(w1[:, None] * w2[None, :] * stats.betaprime.cdf(rho / scale, *shapes))

        _quantiles_match(m["rho"], lambda p: optimize.brentq(lambda r: cdf(r) - p, 1e-9, 1e9))
        for i, (d, prior, eps) in enumerate(zip(data, prb, eps_b), start=1):
            _uniform(stats.gamma.cdf(m[f"rb{i}"] * (prior.beta + eps * d.T), prior.alpha + d.x - m[f"s{i}"]))

    def test_poor_acceptance_falls_back_to_gibbs(self, caplog):
        # rho ~ Gamma(1, 1e3) with x1 = 300: beta_rho*rho is near 300, and the rejection step
        # would accept about (r2*T1/beta_rho)^301 of the proposals.  The chain runs Gibbs sweeps.
        d1, beta_rho = CountObservation(300, 3.0), 1e3
        spec = ModelSpec("B", d1, D2, priors={"rho": GammaParams(1.0, beta_rho), "r2": MCMC_FLAT_PRIOR})
        model = build_model(spec)
        assert model.draw is not None
        start = time.perf_counter()
        with caplog.at_level(logging.INFO, logger="rateratio.mcmc"):
            chain = run_chain(model, 20_000, seed=44)
        assert time.perf_counter() - start < 5.0
        assert "running Gibbs sweeps" in caplog.text
        assert chain.acceptance == {"rho": 1.0, "r2": 1.0}
        rho = summarize_chain(chain).variables["rho"]
        _, mean = _tilted_rho_law(d1, D2, beta_rho, MCMC_FLAT_PRIOR)
        assert abs(rho.mean - mean) <= 5 * rho.batch_se

    def test_split_table_size_is_capped(self):
        # the split tables hold x_i + 1 points each: past _MAX_POINTS the chain runs Gibbs sweeps
        priors = {**FLAT, "r2": GammaParams(2.0, 1.0), "rb1": GammaParams(2.0, 2.0),
                  "rb2": GammaParams(2.0, 2.0)}
        for x1, iid in ((_MAX_POINTS - 1, True), (_MAX_POINTS, False)):
            spec = ModelSpec("B_EFF_BKG", CountObservation(x1, 1.0), D2, priors=priors)
            assert (build_model(spec).draw is not None) == iid

    @pytest.mark.parametrize(
        "variant,priors,eps,eps_b,iid",
        [
            ("A", {"r1": MCMC_FLAT_PRIOR, "r2": MCMC_FLAT_PRIOR}, None, None, True),
            ("B", FLAT, None, None, True),
            ("B", {**FLAT, "rho": GammaParams(1.0, 0.5)}, None, None, True),
            ("B", {**FLAT, "rho": GammaParams(2.0, 1.0)}, None, None, False),
            ("B_EFF", FLAT, ((6.0, 4.0), 0.5), None, True),
            ("B_EFF", FLAT, (0.6, (6.0, 4.0)), None, False),
            ("B_EFF", {**FLAT, "rho": GammaParams(1.0, 0.5)}, ((0.5, 4.0), 0.5), None, False),
            ("B_EFF_BKG", {"r2": GammaParams(2.0, 1.0)}, (0.8, 0.6), (0.5, 0.9), True),
            ("B_EFF_BKG", {"r2": GammaParams(2.0, 1.0)}, ((3.0, 2.0), 0.6), (0.5, 0.9), True),
            ("B_EFF_BKG", {}, (0.8, 0.6), (0.5, 0.9), False),
            ("B_EFF_BKG", {"r2": GammaParams(2.0, 1.0)}, (0.8, (6.0, 4.0)), (0.5, 0.9), False),
            ("B_EFF_BKG", {"r2": GammaParams(2.0, 1.0)}, (0.8, 0.6), ((3.0, 3.0), 0.9), False),
        ],
        ids=["A", "B-flat", "B-exponential", "B-gamma-rho", "B_EFF-beta-eps1", "B_EFF-beta-eps2",
             "B_EFF-beta-eps1-a<1", "BKG-fixed", "BKG-beta-epsS1", "BKG-flat-r2", "BKG-beta-epsS2",
             "BKG-beta-epsB1"],
    )
    def test_which_specs_are_drawn_iid(self, variant, priors, eps, eps_b, iid):
        # closed-form laws need an exponential rho prior, every efficiency but eps1 fixed, a > 1
        # for a Beta eps1, and alpha2 + x2 > 1 (alpha2 > 1 in B_EFF_BKG)
        if variant == "B_EFF_BKG":
            priors = {**FLAT, "rb1": GammaParams(2.0, 2.0), "rb2": GammaParams(2.0, 2.0), **priors}
        spec = ModelSpec(variant, D1, D2, priors=priors, efficiencies=eps, background_efficiencies=eps_b)
        assert (build_model(spec).draw is not None) == iid


class _Chains:
    """A Generator whose every draw has the shape (k,): k independent chains held in one state."""

    def __init__(self, k: int, seed: int):
        self.k, self.rng = k, np.random.default_rng(seed)

    def __getattr__(self, name):
        method = getattr(self.rng, name)
        return lambda *args: method(*np.broadcast_arrays(*args, np.empty(self.k))[:-1])


def _gibbs_states(model, k, sweeps, seed):
    """The state of k independent chains, each started at model.init_state(), after the sweeps."""
    rng, state = _Chains(k, seed), model.init_state()
    for _ in range(sweeps):
        for node in model.nodes:
            state[node.name] = node.update(state, rng)
    return state


GIBBS_CASES = {
    "B": (ModelSpec("B", CountObservation(30, 3.0), CountObservation(60, 6.0), priors=dict(FLAT)), 20_000, 50),
    "B_EFF": (
        ModelSpec("B_EFF", CountObservation(90, 3.0), CountObservation(120, 6.0),
                  priors={"rho": MCMC_FLAT_PRIOR, "r2": GammaParams(2.0, 0.5)},
                  efficiencies=((6.0, 4.0), 0.5), monitor=("rho", "r2", "eps1", "n1")),
        4_000, 800,
    ),
    "B_EFF_BKG": (
        ModelSpec("B_EFF_BKG", CountObservation(40, 2.0), CountObservation(25, 4.0),
                  priors={"rho": MCMC_FLAT_PRIOR, "r2": GammaParams(2.0, 0.5),
                          "rb1": GammaParams(2.0, 1.5), "rb2": GammaParams(2.0, 2.5)},
                  efficiencies=(0.8, 0.6), background_efficiencies=(0.5, 0.9),
                  monitor=("rho", "r2", "s1", "s2", "rb1", "rb2")),
        4_000, 400,
    ),
}


class TestGibbsAgainstIid:
    """Gibbs sweeps, driven over model.nodes, reach the law of the iid draws.

    k chains held as arrays in one state start at the model's initial state;
    after the sweeps their states are k independent draws of the chain's law.
    They are compared with run_chain's iid draws: the mean of every variable
    that a node draws within 5 SE, and rho's law by a two-sample KS test.  The
    sweep counts are several times the chains' autocorrelation times (B_EFF's
    latent count and Beta efficiency mix slowest, at an ESS share near 1%).
    """

    @pytest.mark.parametrize("case", list(GIBBS_CASES))
    def test_sweeps_reach_the_iid_law(self, case):
        spec, k, sweeps = GIBBS_CASES[case]
        model = build_model(spec)
        assert model.draw is not None
        gibbs = _gibbs_states(model, k, sweeps, seed=45)
        iid = run_chain(model, N_IID, seed=46).monitored
        names = [name for name in spec.monitor if name in gibbs]
        assert "rho" in names and len(names) >= 2
        for name in names:
            _same_mean(np.asarray(gibbs[name], dtype=float), iid[name])
        _same_law(gibbs["rho"], iid["rho"])


def _deciles(cdf):
    """The nine deciles of a continuous law on (0, inf), by bisection on its CDF."""
    edges = []
    for level in np.arange(1, 10) / 10:
        lo, hi = 0.0, 1.0
        while cdf(hi) < level:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cdf(mid) < level else (lo, mid)
        edges.append(hi)
    return np.array(edges)


def _integrated_time(x):
    """Integrated autocorrelation time of a chain, by Geyer's initial monotone sequence."""
    x = x - x.mean()
    size = 1 << (2 * x.size - 1).bit_length()
    spectrum = np.fft.rfft(x, size)
    acf = np.fft.irfft(spectrum * np.conj(spectrum), size)[: x.size]
    pairs = (acf[:-1:2] + acf[1::2]) / acf[0]
    if (pairs <= 0).any():
        pairs = pairs[: np.argmax(pairs <= 0)]
    return -1.0 + 2.0 * np.minimum.accumulate(pairs).sum()


class TestBackgroundRhoLaw:
    """rho's exact law in fixed-efficiency B_EFF_BKG, against iid draws and Gibbs sweeps.

    Under a flat rho prior, r2 ~ Gamma(alpha2, beta2) and fixed efficiencies,
    integrating rho, r2 and both background rates out leaves independent
    splits, w1(s1) ∝ NB(x1 - s1; alpha_b1, q1) and
    w2(s2) ∝ NB(s2; alpha2 - 1, p2) * NB(x2 - s2; alpha_b2, q2), where
    NB(k; alpha, p) ∝ Gamma(alpha + k)/k! p^k, q_i = epsB_i*T_i/(beta_b_i + epsB_i*T_i)
    and p2 = epsS2*T2/(beta2 + epsS2*T2).  Given the splits rho is
    c * BetaPrime(s1 + 1, alpha2 - 1 + s2) with c = (beta2 + epsS2*T2)/(epsS1*T1), so
    F(q) = sum w1 w2 I_{q/(q+c)}(s1 + 1, alpha2 - 1 + s2).  The test builds F
    from gammaln and betainc alone, and bins the draws by F's deciles for a
    chi-square test.  It covers the split tables, the Beta-prime shape and the
    sweep's split node, which TestGibbsAgainstIid cannot tell apart.

    A Beta(a, b) epsS1 leaves the splits as they are and has epsS1 | x ~
    Beta(a - 1, b), independent of them, so F becomes the mean of that sum over
    epsS1, taken by Gauss-Jacobi quadrature (at the deciles 24 nodes agree with
    48 to 1e-10).
    """

    X, T, EPS_S, EPS_B = (40, 25), (2.0, 4.0), (0.6, 0.8), (0.5, 0.9)
    R2, RB = GammaParams(2.0, 0.5), (GammaParams(2.0, 1.5), GammaParams(2.0, 2.5))

    def _rho_cdf(self, eps_s1):
        def log_nb(k, alpha, p):
            return special.gammaln(alpha + k) - special.gammaln(k + 1.0) + k * math.log(p)

        (x1, x2), (t1, t2), r2 = self.X, self.T, self.R2
        s1, s2 = np.arange(x1 + 1.0), np.arange(x2 + 1.0)
        q1, q2 = (eps * t / (prior.beta + eps * t) for eps, t, prior in zip(self.EPS_B, self.T, self.RB))
        p2 = self.EPS_S[1] * t2 / (r2.beta + self.EPS_S[1] * t2)
        log_w1 = log_nb(x1 - s1, self.RB[0].alpha, q1)
        log_w2 = log_nb(s2, r2.alpha - 1.0, p2) + log_nb(x2 - s2, self.RB[1].alpha, q2)
        w = np.exp(log_w1 - log_w1.max())[:, None] * np.exp(log_w2 - log_w2.max())[None, :]
        w /= w.sum()
        if isinstance(eps_s1, tuple):  # Beta(a - 1, b) posterior: nodes of the weight eps^(a-2) (1-eps)^(b-1)
            a_eps, b_eps = eps_s1
            nodes, weights = special.roots_jacobi(24, b_eps - 1.0, a_eps - 2.0)
            eps, v = (nodes + 1.0) / 2.0, weights / weights.sum()
        else:
            eps, v = np.array([eps_s1]), np.ones(1)
        c = (r2.beta + self.EPS_S[1] * t2) / (eps * t1)
        a, b = s1[:, None, None] + 1.0, r2.alpha - 1.0 + s2[None, :, None]
        return lambda q: float(np.sum(w[..., None] * v * special.betainc(a, b, q / (q + c))))

    def _check(self, sampler, eps_s1, sweeps):
        data = [CountObservation(x, t) for x, t in zip(self.X, self.T)]
        priors = {"rho": MCMC_FLAT_PRIOR, "r2": self.R2, "rb1": self.RB[0], "rb2": self.RB[1]}
        model = build_model(ModelSpec("B_EFF_BKG", *data, priors=priors, efficiencies=(eps_s1, self.EPS_S[1]),
                                      background_efficiencies=self.EPS_B))
        assert model.draw is not None
        edges = _deciles(self._rho_cdf(eps_s1))
        if sampler == "iid":
            rho = run_chain(model, 200_000, seed=7).monitored["rho"]
        else:
            # model.sweep runs Gibbs sweeps whatever the drawer; keep one draw per integrated time of the bins
            swept = np.frombuffer(model.sweep(model.init_state(), np.random.default_rng(5), 1000, sweeps)["rho"])
            rho = swept[:: math.ceil(_integrated_time(np.searchsorted(edges, swept) * 1.0))]
            assert rho.size >= 5_000
        counts = np.bincount(np.searchsorted(edges, rho), minlength=10)
        assert stats.chisquare(counts).pvalue > 1e-3, counts

    @pytest.mark.parametrize("sampler", ["iid", "gibbs"])
    def test_rho_deciles(self, sampler):
        self._check(sampler, self.EPS_S[0], sweeps=200_000)

    @pytest.mark.parametrize("sampler", ["iid", "gibbs"])
    def test_rho_deciles_beta_signal_efficiency(self, sampler):
        # the sweeps mix about 4x slower here (integrated time ~38 against ~10), so run more of them
        self._check(sampler, (6.0, 4.0), sweeps=250_000)


# Seeded Gibbs chains whose draws are pinned: (spec, n_iter, burn_in, seed)
BKG_PRIORS = {"rho": MCMC_FLAT_PRIOR, "r2": GammaParams(2.0, 0.5),
              "rb1": GammaParams(2.0, 1.5), "rb2": GammaParams(2.0, 2.5)}
GOLDEN_CASES = {
    "B-informative-rho": (
        ModelSpec("B", CountObservation(30, 3.0), CountObservation(60, 6.0),
                  priors={"rho": GammaParams(2.0, 1.0), "r2": MCMC_FLAT_PRIOR}),
        600, None, 21,
    ),
    "B_EFF-beta-eps2": (
        ModelSpec("B_EFF", CountObservation(90, 3.0), CountObservation(120, 6.0),
                  priors={"rho": MCMC_FLAT_PRIOR, "r2": GammaParams(2.0, 0.5)},
                  efficiencies=(0.5, (6.0, 4.0)), monitor=("rho", "r2", "n2", "eps2")),
        600, 200, 22,
    ),
    "BKG-all-beta": (
        ModelSpec("B_EFF_BKG", CountObservation(40, 2.0), CountObservation(25, 4.0), priors=BKG_PRIORS,
                  efficiencies=((6.0, 4.0), (5.0, 3.0)), background_efficiencies=((5.0, 5.0), (3.0, 2.0)),
                  monitor=("rho", "r2", "rb1", "s2", "nS1", "nB2", "epsS1", "epsB2")),
        600, 200, 23,
    ),
    "BKG-benchmark-mix": (
        ModelSpec("B_EFF_BKG", CountObservation(420, 0.7375338021675913),
                  CountObservation(139, 18.128473725481495),
                  priors={"rho": MCMC_FLAT_PRIOR, "r2": GammaParams(2.5601556419228975, 0.2784060316497151),
                          "rb1": GammaParams(2.0, 0.5478801027450624),
                          "rb2": GammaParams(2.0, 1.1796433744577488)},
                  efficiencies=(0.9759869712619491, (7.90272155968438, 5.292092243232162)),
                  background_efficiencies=((7.90272155968438, 5.292092243232162), 0.2380694749780152)),
        600, None, 24,
    ),
    "BKG-fixed-flat-r2": (
        ModelSpec("B_EFF_BKG", CountObservation(40, 2.0), CountObservation(25, 4.0),
                  priors={**BKG_PRIORS, "r2": MCMC_FLAT_PRIOR},
                  efficiencies=(0.8, 0.6), background_efficiencies=(0.5, 0.9)),
        600, 200, 25,
    ),
    "BKG-latent-readouts-no-burn-in": (
        ModelSpec("B_EFF_BKG", CountObservation(40, 2.0), CountObservation(25, 4.0),
                  priors={**BKG_PRIORS, "r2": MCMC_FLAT_PRIOR},
                  efficiencies=(0.8, (5.0, 3.0)), background_efficiencies=(0.5, 0.9),
                  monitor=("lambda1", "s1", "nS1", "nB1", "nS2", "epsS2", "epsB1", "r1")),
        600, 0, 26,
    ),
}
# float.hex of the first, middle and last draw and of the sum of each monitored column
GOLDEN = {
    'B-informative-rho': {
        'r1': ('0x1.635732b714775p+3', '0x1.997b205356a25p+3', '0x1.7b2ca7ffcfb77p+3', '0x1.832834e3173adp+12'),
        'r2': ('0x1.50b1cd177ad3cp+3', '0x1.a0f439163d012p+3', '0x1.5e7327d4e49a5p+3', '0x1.7655d2aa49e34p+12'),
        'rho': ('0x1.0e2d5f2883772p+0', '0x1.f6d2ce85ac454p-1', '0x1.14fba81f29f4bp+0', '0x1.3b695de519ee4p+9'),
    },
    'B_EFF-beta-eps2': {
        'rho': ('0x1.e37906287ca26p+0', '0x1.9c2c65d2b44dfp+1', '0x1.6f0a9932fb187p+1', '0x1.a832935750af4p+10'),
        'r2': ('0x1.9bfcf716c280ap+4', '0x1.52f3b26b4ca44p+4', '0x1.7ffdf8399bfb2p+4', '0x1.996b67513f0b6p+13'),
        'n2': ('0x1.4e00000000000p+7', '0x1.1200000000000p+7', '0x1.3200000000000p+7', '0x1.4d82000000000p+16'),
        'eps2': ('0x1.4c5c89588494cp-1', '0x1.b80ab18e8e87ep-1', '0x1.8b9546ac80e3ap-1', '0x1.f5aa09449b7cep+8'),
    },
    'BKG-all-beta': {
        'rho': ('0x1.c7b0c5b1a4c33p+1', '0x1.28dab64ecafafp+2', '0x1.800aaad66e56dp+2', '0x1.89ceccbb94c41p+11'),
        'r2': ('0x1.7ca6a12bb0d85p+2', '0x1.b172149224e5ep+2', '0x1.5ac5da8414ee8p+2', '0x1.06b1fddcf7a1ep+12'),
        'rb1': ('0x1.ebae0e9181fa9p-1', '0x1.c282618b8f9e8p+0', '0x1.d705d1d2a0af8p-1', '0x1.a70ad789ff302p+9'),
        's2': ('0x1.8000000000000p+4', '0x1.8000000000000p+4', '0x1.5000000000000p+4', '0x1.a3c8000000000p+13'),
        'nS1': ('0x1.7000000000000p+5', '0x1.e800000000000p+5', '0x1.f800000000000p+5', '0x1.4424000000000p+15'),
        'nB2': ('0x1.0000000000000p+0', '0x1.0000000000000p+1', '0x1.4000000000000p+3', '0x1.14c0000000000p+11'),
        'epsS1': ('0x1.8679e1d2246b9p-1', '0x1.2833889ca945dp-1', '0x1.3f6acffcd1c25p-1', '0x1.664f5fc317f34p+8'),
        'epsB2': ('0x1.dc7e5bd73bd03p-1', '0x1.6773f61caf6e1p-1', '0x1.45dce10db15cep-2', '0x1.850140ee86f63p+8'),
    },
    'BKG-benchmark-mix': {
        'r1': ('0x1.36862384328a6p+9', '0x1.1a0545a991896p+9', '0x1.3a76049110f4ap+9', '0x1.55880bf4128f6p+18'),
        'r2': ('0x1.3dec5408eb7f4p+3', '0x1.22775219400d4p+3', '0x1.c96260c92c7f6p+3', '0x1.a82299be9f9fcp+12'),
        'rho': ('0x1.f4157fa422df4p+5', '0x1.f11cfdba26e4ep+5', '0x1.6002aade71f09p+5', '0x1.f0cef484d7116p+14'),
    },
    'BKG-fixed-flat-r2': {
        'r1': ('0x1.914994a7b414ap+4', '0x1.9509b91d1ddaap+4', '0x1.dbf359e2898b5p+4', '0x1.d326f009a3d13p+13'),
        'r2': ('0x1.1baaa94bea8abp+2', '0x1.10e28016984d4p+3', '0x1.14fa3a5df09a3p+3', '0x1.4fcf09be1da2ep+12'),
        'rho': ('0x1.6a26223a42c98p+2', '0x1.7bf9e9c2200f3p+1', '0x1.b7e74bcad8ddfp+1', '0x1.c204defa04ec0p+10'),
    },
    'BKG-latent-readouts-no-burn-in': {
        'lambda1': ('0x1.7f730817c5c19p+5', '0x1.3a333a74da754p+5', '0x1.b7c2b0aa6efd7p+5', '0x1.d2975dd4d88adp+14'),
        's1': ('0x1.3000000000000p+5', '0x1.2800000000000p+5', '0x1.3000000000000p+5', '0x1.6b58000000000p+14'),
        'nS1': ('0x1.4800000000000p+5', '0x1.8800000000000p+5', '0x1.a000000000000p+5', '0x1.c6e0000000000p+14'),
        'nB1': ('0x1.8000000000000p+1', '0x1.0000000000000p+2', '0x1.8000000000000p+1', '0x1.81c0000000000p+10'),
        'nS2': ('0x1.6800000000000p+5', '0x1.1000000000000p+5', '0x1.9800000000000p+5', '0x1.5a18000000000p+14'),
        'epsS2': ('0x1.5b4f84c2238e1p-1', '0x1.6c8c048e0b40ep-1', '0x1.2b6fc4c863990p-1', '0x1.6fa8bb9283e32p+8'),
        'epsB1': ('0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.2c00000000000p+8'),
        'r1': ('0x1.7f730817c5c19p+4', '0x1.3a333a74da754p+4', '0x1.b7c2b0aa6efd7p+4', '0x1.d2975dd4d88adp+13'),
    },
}


class TestGoldenChains:
    """Seeded Gibbs chains keep every bit of their draws.

    The cases cover the batched Gamma nodes (an informative rho prior), a
    Beta eps2, B_EFF_BKG with every efficiency Beta, the benchmark's mixed
    efficiencies and fixed efficiencies under a flat r2, and a chain with no
    burn-in whose monitor reads latent counts and fixed efficiencies out of
    the recorded draws.
    """

    @pytest.mark.parametrize("case", list(GOLDEN_CASES))
    def test_draws_are_pinned(self, case):
        spec, n_iter, burn_in, seed = GOLDEN_CASES[case]
        chain = run_chain(build_model(spec), n_iter, burn_in, seed)
        got = {
            name: tuple(float(v).hex() for v in (c[0], c[c.size // 2], c[-1], c.sum()))
            for name, c in chain.monitored.items()
        }
        assert got == GOLDEN[case]


class TestSummaries:
    def test_constant_chain(self):
        chain = Chain(
            monitored={"c": np.full(100, 2.5)}, n_iter=100, burn_in=0, seed=None
        )
        v = summarize_chain(chain).variables["c"]
        assert v.sd == 0.0 and v.naive_se == 0.0
        assert all(q == 2.5 for q in v.quantiles.values())

    def test_constant_chain_reads_its_own_value(self):
        # np.mean's pairwise sum rounds: the mean read 0.10000000000000002, the sd 1.39e-17
        # and the batch SE 6.4e-18, as the deviations were taken from that rounded mean
        chain = Chain(monitored={"c": np.full(2000, 0.1)}, n_iter=2000, burn_in=0, seed=None)
        v = summarize_chain(chain).variables["c"]
        assert (v.mean, v.sd, v.naive_se, v.batch_se) == (0.1, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n,scale", [(20, 1e-300), (1003, 1.0), (5000, 1e300)])
    def test_one_scaling_serves_mean_sd_and_batch_means(self, monkeypatch, n, scale):
        # the mean, _sample_sd and the batch means each once scaled the same draws
        calls = []
        monkeypatch.setattr(mcmc, "_unit_scaled", lambda draws: calls.append(draws.size) or _unit_scaled(draws))
        draws = np.random.default_rng(n).standard_cauchy(n) * scale
        v = summarize_chain(Chain(monitored={"x": draws}, n_iter=n, burn_in=0, seed=None)).variables["x"]
        assert calls == [n]
        # to the bit, what separate scalings of the draws and of the batched draws give
        batch_len = n // 20
        centred, _, e = _unit_scaled(draws[: 20 * batch_len])
        batch_se = float(np.ldexp(_sample_sd(centred.reshape(20, batch_len).mean(axis=1)), e)) / math.sqrt(20)
        assert (v.sd, v.batch_se) == (_sample_sd(draws), batch_se)

    @pytest.mark.parametrize("n_iter", [200, 2000])
    def test_mean_of_draws_near_the_largest_float_lies_within_them(self, n_iter):
        # every rho draw reads 1.4686449333869355e+307: the mean once read ...352e+307, below every
        # quantile, with an sd of 2.5e291 at 200 draws and a batch SE of 5.7e290 at 2000
        spec = ModelSpec.from_json({
            "variant": "B",
            "data": {"x1": 37761, "T1": 2.218062674841966e187, "x2": 354117168196504, "T2": 4.43781344833785e-173},
            "priors": {"rho": {"alpha": 3.801498601178194e35, "beta": 2.5884395300444172e-272},
                       "r2": {"alpha": 7.144030821861241, "beta": 9.965242098471647}},
        })
        chain = run_chain(build_model(spec), n_iter, seed=1)
        rho = chain.monitored["rho"]
        v = summarize_chain(chain).variables["rho"]
        assert rho.min() <= v.mean <= rho.max()
        if rho.min() == rho.max():
            assert (v.mean, v.sd, v.batch_se) == (rho[0], 0.0, 0.0)

    def test_non_finite_draws_summarize_as_ever(self):
        # no draw is subtracted from a chain that holds inf: the mean is inf, not inf - inf
        draws = np.array([1.0, math.inf, 2.0] * 10)
        with np.errstate(invalid="ignore"):
            v = summarize_chain(Chain(monitored={"x": draws}, n_iter=30, burn_in=0, seed=None)).variables["x"]
        assert v.mean == math.inf

    def test_moments_past_the_float_range_of_the_sum(self):
        # a sum of 2000 draws near 1.5e307 overflows: np.mean read inf, and the batch means too
        draws = np.random.default_rng(2).uniform(1.4e307, 1.5e307, size=2000)
        v = summarize_chain(Chain(monitored={"x": draws}, n_iter=2000, burn_in=0, seed=None)).variables["x"]
        assert v.mean == pytest.approx(float(np.mean(draws / 2**20)) * 2**20, rel=1e-15)
        assert math.isfinite(v.batch_se) and v.batch_se > 0

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
