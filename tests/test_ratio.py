import math

import numpy as np
import pytest
from scipy import integrate

import rateratio.ratio
from rateratio.distributions import GammaParams, gamma_ratio_pdf, gamma_summaries
from rateratio.inference import FLAT_PRIOR, CountObservation, update_rate
from rateratio.ratio import (
    RatioPosterior,
    RatioPosteriorSpec,
    combine_ratio_instances,
    implied_r1_pdf,
    lambda_ratio_pdf,
    lambda_ratio_summaries,
    model_a_pdf,
    model_a_summaries,
    model_b_pdf,
    model_b_rate_posteriors,
    model_b_reweighted_pdf,
    model_b_summaries,
    ratio_posterior,
)


def quad_moments(pdf, hi):
    total, _ = integrate.quad(pdf, 0.0, hi, limit=400)
    mean, _ = integrate.quad(lambda r: r * pdf(r), 0.0, hi, limit=400)
    second, _ = integrate.quad(lambda r: r * r * pdf(r), 0.0, hi, limit=400)
    return total, mean, second - mean**2


class TestLambdaRatio:
    def test_single_count_each(self):
        s = lambda_ratio_summaries(1, 1)
        assert s.mode == pytest.approx(1 / 3, rel=1e-15)
        assert s.mean == pytest.approx(2.0, rel=1e-15)
        assert s.sd is None

    def test_sigma_series(self):
        # x1 = x2 = 2, 3, 10, 30, 100 in increasing order
        expected = [1.936, 1.247, 0.507, 0.269, 0.143]
        for n, sd in zip((2, 3, 10, 30, 100), expected):
            s = lambda_ratio_summaries(n, n)
            assert s.sd == pytest.approx(sd, abs=5e-4)

    def test_undefined_conditions(self):
        s0 = lambda_ratio_summaries(2, 0)
        assert s0.mean is None and "x2" in s0.undefined["mean"]
        s1 = lambda_ratio_summaries(2, 1)
        assert s1.mean is not None and s1.variance is None

    def test_normalization(self):
        total, _ = integrate.quad(lambda r: lambda_ratio_pdf(r, 3, 4), 0.0, np.inf, limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestModelA:
    def test_density_vanishes_at_infinity(self):
        # once nan, through gamma_ratio_logpdf's inf - inf
        assert model_a_pdf(math.inf, CountObservation(2, 1.0), CountObservation(3, 2.0)) == 0.0
        assert lambda_ratio_pdf(math.inf, 2, 3) == 0.0

    def test_reference_summaries(self):
        s = model_a_summaries(CountObservation(3, 3.0), CountObservation(6, 6.0))
        assert s.mean == pytest.approx(4 / 3, rel=1e-12)
        assert s.sd == pytest.approx(math.sqrt(8) / 3, rel=1e-12)
        assert s.mode == pytest.approx(0.75, rel=1e-12)

    def test_change_of_variables_from_lambda_ratio(self):
        # inferring rates instead of expected counts rescales the ratio
        # by T1/T2; the density transforms with the same Jacobian
        d1, d2 = CountObservation(3, 3.0), CountObservation(6, 6.0)
        scale = d1.T / d2.T
        for rho in (0.05, 0.3, 1.0, 2.5, 7.0):
            lhs = model_a_pdf(rho, d1, d2)
            rhs = lambda_ratio_pdf(rho * scale, d1.x, d2.x) * scale
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mode_matches_grid_argmax(self):
        d1, d2 = CountObservation(5, 2.0), CountObservation(8, 4.0)
        s = model_a_summaries(d1, d2)
        grid = np.arange(0.0, 10.0 * s.mean, 1e-3)
        argmax = grid[np.argmax(model_a_pdf(grid, d1, d2))]
        assert argmax == pytest.approx(s.mode, abs=2e-3)

    def test_quadrature_moments(self):
        d1, d2 = CountObservation(5, 2.0), CountObservation(8, 4.0)
        s = model_a_summaries(d1, d2)
        total, mean, var = quad_moments(lambda r: model_a_pdf(r, d1, d2), 400.0)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(s.mean, rel=1e-4)
        assert var == pytest.approx(s.variance, rel=1e-4)

    def test_zero_boundary(self):
        assert model_a_pdf(0.0, CountObservation(1, 1.0), CountObservation(1, 1.0)) == 0.0
        assert model_a_pdf(0.0, CountObservation(0, 1.0), CountObservation(1, 1.0)) > 0.0

    def test_undefined_flags(self):
        s = model_a_summaries(CountObservation(3, 1.0), CountObservation(0, 1.0))
        assert s.mean is None and s.variance is None
        s = model_a_summaries(CountObservation(3, 1.0), CountObservation(1, 1.0))
        assert s.mean is not None and s.variance is None


class TestModelB:
    def test_reference_summaries(self):
        s = model_b_summaries(CountObservation(3, 3.0), CountObservation(6, 6.0))
        assert s.mean == pytest.approx(1.6, rel=1e-12)
        assert s.sd == pytest.approx(1.2, rel=1e-12)

    def test_flat_prior_equals_model_a_shifted(self):
        # dropping one observed count in the denominator channel turns
        # one model into the other
        T1, T2 = 2.0, 5.0
        for x1, x2 in ((1, 2), (3, 6), (10, 10)):
            grid = np.linspace(1e-3, 12.0, 100)
            b = model_b_pdf(grid, CountObservation(x1, T1), CountObservation(x2, T2))
            a = model_a_pdf(grid, CountObservation(x1, T1), CountObservation(x2 - 1, T2))
            assert np.allclose(b, a, rtol=1e-10)

    def test_informative_prior_summaries(self):
        d1, d2 = CountObservation(3, 3.0), CountObservation(6, 6.0)
        prior = GammaParams(6.25, 1.25)
        s = model_b_summaries(d1, d2, prior)
        total, mean, var = quad_moments(lambda r: model_b_pdf(r, d1, d2, prior), 300.0)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(s.mean, rel=1e-4)
        assert var == pytest.approx(s.variance, rel=1e-4)

    def test_denominator_shape_guard(self):
        # flat prior and x2 = 0 leaves nothing to anchor the denominator rate
        with pytest.raises(ValueError, match=r"^normalization undefined: alpha0 \+ x2 - 1 = 0.0 must be > 0$"):
            model_b_pdf(1.0, CountObservation(3, 1.0), CountObservation(0, 1.0))

    def test_undefined_flags(self):
        s = model_b_summaries(CountObservation(3, 1.0), CountObservation(1, 1.0))
        assert s.mean is None
        s = model_b_summaries(CountObservation(3, 1.0), CountObservation(2, 1.0))
        assert s.mean is not None and s.variance is None

    def test_marginal_rate_posteriors(self):
        r1, r2 = model_b_rate_posteriors(CountObservation(3, 3.0), CountObservation(6, 6.0))
        assert r1 == GammaParams(4.0, 3.0)
        assert r2 == GammaParams(6.0, 6.0)
        s2 = gamma_summaries(r2)
        assert s2.mean == pytest.approx(1.0, rel=1e-12)
        assert s2.sd == pytest.approx(math.sqrt(6) / 6, rel=1e-12)

    def test_marginals_require_counts(self):
        with pytest.raises(ValueError):
            model_b_rate_posteriors(CountObservation(3, 3.0), CountObservation(0, 6.0))

    def test_reweighted_proportional_for_flat_prior(self):
        # with a constant rho prior the unnormalized reweighting must be
        # proportional to the closed-form flat-prior pdf
        d1, d2 = CountObservation(3, 3.0), CountObservation(6, 6.0)
        grid = np.linspace(0.1, 6.0, 25)
        raw = np.array(
            [model_b_reweighted_pdf(r, d1, d2, FLAT_PRIOR, lambda _: 1.0) for r in grid]
        )
        closed = model_b_pdf(grid, d1, d2)
        ratios = raw / closed
        assert np.allclose(ratios, ratios[0], rtol=1e-9)


class TestImpliedR1:
    def test_support_and_shape(self):
        rho_max, r2_max = 10.0, 1.0
        assert implied_r1_pdf(11.0, rho_max, r2_max) == 0.0
        assert implied_r1_pdf(0.5, rho_max, r2_max) > implied_r1_pdf(5.0, rho_max, r2_max)

    def test_normalization(self):
        rho_max, r2_max = 10.0, 1.0
        total, _ = integrate.quad(
            lambda r: implied_r1_pdf(r, rho_max, r2_max), 0.0, rho_max * r2_max, limit=400
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "r1,rho_max,r2_max,expected",
        [
            (1e-320, 1.0, 1.0, -math.log(1e-320)),  # ~736.8, once inf: top / r1 overflowed before the log
            (1.0, 1e200, 1e200, 0.0),  # once nan: rho_max r2_max overflowed; the true 9.2e-398 underflows
            (1e-11, 1e-310, 1e300, math.log(10.0) * 1e10),  # 1 / rho_max alone would overflow
        ],
    )
    def test_extreme_scales(self, r1, rho_max, r2_max, expected):
        assert implied_r1_pdf(r1, rho_max, r2_max) == pytest.approx(expected, rel=1e-12)


class TestRatioPosterior:
    def test_model_a_wrapper(self):
        spec = RatioPosteriorSpec(
            model="A", data1=CountObservation(3, 3.0), data2=CountObservation(6, 6.0)
        )
        post = ratio_posterior(spec)
        assert post.summaries.mean == pytest.approx(4 / 3, rel=1e-12)
        assert post.pdf(1.0) == pytest.approx(
            model_a_pdf(1.0, spec.data1, spec.data2), rel=1e-12
        )

    def test_model_a_rejects_informative_prior(self):
        with pytest.raises(ValueError):
            RatioPosteriorSpec(
                model="A",
                data1=CountObservation(3, 3.0),
                data2=CountObservation(6, 6.0),
                prior_r2=GammaParams(2.0, 1.0),
            )

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            RatioPosteriorSpec(
                model="C", data1=CountObservation(1, 1.0), data2=CountObservation(1, 1.0)
            )

    def test_combine_equals_pooled_totals(self):
        instances = [
            (CountObservation(3, 3.0), CountObservation(6, 6.0)),
            (CountObservation(1, 2.0), CountObservation(2, 2.0)),
            (CountObservation(4, 1.5), CountObservation(3, 2.5)),
        ]
        combined = combine_ratio_instances(instances, FLAT_PRIOR)
        pooled = ratio_posterior(
            RatioPosteriorSpec(
                model="B",
                data1=CountObservation(8, 6.5),
                data2=CountObservation(11, 10.5),
            )
        )
        assert combined.summaries.mean == pytest.approx(pooled.summaries.mean, rel=1e-12)
        grid = np.linspace(0.05, 5.0, 40)
        assert np.allclose(combined.pdf(grid), pooled.pdf(grid), rtol=1e-12)

    def test_combine_requires_instances(self):
        with pytest.raises(ValueError):
            combine_ratio_instances([], FLAT_PRIOR)

    @pytest.mark.parametrize(
        "instance,name",
        [((CountObservation(1, 1e308), CountObservation(1, 1.0)), "times T1"),
         ((CountObservation(1, 1.0), CountObservation(10**308, 1.0)), "counts x2")],
    )
    def test_combine_refuses_sums_past_the_float_range(self, instance, name):
        # a pooled time of inf was once refused as "T must be finite and > 0, got inf"
        reason = rf"^the sum of the given {name} overflows the float range: 2 values, the largest 1e\+308$"
        with pytest.raises(ValueError, match=reason):
            combine_ratio_instances([instance, instance], FLAT_PRIOR)


class TestGammaPairMadeOnce:
    SPECS = [
        RatioPosteriorSpec("A", CountObservation(3, 3.0), CountObservation(6, 6.0)),
        RatioPosteriorSpec("B", CountObservation(3, 3.0), CountObservation(6, 6.0)),
        RatioPosteriorSpec("B", CountObservation(7, 0.5), CountObservation(2, 4.0), GammaParams(2.5, 1.5)),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_two_updates_whatever_is_read(self, monkeypatch, spec):
        calls = []

        def counted(prior, obs):
            calls.append((prior, obs))
            return update_rate(prior, obs)

        monkeypatch.setattr(rateratio.ratio, "update_rate", counted)
        post = RatioPosterior(spec)
        grid = np.array([0.2, 1.0, 3.0])
        for _ in range(2):
            post.pdf(grid), post.logpdf(grid), post.cdf(grid), post.ppf(0.5), post.summaries
        assert calls == [(FLAT_PRIOR, spec.data1), (spec.prior_r2, spec.data2)]

    @pytest.mark.parametrize("spec", SPECS)
    def test_helpers_read_the_posterior(self, spec):
        post, grid = RatioPosterior(spec), np.linspace(0.0, 6.0, 25)
        d1, d2 = spec.data1, spec.data2
        if spec.model == "A":
            np.testing.assert_array_equal(model_a_pdf(grid, d1, d2), post.pdf(grid))
            assert model_a_summaries(d1, d2) == post.summaries
        else:
            np.testing.assert_array_equal(model_b_pdf(grid, d1, d2, spec.prior_r2), post.pdf(grid))
            assert model_b_summaries(d1, d2, spec.prior_r2) == post.summaries
        if spec.model == "B" and spec.prior_r2 == FLAT_PRIOR:
            r1, r2 = model_b_rate_posteriors(d1, d2)
            assert r1 == update_rate(FLAT_PRIOR, d1)
            assert r2 == GammaParams(update_rate(FLAT_PRIOR, d2).alpha - 1.0, d2.T)
            np.testing.assert_array_equal(gamma_ratio_pdf(grid, r1, r2), post.pdf(grid))

    def test_lambda_ratio_is_model_a_at_unit_times(self):
        post = RatioPosterior(RatioPosteriorSpec("A", CountObservation(4, 1.0), CountObservation(2, 1.0)))
        grid = np.linspace(0.0, 9.0, 25)
        np.testing.assert_array_equal(lambda_ratio_pdf(grid, 4, 2), post.pdf(grid))
        assert lambda_ratio_summaries(4, 2) == post.summaries

    def test_summary_reasons(self):
        d1 = CountObservation(3, 1.0)
        cases = [
            ("A", 0, FLAT_PRIOR, "requires x2 > 0", "requires x2 > 1"),
            ("A", 1, FLAT_PRIOR, None, "requires x2 > 1"),
            ("B", 1, FLAT_PRIOR, "requires x2 > 1", "requires x2 > 2"),
            ("B", 0, GammaParams(2.5, 1.0), None, "requires alpha0 + x2 - 1 > 2"),
        ]
        for model, x2, prior, mean_reason, variance_reason in cases:
            spec = RatioPosteriorSpec(model, d1, CountObservation(x2, 1.0), prior)
            undefined = RatioPosterior(spec).summaries.undefined
            assert undefined.get("mean") == mean_reason
            assert undefined["variance"] == undefined["sd"] == variance_reason


def paper_logpdf(rho, model, x1, t1, x2, t2, alpha0=1.0, beta0=0.0):
    """log f(rho) as the paper writes it; alpha0 = 1, beta0 = 0 is the flat prior on r2.

    Model A: (x1+x2+1)!/(x1! x2!) T1^(x1+1) T2^(x2+1) rho^x1 (T2 + T1 rho)^-(x1+x2+2).
    Model B: T1^(x1+1) (beta0+T2)^(alpha0+x2-1) / B(x1+1, alpha0+x2-1)
             * rho^x1 (beta0 + T2 + T1 rho)^-(alpha0+x1+x2).
    """
    rho_term = x1 * math.log(rho) if x1 else 0.0  # rho^0 = 1, also at rho = 0
    if model == "A":
        return (
            math.lgamma(x1 + x2 + 2) - math.lgamma(x1 + 1) - math.lgamma(x2 + 1)
            + (x1 + 1) * math.log(t1) + (x2 + 1) * math.log(t2)
            + rho_term - (x1 + x2 + 2) * math.log(t2 + t1 * rho)
        )
    a2 = alpha0 + x2 - 1
    return (
        math.lgamma(x1 + 1 + a2) - math.lgamma(x1 + 1) - math.lgamma(a2)
        + (x1 + 1) * math.log(t1) + a2 * math.log(beta0 + t2)
        + rho_term - (alpha0 + x1 + x2) * math.log(beta0 + t2 + t1 * rho)
    )


class TestRatioPosteriorLogpdf:
    CASES = [
        ("A", (3, 3.0, 6, 6.0), FLAT_PRIOR),
        ("A", (0, 2.5, 4, 1.5), FLAT_PRIOR),
        ("B", (3, 3.0, 6, 6.0), FLAT_PRIOR),
        ("B", (0, 2.5, 4, 1.5), FLAT_PRIOR),
        ("B", (7, 0.5, 2, 4.0), GammaParams(2.5, 1.5)),
        ("B", (0, 1.0, 1, 2.0), GammaParams(3.0, 0.25)),
    ]
    RHOS = [0.0, 1e-3, 0.4, 1.0, 2.5, 30.0]

    @pytest.mark.parametrize("model,data,prior", CASES)
    def test_matches_paper_density(self, model, data, prior):
        x1, t1, x2, t2 = data
        post = ratio_posterior(RatioPosteriorSpec(
            model, CountObservation(x1, t1), CountObservation(x2, t2), prior))
        # at rho = 0 only x1 = 0 has a finite log density: a1 = 1 takes its own branch
        rhos = self.RHOS if x1 == 0 else self.RHOS[1:]
        for rho in rhos:
            want = paper_logpdf(rho, model, x1, t1, x2, t2, prior.alpha, prior.beta)
            assert math.isclose(post.logpdf(rho), want, rel_tol=1e-12, abs_tol=1e-12), rho
        got = post.logpdf(np.array(rhos))
        assert np.allclose(np.exp(got), post.pdf(np.array(rhos)), rtol=1e-12, atol=0.0)

    def test_origin_with_counts_is_minus_infinity(self):
        post = ratio_posterior(RatioPosteriorSpec("A", CountObservation(3, 3.0), CountObservation(6, 6.0)))
        assert post.logpdf(0.0) == -math.inf and post.pdf(0.0) == 0.0
