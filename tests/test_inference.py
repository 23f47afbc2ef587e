import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rateratio.distributions import GammaParams, gamma_summaries
from rateratio.inference import (
    FLAT_PRIOR,
    CountObservation,
    combine_observations,
    elicit_gamma,
    rate_posterior,
    relative_belief_ratio,
    update_lambda,
    update_rate,
)


class TestCountObservation:
    def test_valid(self):
        obs = CountObservation(3, 3.0)
        assert obs.x == 3 and obs.T == 3.0

    @pytest.mark.parametrize("x,T", [(-1, 1.0), (2, 0.0), (2, -1.0)])
    def test_invalid(self, x, T):
        with pytest.raises(ValueError):
            CountObservation(x, T)


class TestUpdateLambda:
    def test_flat_no_counts(self):
        post = update_lambda(FLAT_PRIOR, 0)
        assert post == GammaParams(1.0, 1.0)
        s = gamma_summaries(post)
        assert s.mean == 1.0 and s.sd == 1.0 and s.mode == 0.0

    def test_additivity(self):
        assert update_lambda(GammaParams(1.0, 0.0), 5) == GammaParams(6.0, 1.0)

    def test_sequential_equals_pooled(self):
        seq = update_lambda(update_lambda(FLAT_PRIOR, 2), 3)
        pooled = GammaParams(FLAT_PRIOR.alpha + 5, FLAT_PRIOR.beta + 2)
        assert seq == pooled


class TestUpdatesAreUpdateRate:
    """update_lambda and combine_observations are update_rate, bit for bit."""

    PRIORS = [FLAT_PRIOR, GammaParams(6.25, 1.25), GammaParams(0.3, 1e-17)]

    @pytest.mark.parametrize("prior", PRIORS)
    def test_lambda_is_the_unit_time_update(self, prior):
        for x in (0, 1, 7, 10**17 + 1):
            assert update_lambda(prior, x) == update_rate(prior, CountObservation(x, 1.0))

    @pytest.mark.parametrize("prior", PRIORS)
    def test_pooling_is_one_observation_of_the_totals(self, prior):
        observations = [CountObservation(3, 0.1), CountObservation(0, 0.2), CountObservation(8, 1e-17)]
        total_t = 0.1 + 0.2 + 1e-17
        assert total_t != 0.3 + 1e-17  # the times' float sum rounds
        want = update_rate(prior, CountObservation(11, total_t))
        assert combine_observations(prior, observations) == want
        assert combine_observations(prior, iter(observations)) == want

    @pytest.mark.parametrize("x", [-1, 2.5])
    def test_lambda_refusal(self, x):
        with pytest.raises(ValueError, match=rf"^x must be a non-negative integer, got {x}$"):
            update_lambda(FLAT_PRIOR, x)


class TestUpdateRate:
    def test_first_channel(self):
        post = update_rate(FLAT_PRIOR, CountObservation(3, 3.0))
        assert post == GammaParams(4.0, 3.0)
        s = gamma_summaries(post)
        assert s.mean == pytest.approx(4 / 3, rel=1e-15)
        assert s.sd == pytest.approx(2 / 3, rel=1e-15)

    def test_second_channel(self):
        post = update_rate(FLAT_PRIOR, CountObservation(6, 6.0))
        assert post == GammaParams(7.0, 6.0)
        s = gamma_summaries(post)
        assert s.mean == pytest.approx(7 / 6, rel=1e-15)
        assert s.sd == pytest.approx(math.sqrt(7) / 6, rel=1e-15)

    def test_vanishing_data(self):
        prior = GammaParams(6.25, 1.25)
        post = update_rate(prior, CountObservation(0, 1e-12))
        assert post.alpha == prior.alpha
        assert post.beta == pytest.approx(prior.beta, rel=1e-12)

    @pytest.mark.parametrize("T", [0.5, 1.0, 3.0, 6.0])
    @pytest.mark.parametrize("x", [0, 1, 5, 27, 100])
    def test_flat_prior_summaries_grid(self, x, T):
        est = rate_posterior(CountObservation(x, T))
        assert est.summaries.mode == pytest.approx(x / T, rel=1e-14, abs=0.0)
        assert est.summaries.mean == pytest.approx((x + 1) / T, rel=1e-14)
        assert est.summaries.sd == pytest.approx(math.sqrt(x + 1) / T, rel=1e-14)


class TestCombineObservations:
    def test_two_channels(self):
        pooled = combine_observations(
            FLAT_PRIOR, [CountObservation(3, 3.0), CountObservation(6, 6.0)]
        )
        assert pooled == GammaParams(10.0, 9.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_observations(FLAT_PRIOR, [])

    def test_single_equals_update(self):
        obs = CountObservation(4, 2.5)
        assert combine_observations(FLAT_PRIOR, [obs]) == update_rate(FLAT_PRIOR, obs)

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.floats(0.1, 20.0)),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_monoid_fold(self, raw, rnd):
        observations = [CountObservation(x, T) for x, T in raw]
        pooled = combine_observations(FLAT_PRIOR, observations)
        # order independence, up to float summation order in beta
        shuffled = list(observations)
        rnd.shuffle(shuffled)
        reordered = combine_observations(FLAT_PRIOR, shuffled)
        assert reordered.alpha == pooled.alpha
        assert reordered.beta == pytest.approx(pooled.beta, rel=1e-12)
        # fold equivalence with sequential single updates
        acc = FLAT_PRIOR
        for obs in observations:
            acc = update_rate(acc, obs)
        assert acc.alpha == pytest.approx(pooled.alpha, rel=1e-12)
        assert acc.beta == pytest.approx(pooled.beta, rel=1e-12)


class TestElicitGamma:
    def test_reference_pair(self):
        assert elicit_gamma(5.0, 2.0) == GammaParams(6.25, 1.25)

    def test_round_trip(self):
        s = gamma_summaries(elicit_gamma(3.0, 0.5))
        assert s.mean == pytest.approx(3.0, rel=1e-12)
        assert s.sd == pytest.approx(0.5, rel=1e-12)

    def test_exponential(self):
        assert elicit_gamma(1.0, 1.0) == GammaParams(1.0, 1.0)

    def test_past_float_range(self):
        # a float ** past 1e308 once raised OverflowError
        for mu0, sigma0 in ((1.0, 1e200), (1e200, 1.0), (2.0, 1e160), (1.0, 1e-200), (1e-160, 1.0)):
            with pytest.raises(ValueError, match="outside the range of normal floats"):
                elicit_gamma(mu0, sigma0)
        # where both squares leave the float range but alpha0 and beta0 do not
        got = elicit_gamma(1e200, 1e150)
        assert got.alpha == pytest.approx(1e100, rel=1e-15)
        assert got.beta == pytest.approx(1e-100, rel=1e-15)
        for mu0, sigma0 in ((1e-200, 1e-200), (1e-160, 1e-160), (3e-155, 1e-155)):
            # sigma0**2 once read 0 (ZeroDivisionError) or a subnormal (beta0 off by 1e-5)
            got = elicit_gamma(mu0, sigma0)
            assert got.alpha == pytest.approx((mu0 / sigma0) ** 2, rel=1e-15)
            assert got.beta == pytest.approx(mu0 / sigma0 / sigma0, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            elicit_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            elicit_gamma(1.0, -2.0)

    @given(st.floats(0.05, 50.0), st.floats(0.05, 20.0))
    @settings(max_examples=60)
    def test_round_trip_property(self, mu, sigma):
        s = gamma_summaries(elicit_gamma(mu, sigma))
        assert s.mean == pytest.approx(mu, rel=1e-9)
        assert s.sd == pytest.approx(sigma, rel=1e-9)


class TestRelativeBeliefRatio:
    def test_self_ratio(self):
        for r_ref in (0.0, 0.5, 2.0):
            obs = CountObservation(0, 2.0)
            assert relative_belief_ratio(r_ref, obs, r_ref) == pytest.approx(1.0, rel=1e-14)

    def test_zero_counts_form(self):
        obs = CountObservation(0, 1.0)
        assert relative_belief_ratio(1.0, obs, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_sensitivity_plateau(self):
        # with x=0 the experiment cannot distinguish rates far below 1/T
        T = 10.0
        obs = CountObservation(0, T)
        assert relative_belief_ratio(0.009 / T, obs, 0.0) > 0.99
        assert relative_belief_ratio(22.0 / T, obs, 0.0) < 1e-9

    def test_zero_reference_rejected_with_counts(self):
        with pytest.raises(ValueError):
            relative_belief_ratio(1.0, CountObservation(2, 1.0), 0.0)

    def test_positive_counts(self):
        # L(r) proportional to r^x e^{-rT}
        obs = CountObservation(3, 2.0)
        expected = (1.5 / 1.0) ** 3 * math.exp(-(1.5 - 1.0) * 2.0)
        assert relative_belief_ratio(1.5, obs, 1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ratio_past_float_range(self):
        # the ratio is 1e3000: once a bare OverflowError from math.exp
        with pytest.raises(ValueError, match=r"^the ratio, e\^6906\.76, is past the float range$"):
            relative_belief_ratio(1e300, CountObservation(5, 1e-300), 1e-300)


class TestRatePosterior:
    def test_summaries_tie_to_posterior(self):
        est = rate_posterior(CountObservation(5, 1.2), elicit_gamma(5.0, 2.0))
        assert est.posterior == GammaParams(11.25, 2.45)
        ref = gamma_summaries(est.posterior)
        assert est.summaries.mean == ref.mean and est.summaries.sd == ref.sd
