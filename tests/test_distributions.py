import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from rateratio import distributions
from rateratio.distributions import (
    DiscreteDist,
    _sample_sd,
    _write_csv,
    GammaParams,
    beta_prime_pdf,
    binomial_pmf,
    gamma_cdf,
    gamma_logpdf,
    gamma_pdf,
    gamma_ppf,
    gamma_ratio_cdf,
    gamma_ratio_logpdf,
    gamma_ratio_pdf,
    gamma_ratio_ppf,
    gamma_ratio_summaries,
    gamma_sample,
    gamma_summaries,
    poisson_cdf,
    poisson_pmf,
    poisson_process_waiting_times,
    skellam_dist,
    skellam_pmf,
    uniform_ratio_cdf,
    uniform_ratio_pdf,
)
from rateratio.inference import FLAT_PRIOR, CountObservation, elicit_gamma
from rateratio.montecarlo import simulate_gamma_ratio, simulate_uniform_ratio
from rateratio.ratio import implied_r1_pdf, model_b_reweighted_pdf
from helpers import assert_all_bins_within, bin_probabilities

P1, P2 = GammaParams(2.0, 3.0), GammaParams(4.0, 1.5)
D1, D2 = CountObservation(3, 2.0), CountObservation(5, 1.0)

# (law, its arguments after the first, a valid first argument, a refused one and the reason)
LAWS = [
    (poisson_pmf, (2.0,), 3, 1.5, "x must be a non-negative integer"),
    (poisson_cdf, (2.0,), 3, -1, "x must be a non-negative integer"),
    (skellam_pmf, (2.0, 3.0), -2, 0.5, "d must be an integer"),
    (binomial_pmf, (5, 0.3), 2, 0.5, "x must be an integer"),
    (gamma_logpdf, (P1,), 0.7, -1.0, "x must be >= 0"),
    (gamma_pdf, (P1,), 0.7, -1.0, "x must be >= 0"),
    (gamma_cdf, (P1,), 0.7, -1.0, "x must be >= 0"),
    (gamma_ppf, (P1,), 0.3, 1.5, "q must be in [0, 1]"),
    (gamma_ratio_logpdf, (P1, P2), 0.7, -1.0, "rho must be >= 0"),
    (gamma_ratio_pdf, (P1, P2), 0.7, -1.0, "rho must be >= 0"),
    (gamma_ratio_cdf, (P1, P2), 0.7, -1.0, "rho must be >= 0"),
    (gamma_ratio_ppf, (P1, P2), 0.3, math.nan, "q must be in [0, 1]"),
    (uniform_ratio_pdf, (), 2.0, -1.0, "rho must be >= 0"),
    (uniform_ratio_cdf, (), 2.0, -1.0, "rho must be >= 0"),
    (model_b_reweighted_pdf, (D1, D2, FLAT_PRIOR, lambda rho: 1.0 / (1.0 + rho)), 0.7, -1.0, "rho must be >= 0"),
    (implied_r1_pdf, (2.0, 3.0), 0.7, None, None),  # last: 0 outside its support, no refusal
]
LAW_IDS = [law[0].__name__ for law in LAWS]


class TestArrayContract:
    @pytest.mark.parametrize("law,args,good", [law[:3] for law in LAWS], ids=LAW_IDS)
    def test_scalar_and_0d_give_a_python_float(self, law, args, good):
        # gamma_pdf, gamma_ratio_pdf and model_b_reweighted_pdf once gave np.float64 for a 0-d array
        values = [law(x, *args) for x in (good, np.array(good), np.float64(good))]
        assert all(type(v) is float for v in values) and values[0] == values[1] == values[2]

    @pytest.mark.parametrize("law,args,good", [law[:3] for law in LAWS], ids=LAW_IDS)
    def test_array_gives_an_array_of_its_values(self, law, args, good):
        out = law(np.full((2, 3), good), *args)
        assert isinstance(out, np.ndarray) and out.shape == (2, 3)
        assert np.all(out == law(good, *args))

    @pytest.mark.parametrize("law,args,good,bad,reason", LAWS[:-1], ids=LAW_IDS[:-1])
    def test_refusal_names_the_argument(self, law, args, good, bad, reason):
        for x in (bad, np.array(bad), [good, bad]):
            with pytest.raises(ValueError, match=re.escape(reason)):
                law(x, *args)


class TestGammaParams:
    def test_valid(self):
        p = GammaParams(2.0, 3.0)
        assert p.alpha == 2.0 and p.beta == 3.0 and p.is_proper

    def test_flat_limit_allowed(self):
        assert not GammaParams(1.0, 0.0).is_proper

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_invalid(self, alpha, beta):
        with pytest.raises(ValueError):
            GammaParams(alpha, beta)


# an infinite scalar input, and the start of its refusal: each call once returned nan or zeros, took
# the value, raised a bare OverflowError or gave a reason that named no parameter
INFINITE_INPUTS = {
    "CountObservation-x": (lambda: CountObservation(math.inf, 1.0), "x must be a whole number >= 0"),
    "CountObservation-T": (lambda: CountObservation(3, math.inf), "T must be finite and > 0"),
    "GammaParams-alpha": (lambda: GammaParams(math.inf, 1.0), "alpha must be finite and > 0"),
    "gamma_pdf-beta": (lambda: gamma_pdf(1.0, GammaParams(2.0, math.inf)), "beta must be finite and >= 0"),
    "gamma_sample-beta": (lambda: gamma_sample(GammaParams(2.0, math.inf), 3, 1), "beta must be finite and >= 0"),
    "gamma_sample-n": (lambda: gamma_sample(P1, math.inf, 1), "n must be a whole number >= 1"),
    "poisson_pmf": (lambda: poisson_pmf(3, math.inf), "lambda must be finite and > 0"),
    "poisson_cdf": (lambda: poisson_cdf(3, math.inf), "lambda must be finite and > 0"),
    "skellam_dist": (lambda: skellam_dist(math.inf, 1.0), "lambda1 must be finite and > 0"),
    "beta_prime_pdf": (lambda: beta_prime_pdf(1.0, math.inf, 2.0), "alpha must be finite and > 0"),
    "implied_r1_pdf-rho_max": (lambda: implied_r1_pdf(1.0, math.inf, 1.0), "rho_max must be finite and > 0"),
    "implied_r1_pdf-r2_max": (lambda: implied_r1_pdf(1.0, 1.0, math.inf), "r2_max must be finite and > 0"),
    "waiting_times": (lambda: poisson_process_waiting_times(math.inf, 3, 1), "rate must be finite and > 0"),
    "elicit_gamma": (lambda: elicit_gamma(math.inf, 1.0), "mu0 must be finite and > 0"),
    "simulate_gamma_ratio-cutoff": (
        lambda: simulate_gamma_ratio(P1, P2, 100, cutoff=math.inf, seed=1), "cutoff must be finite and > 0"
    ),
    "simulate_uniform_ratio": (lambda: simulate_uniform_ratio(math.inf, 100, seed=1), "r_max must be finite and > 0"),
}


@pytest.mark.parametrize("call,reason", INFINITE_INPUTS.values(), ids=INFINITE_INPUTS)
def test_infinite_scalar_refused_naming_it(call, reason):
    with pytest.raises(ValueError, match=rf"^{re.escape(reason)}, got inf$"):
        call()


class TestPoissonPmf:
    def test_zero_counts(self):
        assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_one_count_unit_rate(self):
        # lambda^1/1! = lambda, so same value as x=0
        assert poisson_pmf(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_both_zero_product(self):
        assert poisson_pmf(0, 2.0) == pytest.approx(0.135335, abs=5e-7)

    def test_large_x_log_domain(self):
        # naive lambda^x/x! overflows long before this
        assert poisson_pmf(1000, 1000.0) == pytest.approx(
            stats.poisson.pmf(1000, 1000.0), rel=1e-12
        )

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            poisson_pmf(0, 0.0)

    @given(st.integers(0, 50), st.floats(0.01, 50.0))
    def test_matches_reference(self, x, lam):
        assert poisson_pmf(x, lam) == pytest.approx(stats.poisson.pmf(x, lam), rel=1e-10)

    def test_infinite_count_has_no_mass(self):
        # xlogy(inf, lam) - gammaln(inf) was inf - inf: nan under a RuntimeWarning
        assert poisson_pmf(math.inf, 3.0) == 0.0
        assert poisson_pmf([2, math.inf], 3.0).tolist() == [poisson_pmf(2, 3.0), 0.0]


class TestPoissonCdf:
    def test_zero(self):
        assert poisson_cdf(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_full_support(self):
        lam = 50.0
        x = int(lam + 20 * math.sqrt(lam))
        assert poisson_cdf(x, lam) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        vals = [poisson_cdf(x, 7.3) for x in range(30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_gaussian_limit_improves(self):
        # sup |Poisson CDF - Gaussian CDF| must shrink as lambda grows
        sups = []
        for lam in (10.0, 100.0, 1000.0):
            xs = np.arange(0, int(lam + 30 * math.sqrt(lam)))
            exact = np.array([poisson_cdf(int(x), lam) for x in xs])
            gauss = stats.norm.cdf((xs - lam) / math.sqrt(lam))
            sups.append(np.max(np.abs(exact - gauss)))
        assert sups[0] > sups[1] > sups[2]


# P(D = d) from mpmath at 40 digits at 9 points across skellam_dist's support of each pair:
# e^-(l1 + l2) (l1/l2)^(d/2) I_|d|(2 sqrt(l1 l2)), and where besseli does not converge
# (the tails at 1e4 and every point at 1e5) the sum of the Poisson products over x2
SKELLAM_40_DIGITS = {
    (0.3, 0.5): [
        (-19, 7.09833518340236510350006349233455273289e-24), (-14, 3.177442585298087330292684919863009369264e-16),
        (-10, 1.225801821190391864961124544374227528699e-10), (-5, 1.199696092607307792672940081169776510415e-4),
        (0, 5.192983060457965172215846917173604493922e-1), (4, 1.562552574601094053588529248616664754777e-4),
        (9, 2.474016871957196639057898406662991346377e-11), (13, 1.162818424051179931282125421923397914777e-17),
        (18, 2.74052610583169495782645244428146655086e-26),
    ],
    (2, 0.7): [
        (-23, 7.541708938547672748875803247904464505103e-28), (-17, 4.750209265606057220282932766474425693316e-19),
        (-11, 3.739128968373581635866437563951818686051e-11), (-5, 1.184194061694471506096364419691178889016e-4),
        (2, 2.09199806772765071536930607256221594669e-1), (8, 4.97926781490209365946237610736756552503e-4),
        (14, 1.386223542040183663432946675779817748047e-8), (20, 3.095918085685924848192912259250100157385e-14),
        (26, 1.177779337885962025485451626033472682558e-20),
    ],
    (12, 30): [
        (-81, 3.181860833651879630502038821873724402603e-18), (-65, 1.372908142909347968042458147239248098323e-11),
        (-50, 1.047177441964522656046012350081906606665e-6), (-34, 3.164999627130774095498885483967767128866e-3),
        (-18, 6.168550079910357471738433888409896467958e-2), (-2, 2.675862951406198129133099504876017194744e-3),
        (14, 1.391768948683777329798227822577090458695e-7), (29, 4.173580523284481500901532871830088290584e-14),
        (45, 2.562032461446259166148155399217873887026e-23),
    ],
    (150, 100): [
        (-88, 4.547687624943327136278636350390599640572e-19), (-54, 7.561526657578034294593906004598653002325e-12),
        (-19, 1.65796095566129565793276837998797529683e-6), (16, 2.47949996976019783795109677615451305722e-3),
        (50, 2.524312202927740014195244135598024723822e-2), (84, 2.516373941529258538122444191215159363074e-3),
        (119, 2.211232461642980591377134783569351027554e-6), (154, 2.156943191438786592382356561258474953175e-11),
        (188, 5.051869829294648730179700062768314891038e-18),
    ],
    (1000, 1200): [
        (-587, 1.798836379471560351942083235158478368412e-17), (-490, 4.666006056735689583963495921606437384843e-11),
        (-394, 1.677277385658462636897632458975014869474e-6), (-297, 1.003075378579321426776895919198496841911e-3),
        (-200, 8.505954723684895457081529635930549794848e-3), (-103, 1.001364827430126418425896937347585666816e-3),
        (-6, 1.615386836356055090817889017394559992826e-6), (90, 4.057460829866918543180614202174727858013e-11),
        (187, 1.277200947595752594016850020478214766259e-17),
    ],
    (5000, 3000): [
        (1273, 1.611159463759762444187241738041106916333e-17), (1455, 3.52525780348116060362128504047478556527e-11),
        (1636, 1.101860605789026647547265430257010249782e-6), (1818, 5.620639723724587493483327780790836416101e-4),
        (2000, 4.460372726355194044224753320756522673829e-3), (2182, 5.632807755457702575640623052354932705334e-4),
        (2364, 1.159965848799297286486059410777342194892e-6), (2545, 4.277541239384450602190764208776560880853e-11),
        (2727, 2.593627816209887996303462443959592763992e-17),
    ],
    (10000, 10000): [
        (-1143, 1.859134784562183769892315234672334458545e-17), (-857, 3.000815957947647850144504638574177421758e-11),
        (-572, 7.910354410894474453232213902067247649204e-7), (-286, 3.650076175147077686210235553051009535182e-4),
        (0, 2.820965549159162881816469834746830330816e-3), (286, 3.650076175147077686210235553051009535182e-4),
        (572, 7.910354410894474453232213902067247649204e-7), (857, 3.000815957947647850144504638574177421758e-11),
        (1143, 1.859134784562183769892315234672334458545e-17),
    ],
    (100000, 110000): [
        (-13678, 9.03104698504475879571436614048453446113e-18), (-12758, 1.191101107763628215897178687201573986954e-11),
        (-11839, 2.774515723328229863819402507048950893922e-7), (-10920, 1.160402799560420407179202285863269860852e-4),
        (-10000, 8.705639437868502780023599279487627151635e-4), (-9080, 1.160319649565955839174942984162498825574e-4),
        (-8161, 2.769466564729342877027330651344610055268e-7), (-7242, 1.182881097436015962453944897676935886428e-11),
        (-6322, 8.87817627955363833446833062153305769516e-18),
    ],
}


class TestSkellam:
    def test_central_value(self):
        # brute-force oracle: sum_k e^{-2}/(k!)^2 = 0.30850832255367105
        assert skellam_pmf(0, 1.0, 1.0) == pytest.approx(0.30850832255367105, abs=1e-12)

    def test_symmetry_example(self):
        assert skellam_pmf(3, 1.0, 2.0) == pytest.approx(skellam_pmf(-3, 2.0, 1.0), rel=1e-12)

    @given(
        st.integers(-20, 20),
        st.floats(0.05, 30.0),
        st.floats(0.05, 30.0),
    )
    @settings(max_examples=60)
    def test_symmetry(self, d, lambda1, lambda2):
        assert skellam_pmf(d, lambda1, lambda2) == pytest.approx(
            skellam_pmf(-d, lambda2, lambda1), rel=1e-11
        )

    @pytest.mark.parametrize("lambda1,lambda2", [(1.0, 1.0), (5.0, 1.0), (100.0, 40.0)])
    def test_total_mass(self, lambda1, lambda2):
        xmax = int(round(max(lambda1, lambda2)) + 20 * math.sqrt(max(lambda1, lambda2)))
        total = sum(skellam_pmf(d, lambda1, lambda2) for d in range(-xmax, xmax + 1))
        assert total >= 1.0 - 1e-9

    def test_matches_reference(self):
        for d in range(-6, 7):
            assert skellam_pmf(d, 2.5, 4.0) == pytest.approx(
                stats.skellam.pmf(d, 2.5, 4.0), rel=1e-9
            )

    def test_invalid(self):
        with pytest.raises(ValueError):
            skellam_pmf(0, -1.0, 1.0)

    @pytest.mark.parametrize("lambda1,lambda2", [(0.15, 0.15), (0.3, 7.0), (30.0, 41.0), (1e3, 2.5), (1e4, 1e4)])
    def test_dist_is_the_pmf_over_its_support_to_the_bit(self, lambda1, lambda2):
        # the bulk alone skips the Chernoff bound; a far d, which reads 0, sends the pmf through it
        dist = skellam_dist(lambda1, lambda2)
        far = dist.values[-1] + 10**6
        bounded = skellam_pmf(np.append(dist.values, far), lambda1, lambda2)
        assert bounded[-1] == 0.0
        assert np.array_equal(dist.probs, bounded[:-1])
        assert np.array_equal(dist.probs, skellam_pmf(dist.values, lambda1, lambda2))

    def test_dist_sums_to_one(self):
        dist = skellam_dist(1.0, 1.0)
        assert abs(dist.probs.sum() - 1.0) <= 1e-9
        assert dist.prob(0) == pytest.approx(0.30850832255367105, abs=1e-12)

    def test_dist_moments(self):
        dist = skellam_dist(5.0, 2.0)
        assert dist.mean() == pytest.approx(3.0, abs=1e-9)
        assert dist.sd() == pytest.approx(math.sqrt(7.0), rel=1e-9)

    @pytest.mark.parametrize(
        "lambda1,lambda2",
        [(1e-6, 1e-6), (0.1, 0.1), (1.0, 1.0), (1e4, 1e4), (1e6, 1e6), (0.105, 0.119),
         # unequal rates reach orders where ive underflows (the Debye branch)
         (1e4, 10**3.8), (100.0, 2e-4), (1e6, 1.2e6)],
    )
    def test_dist_across_scales(self, lambda1, lambda2):
        dist = skellam_dist(lambda1, lambda2)
        assert dist.probs.sum() >= 1.0 - 1e-9
        picks = dist.values[np.linspace(0, dist.values.size - 1, 41).astype(int)]
        ref = stats.skellam.pmf(picks, lambda1, lambda2)
        got = np.array([dist.prob(d) for d in picks])
        live = ref > 1e-300
        np.testing.assert_allclose(got[live], ref[live], rtol=1e-9)

    @pytest.mark.parametrize("lambda1,lambda2", [(1.0, 1.0), (2.5, 4.0), (30.0, 0.05)])
    def test_matches_truncated_sum(self, lambda1, lambda2):
        # reference: the direct double sum over (x1, x2 = x1 - d) it replaced
        x1 = np.arange(0, 200)
        log1 = special.xlogy(x1, lambda1) - lambda1 - special.gammaln(x1 + 1.0)
        log2 = special.xlogy(x1, lambda2) - lambda2 - special.gammaln(x1 + 1.0)
        ds = np.arange(-15, 40)
        brute = [np.exp(log1[max(0, d):200 + min(0, d)] + log2[max(0, -d):200 - max(0, d)]).sum()
                 for d in ds]
        np.testing.assert_allclose(skellam_pmf(ds, lambda1, lambda2), brute, rtol=1e-12)

    def test_array_matches_scalar_calls(self):
        ds = np.arange(-12, 13)
        np.testing.assert_array_equal(
            skellam_pmf(ds, 3.0, 0.7), [skellam_pmf(int(d), 3.0, 0.7) for d in ds]
        )

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            skellam_pmf(0.5, 1.0, 1.0)

    @pytest.mark.parametrize(
        "v,z,ref",
        # log(I_v(z)) - z from mpmath at 40 digits; special.ive is NaN at these z
        [(0, 3e9, -11.829877595970266499), (1, 3e9, -11.829877596136933166),
         (0, 2e10, -12.778437588448623817), (5, 2e10, -12.778437589073623817),
         (1000, 2e10, -12.778462588448624442), (100000, 2e10, -13.028437588454352983)],
    )
    def test_log_ive_past_ive_range(self, v, z, ref):
        # at lambda1 = lambda2 = z / 2, log P(D = v) = log(I_v(z)) - z
        assert math.log(skellam_pmf(v, z / 2, z / 2)) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("lambdas", SKELLAM_40_DIGITS, ids=str)
    def test_pmf_matches_40_digit_constants(self, lambdas):
        # the Bessel form with its asymptotic branches once missed these by up to 7.6e-12
        ds, ref = np.array(SKELLAM_40_DIGITS[lambdas]).T
        np.testing.assert_allclose(skellam_pmf(ds, *lambdas), ref, rtol=1e-13)
        np.testing.assert_array_equal(skellam_pmf(-ds, *lambdas[::-1]), skellam_pmf(ds, *lambdas))

    @pytest.mark.parametrize(
        "d,lambda1,lambda2",
        [(10**9, 1.0, 1.0), (-10**9, 1e7, 4e6), (math.inf, 1.0, 1.0), (-math.inf, 3.0, 2.0)],
    )
    def test_pmf_past_the_tail_bound_is_zero_untabulated(self, monkeypatch, d, lambda1, lambda2):
        # a tabulation out to d would not end; +-inf once read NaN
        def tabulate(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(distributions, "_skellam_log_rise", tabulate)
        assert skellam_pmf(d, lambda1, lambda2) == 0.0

    @pytest.mark.parametrize("lambda1", [1e15, math.inf])
    def test_pmf_table_past_bound_refused(self, lambda1):
        # twice skellam_dist's bound: 2 (8 sqrt(2e15) + 11) + 1 points would fill memory; an infinite
        # rate is refused first, by the rule of every rate
        reason = "support points, more than 4194304"
        if lambda1 == math.inf:
            reason = r"^lambda1 must be finite and > 0, got inf$"
        with pytest.raises(ValueError, match=reason):
            skellam_pmf(0, lambda1, 1e15)

    def test_dist_large_equal_rates(self):
        # z = 2 sqrt(l1 l2) = 6e9, where ive returns NaN for every order
        dist = skellam_dist(3e9, 3e9)
        assert abs(dist.probs.sum() - 1.0) <= 1e-9
        assert dist.mean() == pytest.approx(0.0, abs=1e-6)
        assert dist.sd() == pytest.approx(math.sqrt(6e9), rel=1e-9)

    @pytest.mark.parametrize(
        "d,lambda1,lambda2,ref",
        # log P(D = d) from mpmath at 40 digits, summing the Poisson products
        # directly (mpmath's besseli does not converge at these orders)
        [(6000000, 1e7, 4e6, -9.146222470799103802878),
         (6012000, 1e7, 4e6, -14.28863352440197201863),
         (5985000, 1e7, 4e6, -17.18293695711311997577),
         (-200000, 1e6, 1.2e6, -8.220922436333370367342),
         (-195000, 1e6, 1.2e6, -13.90302750666863593299),
         (61000, 1e5, 4e4, -10.41295289361584201767),
         (3000000000, 5e9, 2e9, -12.25352652619314430186),
         (3000400000, 5e9, 2e9, -23.68201690432216492901)],
    )
    def test_pmf_large_unequal_rates(self, d, lambda1, lambda2, ref):
        assert skellam_pmf(d, lambda1, lambda2) == pytest.approx(math.exp(ref), rel=1e-9)
        assert skellam_pmf(-d, lambda2, lambda1) == skellam_pmf(d, lambda1, lambda2)

    @pytest.mark.parametrize("lambda1,lambda2", [(1e7, 4e6), (5e9, 2e9), (2e9, 5e9)])
    def test_dist_large_unequal_rates(self, lambda1, lambda2):
        # the Debye-branch terms are each about lambda in size: once they
        # cancelled, and the mass missed 1 by 2.7e-9 and -4.2e-6
        dist = skellam_dist(lambda1, lambda2)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        assert dist.mean() == pytest.approx(lambda1 - lambda2, rel=1e-9)
        assert dist.sd() == pytest.approx(math.sqrt(lambda1 + lambda2), rel=1e-9)

    def test_support_past_bound_refused(self, monkeypatch):
        # 2 (8 sqrt(2000) + 11) + 1 = 738 points fit under a bound of 1000; 5000/5000 needs 1623
        monkeypatch.setattr(distributions, "SKELLAM_MAX_POINTS", 1000, raising=False)
        assert skellam_dist(1000.0, 1000.0).values.size == 739
        with pytest.raises(ValueError, match="about 1623 support points, more than 1000"):
            skellam_dist(5000.0, 5000.0)

    @pytest.mark.parametrize(
        "d,lambda1,lambda2,ref",
        # P(D = d) from mpmath at 40 digits: the Debye expansion once served these small
        # orders, and at 1e-200 / 1 its error broke the 1e-9 mass contract
        [(-2, 1e-300, 1.0, 0.18393972058572116),
         (-3, 1e-200, 1.0, 0.061313240195240387),
         (-20, 1e-300, 1.0, 1.5121013503012102e-19),
         (-5, 1e-320, 1e-5, 8.3332500004166687e-28),
         (-4, 1e-100, 1e-60, 4.1666666666666662e-242)],
    )
    def test_pmf_small_argument_series(self, d, lambda1, lambda2, ref):
        assert skellam_pmf(d, lambda1, lambda2) == pytest.approx(ref, rel=1e-12)
        assert skellam_pmf(-d, lambda2, lambda1) == skellam_pmf(d, lambda1, lambda2)


class TestDiscreteDist:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DiscreteDist(values=np.array([0, 1]), probs=np.array([0.5, 0.4]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DiscreteDist(values=np.array([0, 1]), probs=np.array([np.nan, 1.0]))


class TestGammaPdf:
    def test_exponential_special_case(self):
        p = GammaParams(1.0, 1.0)
        for x in (0.0, 0.5, 2.0, 7.0):
            assert gamma_pdf(x, p) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_mode_by_grid(self):
        p = GammaParams(7.0, 6.0)
        grid = np.linspace(0.0, 5.0, 5001)
        assert grid[np.argmax(gamma_pdf(grid, p))] == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (4.0, 3.0), (6.25, 1.25)])
    def test_normalization(self, alpha, beta):
        p = GammaParams(alpha, beta)
        # upper limit: mean + 40 sd keeps the analytic tail bound below 1e-9
        hi = alpha / beta + 40.0 * math.sqrt(alpha) / beta
        total, _ = integrate.quad(lambda x: gamma_pdf(x, p), 0.0, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_log_form_consistent(self):
        p = GammaParams(6.25, 1.25)
        xs = np.array([0.1, 1.0, 5.0, 20.0])
        assert np.allclose(np.exp(gamma_logpdf(xs, p)), gamma_pdf(xs, p), rtol=1e-12)

    def test_improper_params_rejected(self):
        with pytest.raises(ValueError):
            gamma_pdf(1.0, GammaParams(1.0, 0.0))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_density_vanishes_at_infinity(self, alpha):
        # (alpha - 1) log(x) - beta x was inf - inf (or 0 * inf) at x = inf: nan
        p = GammaParams(alpha, 1.0)
        assert gamma_logpdf(math.inf, p) == -math.inf and gamma_pdf(math.inf, p) == 0.0
        assert gamma_pdf([1.0, math.inf], p).tolist() == [gamma_pdf(1.0, p), 0.0]


class TestGammaCdf:
    def test_exponential(self):
        assert gamma_cdf(1.0, GammaParams(1.0, 1.0)) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_monotone(self):
        p = GammaParams(4.0, 3.0)
        xs = np.linspace(0, 10, 100)
        cdf = gamma_cdf(xs, p)
        assert np.all(np.diff(cdf) >= 0)


LEVELS = np.array([1e-9, 0.001, 0.025, 0.5, 0.975, 0.999, 1 - 1e-9])


class TestGammaPpf:
    @pytest.mark.parametrize(
        "alpha,beta,levels",
        [(4.0, 3.0, LEVELS), (0.5, 1.0, LEVELS), (1.0, 1e9, LEVELS), (6.25, 1.25, LEVELS),
         (1e6 + 1.0, 1.0, LEVELS), (1e8 + 1.0, 1.0, LEVELS[2:])],
    )
    def test_inverts_reference_cdf(self, alpha, beta, levels):
        got = gamma_ppf(levels, GammaParams(alpha, beta))
        np.testing.assert_allclose(
            stats.gamma.cdf(got, alpha, scale=1 / beta), levels, rtol=0, atol=1e-12
        )

    @pytest.mark.xfail(strict=True, reason="SciPy gammainc/gammaincinv lower tail at shape 1e8")
    def test_huge_shape_lower_tail(self):
        # At shape 1e8 the Wilson-Hilferty cube-root normal law is exact to
        # ~1e-15 in probability (it also agrees with a 30-digit series), and
        # it puts 1.56e-6, not 1e-6, below SciPy's 1e-6 quantile.
        alpha, q = 1e8 + 1.0, 1e-6
        x = gamma_ppf(q, GammaParams(alpha, 1.0))
        z = ((x / alpha) ** (1 / 3) - (1 - 1 / (9 * alpha))) * math.sqrt(9 * alpha)
        assert stats.norm.cdf(z) == pytest.approx(q, abs=1e-9)

    def test_edges_and_range(self):
        p = GammaParams(2.0, 1.0)
        assert gamma_ppf(0.0, p) == 0.0 and gamma_ppf(1.0, p) == math.inf
        with pytest.raises(ValueError):
            gamma_ppf(1.5, p)
        with pytest.raises(ValueError):
            gamma_ppf(0.5, GammaParams(1.0, 0.0))

    def test_params_law_methods(self):
        p = GammaParams(4.0, 3.0)
        assert p.pdf(1.0) == gamma_pdf(1.0, p)
        assert p.cdf(1.0) == gamma_cdf(1.0, p)
        assert p.ppf(0.5) == gamma_ppf(0.5, p)


# (alpha1, beta1, alpha2, beta2): small, skewed, pole at 0, and large counts
RATIO_PARAMS = [
    (2.0, 1.0, 3.0, 2.0),
    (4.0, 3.0, 7.0, 6.0),
    (0.5, 2.0, 1.5, 0.1),
    (1e6 + 1.0, 1.0, 1e6 + 1.0, 1.0),
    (1.0, 1e-9, 1e8, 3.0),
]


class TestGammaRatioCdf:
    @pytest.mark.parametrize("a1,b1,a2,b2", RATIO_PARAMS)
    def test_matches_beta_prime(self, a1, b1, a2, b2):
        # Z1/Z2 = (b2/b1) * BetaPrime(a1, a2)
        scale = b2 / b1
        rhos = scale * stats.betaprime.ppf([1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6], a1, a2)
        got = gamma_ratio_cdf(rhos, GammaParams(a1, b1), GammaParams(a2, b2))
        ref = stats.betaprime.cdf(rhos / scale, a1, a2)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_limits(self):
        p1, p2 = GammaParams(2.0, 1.0), GammaParams(3.0, 2.0)
        assert gamma_ratio_cdf(0.0, p1, p2) == 0.0
        assert gamma_ratio_cdf(1e300, p1, p2) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            gamma_ratio_cdf(-1.0, p1, p2)

    def test_scaled_ratio_past_float_range(self):
        # b1 * rho = inf once gave u = inf / inf = nan, with a RuntimeWarning
        p1, p2 = GammaParams(2.0, 1e10), GammaParams(3.0, 2.0)
        assert gamma_ratio_cdf(1e300, p1, p2) == 1.0
        np.testing.assert_array_equal(gamma_ratio_cdf(np.array([0.0, 1e300]), p1, p2), [0.0, 1.0])

    def test_quantile_past_float_range(self):
        # b2 * u / (b1 * (1 - u)) overflows: inf, without a RuntimeWarning
        assert gamma_ratio_ppf(0.999, GammaParams(1e12, 7.5e-90), GammaParams(1e3, 3e221)) == math.inf


class TestGammaRatioPpf:
    @pytest.mark.parametrize("a1,b1,a2,b2", RATIO_PARAMS)
    def test_inverts_beta_prime_cdf(self, a1, b1, a2, b2):
        rho = gamma_ratio_ppf(LEVELS, GammaParams(a1, b1), GammaParams(a2, b2))
        np.testing.assert_allclose(
            stats.betaprime.cdf(rho * b1 / b2, a1, a2), LEVELS, rtol=0, atol=1e-12
        )

    def test_large_count_upper_quantile(self):
        # 0.999 quantile of the Model A ratio for 1e6 counts in unit time on both sides
        p = GammaParams(1e6 + 1.0, 1.0)
        assert gamma_ratio_ppf(0.999, p, p) == pytest.approx(1.0043798120, abs=1e-9)

    def test_edges_and_range(self):
        p1, p2 = GammaParams(2.0, 1.0), GammaParams(3.0, 2.0)
        assert gamma_ratio_ppf(0.0, p1, p2) == 0.0
        assert gamma_ratio_ppf(1.0, p1, p2) == math.inf
        with pytest.raises(ValueError):
            gamma_ratio_ppf(-0.1, p1, p2)


class TestGammaSummaries:
    def test_elicited_params(self):
        s = gamma_summaries(GammaParams(6.25, 1.25))
        assert s.mean == pytest.approx(5.0) and s.sd == pytest.approx(2.0)

    def test_exponential(self):
        s = gamma_summaries(GammaParams(1.0, 1.0))
        assert s.mode == 0.0 and s.mean == 1.0 and s.sd == 1.0

    def test_chi_square_as_gamma(self):
        # chi^2 with nu=4 is Gamma(nu/2, 1/2): mean nu, variance 2 nu
        s = gamma_summaries(GammaParams(2.0, 0.5))
        assert s.mean == pytest.approx(4.0) and s.variance == pytest.approx(8.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 6.25])
    def test_mode_matches_grid_argmax(self, alpha):
        p = GammaParams(alpha, 1.0)
        grid = np.linspace(0.0, 20.0, 20001)
        argmax = grid[np.argmax(gamma_pdf(grid, p))]
        assert argmax == pytest.approx(gamma_summaries(p).mode, abs=2e-3)

    def test_sub_one_shape_mode_zero(self):
        assert gamma_summaries(GammaParams(0.5, 1.0)).mode == 0.0

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1e-300), (4.0, 1e200)])
    def test_beta_squared_outside_float_range(self, alpha, beta):
        # beta**2 underflows to 0 (once a ZeroDivisionError) or overflows to inf (sd 0)
        s = gamma_summaries(GammaParams(alpha, beta))
        assert s.mean == pytest.approx(alpha / beta, rel=1e-15)
        assert s.sd == pytest.approx(math.sqrt(alpha) / beta, rel=1e-15)

    def test_variance_past_float_range_beside_finite_sd(self):
        # sd * sd once read inf, which JSON refused (exit 3) where text printed the sd
        s = gamma_summaries(GammaParams(1.0, 1e-300))
        assert s.sd == pytest.approx(1e300, rel=1e-15) and s.variance is None
        assert s.undefined == {"variance": "past the float range"}
        assert s.as_dict()["variance"] is None

    def test_refuses_mode_past_float_range(self):
        # once mode = mean = inf, which text and csv printed with exit 0
        with pytest.raises(ValueError, match=re.escape("mode = inf is outside the float range")):
            gamma_summaries(GammaParams(1e10, 1e-300))


class TestGammaSample:
    def test_moments(self):
        draws = gamma_sample(GammaParams(2.0, 1.0), 1_000_000, seed=17)
        assert draws.mean() == pytest.approx(2.0, abs=3 * math.sqrt(2) / 1e3)

    def test_reproducible(self):
        a = gamma_sample(GammaParams(4.0, 3.0), 1000, seed=5)
        b = gamma_sample(GammaParams(4.0, 3.0), 1000, seed=5)
        assert np.array_equal(a, b)

    def test_exponential_tail(self):
        n = 500_000
        draws = gamma_sample(GammaParams(1.0, 1.0), n, seed=11)
        p = math.exp(-3.0)
        frac = np.mean(draws > 3.0)
        assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_positive(self):
        assert (gamma_sample(GammaParams(0.3, 2.0), 10_000, seed=1) > 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gamma_sample(GammaParams(1.0, 1.0), 0, seed=0)

    def test_fractional_size_refused(self):
        # once silently truncated to 2 draws
        with pytest.raises(ValueError, match=r"^n must be a whole number >= 1, got 2\.5$"):
            gamma_sample(GammaParams(2.0, 1.0), 2.5, seed=1)

    @pytest.mark.parametrize("n", [3.0, np.int64(3), np.int32(3)])
    def test_whole_float_and_numpy_sizes_pass(self, n):
        want = gamma_sample(GammaParams(2.0, 1.0), 3, seed=1)
        assert np.array_equal(gamma_sample(GammaParams(2.0, 1.0), n, seed=1), want)


class TestBinomialPmf:
    def test_certain(self):
        assert binomial_pmf(5, 5, 1.0) == 1.0

    def test_half(self):
        assert binomial_pmf(0, 5, 0.5) == pytest.approx(1 / 32, rel=1e-12)

    def test_sums_to_one(self):
        total = sum(binomial_pmf(x, 20, 0.3) for x in range(21))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_outside_support_is_zero(self):
        assert binomial_pmf(-1, 5, 0.5) == 0.0
        assert binomial_pmf(6, 5, 0.5) == 0.0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            binomial_pmf(1, 5, 1.5)

    @pytest.mark.parametrize("n", [math.inf, math.nan, 2.5, -1])
    def test_invalid_n_refused_naming_it(self, n):
        # n = inf once raised a bare OverflowError from int(n), and NaN a ValueError naming no argument
        with pytest.raises(ValueError, match=rf"^n must be a whole number >= 0, got {n}$"):
            binomial_pmf(1, n, 0.5)

    def test_degenerate_edges(self):
        assert binomial_pmf(0, 4, 0.0) == 1.0
        assert binomial_pmf(1, 4, 0.0) == 0.0
        assert binomial_pmf(4, 4, 1.0) == 1.0
        assert binomial_pmf(3, 4, 1.0) == 0.0

    # the reference implementation itself overflows for subnormal p,
    # so the property range stays clear of the extreme tails
    @given(st.integers(0, 30), st.integers(0, 30), st.floats(1e-9, 1.0 - 1e-9))
    @settings(max_examples=60)
    def test_matches_reference(self, x, n, p):
        assert binomial_pmf(x, n, p) == pytest.approx(stats.binom.pmf(x, n, p), abs=1e-12)


class TestGammaRatioPdf:
    def test_unit_params_closed_form(self):
        p1 = p2 = GammaParams(1.0, 1.0)
        for rho in (0.0, 0.3, 1.0, 4.0):
            assert gamma_ratio_pdf(rho, p1, p2) == pytest.approx(1 / (1 + rho) ** 2, rel=1e-12)

    def test_normalization(self):
        p1, p2 = GammaParams(2.0, 1.0), GammaParams(3.0, 2.0)
        total, _ = integrate.quad(lambda r: gamma_ratio_pdf(r, p1, p2), 0.0, np.inf, limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_matches_sampling(self):
        p1, p2 = GammaParams(2.0, 1.0), GammaParams(3.0, 2.0)
        n = 1_000_000
        rng = np.random.default_rng(23)
        draws = rng.gamma(2.0, 1.0, n) / rng.gamma(3.0, 0.5, n)
        edges = np.linspace(0.0, 8.0, 81)
        counts, _ = np.histogram(draws, bins=edges)
        probs = bin_probabilities(lambda r: gamma_ratio_pdf(r, p1, p2), edges)
        assert_all_bins_within(counts, probs, n)

    def test_zero_boundary(self):
        # density at 0 is finite for alpha1 = 1 and zero for alpha1 > 1
        assert gamma_ratio_pdf(0.0, GammaParams(1.0, 1.0), GammaParams(2.0, 1.0)) > 0
        assert gamma_ratio_pdf(0.0, GammaParams(2.0, 1.0), GammaParams(2.0, 1.0)) == 0.0

    @pytest.mark.parametrize(
        "rho,p1,p2,want",
        [
            # u = rho b1 / b2 = 1e410, past the float range
            (1e10, GammaParams(3.0, 1e200), GammaParams(4.0, 1e-200), -3795.171058877953277895387),
            # s = b2 / b1 = 1e400, past the float range
            (1e300, GammaParams(2.0, 1e-200), GammaParams(5.0, 1e200), -1147.891349115360686556343),
        ],
    )
    def test_logpdf_where_s_or_u_leaves_the_float_range(self, rho, p1, p2, want):
        # the constants are mpmath's, at 60 digits
        assert gamma_ratio_logpdf(rho, p1, p2) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("alpha1", [0.5, 1.0, 2.0])
    def test_density_vanishes_at_infinity(self, alpha1):
        # (a1 - 1) log u - (a1 + a2) log1p(u) was inf - inf (or 0 * inf) at rho = inf: nan
        p1, p2 = GammaParams(alpha1, 1.0), GammaParams(3.0, 1.0)
        assert gamma_ratio_logpdf(math.inf, p1, p2) == -math.inf
        assert gamma_ratio_pdf(math.inf, p1, p2) == 0.0
        assert beta_prime_pdf(math.inf, alpha1, 3.0) == 0.0


class TestGammaRatioSummaries:
    def test_reference_configuration(self):
        s = gamma_ratio_summaries(GammaParams(2.0, 1.0), GammaParams(3.0, 2.0))
        assert s.mode == pytest.approx(0.5, rel=1e-12)
        assert s.mean == pytest.approx(2.0, rel=1e-12)
        assert s.variance == pytest.approx(8.0, rel=1e-12)

    def test_mean_undefined_at_alpha2_one(self):
        s = gamma_ratio_summaries(GammaParams(2.0, 1.0), GammaParams(1.0, 1.0))
        assert s.mean is None and "alpha2" in s.undefined["mean"]

    def test_variance_undefined_at_alpha2_two(self):
        s = gamma_ratio_summaries(GammaParams(2.0, 1.0), GammaParams(2.0, 1.0))
        assert s.mean is not None
        assert s.variance is None and s.sd is None
        assert "alpha2" in s.undefined["variance"]

    def test_sd_defined_iff_variance(self):
        s = gamma_ratio_summaries(GammaParams(2.0, 1.0), GammaParams(3.0, 2.0))
        assert s.sd == pytest.approx(math.sqrt(s.variance), rel=1e-12)

    def test_refuses_variance_past_float_range(self):
        # scale**2 once raised OverflowError for a rate scale b2/b1 past ~1.3e154; then text
        # printed sd = inf for an sd of 6.6e199; then the variance was refused. Beside a finite
        # sd it is now None with its reason, as in gamma_summaries
        s = gamma_ratio_summaries(GammaParams(3.0, 1e-200), GammaParams(5.0, 1.0))
        assert s.sd == pytest.approx(1e200 * math.sqrt(3 / 4 * 7 / 12), rel=1e-14) and s.variance is None
        assert s.undefined == {"variance": "past the float range"}
        # an sd past the float range is still refused
        with pytest.raises(ValueError, match=re.escape("sd = inf is outside the float range")):
            gamma_ratio_summaries(GammaParams(1.0, 1e-306), GammaParams(2.0000001, 1.0))
        # (1e160)**2 leaves the float range, but the variance does not
        s = gamma_ratio_summaries(GammaParams(1e-30, 1e-160), GammaParams(1e30, 1.0))
        assert s.variance == pytest.approx(1e230, rel=1e-12)

    def test_variance_matches_exact_rational(self):
        rng = np.random.default_rng(8)
        for a1, b1, a2, b2 in rng.uniform(0.1, 30.0, (200, 4)) + [0.0, 0.0, 2.0, 0.0]:
            s = gamma_ratio_summaries(GammaParams(a1, b1), GammaParams(a2, b2))
            a1, b1, a2, b2 = map(Fraction, (a1, b1, a2, b2))
            exact = (b2 / b1) ** 2 * a1 * (a1 + a2 - 1) / ((a2 - 1) ** 2 * (a2 - 2))
            assert s.variance == pytest.approx(float(exact), rel=1e-14, abs=0)

    @pytest.mark.parametrize("x", [10**6, 10**10, 10**16])
    def test_variance_at_large_shapes(self, x):
        # (a1 + 1)/(a2 - 2) - a1/(a2 - 1) cancelled: at x = 1e16 the sd read 1.49012e-08, not 1.41421e-08
        a = 1.0 + x  # Model A's shapes for x1 = x2 = x counts in unit time
        s = gamma_ratio_summaries(GammaParams(a, 1.0), GammaParams(a, 1.0))
        exact = Fraction(a) * (2 * Fraction(a) - 1) / ((Fraction(a) - 1) ** 2 * (Fraction(a) - 2))
        assert s.variance == pytest.approx(float(exact), rel=1e-13, abs=0)

    def test_mode_at_unit_shape_is_zero_at_any_scale(self):
        # at a scale b2/b1 past the float range the mode once read 0 * inf = nan
        s = gamma_ratio_summaries(GammaParams(1.0, 1e-10), GammaParams(1.0, 1e300))
        assert s.mode == 0.0 and s.mean is None and s.variance is None

    @pytest.mark.parametrize("field", ["mode", "mean", "variance"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_from_parts_refuses_non_finite(self, field, value):
        # the check once lived in a SummaryStats.from_parts constructor; now every SummaryStats makes it
        parts = dict.fromkeys(("mode", "mean", "variance", "sd"), 1.0) | {field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} = {value} is outside the float range")):
            distributions.SummaryStats(**parts)


class TestBetaPrime:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_equals_unit_rate_gamma_ratio(self, x):
        a, b = 2.5, 3.5
        lhs = beta_prime_pdf(x, a, b)
        rhs = gamma_ratio_pdf(x, GammaParams(a, 1.0), GammaParams(b, 1.0))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_normalization(self):
        total, _ = integrate.quad(lambda x: beta_prime_pdf(x, 2.0, 2.0), 0.0, np.inf, limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_unit_value(self):
        assert beta_prime_pdf(1.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-12)

    @given(st.floats(0.01, 20.0), st.floats(0.2, 8.0), st.floats(0.2, 8.0))
    @settings(max_examples=60)
    def test_identity_property(self, x, a, b):
        assert beta_prime_pdf(x, a, b) == pytest.approx(
            gamma_ratio_pdf(x, GammaParams(a, 1.0), GammaParams(b, 1.0)), rel=1e-12
        )


class TestUniformRatio:
    def test_flat_region(self):
        assert uniform_ratio_pdf(0.5) == 0.5

    def test_tail(self):
        assert uniform_ratio_pdf(2.0) == pytest.approx(1 / 8, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uniform_ratio_pdf(-0.1)

    def test_halves_balance(self):
        # the literal pointwise claim f(1/rho) = f(rho) is false (1/32 vs 1/2
        # at rho = 4); the integrated statement below is the true invariant
        below, _ = integrate.quad(uniform_ratio_pdf, 0.0, 1.0)
        above, _ = integrate.quad(uniform_ratio_pdf, 1.0, np.inf, limit=200)
        assert below == pytest.approx(0.5, abs=1e-9)
        assert above == pytest.approx(0.5, abs=1e-9)

    def test_central_interval(self):
        assert uniform_ratio_cdf(10.0) - uniform_ratio_cdf(0.1) == pytest.approx(0.9, abs=1e-14)

    def test_cdf_limits(self):
        assert uniform_ratio_cdf(0.0) == 0.0
        assert uniform_ratio_cdf(1e9) == pytest.approx(1.0, abs=1e-8)


class TestSampleSd:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_numpy_std_to_the_bit(self, seed):
        values = np.random.default_rng(seed).gamma(3.0, 2.0, size=1000)
        assert _sample_sd(values) == float(np.std(values, ddof=1))

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_past_the_float_range_of_the_squares(self, scale):
        # np.std squares the deviations: inf (with an overflow warning) past ~1e154, 0 below ~1e-162
        values = np.array([1.0, 2.0, 4.0, -3.0])
        assert _sample_sd(values * scale) == pytest.approx(_sample_sd(values) * scale, rel=1e-15)

    def test_constant_values(self):
        assert _sample_sd(np.zeros(3)) == 0.0 and _sample_sd(np.full(4, 7.5)) == 0.0


class TestWriteCsv:
    def test_exact_bytes_of_mixed_columns(self):
        # one format for every table: a joined header, "%s" rows (a float's repr), "\n" line ends
        floats = [0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
        buf = io.StringIO()
        _write_csv(buf, {
            "label": ["pooled", "obs1", "obs2", "obs3", "obs4", "obs5", "obs6"],
            "k": [0, -1, 2, 10**20, 3, 4, 5],
            "iteration": range(1, 8),
            "view": memoryview(np.array(floats[::-1])),
            "x": floats,
        })
        assert buf.getvalue() == (
            "label,k,iteration,view,x\n"
            "pooled,0,1,-inf,0.30000000000000004\n"
            "obs1,-1,2,inf,-0.0\n"
            "obs2,2,3,nan,5e-324\n"
            "obs3,100000000000000000000,4,1.7976931348623157e+308,1.7976931348623157e+308\n"
            "obs4,3,5,5e-324,nan\n"
            "obs5,4,6,-0.0,inf\n"
            "obs6,5,7,0.30000000000000004,-inf\n"
        )


class TestWaitingTimes:
    def test_first_arrival_moments(self):
        n = 1_000_000
        times = poisson_process_waiting_times(2.0, 1, seed=3, n_paths=n)
        first = times[:, 0]
        se = (1 / 2.0) / math.sqrt(n)
        assert first.mean() == pytest.approx(0.5, abs=3 * se)
        # exponential: sd equals mean
        assert first.std() == pytest.approx(0.5, rel=5e-3)

    def test_erlang_third_arrival(self):
        n = 200_000
        times = poisson_process_waiting_times(1.0, 3, seed=20, n_paths=n)
        third = times[:, 2]
        edges = np.linspace(0.0, 12.0, 61)
        counts, _ = np.histogram(third, bins=edges)
        probs = bin_probabilities(lambda t: gamma_pdf(t, GammaParams(3.0, 1.0)), edges)
        assert_all_bins_within(counts, probs, n)

    def test_strictly_increasing_within_path(self):
        times = poisson_process_waiting_times(5.0, 50, seed=8)
        assert times.shape == (50,)
        assert np.all(np.diff(times) > 0)

    def test_reproducible(self):
        a = poisson_process_waiting_times(1.5, 10, seed=9, n_paths=4)
        b = poisson_process_waiting_times(1.5, 10, seed=9, n_paths=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k,n_paths,name", [(2.5, None, "k"), (2, 2.5, "n_paths")])
    def test_fractional_size_refused(self, k, n_paths, name):
        # once silently truncated to 2
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number >= 1, got 2\.5$"):
            poisson_process_waiting_times(1.0, k, seed=1, n_paths=n_paths)

    def test_whole_float_and_numpy_sizes_pass(self):
        want = poisson_process_waiting_times(1.0, 3, seed=1, n_paths=2)
        assert np.array_equal(poisson_process_waiting_times(1.0, 3.0, seed=1, n_paths=np.int64(2)), want)
