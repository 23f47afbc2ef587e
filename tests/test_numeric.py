import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import stats

from rateratio import numeric
from rateratio.distributions import GammaParams
from rateratio.inference import CountObservation
from rateratio.ratio import RatioPosteriorSpec, ratio_posterior


class TestPdfQuantile:
    @pytest.mark.parametrize("q", [0.025, 0.25, 0.5, 0.75, 0.975, 0.999])
    def test_gamma_inversion(self, q):
        p = GammaParams(4.0, 3.0)
        got = numeric.pdf_quantile(p, q)
        # tolerance contract is in probability space
        assert stats.gamma.cdf(got, 4.0, scale=1 / 3.0) == pytest.approx(q, abs=1e-6)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            numeric.pdf_quantile(GammaParams(1.0, 1.0), 1.5)

    def test_tolerance_check_raises(self):
        # a law whose ppf disagrees with its cdf fails the probability check
        class Broken:
            def cdf(self, x):
                return stats.expon.cdf(x)

            def ppf(self, q):
                return stats.expon.ppf(q) * 1.01

        with pytest.raises(ValueError, match="tolerance"):
            numeric.pdf_quantile(Broken(), 0.5)


class TestPdfCdf:
    def test_matches_reference(self):
        p = GammaParams(6.25, 1.25)
        for x in (0.5, 3.0, 8.0):
            assert numeric.pdf_cdf(p, x) == pytest.approx(
                stats.gamma.cdf(x, 6.25, scale=0.8), abs=1e-9
            )


class TestPdfCurve:
    def test_shape_and_span(self):
        p = GammaParams(4.0, 3.0)
        xs, ys = numeric.pdf_curve(p)
        assert xs.shape == (512,) and ys.shape == (512,)
        assert xs[0] == 0.0
        q999 = stats.gamma.ppf(0.999, 4.0, scale=1 / 3.0)
        assert xs[-1] == pytest.approx(q999, rel=1e-3)
        assert np.all(np.isfinite(ys))

    def test_end_point_is_exact_quantile(self):
        post = ratio_posterior(
            RatioPosteriorSpec("B", CountObservation(3, 3.0), CountObservation(6, 6.0))
        )
        xs, ys = numeric.pdf_curve(post, n_points=64)
        assert xs.shape == (64,) and ys.shape == (64,)
        assert xs[-1] == post.ppf(0.999)
        np.testing.assert_array_equal(ys, post.pdf(xs))

    def test_singular_origin_nudged(self):
        # alpha < 1 diverges at 0; the first grid point moves off the origin
        p = GammaParams(0.5, 1.0)
        xs, ys = numeric.pdf_curve(p)
        assert xs[0] > 0.0
        assert np.all(np.isfinite(ys))
        assert xs[0] == xs[1] / 2.0
        assert ys[0] == p.pdf(xs[0])


def test_cli_import_skips_quadrature_and_root_finding():
    # numeric is exact now; loading scipy.integrate or scipy.optimize would
    # add about a quarter second to every command's start-up
    code = (
        "import sys, rateratio.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_sampling_commands_skip_scipy_special(tmp_path):
    # mc, predict ratio and mcmc need only NumPy; importing scipy.special
    # would add about 0.3 s to each of their launches.  The closed-form
    # commands load it on first use.
    spec = tmp_path / "bkg.json"
    spec.write_text(json.dumps({
        "variant": "B_EFF_BKG",
        "data": {"x1": 9, "T1": 3.0, "x2": 12, "T2": 6.0},
        "priors": {"rho": "flat", "r2": "flat", "rb1": {"alpha": 2, "beta": 2},
                   "rb2": {"alpha": 2, "beta": 2}},
        "efficiencies": [0.9, {"a": 6, "b": 4}],
        "background_efficiencies": [0.5, 0.5],
    }))
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from rateratio import cli

        steps = {"import rateratio.cli": "scipy.special" in sys.modules}

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(list(argv)) == 0, argv
            name = " ".join(a for a in argv[:2] if not a.startswith("-"))
            steps[name] = "scipy.special" in sys.modules
            return out.getvalue()

        run("mc", "gamma-ratio", "--alpha1", "3", "--beta1", "1", "--alpha2", "4",
            "--beta2", "2", "--n", "1000", "--seed", "1")
        run("mc", "uniform-ratio", "--n", "1000", "--seed", "1")
        run("predict", "ratio", "--l1", "3", "--l2", "4", "--n", "1000", "--seed", "1")
        run("mcmc", "--spec", sys.argv[1], "--n-iter", "200", "--seed", "1")
        json.loads(run("infer", "--x", "3", "--T", "3", "--format", "json"))
        print(json.dumps(steps))
    """)
    out = subprocess.run(
        [sys.executable, "-c", code, str(spec)], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == {
        "import rateratio.cli": False,
        "mc gamma-ratio": False,
        "mc uniform-ratio": False,
        "predict ratio": False,
        "mcmc": False,
        "infer": True,
    }
