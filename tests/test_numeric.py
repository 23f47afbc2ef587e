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

    def test_quantile_past_float_range(self):
        # r1 / r2 with r1 ~ Gamma(1e12 + 1, 7.5e-90) and r2 ~ Gamma(1001, 3e221): the
        # quantile is near 1e320 and reads inf; once blamed on the inversion's tolerance
        law = ratio_posterior(RatioPosteriorSpec(
            "A", CountObservation(10**12, 7.5e-90), CountObservation(1000, 3e221)))
        assert law.ppf(0.999) == np.inf
        with pytest.raises(ValueError, match=r"^the 0\.999 quantile lies past the float range$"):
            numeric.pdf_quantile(law, 0.999)


    def test_quantile_below_smallest_positive_float(self):
        # ppf reads 0.0 and the cdf there reads 1.0000000000000238: once blamed on the
        # inversion's tolerance
        with pytest.raises(ValueError, match=r"^the 0\.999 quantile lies below the smallest positive float$"):
            numeric.pdf_quantile(GammaParams(1e-300, 2.0), 0.999)


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
        xs, ys = numeric.pdf_curve(post)
        assert xs.shape == (512,) and ys.shape == (512,)
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

    def test_laws_share_one_grid(self):
        # the grid ends at the larger of the two 0.999 quantiles, whichever law comes first
        narrow, wide = GammaParams(4.0, 3.0), GammaParams(2.0, 0.5)
        for laws in ((narrow, wide), (wide, narrow)):
            xs, *ys = numeric.pdf_curve(*laws)
            assert len(ys) == 2
            np.testing.assert_array_equal(xs, numeric.pdf_curve(wide)[0])
            for law, y in zip(laws, ys):
                np.testing.assert_array_equal(y, law.pdf(xs))

    def test_pole_in_one_law_moves_every_first_point(self):
        smooth, pole = GammaParams(4.0, 3.0), GammaParams(0.5, 1.0)
        xs, ys_smooth, ys_pole = numeric.pdf_curve(smooth, pole)
        assert xs[0] == xs[1] / 2.0
        assert ys_smooth[0] == smooth.pdf(xs[0]) and ys_pole[0] == pole.pdf(xs[0])
        assert np.all(np.isfinite(ys_smooth)) and np.all(np.isfinite(ys_pole))

    def test_refuses_density_past_float_range_in_any_law(self):
        class Overflowing:
            """Gamma(4, 3)'s quantiles, with a density that reads inf past 1."""

            def cdf(self, x):
                return GammaParams(4.0, 3.0).cdf(x)

            def ppf(self, q):
                return GammaParams(4.0, 3.0).ppf(q)

            def pdf(self, x):
                return np.where(x > 1.0, np.inf, 1.0)

        # rho's scale T2 / T1 is 1e-320: the density's peak lies past the float range
        data = (CountObservation(3, 1e160), CountObservation(3, 1e-160))
        both = [ratio_posterior(RatioPosteriorSpec(m, *data)) for m in ("A", "B")]
        fine = GammaParams(4.0, 3.0)
        for args in (both[:1], both, [fine, Overflowing()], [Overflowing(), fine]):
            with pytest.raises(ValueError, match=r"^the density leaves the float range on the plot grid$"):
                numeric.pdf_curve(*args)

    def test_exports_no_second_density_check(self):
        # every plotted density goes through pdf_curve's one finiteness check
        assert numeric.__all__ == ["pdf_cdf", "pdf_quantile", "pdf_curve"]


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
    # commands load it on first use.  The mcmc specs cover the Gibbs sweeps
    # and the iid draws of B, of B_EFF with a Beta eps1, and of B_EFF_BKG
    # with fixed efficiencies, whose split tables use no special functions.
    data = {"x1": 9, "T1": 3.0, "x2": 12, "T2": 6.0}
    background = {"rb1": {"alpha": 2, "beta": 2}, "rb2": {"alpha": 2, "beta": 2}}
    specs = {
        "gibbs": {
            "variant": "B_EFF_BKG", "data": data,
            "priors": {"rho": "flat", "r2": "flat", **background},
            "efficiencies": [0.9, {"a": 6, "b": 4}], "background_efficiencies": [0.5, 0.5],
        },
        "iid B": {"variant": "B", "data": data, "priors": {"rho": "flat", "r2": "flat"}},
        "iid B_EFF": {
            "variant": "B_EFF", "data": data, "priors": {"rho": "flat", "r2": "flat"},
            "efficiencies": [{"a": 6, "b": 4}, 0.8],
        },
        "iid B_EFF_BKG": {
            "variant": "B_EFF_BKG", "data": data,
            "priors": {"rho": "flat", "r2": {"alpha": 2, "beta": 1}, **background},
            "efficiencies": [0.9, 0.8], "background_efficiencies": [0.5, 0.5],
        },
    }
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from rateratio import build_model, cli
        from rateratio.mcmc import ModelSpec

        steps = {"import rateratio.cli": "scipy.special" in sys.modules}

        def run(*argv, name=None):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(list(argv)) == 0, argv
            name = name or " ".join(a for a in argv[:2] if not a.startswith("-"))
            steps[name] = "scipy.special" in sys.modules
            return out.getvalue()

        run("mc", "gamma-ratio", "--alpha1", "3", "--beta1", "1", "--alpha2", "4",
            "--beta2", "2", "--n", "1000", "--seed", "1")
        run("mc", "uniform-ratio", "--n", "1000", "--seed", "1")
        run("predict", "ratio", "--l1", "3", "--l2", "4", "--n", "1000", "--seed", "1")
        for path in sys.argv[1:]:
            name = "mcmc " + path.rsplit("/", 1)[-1].removesuffix(".json")
            with open(path) as fh:
                iid = build_model(ModelSpec.from_json(json.load(fh))).draw is not None
            assert iid == name.startswith("mcmc iid"), name
            run("mcmc", "--spec", path, "--n-iter", "200", "--seed", "1", name=name)
        json.loads(run("infer", "--x", "3", "--T", "3", "--format", "json"))
        print(json.dumps(steps))
    """)
    paths = [str(tmp_path / f"{name}.json") for name in specs]
    out = subprocess.run(
        [sys.executable, "-c", code, *paths], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == {
        "import rateratio.cli": False,
        "mc gamma-ratio": False,
        "mc uniform-ratio": False,
        "predict ratio": False,
        **{f"mcmc {name}": False for name in specs},
        "infer": True,
    }
