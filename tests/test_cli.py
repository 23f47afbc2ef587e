import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rateratio
from rateratio import cli
from rateratio.cli import main

SRC = Path(rateratio.__file__).resolve().parent.parent  # where the package under test lives


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_diff_table_contains_central_value(self, capsys):
        code, out, _ = run_cli(capsys, ["predict", "diff", "--l1", "1", "--l2", "1"])
        assert code == 0
        row = next(line for line in out.splitlines() if line.strip().startswith("0 "))
        assert float(row.split()[1]) == pytest.approx(0.3085, abs=5e-4)

    def test_diff_window(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["predict", "diff", "--l1", "1", "--l2", "1", "--d-min", "-2", "--d-max", "2",
             "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,probability"
        assert [row.split(",")[0] for row in lines[1:]] == ["-2", "-1", "0", "1", "2"]

    @pytest.mark.parametrize("l1,l2", [("0.105", "0.119"), ("1e6", "1e6")])
    def test_diff_small_and_large_lambda(self, capsys, l1, l2):
        # small rates once failed the 1e-9 mass check; 1e6 took O(lambda^1.5) time
        code, out, _ = run_cli(
            capsys, ["predict", "diff", "--l1", l1, "--l2", l2, "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(float(l1) - float(l2), abs=1e-6)
        assert sum(payload["pmf"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "l1,l2,window",
        [("3", "0.2", []), ("5000", "4000", []), ("1e4", "1e4", []),
         ("5000", "4000", ["--d-min", "950", "--d-max", "1050"])],
    )
    def test_diff_table_rows_match_the_format_spec(self, capsys, l1, l2, window):
        # the rows go through one "%6d  %12.6g"; they are the bytes of the f-string they replaced
        argv = ["predict", "diff", "--l1", l1, "--l2", l2, *window]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        doc = json.loads(out)
        expected = [f"{d:>6}  {p:>12.6g}" for d, p in zip(doc["support"], doc["pmf"])]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == f"{'d':>6}  {'f(d)':>12}"
        assert lines[3:-2] == expected
        assert lines[-2:] == ["", f"mean = {doc['mean']:.6g}, sd = {doc['sd']:.6g}"]

    def test_diff_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["predict", "diff", "--l1", "0", "--l2", "1"])
        assert code == 2
        assert "--l1" in err

    def test_ratio_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["predict", "ratio", "--l1", "1", "--l2", "1", "--n", "1000000",
             "--seed", "42", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        n = report["n"]
        p_zero_den = math.exp(-1.0)
        se = 3 * math.sqrt(p_zero_den * (1 - p_zero_den) / n)
        assert abs(report["frac_nan"] + report["frac_inf"] - p_zero_den) <= se
        assert report["seed"] == 42


class TestInfer:
    def test_flat_prior(self, capsys):
        code, out, _ = run_cli(capsys, ["infer", "--x", "3", "--T", "3"])
        assert code == 0
        assert "mean = 1.33333" in out and "sd = 0.666667" in out

    def test_zero_counts(self, capsys):
        code, out, _ = run_cli(capsys, ["infer", "--x", "0", "--T", "1"])
        assert code == 0
        assert "mode = 0" in out and "mean = 1" in out

    def test_elicited_prior(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["infer", "--x", "5", "--T", "1.2", "--prior-mean", "5", "--prior-sd", "2"],
        )
        assert code == 0
        assert "Gamma(alpha=11.25, beta=2.45)" in out

    def test_curve_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["infer", "--x", "3", "--T", "3", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,density"
        assert len(lines) == 513

    def test_conflicting_prior_options(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["infer", "--x", "1", "--T", "1", "--prior-mean", "5", "--prior-sd", "2",
             "--prior-alpha", "2", "--prior-beta", "1"],
        )
        assert code == 2 and "not both" in err

    def test_negative_counts_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["infer", "--x", "-1", "--T", "1"])
        assert code == 2

    @pytest.mark.parametrize("x,T", [("0", "1e9"), ("100000000", "1")])
    def test_extreme_scales_have_a_curve(self, capsys, x, T):
        # once "could not bracket quantile" (exit 3)
        code, out, _ = run_cli(capsys, ["infer", "--x", x, "--T", T, "--format", "json"])
        assert code == 0
        curve = json.loads(out)["curve"]
        assert len(curve["r"]) == 512 and all(math.isfinite(y) for y in curve["density"])


class TestRatio:
    def test_model_a(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ratio", "--model", "A", "--x1", "3", "--T1", "3", "--x2", "6", "--T2", "6"]
        )
        assert code == 0
        assert "mean = 1.33333" in out and "sd = 0.942809" in out

    def test_model_b(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ratio", "--model", "B", "--x1", "3", "--T1", "3", "--x2", "6", "--T2", "6"]
        )
        assert code == 0
        assert "mean = 1.6" in out and "sd = 1.2" in out

    def test_sd_at_huge_counts(self, capsys):
        # the cancelling second moment printed sd = 1.49012e-08
        x = 10**16
        code, out, _ = run_cli(capsys, ["ratio", "--x1", str(x), "--T1", "1", "--x2", str(x), "--T2", "1"])
        a = Fraction(1.0 + x)  # both shapes, x + 1 in floating point
        variance = a * (2 * a - 1) / ((a - 1) ** 2 * (a - 2))
        assert code == 0 and f"  sd = {math.sqrt(variance):.6g}\n" in out and "  sd = 1.41421e-08\n" in out

    def test_undefined_moments_rendered(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ratio", "--model", "A", "--x1", "1", "--T1", "1", "--x2", "1", "--T2", "1"]
        )
        assert code == 0
        assert "mode = 0.333333" in out and "mean = 2" in out
        assert "sd = undef(" in out

    def test_compare_emits_both(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["ratio", "--x1", "3", "--T1", "3", "--x2", "6", "--T2", "6", "--compare",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["models"]) == {"A", "B"}
        assert payload["models"]["A"]["summaries"]["mean"] == pytest.approx(4 / 3)
        assert payload["models"]["B"]["summaries"]["mean"] == pytest.approx(1.6)

    def test_json_null_with_reason(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["ratio", "--model", "A", "--x1", "1", "--T1", "1", "--x2", "1", "--T2", "1",
             "--format", "json"],
        )
        assert code == 0
        summaries = json.loads(out)["models"]["A"]["summaries"]
        assert summaries["sd"] is None
        assert "undefined" in summaries and "sd" in summaries["undefined"]

    def test_large_counts_curve_end(self, capsys):
        # once "quantile inversion did not reach tolerance" (exit 3); the
        # closed-form 0.999 quantile is 1.0043798
        code, out, _ = run_cli(
            capsys,
            ["ratio", "--x1", "1000000", "--T1", "1", "--x2", "1000000", "--T2", "1",
             "--format", "csv"],
        )
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(1.0043798, abs=1e-7)

    def test_domain_error_exit_code(self, capsys):
        # passes parsing, then hits the flat-prior x2=0 domain condition
        code, _, err = run_cli(
            capsys, ["ratio", "--model", "B", "--x1", "3", "--T1", "3", "--x2", "0", "--T2", "6"]
        )
        assert code == 3 and err.startswith("error:")


class TestCombine:
    def test_pooled_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, ["combine", "rate", "--obs", "3,3", "--obs", "6,6"]
        )
        assert code == 0
        assert "Gamma(alpha=10, beta=9)" in out
        assert "mean = 1.11111" in out

    def test_single_obs_equals_infer(self, capsys):
        code_c, out_c, _ = run_cli(capsys, ["combine", "rate", "--obs", "4,2.5"])
        code_i, out_i, _ = run_cli(capsys, ["infer", "--x", "4", "--T", "2.5"])
        assert code_c == 0 and code_i == 0
        line = next(l for l in out_c.splitlines() if "pooled posterior" in l)
        assert "Gamma(alpha=5, beta=2.5)" in line
        assert "Gamma(alpha=5, beta=2.5)" in out_i

    def test_bad_observation_format(self, capsys):
        code, _, err = run_cli(capsys, ["combine", "rate", "--obs", "3"])
        assert code == 2 and "--obs[0]" in err

    @pytest.mark.parametrize("argv,reason", [
        ("combine ratio --instance 3,3,2.5,6", "--instance[0]: counts must be a non-negative integer, got 2.5"),
        ("combine ratio --instance 3,3,6,6 --instance 1,0,2,2", "--instance[1]: time must be > 0, got 0.0"),
        ("combine rate --obs 2.5,6", "--obs[0]: counts must be a non-negative integer, got 2.5"),
    ])
    def test_instance_and_obs_share_one_count_time_rule(self, capsys, argv, reason):
        code, out, err = run_cli(capsys, argv.split())
        assert (code, out, err) == (2, "", f"error: {reason}\n")

    def test_ratio_combination_pools_totals(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["combine", "ratio", "--instance", "3,3,6,6", "--instance", "1,2,2,2",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pooled"] == {"x1": 4, "T1": 5.0, "x2": 8, "T2": 8.0}

    def test_ratio_combination_matches_single_pooled_run(self, capsys):
        code_c, out_c, _ = run_cli(
            capsys,
            ["combine", "ratio", "--instance", "3,3,6,6", "--instance", "1,2,2,2",
             "--format", "json"],
        )
        code_r, out_r, _ = run_cli(
            capsys,
            ["ratio", "--model", "B", "--x1", "4", "--T1", "5", "--x2", "8", "--T2", "8",
             "--format", "json"],
        )
        assert code_c == 0 and code_r == 0
        combined = json.loads(out_c)["summaries"]
        single = json.loads(out_r)["models"]["B"]["summaries"]
        assert combined["mean"] == single["mean"]
        assert combined["sd"] == single["sd"]


class TestMcWaiting:
    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["mc", "waiting-times", "--rate", "2", "--k", "3", "--paths", "2",
             "--seed", "4", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "path,event,time"
        assert len(lines) == 7
        times = [float(row.split(",")[2]) for row in lines[1:4]]
        assert times == sorted(times)

    def test_one_path_has_no_sd(self, capsys):
        code, out, _ = run_cli(
            capsys, ["mc", "waiting-times", "--rate", "2", "--k", "3", "--seed", "4"]
        )
        assert code == 0
        assert re.search(r"^first arrival: mean = [0-9.e+-]+, sd = undef\(one path\)$", out, re.M)
        code, out, _ = run_cli(
            capsys, ["mc", "waiting-times", "--rate", "2", "--k", "3", "--paths", "2", "--seed", "4"]
        )
        assert code == 0 and re.search(r"^first arrival: mean = \S+, sd = [0-9.e+-]+$", out, re.M)


class TestDeterminism:
    def test_seeded_runs_identical(self, capsys):
        argv = ["predict", "ratio", "--l1", "2", "--l2", "3", "--n", "200000",
                "--seed", "7", "--format", "json"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_json_round_trip_exact(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["infer", "--x", "3", "--T", "3", "--format", "json"],
        )
        payload = json.loads(out)
        # repr-based floats survive a parse/serialize cycle bit-exactly
        assert json.loads(json.dumps(payload)) == payload
        assert payload["summaries"]["mean"] == 4 / 3


# both seen means of channel 1 underflow to 0 in the Gibbs split of its 5000 counts
SPLIT_UNDERFLOW_SPEC = {
    "variant": "B_EFF_BKG",
    "data": {"x1": 5000, "T1": 8.7e-298, "x2": 0, "T2": 5.7e-107},
    "priors": {"rho": {"alpha": 1, "beta": 5.8e114}, "r2": {"alpha": 86.5, "beta": 8.6e148},
               "rb1": {"alpha": 0.24, "beta": 5.5e262}, "rb2": "flat"},
    "efficiencies": [{"a": 3.38, "b": 31.1}, 0.174],
    "background_efficiencies": [0.587, 0.958],
}
# a produced count whose Poisson mean passes the int64 range, behind a Beta epsS1 / eps1
PRODUCED_PAST_INT64_SPECS = {
    "nS1": {
        "variant": "B_EFF_BKG",
        "data": {"x1": 1, "T1": 2.2e118, "x2": 1000, "T2": 5.4e-299},
        "priors": {"rho": "flat", "r2": {"alpha": 15.6, "beta": 1.85}, "rb1": "flat", "rb2": "flat"},
        "efficiencies": [{"a": 1.034, "b": 7.09}, 0.595],
        "background_efficiencies": [0.106, 0.593],
        "monitor": ["nS1"],
    },
    "n1": {
        "variant": "B_EFF",
        "data": {"x1": 1, "T1": 1.3e188, "x2": 1000, "T2": 2.3e-7},
        "priors": {"rho": "flat", "r2": "flat"},
        "efficiencies": [{"a": 1.1, "b": 4.5}, 0.41],
        "monitor": ["rho", "n1"],
    },
}


class TestMcmcCommand:
    def test_run_and_outputs(self, capsys, tmp_path):
        spec = {
            "variant": "B",
            "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
            "priors": {"rho": "flat", "r2": "flat"},
        }
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(spec))
        out_prefix = tmp_path / "run"
        code, out, _ = run_cli(
            capsys,
            ["mcmc", "--spec", str(spec_path), "--n-iter", "20000", "--seed", "42",
             "--out", str(out_prefix)],
        )
        assert code == 0
        chain_csv = tmp_path / "run.chain.csv"
        summary_txt = tmp_path / "run.summary.txt"
        summary_json = tmp_path / "run.summary.json"
        assert chain_csv.is_file() and summary_txt.is_file() and summary_json.is_file()
        assert len(chain_csv.read_text().strip().splitlines()) == 20001
        payload = json.loads(summary_json.read_text())
        rho = payload["variables"]["rho"]
        assert abs(rho["mean"] - 1.6) <= 4 * rho["batch_se"]
        assert "Quantiles for each variable" in summary_txt.read_text()

    def test_improper_b_eff_posterior_exits_2(self, capsys, tmp_path):
        # once exit 0 with a rho mean of 34.4, set by the 1e-6 rate of the flat prior
        spec = {
            "variant": "B_EFF",
            "data": {"x1": 30, "T1": 3, "x2": 60, "T2": 6},
            "priors": {"rho": "flat", "r2": "flat"},
            "efficiencies": [{"a": 1, "b": 1}, 0.9],
        }
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, ["mcmc", "--spec", str(spec_path), "--n-iter", "2000"])
        assert code == 2 and out == ""
        assert "spec efficiencies[0]: Beta(1, 1)" in err

    @pytest.mark.parametrize(
        "a,b,moment", [(1.5, 1, "mean"), (2.5, 1, "sd"), (6, 4, None)]
    )
    def test_b_eff_infinite_moment_warns(self, capsys, tmp_path, a, b, moment):
        # eps1 | x ~ Beta(a - 1, b) gives rho a finite mean only for a > 2, a finite sd for a > 3
        spec = {
            "variant": "B_EFF",
            "data": {"x1": 30, "T1": 3, "x2": 60, "T2": 6},
            "priors": {"rho": "flat", "r2": "flat"},
            "efficiencies": [{"a": a, "b": b}, 0.9],
        }
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["mcmc", "--spec", str(spec_path), "--n-iter", "200", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and "warning" not in out
        expected = (
            f"rateratio: warning: efficiencies[0]: Beta({a:g}, {b:g}) under a flat rho prior "
            f"gives rho an infinite posterior {moment}\n"
        )
        assert err == (expected if moment else "")

    @pytest.mark.parametrize("x2,moment", [(0, "improper"), (1, "mean"), (2, "sd"), (3, None)])
    def test_b_flat_rho_bound_on_r2(self, capsys, tmp_path, x2, moment):
        # r2 | x goes as r2^(alpha2 + x2 - 2) near 0 under a flat rho prior.  x2 = 0 once
        # exited 0 with a rho mean of 8.66e4, set by the 1e-6 rate of the flat prior
        spec = {
            "variant": "B",
            "data": {"x1": 10, "T1": 1, "x2": x2, "T2": 1},
            "priors": {"rho": "flat", "r2": "flat"},
        }
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["mcmc", "--spec", str(spec_path), "--n-iter", "200", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        field = f"priors.r2: Gamma(1, 1e-06) with x2 = {x2} under a flat rho prior"
        if moment == "improper":
            assert code == 2 and out == ""
            assert err.startswith(f"error: spec {field} leaves the posterior improper")
            return
        assert code == 0 and "warning" not in out
        expected = f"rateratio: warning: {field} gives rho an infinite posterior {moment}\n"
        assert err == (expected if moment else "")

    def test_malformed_spec_no_partial_output(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"variant": "B", "data": {}, "priors": {}}))
        out_prefix = tmp_path / "never"
        code, out, err = run_cli(
            capsys, ["mcmc", "--spec", str(spec_path), "--out", str(out_prefix)]
        )
        assert code == 2
        assert "data." in err
        assert not list(tmp_path.glob("never*"))

    def test_field_path_in_errors(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            json.dumps(
                {
                    "variant": "B",
                    "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
                    "priors": {"rho": "flat", "r2": {"alpha": -1, "beta": 2}},
                }
            )
        )
        code, _, err = run_cli(capsys, ["mcmc", "--spec", str(spec_path)])
        assert code == 2 and "priors.r2.alpha" in err
        # errors found past the JSON shape once all read "spec $:"
        base = {
            "variant": "B",
            "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
            "priors": {"rho": "flat", "r2": "flat"},
        }
        for change, path in [
            ({"variant": "A", "priors": {"r1": "flat", "r2": "flat"}, "efficiencies": [0.9, 0.9]},
             "efficiencies"),
            ({"variant": "B_EFF"}, "efficiencies"),
            ({"priors": {"rho": "flat"}}, "priors"),
            ({"priors": {"rho": "flat", "r2": "flat", "r1": "flat"}}, "priors"),
            ({"monitor": ["rho", "nope"]}, "monitor"),
        ]:
            spec_path.write_text(json.dumps({**base, **change}))
            code, out, err = run_cli(capsys, ["mcmc", "--spec", str(spec_path), "--n-iter", "10"])
            assert code == 2 and out == "" and f"error: spec {path}: " in err, (change, err)

    def test_beta_efficiency_sum_past_float_range(self, capsys, tmp_path):
        # a + b = inf once crashed with a ZeroDivisionError in the chain's start
        spec = {
            "variant": "B_EFF",
            "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
            "priors": {"rho": "flat", "r2": "flat"},
            "efficiencies": [{"a": 1e308, "b": 1e308}, 0.5],
        }
        spec_path = tmp_path / "eff.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = run_cli(
            capsys, ["mcmc", "--spec", str(spec_path), "--n-iter", "10", "--seed", "1"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: spec efficiencies[0]: ") and "Traceback" not in err

    def test_split_of_underflowed_means(self, tmp_path):
        # the split once divided 0 by 0: a ZeroDivisionError traceback, exit 1
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(SPLIT_UNDERFLOW_SPEC))
        proc = subprocess.run(
            [sys.executable, "-m", "rateratio", "mcmc", "--spec", str(spec_path), "--n-iter", "200",
             "--seed", "1"],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode in (0, 3) and "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.count("error:") <= 1, proc.stderr
        if proc.returncode == 3:
            assert "error: s1: both seen means of channel 1 underflow to 0" in proc.stderr

    @pytest.mark.parametrize("name", PRODUCED_PAST_INT64_SPECS)
    def test_produced_count_past_int64_exits_3(self, capsys, tmp_path, name):
        # NumPy once refused the thinning draw in its own words: "lam value too large"
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(PRODUCED_PAST_INT64_SPECS[name]))
        code, out, err = run_cli(capsys, ["mcmc", "--spec", str(spec_path), "--n-iter", "200", "--seed", "1"])
        assert code == 3 and out == ""
        reason = err.splitlines()[-1]
        assert reason.startswith(f"error: {name}: the produced count's mean reads "), err
        assert reason.endswith(", past the int64 range"), err

    @pytest.mark.parametrize(
        "section,key,value,path",
        [("data", "T1", math.inf, "data.T1"), ("data", "x2", math.nan, "data.x2"),
         ("data", "T2", 10**400, "data.T2"),
         ("priors", "r2", {"alpha": math.nan, "beta": 1}, "priors.r2.alpha")],
        ids=["inf", "nan", "int-past-float-range", "nan-prior"],
    )
    def test_non_finite_spec_numbers(self, capsys, tmp_path, section, key, value, path):
        # json.loads reads NaN, Infinity and ints past the float range
        spec = {
            "variant": "B",
            "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
            "priors": {"rho": "flat", "r2": "flat"},
        }
        spec[section][key] = value
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, ["mcmc", "--spec", str(spec_path), "--n-iter", "100"])
        assert code == 2 and path in err

    def test_efficiency_spec(self, capsys, tmp_path):
        spec = {
            "variant": "B_EFF",
            "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
            "priors": {"rho": "flat", "r2": "flat"},
            "efficiencies": [{"a": 20, "b": 5}, 0.9],
            "monitor": ["rho", "eps1"],
        }
        spec_path = tmp_path / "eff.json"
        spec_path.write_text(json.dumps(spec))
        code, out, _ = run_cli(
            capsys,
            ["mcmc", "--spec", str(spec_path), "--n-iter", "2000", "--seed", "1",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        eps = payload["variables"]["eps1"]
        assert 0 < eps["mean"] < 1

    def test_seeded_chain_reproducible(self, capsys, tmp_path):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(
            json.dumps(
                {
                    "variant": "A",
                    "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
                    "priors": {"r1": "flat", "r2": "flat"},
                }
            )
        )
        argv = ["mcmc", "--spec", str(spec_path), "--n-iter", "2000", "--seed", "9",
                "--format", "csv"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("n_iter,short", [(10, True), (20, False)])
    def test_short_chain_batch_se_is_null(self, capsys, tmp_path, n_iter, short):
        # fewer than 20 draws have no batch-means SE: once "batch_se": NaN, not JSON
        spec_path = tmp_path / "model.json"
        spec_path.write_text(
            json.dumps(
                {
                    "variant": "B",
                    "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
                    "priors": {"rho": "flat", "r2": "flat"},
                }
            )
        )
        out_prefix = tmp_path / "run"
        code, out, err = run_cli(
            capsys,
            ["mcmc", "--spec", str(spec_path), "--n-iter", str(n_iter), "--seed", "1",
             "--format", "json", "--out", str(out_prefix)],
        )
        assert code == 0
        assert err.count("fewer than 20 draws give no batch-means SE") == int(short)
        summary_json = (tmp_path / "run.summary.json").read_text()
        assert out.endswith(summary_json)
        payload = json.loads(summary_json, parse_constant=_reject_constant)
        for variable in payload["variables"].values():
            assert (variable["batch_se"] is None) == short
            assert math.isfinite(variable["naive_se"])

    def test_summaries_of_draws_past_1e154_stay_finite(self, tmp_path):
        # np.std once squared draws of ~1e300: NumPy's overflow warning on stderr, sd = inf in text,
        # a false "fewer than 20 draws" warning, and json refused with exit 3
        spec = {
            "variant": "A",
            "data": {"x1": 3, "T1": 1e-300, "x2": 5, "T2": 1e-300},
            "priors": {"r1": {"alpha": 1, "beta": 1e-300}, "r2": {"alpha": 1, "beta": 1e-300}},
        }
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(spec))
        outs = {}
        for fmt in ("text", "json", "csv"):
            proc = subprocess.run(
                [sys.executable, "-m", "rateratio", "mcmc", "--spec", str(spec_path),
                 "--n-iter", "50", "--seed", "1", "--format", fmt],
                capture_output=True, text=True, env=_child_env(), timeout=120,
            )
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            outs[fmt] = proc.stdout
        assert "inf" not in outs["text"]
        rows = [line.split(",") for line in outs["csv"].splitlines()]
        draws = {name: np.array([float(row[j]) for row in rows[1:]]) for j, name in enumerate(rows[0])}
        variables = json.loads(outs["json"], parse_constant=_reject_constant)["variables"]
        for name, scale in (("r1", 2.0**1000), ("r2", 2.0**1000), ("rho", 1.0)):
            v = variables[name]
            assert v["sd"] == float(np.std(draws[name] / scale, ddof=1)) * scale
            assert v["naive_se"] == v["sd"] / math.sqrt(50) and v["batch_se"] > 0


def test_json_output_refuses_non_finite_values():
    # NaN and Infinity are not JSON; main() turns the ValueError into exit 3
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._json_dump({"x": value})


class TestUnseededRuns:
    def test_replaying_reported_seed_reproduces_stdout(self, capsys, tmp_path):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(
            json.dumps(
                {
                    "variant": "B_EFF",
                    "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
                    "priors": {"rho": "flat", "r2": "flat"},
                    "efficiencies": [0.8, {"a": 6, "b": 4}],
                }
            )
        )
        runs = [
            ["mc", "gamma-ratio", "--alpha1", "4", "--beta1", "3", "--alpha2", "7",
             "--beta2", "6", "--n", "20000", "--format", "json"],
            ["mcmc", "--spec", str(spec_path), "--n-iter", "500", "--format", "json"],
        ]
        for argv in runs:
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            seed = json.loads(out)["seed"]
            assert isinstance(seed, int)
            code, replay, _ = run_cli(capsys, argv + ["--seed", str(seed)])
            assert code == 0 and replay == out

    def test_stderr_seed_replays_csv_and_chain_files(self, capsys, tmp_path):
        # CSV output and the mcmc text summary carry no seed field; stderr does
        spec_path = tmp_path / "model.json"
        spec_path.write_text(
            json.dumps(
                {
                    "variant": "B",
                    "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
                    "priors": {"rho": "flat", "r2": "flat"},
                }
            )
        )
        prefix = tmp_path / "run"
        chain_path = tmp_path / "run.chain.csv"
        runs = [
            (["mc", "gamma-ratio", "--alpha1", "4", "--beta1", "3", "--alpha2", "7",
              "--beta2", "6", "--n", "20000", "--format", "csv"], None),
            (["mcmc", "--spec", str(spec_path), "--n-iter", "500", "--format", "text",
              "--out", str(prefix)], chain_path),
        ]
        for argv, written in runs:
            code, out, err = run_cli(capsys, argv)
            assert code == 0
            match = re.fullmatch(r"rateratio: seed = (\d+)\n", err)
            assert match
            first_file = written.read_bytes() if written else None
            code, replay, replay_err = run_cli(capsys, argv + ["--seed", match[1]])
            assert code == 0 and replay == out and replay_err == ""
            if written:
                assert written.read_bytes() == first_file

    @pytest.mark.parametrize(
        "argv",
        [["predict", "diff", "--l1", "2", "--l2", "3"],
         ["infer", "--x", "3", "--T", "3", "--format", "json"],
         ["ratio", "--x1", "3", "--T1", "3", "--x2", "6", "--T2", "6", "--format", "csv"],
         ["combine", "rate", "--obs", "3,3"],
         ["combine", "ratio", "--instance", "3,3,6,6"]],
    )
    def test_deterministic_commands_write_no_seed(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 0 and err == ""


class TestSharedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_mixed_sequence_replays_identically(self, capsys):
        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = ["ratio", "--x1", "3", "--T1", "3", "--x2", "6", "--T2", "6", "--compare",
                 "--format", "json"]
        calls = [
            (first, 0),
            (["infer", "--x", "3"], ("SystemExit", 2)),  # --T missing: argparse
            (["combine", "--help"], ("SystemExit", 0)),
            (["infer", "--x", "-1", "--T", "1"], 2),
            (["ratio", "--model", "B", "--x1", "3", "--T1", "3", "--x2", "0", "--T2", "6"], 3),
        ]
        results = [outcome(argv) for argv, _ in calls]
        assert [code for code, _, _ in results] == [code for _, code in calls]
        assert outcome(first) == results[0]

    def test_append_options_do_not_accumulate(self, capsys):
        argv = ["combine", "rate", "--format", "json"]
        code, _, _ = run_cli(capsys, argv + ["--obs", "3,3", "--obs", "6,6", "--obs", "1,2"])
        assert code == 0
        code, out, _ = run_cli(capsys, argv + ["--obs", "3,3", "--obs", "6,6"])
        assert code == 0
        assert json.loads(out)["observations"] == [{"x": 3, "T": 3.0}, {"x": 6, "T": 6.0}]


NON_FINITE_FLAGS = [
    ("predict diff --l1 inf --l2 1", "--l1"),
    ("predict diff --l1 nan --l2 1", "--l1"),
    ("predict ratio --l1 1 --l2 inf --n 100 --seed 1", "--l2"),
    ("infer --x 1 --T inf", "--T"),
    ("infer --x 1 --T 1 --prior-mean inf --prior-sd 1", "--prior-mean"),
    ("ratio --x1 3 --T1 3 --x2 6 --T2 inf", "--T2"),
    ("ratio --model B --x1 3 --T1 3 --x2 6 --T2 6 --prior-alpha0 nan --prior-beta0 1",
     "--prior-alpha0"),
    ("combine rate --obs 3,inf", "--obs[0]"),
    ("combine rate --obs 1,1 --obs nan,1", "--obs[1]"),
    ("combine ratio --instance 3,3,6,-inf", "--instance[0]"),
    ("mc gamma-ratio --alpha1 inf --beta1 1 --alpha2 1 --beta2 1 --n 100 --seed 1", "--alpha1"),
    ("mc uniform-ratio --rmax inf --n 100 --seed 1", "--rmax"),
    ("mc uniform-ratio --cutoff inf --n 100 --seed 1", "--cutoff"),
    ("mc waiting-times --rate inf --k 2 --seed 1", "--rate"),
]

EDGE_INPUTS = [line for line, _ in NON_FINITE_FLAGS] + [
    "infer --x 0 --T 1e-300",
    "infer --x 0 --T 1e-300 --format json",
    "infer --x 0 --T 1e-300 --format csv",
    "infer --x 0 --T 1e200 --format json",
    "predict diff --l1 3e9 --l2 3e9 --d-min -3 --d-max 3 --format json",
    "infer --x 0 --T 1 --prior-alpha 1e-300 --prior-beta 1 --format json",
    "combine rate --obs 0,1 --prior-alpha 1e-300 --prior-beta 1 --format json",
    "ratio --model B --x1 0 --T1 1 --x2 5 --T2 1 --prior-alpha0 1e-300 --prior-beta0 1 --format json",
    "mc gamma-ratio --alpha1 1e-300 --beta1 1 --alpha2 1e-300 --beta2 1 --n 1000 --seed 1 "
    "--format json",
    "predict diff --l1 1e300 --l2 1 --format json",
    "predict diff --l1 1e-200 --l2 1 --format json",
]

ELICITED_PAST_FLOAT_RANGE = [
    "infer --x 5 --T 1 --prior-mean 1 --prior-sd 1e200",
    "infer --x 5 --T 1 --prior-mean 1e200 --prior-sd 1",
    "combine rate --obs 1,1 --prior-mean 2 --prior-sd 1e160",
]
EDGE_INPUTS += ELICITED_PAST_FLOAT_RANGE

# Z2 ~ Gamma(0.01) puts ratios near 1e300: the sums of the finite ratios leave the float range
MC_SUMS_PAST_FLOAT_RANGE = [
    "mc gamma-ratio --alpha1 1 --beta1 1 --alpha2 0.01 --beta2 1 --n 1000 --seed 1",
    "mc gamma-ratio --alpha1 1 --beta1 1 --alpha2 0.002 --beta2 1 --n 1000 --seed 3",
]
# Gamma posteriors whose mode and mean lie past the float range
RATE_MODE_PAST_FLOAT_RANGE = [
    "infer --x 0 --T 1e-300 --prior-alpha 1e10 --prior-beta 0",
    "combine rate --obs 1,6.740896376457668e-153 --per-observation "
    "--prior-alpha 1.061769709864417e+290 --prior-beta 5.512445642512144e-32",
]
RATIO_PAST_FLOAT_RANGE = "ratio --x1 3 --T1 1e-100 --x2 5 --T2 1e100 --model A"
EDGE_INPUTS += [
    line + fmt for line in MC_SUMS_PAST_FLOAT_RANGE for fmt in ("", " --format json", " --format csv")
]
EDGE_INPUTS += [RATIO_PAST_FLOAT_RANGE + fmt for fmt in ("", " --format json", " --format csv")]


# each once let a NumPy RuntimeWarning, with a module path and source line, reach stderr
NUMPY_WARNING_INPUTS = [
    "infer --x 1000000000000000000 --T 7.5e-51 --format json",
    "infer --x 1000000000000000000 --T 3e+293 --prior-alpha 20000 --prior-beta 2e-159 --format json",
    "ratio --model A --x1 1000000000000 --T1 7.5e-90 --x2 1000 --T2 3e+221 --format csv",
    "ratio --model B --x1 1 --T1 9.99e-60 --x2 1 --T2 3e-15 --prior-alpha0 0.0075 "
    "--prior-beta0 5e+237 --format json",
    "combine ratio --instance 3,1e-226,1000,7.5e+188 "
    "--instance 1000000000000,1e-168,9007199254740992,3e+70 --format csv",
    "mc waiting-times --rate 3e-246 --k 1 --paths 3 --seed 1",
    "ratio --model A --x1 0 --T1 8.71e+240 --x2 10 --T2 2.15e-77 --format csv",
    "infer --x 0 --T 5.09e-159 --prior-alpha 2.72e+255 --prior-beta 2.8e-297 --format csv",
]

BIN_WIDTH_PAST_FLOAT_RANGE = (
    "mc gamma-ratio --alpha1 0.002 --beta1 1 --alpha2 1 --beta2 1 --cutoff 1e-320 --bins 1000 "
    "--n 100000 --seed 1"
)


def _reject_constant(name):
    raise ValueError(f"JSON carries {name}")


def _child_env() -> dict:
    """The environment of a child `python -m rateratio` that imports the package under test.

    A RuntimeWarning is an error there, as it is in the tests' own process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        assert exc.code == 2  # argparse's usage error, never a traceback
        return exc.code


class TestEdgeInputs:
    @pytest.mark.parametrize("line", EDGE_INPUTS)
    def test_exit_code_and_strict_json(self, capsys, line):
        code = _exit_code(line.split())
        out = capsys.readouterr().out
        assert code in (0, 2, 3)
        if code == 0 and "--format json" in line:
            json.loads(out, parse_constant=_reject_constant)

    @pytest.mark.parametrize("line", NUMPY_WARNING_INPUTS)
    def test_no_numpy_warning_reaches_stderr(self, capsys, line):
        # a warning that is not an error prints to stderr: record them all as they would show
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _exit_code(line.split())
        out, err = capsys.readouterr()
        err += "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
        )
        assert code in (0, 3)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
        if line.startswith("infer"):
            # once the JSON encoder's text: "Out of range float values are not JSON compliant"
            assert code == 3 and "JSON" not in err
        if code == 0:
            # mc waiting-times once printed sd = inf for three draws near 1e245
            assert not re.search(r"\b(inf|nan)\b", out), out

    def test_bin_grid_too_fine_for_cutoff_exits_3_naming_both(self, capsys):
        # once NumPy's "Cannot create 1000 finite-sized bins", which named neither flag
        line = "mc uniform-ratio --n 10 --cutoff 2.5e-321 --bins 150 --seed 1"
        code, out, err = run_cli(capsys, line.split())
        assert code == 3 and out == ""
        assert err.startswith("error: cutoff 2.5e-321 is too small") and "(bins = 150)" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_bin_width_past_float_range_exits_3_naming_both(self, capsys, fmt):
        # hist / (n * 1e-323) once overflowed: NumPy's "overflow encountered in divide" on
        # stderr, then inf densities in csv (exit 0) or the JSON encoder's text (exit 3)
        line = BIN_WIDTH_PAST_FLOAT_RANGE + " --format " + fmt
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _exit_code(line.split())
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and caught == []
        assert err.count("\n") == 1 and err.startswith("error: cutoff 1e-320 over bins = 1000 ")
        assert "float range" in err

    def test_inf_over_inf_draws_exit_3_with_their_count(self, capsys):
        # both Gamma draws overflow at scale 1e308, and inf/inf is NaN: once
        # "mass accounting violated: total 0.974"
        line = "mc gamma-ratio --alpha1 1 --beta1 1e-308 --alpha2 1 --beta2 1e-308 --n 1000 --seed 1"
        code, out, err = run_cli(capsys, line.split())
        assert code == 3 and out == ""
        assert err == (
            "error: 26 of the 1000 draws overflowed the float range in both numerator and "
            "denominator (inf/inf), so their ratio is undefined\n"
        )

    @pytest.mark.parametrize("line", [NUMPY_WARNING_INPUTS[2], NUMPY_WARNING_INPUTS[4]])
    def test_quantile_past_float_range_exits_3_naming_the_range(self, capsys, line):
        # gamma_ratio_ppf reads inf for the curve's 0.999 quantile: once "quantile inversion
        # did not reach tolerance 1e-06", which blamed the inversion
        assert _exit_code(line.split()) == 3
        assert capsys.readouterr().err == "error: the 0.999 quantile lies past the float range\n"

    @pytest.mark.parametrize("line,flag", NON_FINITE_FLAGS)
    def test_non_finite_flag_exits_2_naming_it(self, capsys, line, flag):
        assert _exit_code(line.split()) == 2
        assert flag in capsys.readouterr().err

    def test_tiny_rate_scale(self, capsys):
        # beta**2 underflows to 0: once a ZeroDivisionError traceback
        code, out, _ = run_cli(capsys, ["infer", "--x", "0", "--T", "1e-300"])
        assert code == 0
        assert "mean = 1e+300" in out and "sd = 1e+300" in out

    def test_skellam_past_ive_range(self, capsys):
        # ive is NaN at z = 2 sqrt(l1 l2) = 6e9: once a NaN pmf, mean and sd with exit 0
        code, out, _ = run_cli(
            capsys, ["predict", "diff", "--l1", "3e9", "--l2", "3e9", "--d-min", "-1",
                     "--d-max", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(0.0, abs=1e-6)
        assert payload["sd"] == pytest.approx(math.sqrt(6e9), rel=1e-9)
        # the normal density 1 / sqrt(2 pi 6e9) at the centre
        assert payload["pmf"][1] == pytest.approx(1.0 / math.sqrt(2 * math.pi * 6e9), rel=1e-9)

    @pytest.mark.parametrize("l1,l2", [("1e7", "4e6"), ("5e9", "2e9")])
    def test_skellam_large_unequal_rates(self, capsys, l1, l2):
        # once exit 3: "probabilities must sum to 1 within 1e-9"
        code, out, _ = run_cli(
            capsys, ["predict", "diff", "--l1", l1, "--l2", l2, "--d-min", "0", "--d-max", "0",
                     "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(float(l1) - float(l2), rel=1e-9)
        assert payload["sd"] == pytest.approx(math.sqrt(float(l1) + float(l2)), rel=1e-9)

    @pytest.mark.parametrize("l1,l2", [("1e15", "1e15"), ("1e300", "1")])
    def test_skellam_support_past_bound_exits_3(self, l1, l2):
        # once killed for lack of memory (7.2e8 support points at 1e15) or a TypeError
        # traceback (1e300); a child process whose address space is capped at 4 GB keeps an
        # allocation of the whole support from reaching the machine
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "rateratio", "predict", "diff", "--l1", l1, "--l2", l2],
            capture_output=True, text=True, env=_child_env(), preexec_fn=cap_memory, timeout=120,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and "support points" in proc.stderr

    def test_skellam_tiny_rate(self, capsys):
        # once exit 3: the Debye expansion read P(-3) as 0.0613134, not e^-1/6 = 0.0613132
        code, out, _ = run_cli(
            capsys, ["predict", "diff", "--l1", "1e-200", "--l2", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        below = [(d, p) for d, p in zip(payload["support"], payload["pmf"]) if d <= 0]
        assert len(below) >= 15
        for d, p in below:
            assert p == pytest.approx(math.exp(-1.0) / math.factorial(-d), rel=1e-12)

    @pytest.mark.parametrize("line", ELICITED_PAST_FLOAT_RANGE)
    def test_elicited_prior_past_float_range_exits_3(self, capsys, line):
        # mu0**2 / sigma0**2 once raised OverflowError: (34, 'Numerical result out of range')
        assert _exit_code(line.split()) == 3
        assert "outside the range of normal floats" in capsys.readouterr().err


    @pytest.mark.parametrize("line,undefined", zip(MC_SUMS_PAST_FLOAT_RANGE, (["sd"], ["mean", "sd"])))
    def test_monte_carlo_sums_past_float_range(self, capsys, line, undefined):
        # total**2 once raised OverflowError (exit 1); a sum of inf once printed "sd = 0"
        code, out, _ = run_cli(capsys, line.split() + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        for name in ("mean", "sd"):
            assert (payload[name] is None) == (name in undefined)
        code, out, _ = run_cli(capsys, line.split())
        assert code == 0
        for name in ("mean", "sd"):
            assert (f"{name} = undef(sums past the float range)" in out) == (name in undefined)

    @pytest.mark.parametrize("line", MC_SUMS_PAST_FLOAT_RANGE)
    def test_monte_carlo_overflow_leaves_stderr_empty(self, line):
        # NumPy's "overflow encountered in divide" / "in square" warnings once reached stderr
        proc = subprocess.run(
            [sys.executable, "-m", "rateratio", *line.split()],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_quantile_below_smallest_float_exits_3_naming_it(self, capsys, fmt):
        # Gamma(1e-300, 2)'s 0.999 quantile reads 0.0: once "quantile inversion did not
        # reach tolerance 1e-06", which blamed the inversion
        line = "infer --x 0 --T 1 --prior-alpha 1e-300 --prior-beta 1 --format " + fmt
        assert _exit_code(line.split()) == 3
        assert capsys.readouterr().err == "error: the 0.999 quantile lies below the smallest positive float\n"

    @pytest.mark.parametrize("line", ["infer --x 0 --T 1e-300", "combine rate --obs 0,1e-300"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_variance_past_float_range_beside_finite_sd(self, capsys, line, fmt):
        # sd = 1e300 is finite, its square is not: once exit 0 in text and csv, 3 in json
        code, out, err = run_cli(capsys, line.split() + ["--format", fmt])
        assert code == 0 and err == ""
        if fmt == "text":
            assert "sd = 1e+300" in out.splitlines()
        elif fmt == "csv" and line.startswith("combine"):
            assert out.splitlines()[1].endswith(",9.999999999999999e+299")  # the pooled row's sd
        elif fmt == "json":
            summaries = json.loads(out)["summaries"]
            assert summaries["variance"] is None and summaries["sd"] == pytest.approx(1e300, rel=1e-15)
            assert summaries["undefined"] == {"variance": "past the float range"}

    def test_compare_table_density_past_float_range_exits_3(self, capsys):
        # the shared grid once skipped pdf_curve's check: 511 rows of inf, exit 0
        line = "ratio --x1 3 --T1 1e160 --x2 3 --T2 1e-160 --compare --format csv"
        assert _exit_code(line.split()) == 3
        assert capsys.readouterr().err == "error: the density leaves the float range on the plot grid\n"

    def test_refuses_ratio_variance_past_float_range(self, capsys):
        # scale**2 once raised OverflowError (exit 1); then text printed sd = inf, for an sd
        # of 6e199 whose square alone leaves the float range; csv prints the density alone
        for fmt, code in (("text", 3), ("json", 3), ("csv", 0)):
            assert _exit_code(RATIO_PAST_FLOAT_RANGE.split() + ["--format", fmt]) == code
            err = capsys.readouterr().err
            assert err == ("error: variance = inf is outside the float range\n" if code else "")

    @pytest.mark.parametrize(
        "fmt,reason",
        [("text", "mean = inf is outside the float range"), ("json", "mean = inf is outside the float range"),
         ("csv", "the 0.999 quantile lies past the float range")],
    )
    def test_summaries_past_float_range_exit_3_in_every_format(self, capsys, fmt, reason):
        # b2/b1 overflows: text printed mode = nan (0 * inf) and mean = inf with exit 0, and
        # json refused the mode; the mode at x1 = 0 is 0, and the mean lies past the float range
        line = "combine ratio --instance 0,1.2417665396827911e-223,3,7.768788282146709e+285"
        assert _exit_code(line.split() + ["--format", fmt]) == 3
        assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize("line", RATE_MODE_PAST_FLOAT_RANGE)
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_rate_summaries_past_float_range_exit_3_in_every_format(self, capsys, line, fmt):
        # text printed mode = inf and mean = inf with exit 0, and so did csv for combine rate;
        # json refused, and csv refused infer's curve for another reason
        code, out, err = run_cli(capsys, line.split() + ["--format", fmt])
        assert (code, out, err) == (3, "", "error: mode = inf is outside the float range\n")


class TestEntryPoint:
    @pytest.mark.parametrize("line", [
        "infer --x 0 --T 1 --prior-alpha 0.05 --prior-beta 1 --format csv",
        # ~250 kB of csv, more than a pipe holds: a write meets the closed pipe
        "mc gamma-ratio --alpha1 4 --beta1 3 --alpha2 7 --beta2 6 --n 2000000 --bins 5000 --seed 1 --format csv",
    ])
    def test_closed_stdout_pipe_ends_quietly(self, line):
        # once exit 1 and a BrokenPipeError traceback, as under `| head -1`
        proc = subprocess.Popen(
            [sys.executable, "-m", "rateratio", *line.split()],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        assert proc.stdout.readline().endswith(b",density\n")  # the header
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rateratio", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "predict" in proc.stdout and "mcmc" in proc.stdout
