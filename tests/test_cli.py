import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

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
RATIO_PAST_FLOAT_RANGE = "ratio --x1 3 --T1 1e-100 --x2 5 --T2 1e100 --model A"
EDGE_INPUTS += [
    line + fmt for line in MC_SUMS_PAST_FLOAT_RANGE for fmt in ("", " --format json", " --format csv")
]
EDGE_INPUTS += [RATIO_PAST_FLOAT_RANGE + fmt for fmt in ("", " --format json", " --format csv")]


def _reject_constant(name):
    raise ValueError(f"JSON carries {name}")


def _child_env() -> dict:
    """The environment of a child `python -m rateratio` that imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
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

    def test_ratio_variance_past_float_range(self, capsys):
        # scale**2 once raised OverflowError (exit 1)
        code, out, _ = run_cli(capsys, RATIO_PAST_FLOAT_RANGE.split())
        assert code == 0 and "  mean = 8e+199" in out and "  sd = inf" in out
        assert _exit_code(RATIO_PAST_FLOAT_RANGE.split() + ["--format", "json"]) == 3
        assert "variance = inf is outside the float range" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rateratio", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "predict" in proc.stdout and "mcmc" in proc.stdout
