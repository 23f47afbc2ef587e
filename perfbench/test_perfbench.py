"""Tests of the benchmark's own estimators and oracle.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ess  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, 0.97])
def test_ess_matches_ar1_integrated_time(phi):
    tau = (1.0 + phi) / (1.0 - phi)
    n = 200_000
    taus = [n / ess.effective_sample_size(ar1(phi, n, seed)) for seed in range(3)]
    assert np.mean(taus) == pytest.approx(tau, rel=0.08)


def test_ess_of_constant_chain_is_zero():
    assert ess.effective_sample_size(np.ones(100)) == 0.0


def test_design_keeps_each_slot_in_its_cell_and_moves_it_with_the_seed():
    first, other = workloads.Design(1, 0).uniform(10), workloads.Design(2, 0).uniform(10)
    assert sorted(np.floor(first * 10)) == list(range(10))
    assert np.array_equal(np.floor(first * 10), np.floor(other * 10))
    assert not np.array_equal(first, other)


def test_twins_share_a_cell_at_mirror_positions():
    draws = workloads.Design(1, 0).twins(10).reshape(5, 2)
    cells = np.floor(draws * 5)
    assert np.array_equal(cells[:, 0], cells[:, 1])
    assert sorted(cells[:, 0]) == list(range(5))
    assert np.allclose(draws[:, 0] + draws[:, 1], (2 * cells[:, 0] + 1) / 5)


def test_passes_change_inputs_but_not_cells(tmp_path):
    first = workloads.requests("closed_form", 3, 0, tmp_path)
    later = workloads.requests("closed_form", 3, 2, tmp_path)
    assert [r.kind for r in first] == [r.kind for r in later]
    assert [r.argv for r in first] != [r.argv for r in later]
    cells, later_cells = workloads.Design(3, 0).uniform(10), workloads.Design(3, 2).uniform(10)
    assert np.array_equal(np.floor(cells * 10), np.floor(later_cells * 10))
    assert not np.array_equal(cells, later_cells)


def test_same_seed_gives_same_requests(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.requests(name, 7, 0, tmp_path)
        again = workloads.requests(name, 7, 0, tmp_path)
        assert [r.argv for r in first] == [r.argv for r in again]
        other = workloads.requests(name, 8, 0, tmp_path)
        assert [r.argv for r in first] != [r.argv for r in other]


def run_cli(argv):
    from rateratio import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_oracle_accepts_right_answer_and_rejects_a_wrong_one():
    req = workloads.Request("ratio", ["ratio", "--x1", "3", "--T1", "3", "--x2", "6", "--T2", "6",
                                      "--compare", "--format", "json"],
                            {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0, "models": ("A", "B"), "prior_r2": None})
    code, out = run_cli(req.argv)
    assert oracle.check(req, code, out)[0] == oracle.OK
    doc = json.loads(out)
    doc["models"]["B"]["summaries"]["mean"] *= 1.001
    assert oracle.check(req, code, json.dumps(doc))[0].status == "wrong"
    doc = json.loads(out)
    doc["curves"]["A"]["density"][256] *= 1.01
    assert oracle.check(req, code, json.dumps(doc))[0].status == "wrong"


def test_oracle_counts_refusals():
    flat_b = workloads.Request("ratio", ["ratio", "--model", "B", "--x1", "3", "--T1", "3", "--x2", "0",
                                         "--T2", "6", "--format", "json"],
                               {"x1": 3, "T1": 3.0, "x2": 0, "T2": 6.0, "models": ("B",), "prior_r2": None})
    assert run_cli(flat_b.argv)[0] == 3
    assert oracle.check(flat_b, 3, "")[0] == oracle.OK
    assert oracle.check(flat_b, 0, "{}")[0].status == "wrong"
    infer = workloads.Request("infer", ["infer", "--x", "3", "--T", "3"], {"x": 3, "T": 3.0, "prior": ("flat",)})
    assert oracle.check(infer, 3, "")[0].status == "refused"


def test_oracle_binomial_check_of_count_ratio_nan_fraction():
    params = {"n": 1_000_000, "bins": 150, "cutoff": 8.0, "seed": 5, "workers": 1, "l1": 0.5, "l2": 0.7}
    argv = ["predict", "ratio", "--l1", "0.5", "--l2", "0.7", "--n", "1000000", "--seed", "5", "--format", "json"]
    req = workloads.Request("predict_ratio", argv, params, draws=params["n"])
    code, out = run_cli(argv)
    assert oracle.check(req, code, out)[0] == oracle.OK
    doc = json.loads(out)
    doc["frac_nan"] += 0.003  # about 7 binomial sd
    doc["frac_inf"] -= 0.003
    assert oracle.check(req, code, json.dumps(doc))[0].status == "wrong"


def test_mcmc_closed_form_mean_of_model_b_with_fixed_efficiencies_is_thinned_b():
    spec = {"variant": "B_EFF", "data": {"x1": 9, "T1": 3.0, "x2": 12, "T2": 6.0},
            "priors": {"rho": "flat", "r2": "flat"}, "efficiencies": [0.5, 0.25]}
    thinned = {"variant": "B", "data": {"x1": 9, "T1": 1.5, "x2": 12, "T2": 1.5},
               "priors": {"rho": "flat", "r2": "flat"}}
    assert oracle.mcmc_closed_form_mean(spec) == pytest.approx(oracle.mcmc_closed_form_mean(thinned))
    assert oracle.mcmc_closed_form_mean(thinned) == pytest.approx(10 / 11, rel=1e-5)


def test_host_speed_scales_by_the_probes_around_a_request():
    import hostspeed

    host = hostspeed.HostSpeed("closed_form")
    host.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    host.slowness = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert host.scale(0.5, 1.0) == pytest.approx(1.0)
    assert host.scale(10.5, 1.0) == pytest.approx(0.5)
    assert host.around(6.5) == pytest.approx(2.0)  # no probe within the window: the three nearest
    assert host.probe() > 0.0 and len(host.kernel_slowness["histogram"]) == 1
