"""`python -m rateratio` in fresh interpreters: what no in-process test can compare.

A seeded report over three shards is the same bytes at --workers 1 and 2.
Each shard streams both sides a chunk at a time from its own two streams:
at l1 = 0.3 most chunks hold zero denominators and the shard counts its
(x1, x2) pairs, l1 = 1e6 lies past the alias table's cap and is drawn by
rng.poisson and sorted, and the Gamma ratio is sorted.

A seeded `mcmc` summary is the same bytes in two interpreters, its JSON
parses with no nan or inf, and --out writes the chain and both summaries,
each non-empty, with the JSON summary the same bytes again.  The three specs
take each road a chain can run: Model A under flat priors is drawn iid from
each rate's conjugate update; a B_EFF_BKG spec with every efficiency Beta
runs the compiled Gibbs sweep and monitors the rate readouts r1 and lambda1,
so the sweep records the columns those readouts read; and Model B under
rho ~ Gamma(2, 1) has no iid drawer, so its rho and r2 nodes read batched
standard-Gamma variates.
"""

import json
import subprocess
import sys

import pytest

from test_cli import _child_env, _reject_constant


def launch(*args: str) -> bytes:
    """The stdout bytes of `python -m rateratio args`, which must exit 0 with an empty stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "rateratio", *args], capture_output=True, env=_child_env(), check=True, timeout=120
    )
    assert proc.stderr == b""
    return proc.stdout


@pytest.mark.parametrize(
    "command",
    [
        "predict ratio --l1 0.3 --l2 0.5",
        "predict ratio --l1 1e6 --l2 30",
        "mc gamma-ratio --alpha1 4 --beta1 3 --alpha2 7 --beta2 6",
    ],
)
def test_workers_give_the_same_bytes(command):
    args = [*command.split(), "--n", "2500001", "--seed", "3", "--format", "json"]
    assert launch(*args, "--workers", "1") == launch(*args, "--workers", "2")


# (spec, --n-iter)
MCMC_SPECS = {
    "A iid": (
        {"variant": "A", "data": {"x1": 3, "T1": 3, "x2": 6, "T2": 6}, "priors": {"r1": "flat", "r2": "flat"}},
        20000,
    ),
    "B_EFF_BKG Beta": (
        {
            "variant": "B_EFF_BKG",
            "data": {"x1": 40, "T1": 2, "x2": 25, "T2": 4},
            "priors": {"rho": "flat", "r2": {"alpha": 2, "beta": 0.5}, "rb1": {"alpha": 2, "beta": 1.5},
                       "rb2": {"alpha": 2, "beta": 2.5}},
            "efficiencies": [{"a": 6, "b": 4}, {"a": 5, "b": 3}],
            "background_efficiencies": [{"a": 5, "b": 5}, {"a": 3, "b": 2}],
            "monitor": ["rho", "s1", "nS2", "epsB1", "r1", "lambda1"],
        },
        5000,
    ),
    "B rho prior": (
        {"variant": "B", "data": {"x1": 30, "T1": 3, "x2": 60, "T2": 6},
         "priors": {"rho": {"alpha": 2, "beta": 1}, "r2": "flat"}},
        20000,
    ),
}


@pytest.mark.parametrize("name", MCMC_SPECS)
def test_mcmc_rerun_gives_the_same_bytes_and_out_writes_three_files(tmp_path, name):
    spec, n_iter = MCMC_SPECS[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    args = ["mcmc", "--spec", str(spec_path), "--n-iter", str(n_iter), "--seed", "3", "--format", "json"]
    first = launch(*args)
    assert launch(*args) == first
    json.loads(first, parse_constant=_reject_constant)
    launch(*args, "--out", str(tmp_path / "run"))
    files = {suffix: (tmp_path / f"run.{suffix}").read_bytes()
             for suffix in ("chain.csv", "summary.txt", "summary.json")}
    assert all(files.values())
    assert files["summary.json"] == first
