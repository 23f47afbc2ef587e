"""Each command imports only what it runs, checked in a fresh interpreter per case.

NumPy costs about 0.1 s of a launch and SciPy about 0.3 s; the text
closed-form commands need neither, `predict diff` needs no SciPy, and no
command loads the sampler modules of another.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rateratio
from rateratio.cli import main

SRC = Path(rateratio.__file__).resolve().parent.parent  # where the package under test lives

# runs each argv in sys.argv[2:] (JSON lists) through main, with the modules
# named in sys.argv[1] blocked, and prints each (exit code, stdout) and every
# module then loaded
CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    for name in json.loads(sys.argv[1]):
        sys.modules[name] = None  # importing it raises ImportError
    from rateratio.cli import main
    runs = []
    for argv in map(json.loads, sys.argv[2:]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            runs.append((main(argv), out.getvalue()))
    print(json.dumps({"runs": runs, "modules": sorted(sys.modules)}))
""")


def child(*argvs, blocked=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(blocked), *map(json.dumps, argvs)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def loaded(modules: list, *names: str) -> list:
    """Those of names, or of their submodules, among the loaded modules."""
    return sorted(m for m in modules for name in names if m == name or m.startswith(name + "."))


def test_cli_import_loads_no_library_module():
    modules = child()["modules"]
    assert loaded(
        modules, "numpy", "scipy", "rateratio.mcmc", "rateratio.montecarlo", "rateratio.numeric",
        "rateratio.distributions",
    ) == []


TEXT_COMMANDS = {
    "infer flat": "infer --x 5 --T 2",
    "infer elicited": "infer --x 5 --T 2 --prior-mean 3 --prior-sd 1",
    "ratio A": "ratio --x1 3 --T1 3 --x2 6 --T2 6",
    "ratio B prior": "ratio --x1 3 --T1 3 --x2 6 --T2 6 --model B --prior-alpha0 2 --prior-beta0 1",
    "ratio compare": "ratio --x1 3 --T1 3 --x2 6 --T2 6 --compare",
    "combine rate": "combine rate --obs 3,3 --obs 6,6 --per-observation",
    "combine ratio": "combine ratio --instance 3,3,6,6 --instance 1,2,2,5",
}


@pytest.mark.parametrize("line", TEXT_COMMANDS.values(), ids=TEXT_COMMANDS)
def test_text_closed_form_runs_without_numpy(capsys, line):
    # the same stdout bytes as a run with NumPy at hand
    assert main(line.split()) == 0
    want = capsys.readouterr().out
    assert child(line.split(), blocked=["numpy"])["runs"] == [[0, want]]


CLOSED_FORM = {
    "infer": "infer --x 5 --T 2",
    "ratio": "ratio --x1 3 --T1 3 --x2 6 --T2 6 --compare",
    "combine rate": "combine rate --obs 3,3 --obs 6,6",
    "combine ratio": "combine ratio --instance 3,3,6,6",
    "predict diff": "predict diff --l1 2 --l2 3",
}


@pytest.mark.parametrize("line", CLOSED_FORM.values(), ids=CLOSED_FORM)
def test_closed_form_commands_skip_the_samplers(line):
    # modules only accumulate, so none loaded after all three formats means none by any one
    argvs = [line.split() + ["--format", fmt] for fmt in ("json", "csv", "text")]
    result = child(*argvs)
    assert [code for code, _ in result["runs"]] == [0, 0, 0]
    assert loaded(result["modules"], "rateratio.mcmc", "rateratio.montecarlo") == []


def test_predict_diff_loads_no_scipy():
    # the difference pmf is tabulated by its recurrence, with no Bessel function
    argvs = [CLOSED_FORM["predict diff"].split() + ["--format", fmt] for fmt in ("json", "csv", "text")]
    result = child(*argvs)
    assert [code for code, _ in result["runs"]] == [0, 0, 0]
    assert loaded(result["modules"], "scipy") == []


SIMULATIONS = {
    "mc gamma-ratio": "mc gamma-ratio --alpha1 4 --beta1 3 --alpha2 7 --beta2 6 --n 1000 --seed 1",
    "mc uniform-ratio": "mc uniform-ratio --n 1000 --seed 1",
    "mc waiting-times": "mc waiting-times --rate 1 --k 3 --paths 2 --seed 1",
    "predict ratio": "predict ratio --l1 2 --l2 3 --n 1000 --seed 1",
    "predict diff": "predict diff --l1 2 --l2 3",
}


@pytest.mark.parametrize("line", SIMULATIONS.values(), ids=SIMULATIONS)
def test_mc_and_predict_skip_mcmc(line):
    result = child(line.split())
    assert result["runs"][0][0] == 0
    assert loaded(result["modules"], "rateratio.mcmc") == []


def test_mcmc_skips_montecarlo_and_scipy(tmp_path):
    # Model A draws iid; B_EFF_BKG with a Beta efficiency runs the compiled Gibbs sweep
    data = {"x1": 9, "T1": 3.0, "x2": 12, "T2": 6.0}
    background = {"rb1": {"alpha": 2, "beta": 2}, "rb2": {"alpha": 2, "beta": 2}}
    specs = {
        "a": {"variant": "A", "data": data, "priors": {"r1": "flat", "r2": "flat"}},
        "bkg": {
            "variant": "B_EFF_BKG", "data": data, "priors": {"rho": "flat", "r2": "flat", **background},
            "efficiencies": [0.9, {"a": 6, "b": 4}],
        },
    }
    argvs = []
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        argvs += [["mcmc", "--spec", str(path), "--n-iter", "200", "--seed", "1", "--format", fmt]
                  for fmt in ("json", "csv", "text")]
    result = child(*argvs)
    assert [code for code, _ in result["runs"]] == [0] * 6
    assert loaded(result["modules"], "rateratio.montecarlo", "scipy") == []
