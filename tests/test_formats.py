"""Every leaf command in all three formats: CSV and text agree with JSON, --out matches stdout."""

import csv
import io
import json
import platform
import re

import pytest

from rateratio.cli import main

SPEC = {
    "variant": "B_EFF",
    "data": {"x1": 3, "T1": 3.0, "x2": 6, "T2": 6.0},
    "priors": {"rho": "flat", "r2": {"alpha": 2, "beta": 1}},
    "efficiencies": [{"a": 20, "b": 5}, 0.9],
    "monitor": ["rho", "r2", "eps1"],
}

COMMANDS = {
    "predict-diff": "predict diff --l1 3 --l2 2 --d-min -4 --d-max 6",
    "predict-ratio": "predict ratio --l1 2 --l2 3 --n 20000 --bins 20 --seed 1",
    "infer": "infer --x 3 --T 3 --prior-mean 1 --prior-sd 2",
    "ratio": "ratio --model B --x1 3 --T1 3 --x2 6 --T2 6 --prior-alpha0 2 --prior-beta0 1",
    "ratio-compare": "ratio --x1 3 --T1 3 --x2 6 --T2 6 --compare",
    "combine-rate": "combine rate --obs 3,3 --obs 0,2 --obs 5,4 --per-observation",
    "combine-ratio": "combine ratio --instance 3,3,6,6 --instance 2,2,5,4",
    "mc-gamma-ratio": "mc gamma-ratio --alpha1 3 --beta1 2 --alpha2 4 --beta2 1 --n 20000 --seed 2",
    "mc-uniform-ratio": "mc uniform-ratio --rmax 2 --n 20000 --bins 30 --seed 3",
    "mc-waiting-times": "mc waiting-times --rate 2 --k 4 --paths 3 --seed 4",
    "mcmc": "mcmc --spec SPEC --n-iter 300 --burn-in 50 --seed 5",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def g(value):
    return f"{value:.6g}"


def _reject_constant(name):
    raise ValueError(f"JSON carries {name}")


@pytest.fixture
def outputs(request, capsys, tmp_path):
    """stdout in each format, after checking that --out writes the same bytes."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    argv = COMMANDS[request.param].replace("SPEC", str(spec_path)).split()
    result = {}
    for fmt in ("json", "csv", "text"):
        out = run(capsys, argv + ["--format", fmt])
        target = tmp_path / f"out.{fmt}"
        written = run(capsys, argv + ["--format", fmt, "--out", str(target)])
        if request.param == "mcmc":
            # --out is a prefix: the chain and both summaries go to files
            name = {"json": "summary.json", "csv": "chain.csv", "text": "summary.txt"}[fmt]
            assert (tmp_path / f"out.{fmt}.{name}").read_text() == out
            assert written.startswith(f"wrote {tmp_path / f'out.{fmt}.chain.csv'}, ")
            assert written.split("\n", 1)[1] == ("" if fmt == "csv" else out)
        else:
            assert written == ""
            assert target.read_text() == out
        result[fmt] = out
    # one strict line with sorted keys, and so are --out and mcmc's .summary.json
    doc = json.loads(result["json"], parse_constant=_reject_constant)
    assert result["json"] == json.dumps(doc, sort_keys=True) + "\n"
    return doc, list(csv.DictReader(io.StringIO(result["csv"]))), result["text"]


def test_json_runs_the_c_encoder():
    # json.dumps without indent runs CPython's C encoder: the JSON renderer's speed rests on it
    assert platform.python_implementation() != "CPython" or json.encoder.c_make_encoder is not None


def column(rows, name):
    return [float(row[name]) for row in rows]


def summary_lines(s):
    return [f"{k} = {g(s[k])}" if s[k] is not None else f"{k} = undef(" for k in ("mode", "mean", "sd")]


def assert_lines_in(text, expected):
    for line in expected:
        assert line in text, (line, text)


@pytest.mark.parametrize("outputs", ["predict-diff"], indirect=True)
def test_predict_diff(outputs):
    doc, rows, text = outputs
    assert [int(row["d"]) for row in rows] == doc["support"] == list(range(-4, 7))
    assert column(rows, "probability") == doc["pmf"]
    for d, p in zip(doc["support"], doc["pmf"]):
        assert f"{d:>6}  {p:>12.6g}" in text.splitlines()
    assert_lines_in(text, [f"mean = {g(doc['mean'])}, sd = {g(doc['sd'])}"])


@pytest.mark.parametrize(
    "outputs", ["predict-ratio", "mc-gamma-ratio", "mc-uniform-ratio"], indirect=True
)
def test_ratio_reports(request, outputs):
    doc, rows, text = outputs
    assert column(rows, "bin_left") == doc["bin_edges"][:-1]
    assert column(rows, "bin_right") == doc["bin_edges"][1:]
    assert column(rows, "density") == doc["density"]
    # U1/U2 has neither a mean nor an sd: json gives null, and text undef(reason)
    lacking = request.node.callspec.params["outputs"] == "mc-uniform-ratio"
    assert (doc["mean"] is None, doc["sd"] is None) == (lacking, lacking)
    infinite = "undef(infinite: P(R > r) = 1/(2r) for r >= 1)"
    mean, sd = (infinite, infinite) if lacking else (g(doc["mean"]), g(doc["sd"]))
    assert_lines_in(
        text,
        [
            f"n = {doc['n']}, seed = {doc['seed']}",
            f"mean = {mean}, sd = {sd}, mode_estimate = {g(doc['mode_estimate'])}",
            f"frac_nan = {g(doc['frac_nan'])}, frac_inf = {g(doc['frac_inf'])}, "
            f"frac_overflow = {g(doc['frac_overflow'])}",
            f"histogram: {doc['bins']} bins over [0, {doc['cutoff']:g}]",
        ],
    )


@pytest.mark.parametrize("outputs", ["infer"], indirect=True)
def test_infer(outputs):
    doc, rows, text = outputs
    assert column(rows, "r") == doc["curve"]["r"]
    assert column(rows, "density") == doc["curve"]["density"]
    post = doc["posterior"]
    assert_lines_in(
        text,
        [f"posterior: Gamma(alpha={post['alpha']:g}, beta={post['beta']:g})"]
        + summary_lines(doc["summaries"]),
    )


@pytest.mark.parametrize("outputs", ["ratio"], indirect=True)
def test_ratio(outputs):
    doc, rows, text = outputs
    assert list(doc["models"]) == ["B"]
    assert column(rows, "rho") == doc["curves"]["B"]["rho"]
    assert column(rows, "density") == doc["curves"]["B"]["density"]
    prior = doc["models"]["B"]["prior_r2"]
    prior_text = f"Gamma(alpha={prior['alpha']:g}, beta={prior['beta']:g})"
    assert_lines_in(text, [f"model B (prior on r2: {prior_text}):"])
    assert_lines_in(text, ["  " + line for line in summary_lines(doc["models"]["B"]["summaries"])])


@pytest.mark.parametrize("outputs", ["ratio-compare"], indirect=True)
def test_ratio_compare(outputs):
    doc, rows, text = outputs
    # one grid for both densities, out to the wider 0.999 quantile; there the
    # wider model's CSV column is its JSON curve
    wider = max(doc["curves"], key=lambda m: doc["curves"][m]["rho"][-1])
    assert column(rows, "rho")[1:] == doc["curves"][wider]["rho"][1:]
    assert column(rows, f"density_{wider.lower()}")[1:] == doc["curves"][wider]["density"][1:]
    for model, block in doc["models"].items():
        assert f"model {model} (prior on r2: flat):" in text
        assert_lines_in(text, ["  " + line for line in summary_lines(block["summaries"])])


@pytest.mark.parametrize("outputs", ["combine-rate"], indirect=True)
def test_combine_rate(outputs):
    doc, rows, text = outputs
    blocks = [("pooled", doc["pooled"], doc["summaries"])] + [
        (f"obs{i + 1}", block["posterior"], block["summaries"])
        for i, block in enumerate(doc["per_observation"])
    ]
    assert [row["label"] for row in rows] == [label for label, _, _ in blocks]
    for row, (_, params, s) in zip(rows, blocks):
        assert (float(row["alpha"]), float(row["beta"])) == (params["alpha"], params["beta"])
        for key in ("mode", "mean", "sd"):
            assert row[key] == ("" if s[key] is None else repr(s[key]))
    assert_lines_in(text, summary_lines(doc["summaries"]))
    for (label, params, s), obs in zip(blocks[1:], doc["observations"]):
        assert (
            f"{label} (x={obs['x']}, T={obs['T']:g}): Gamma(alpha={params['alpha']:g}, "
            f"beta={params['beta']:g}), mean = {g(s['mean'])}, sd = {g(s['sd'])}"
        ) in text


@pytest.mark.parametrize("outputs", ["combine-ratio"], indirect=True)
def test_combine_ratio(outputs, capsys):
    doc, rows, text = outputs
    pooled = doc["pooled"]
    assert (pooled["x1"], pooled["T1"], pooled["x2"], pooled["T2"]) == (5, 5.0, 11, 10.0)
    # the pooled posterior is Model B's on the pooled totals, so its curve is that one
    single = json.loads(
        run(capsys, "ratio --model B --x1 5 --T1 5 --x2 11 --T2 10 --format json".split())
    )
    assert single["models"]["B"]["summaries"] == doc["summaries"]
    assert column(rows, "rho") == single["curves"]["B"]["rho"]
    assert column(rows, "density") == single["curves"]["B"]["density"]
    assert_lines_in(
        text,
        [f"pooled totals: x1 = {pooled['x1']}, T1 = {pooled['T1']:g}, "
         f"x2 = {pooled['x2']}, T2 = {pooled['T2']:g}"]
        + summary_lines(doc["summaries"]),
    )


@pytest.mark.parametrize("outputs", ["mc-waiting-times"], indirect=True)
def test_waiting_times(outputs):
    doc, rows, text = outputs
    times = doc["times"]
    assert [(int(row["path"]), int(row["event"])) for row in rows] == [
        (p + 1, k + 1) for p in range(doc["paths"]) for k in range(doc["k"])
    ]
    assert column(rows, "time") == [t for path in times for t in path]
    first = [path[0] for path in times]
    mean = sum(first) / len(first)
    sd = (sum((t - mean) ** 2 for t in first) / (len(first) - 1)) ** 0.5
    last = [path[-1] for path in times]
    first_line = re.search(r"^first arrival: mean = (\S+), sd = (\S+)$", text, re.M)
    last_line = re.search(r"^arrival 4: mean = (\S+)$", text, re.M)
    assert float(first_line[1]) == pytest.approx(mean, rel=1e-5)
    assert float(first_line[2]) == pytest.approx(sd, rel=1e-5)
    assert float(last_line[1]) == pytest.approx(sum(last) / len(last), rel=1e-5)


@pytest.mark.parametrize("outputs", ["mcmc"], indirect=True)
def test_mcmc(outputs):
    doc, rows, text = outputs
    assert doc["n_iter"] == len(rows) == 300
    assert list(rows[0]) == ["iteration"] + SPEC["monitor"]
    lines = text.splitlines()
    for name in SPEC["monitor"]:
        draws = column(rows, name)
        assert doc["variables"][name]["mean"] == pytest.approx(sum(draws) / len(draws), rel=1e-12)
        # the coda-style table rounds to 4 significant digits
        row = next(line.split() for line in lines if line.split()[:1] == [name])
        assert float(row[1]) == float(f"{doc['variables'][name]['mean']:.4g}")
