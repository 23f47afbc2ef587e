"""A property sweep of every leaf command, in all three formats.

Each command gets its flags from magnitudes 10^U(-300, 300) and counts from
0..10 up to 1e18, with a fixed seed and small simulations.  Every call must
end in 0, 2 or 3 (or argparse's SystemExit(2)), with no traceback or warning
on stderr, strict JSON and no nan in text, within a few seconds.  The formats
of one input agree on failure wherever they print the same parts: a format
fails only for a part it prints.
"""

import contextlib
import io
import json
import re
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rateratio.cli import main

FORMATS = ("text", "json", "csv")
MAX_CALL_S = 5.0

MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))
COUNT = st.one_of(st.integers(0, 10), st.floats(0.0, 18.0).map(lambda e: int(10.0**e))).map(str)
SEED = ["--seed", "1"]


def _flags(*names, values=MAGNITUDE):
    """Strategy for ["--name", value, ...] over the given flag names."""
    return st.tuples(*[values] * len(names)).map(lambda drawn: [item for pair in zip(names, drawn) for item in pair])


RATE_PRIOR = st.one_of(st.just([]), _flags("--prior-mean", "--prior-sd"), _flags("--prior-alpha", "--prior-beta"))
R2_PRIOR = st.one_of(st.just([]), _flags("--prior-alpha0", "--prior-beta0"))


def _argv(*parts):
    """Strategy for one argv: the concatenation of fixed lists and list strategies."""
    return st.tuples(*[part if isinstance(part, st.SearchStrategy) else st.just(part) for part in parts]).map(
        lambda lists: [item for part in lists for item in part]
    )


def _repeated(flag, *fields):
    """Strategy for one to three uses of a repeatable flag whose value joins its fields by commas."""
    value = st.tuples(*fields).map(",".join)
    return st.lists(value, min_size=1, max_size=3).map(lambda drawn: [item for v in drawn for item in (flag, v)])


SIMULATION = _argv(SEED, _flags("--n", values=st.integers(1, 2000).map(str)), _flags("--cutoff"))
RATIO_MODEL = st.one_of(st.just(["--model", "A"]), _argv(["--model", "B"], R2_PRIOR), st.just(["--compare"]))

# each leaf command and the strategy for its argv, less --format
COMMANDS = {
    "predict diff": _argv(["predict", "diff"], _flags("--l1", "--l2")),
    "predict ratio": _argv(["predict", "ratio"], _flags("--l1", "--l2"), SIMULATION),
    "infer": _argv(["infer"], _flags("--x", values=COUNT), _flags("--T"), RATE_PRIOR),
    "ratio": _argv(["ratio"], _flags("--x1", "--x2", values=COUNT), _flags("--T1", "--T2"), RATIO_MODEL),
    "combine rate": _argv(
        ["combine", "rate"],
        _repeated("--obs", COUNT, MAGNITUDE),
        st.sampled_from([[], ["--per-observation"]]),
        RATE_PRIOR,
    ),
    "combine ratio": _argv(["combine", "ratio"], _repeated("--instance", COUNT, MAGNITUDE, COUNT, MAGNITUDE), R2_PRIOR),
    "mc gamma-ratio": _argv(["mc", "gamma-ratio"], _flags("--alpha1", "--beta1", "--alpha2", "--beta2"), SIMULATION),
    "mc uniform-ratio": _argv(["mc", "uniform-ratio"], _flags("--rmax"), SIMULATION),
    "mc waiting-times": _argv(
        ["mc", "waiting-times", *SEED],
        _flags("--rate"),
        _flags("--k", values=st.integers(1, 50).map(str)),
        _flags("--paths", values=st.integers(1, 20).map(str)),
    ),
}


def _reject_constant(name):
    raise ValueError(f"JSON carries {name}")


def _run(argv):
    """(exit code, stdout, stderr with any warning as it would print) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv  # argparse's usage error
            code = 2
    elapsed = time.perf_counter() - start
    assert elapsed < MAX_CALL_S, (argv, elapsed)
    err = err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return code, out.getvalue(), err


def _agree(command, codes):
    """A format fails only for a part it prints."""
    failed = {fmt: code != 0 for fmt, code in codes.items()}
    if command in ("infer", "ratio"):  # text prints the summaries, csv the curve, json both
        return failed["json"] == (failed["text"] or failed["csv"])
    if command == "combine ratio":  # csv prints the curve alone
        return codes["json"] == codes["text"]
    return len(set(codes.values())) == 1


@pytest.mark.parametrize("command", COMMANDS)
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_format_exits_cleanly_and_agrees(command, data):
    argv = data.draw(COMMANDS[command], label="argv")
    codes = {}
    for fmt in FORMATS:
        code, out, err = _run([*argv, "--format", fmt])
        assert code in (0, 2, 3), (argv, fmt, code)
        assert "Traceback" not in err and "Warning" not in err, (argv, fmt, err)
        if code == 0 and fmt == "json":
            json.loads(out, parse_constant=_reject_constant)
        if code == 0 and fmt == "text":
            assert not re.search(r"\bnan\b", out, re.IGNORECASE), (argv, out)
        codes[fmt] = code
    assert _agree(command, codes), (argv, codes)
