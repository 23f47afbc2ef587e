"""Independent checks of `rateratio` outputs.

Expected values come from SciPy and from the closed forms written out here,
never from `rateratio` itself.  `check` returns a Verdict:

- "ok": a right answer, or a correct refusal (exit 3 for an input whose
  posterior does not exist, such as Model B with a flat prior and x2 = 0);
- "refused": exit 2 or 3, or an exception, for an input that has an answer;
- "wrong": an answer that disagrees with the oracle, or an answer to an
  input that has none.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import stats

import ess

Q_HI = 0.999  # the curve grids of the CLI end at this quantile
CDF_TOL = 1e-5  # probability-space tolerance on the grid end point
REL = 1e-9  # relative tolerance on values printed at full precision
TEXT_REL = 1e-5  # values printed with 6 significant digits
N_SIGMA = 5.0
# two-sided normal tail beyond 5 sigma, used as the exact binomial tail level
TAIL = 2.0 * stats.norm.sf(N_SIGMA)


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""


OK = Verdict("ok")


class Mismatch(Exception):
    """The output disagrees with the oracle."""


def _close(got, want, rel=REL, abs_tol=0.0, what="value") -> None:
    if want is None or got is None:
        if got is not want:
            raise Mismatch(f"{what}: got {got!r}, want {want!r}")
        return
    if not math.isfinite(float(got)) or abs(float(got) - want) > rel * abs(want) + abs_tol:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# ------------------------------------------------------------ closed forms


@dataclass(frozen=True)
class GammaLaw:
    """Gamma(alpha, beta) with beta a rate."""

    alpha: float
    beta: float

    def summaries(self) -> dict:
        a, b = self.alpha, self.beta
        return {"mode": (a - 1.0) / b if a >= 1.0 else 0.0, "mean": a / b,
                "variance": a / b**2, "sd": math.sqrt(a) / b}

    def cdf(self, x):
        return stats.gamma.cdf(x, self.alpha, scale=1.0 / self.beta)

    def pdf(self, x):
        return stats.gamma.pdf(x, self.alpha, scale=1.0 / self.beta)


@dataclass(frozen=True)
class RatioLaw:
    """Z1/Z2 for Z1 ~ Gamma(a1, b1), Z2 ~ Gamma(a2, b2): (b2/b1) * BetaPrime(a1, a2)."""

    a1: float
    b1: float
    a2: float
    b2: float

    @property
    def scale(self) -> float:
        return self.b2 / self.b1

    def summaries(self) -> dict:
        a1, a2, s = self.a1, self.a2, self.scale
        var = s**2 * a1 * (a1 + a2 - 1.0) / ((a2 - 1.0) ** 2 * (a2 - 2.0)) if a2 > 2.0 else None
        return {"mode": s * (a1 - 1.0) / (a2 + 1.0) if a1 >= 1.0 else 0.0,
                "mean": s * a1 / (a2 - 1.0) if a2 > 1.0 else None,
                "variance": var, "sd": math.sqrt(var) if var is not None else None}

    def cdf(self, x):
        return stats.betaprime.cdf(np.asarray(x) / self.scale, self.a1, self.a2)

    def pdf(self, x):
        return stats.betaprime.pdf(np.asarray(x) / self.scale, self.a1, self.a2) / self.scale


def _prior(spec) -> tuple[float, float]:
    if spec[0] == "elicit":
        mean, sd = spec[1], spec[2]
        return mean**2 / sd**2, mean / sd**2
    if spec[0] == "direct":
        return spec[1], spec[2]
    return 1.0, 0.0


def _model_law(model: str, x1, t1, x2, t2, prior_r2) -> RatioLaw | None:
    """The closed-form rho posterior; None when it does not exist."""
    if model == "A":
        return RatioLaw(x1 + 1.0, t1, x2 + 1.0, t2)
    alpha0, beta0 = prior_r2 if prior_r2 is not None else (1.0, 0.0)
    if alpha0 + x2 - 1.0 <= 0.0:
        return None
    return RatioLaw(x1 + 1.0, t1, alpha0 + x2 - 1.0, beta0 + t2)


# ------------------------------------------------------------ shared checks


def _check_summaries(got: dict, want: dict, rel=REL) -> None:
    for key in ("mode", "mean", "sd"):
        _close(got.get(key), want[key], rel=rel, abs_tol=1e-300, what=key)


def _check_curve(xs, ys, laws: list, n_points: int = 512, nudged_ok: bool = True) -> None:
    """A plot grid: n points evenly spaced over [0, max quantile(0.999)], densities exact."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    _require(xs.size == n_points and ys.shape[0] == n_points, f"curve has {xs.size} points")
    hi = xs[-1]
    cdfs = [float(law.cdf(hi)) for law in laws]
    _require(min(abs(c - Q_HI) for c in cdfs) <= CDF_TOL and min(cdfs) >= Q_HI - CDF_TOL,
             f"curve ends at {hi!r}, where the cdf is {cdfs}, not {Q_HI}")
    grid = np.linspace(0.0, hi, n_points)
    _require(np.allclose(xs[1:], grid[1:], rtol=1e-12, atol=0.0), "curve grid is not even")
    _require(xs[0] == 0.0 or (nudged_ok and xs[0] == xs[1] / 2.0), f"curve starts at {xs[0]!r}")
    idx = np.array([1, n_points // 4, n_points // 2, 3 * n_points // 4, n_points - 1])
    for col, law in enumerate(laws):
        dens = ys if ys.ndim == 1 else ys[:, col]
        want = law.pdf(xs[idx])
        _require(np.all(np.abs(dens[idx] - want) <= 1e-6 * np.abs(want) + 1e-9 * np.max(want)),
                 f"densities {dens[idx].tolist()} differ from {want.tolist()}")


def _csv_rows(text: str, header: list[str]) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == header, f"csv header {rows[:1]}, want {header}")
    return np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)


def _text_value(text: str, name: str) -> float | None:
    match = re.search(rf"\b{name} = (undef\([^)]*\)|[-+0-9.eE]+|nan|inf)", text)
    _require(match is not None, f"no {name!r} in text output")
    value = match.group(1)
    return None if value.startswith("undef") else float(value)


def _text_summaries(text: str) -> dict:
    return {name: _text_value(text, name) for name in ("mode", "mean", "sd")}


# ------------------------------------------------------------ closed_form


def _check_infer(p: dict, fmt: str, out: str) -> None:
    a0, b0 = _prior(p["prior"])
    law = GammaLaw(a0 + p["x"], b0 + p["T"])
    if fmt == "json":
        doc = json.loads(out)
        _close(doc["posterior"]["alpha"], law.alpha, what="alpha")
        _close(doc["posterior"]["beta"], law.beta, what="beta")
        _check_summaries(doc["summaries"], law.summaries())
        _check_curve(doc["curve"]["r"], doc["curve"]["density"], [law])
    elif fmt == "csv":
        rows = _csv_rows(out, ["r", "density"])
        _check_curve(rows[:, 0], rows[:, 1], [law])
    else:
        match = re.search(r"posterior: Gamma\(alpha=([^,]+), beta=([^)]+)\)", out)
        _require(match is not None, "no posterior line")
        _close(float(match.group(1)), law.alpha, rel=TEXT_REL, what="alpha")
        _close(float(match.group(2)), law.beta, rel=TEXT_REL, what="beta")
        _check_summaries(_text_summaries(out), law.summaries(), rel=TEXT_REL)


def _ratio_laws(p: dict) -> dict | None:
    laws = {m: _model_law(m, p["x1"], p["T1"], p["x2"], p["T2"], p["prior_r2"]) for m in p["models"]}
    return None if any(law is None for law in laws.values()) else laws


def _check_ratio(p: dict, fmt: str, out: str) -> None:
    laws = _ratio_laws(p)
    if fmt == "json":
        doc = json.loads(out)
        _require(sorted(doc["models"]) == sorted(laws), f"models {sorted(doc['models'])}")
        for m, law in laws.items():
            _check_summaries(doc["models"][m]["summaries"], law.summaries())
            _check_curve(doc["curves"][m]["rho"], doc["curves"][m]["density"], [law])
    elif fmt == "csv":
        if len(laws) == 1:
            rows = _csv_rows(out, ["rho", "density"])
            _check_curve(rows[:, 0], rows[:, 1], list(laws.values()))
        else:
            rows = _csv_rows(out, ["rho", "density_a", "density_b"])
            _check_curve(rows[:, 0], rows[:, 1:], [laws["A"], laws["B"]], nudged_ok=False)
    else:
        blocks = re.split(r"\nmodel ([AB]) \(prior on r2: [^)]*\)+:\n", out)
        got = dict(zip(blocks[1::2], blocks[2::2]))
        _require(sorted(got) == sorted(laws), f"text models {sorted(got)}")
        for m, law in laws.items():
            _check_summaries(_text_summaries(got[m]), law.summaries(), rel=TEXT_REL)


def _check_combine_rate(p: dict, fmt: str, out: str) -> None:
    a0, b0 = _prior(p["prior"])
    pooled = GammaLaw(a0 + sum(x for x, _ in p["obs"]), b0 + sum(t for _, t in p["obs"]))
    singles = [GammaLaw(a0 + x, b0 + t) for x, t in p["obs"]]
    if fmt == "json":
        doc = json.loads(out)
        _close(doc["pooled"]["alpha"], pooled.alpha, what="alpha")
        _close(doc["pooled"]["beta"], pooled.beta, what="beta")
        _check_summaries(doc["summaries"], pooled.summaries())
        if p["per_observation"]:
            for entry, law in zip(doc["per_observation"], singles, strict=True):
                _check_summaries(entry["summaries"], law.summaries())
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        _require(rows[0] == ["label", "alpha", "beta", "mode", "mean", "sd"], "csv header")
        laws = [pooled] + (singles if p["per_observation"] else [])
        _require(len(rows) == 1 + len(laws), f"{len(rows) - 1} csv rows")
        for row, law in zip(rows[1:], laws):
            _close(float(row[1]), law.alpha, what="alpha")
            _close(float(row[2]), law.beta, what="beta")
            _check_summaries(dict(zip(("mode", "mean", "sd"), map(float, row[3:]))), law.summaries())
    else:
        match = re.search(r"pooled posterior: Gamma\(alpha=([^,]+), beta=([^)]+)\)", out)
        _require(match is not None, "no pooled line")
        _close(float(match.group(1)), pooled.alpha, rel=TEXT_REL, what="alpha")
        _close(float(match.group(2)), pooled.beta, rel=TEXT_REL, what="beta")
        _check_summaries(_text_summaries(out), pooled.summaries(), rel=TEXT_REL)


def _combine_ratio_law(p: dict) -> RatioLaw | None:
    x1, t1, x2, t2 = (sum(inst[i] for inst in p["instances"]) for i in range(4))
    return _model_law("B", x1, t1, x2, t2, p["prior_r2"])


def _check_combine_ratio(p: dict, fmt: str, out: str) -> None:
    law = _combine_ratio_law(p)
    if fmt == "json":
        _check_summaries(json.loads(out)["summaries"], law.summaries())
    elif fmt == "csv":
        rows = _csv_rows(out, ["rho", "density"])
        _check_curve(rows[:, 0], rows[:, 1], [law])
    else:
        _check_summaries(_text_summaries(out), law.summaries(), rel=TEXT_REL)


def _check_predict_diff(p: dict, fmt: str, out: str) -> None:
    l1, l2, window = p["l1"], p["l2"], p["window"]
    rel = REL
    if fmt == "json":
        doc = json.loads(out)
        support, pmf = np.array(doc["support"]), np.array(doc["pmf"])
        _close(doc["mean"], l1 - l2, rel=1e-6, abs_tol=1e-6, what="mean")
        _close(doc["sd"], math.sqrt(l1 + l2), rel=1e-6, what="sd")
    elif fmt == "csv":
        rows = _csv_rows(out, ["d", "probability"])
        support, pmf = rows[:, 0], rows[:, 1]
    else:
        rows = re.findall(r"^\s*(-?\d+)\s+(\S+)$", out, flags=re.MULTILINE)
        support = np.array([float(d) for d, _ in rows])
        pmf = np.array([float(v) for _, v in rows])
        _close(_text_value(out, "mean"), l1 - l2, rel=TEXT_REL, abs_tol=1e-5, what="mean")
        _close(_text_value(out, "sd"), math.sqrt(l1 + l2), rel=TEXT_REL, what="sd")
        rel = TEXT_REL
    _require(support.size > 0 and np.all(np.diff(support) == 1), "support is not contiguous")
    if window is not None:
        _require(support[0] >= window[0] and support[-1] <= window[1], "support outside the window")
    else:
        _require(pmf.sum() >= 1.0 - 1e-9 - rel, f"pmf sums to {pmf.sum()!r}")
    want = stats.skellam.pmf(support, l1, l2)
    bad = np.abs(pmf - want) > rel * want + 1e-12
    _require(not bad.any(), f"pmf differs from Skellam at d = {support[bad][:3].tolist()}")


# ------------------------------------------------------------ monte_carlo


def _binomial_consistent(k: float, n: int, prob: float, what: str, rel_slack: float = 0.0) -> None:
    """k of n draws is no further from n*prob than the 5-sigma two-sided binomial tail.

    rel_slack widens the interval for k read back from a rounded fraction.
    """
    slack = rel_slack * k + 0.5 if rel_slack else 0.0
    lo = stats.binom.ppf(TAIL / 2.0, n, prob) - slack
    hi = stats.binom.isf(TAIL / 2.0, n, prob) + slack
    _require(lo <= k <= hi, f"{what}: {k:g} of {n} draws, want [{lo:g}, {hi:g}] for p = {prob:g}")


def _mc_report(p: dict, fmt: str, out: str) -> dict | None:
    """Mass accounting of one simulation; returns the fractions, or None for csv."""
    n, bins, cutoff = p["n"], p["bins"], p["cutoff"]
    if fmt == "csv":
        rows = _csv_rows(out, ["bin_left", "bin_right", "density"])
        _require(rows.shape[0] == bins, f"{rows.shape[0]} bins, want {bins}")
        _require(np.allclose(rows[:, 0], np.linspace(0.0, cutoff, bins + 1)[:-1], rtol=1e-12), "bin edges")
        _require(np.all(rows[:, 0][1:] == rows[:, 1][:-1]), "bins are not contiguous")
        mass = float(np.sum(rows[:, 2] * (rows[:, 1] - rows[:, 0])))
        _require(np.all(rows[:, 2] >= 0.0) and mass <= 1.0 + 1e-9, f"histogram mass {mass!r}")
        return None
    if fmt == "json":
        doc = json.loads(out)
        counts = np.array(doc["counts"], dtype=np.int64)
        _require(doc["n"] == n and doc["seed"] == p["seed"] and doc["bins"] == bins, "n, seed or bins")
        _require(counts.size == bins and np.all(counts >= 0), "histogram counts")
        width = cutoff / bins
        _require(np.allclose(doc["density"], counts / (n * width), rtol=1e-12, atol=0.0), "density != counts/(n*width)")
        frac = {k: doc[k] for k in ("frac_nan", "frac_inf", "frac_overflow")}
        frac["hist"] = counts.sum() / n
        frac["first_bin"] = counts[0] / n
        frac["mean"] = doc["mean"]
        total, tol = sum(frac[k] for k in ("frac_nan", "frac_inf", "frac_overflow", "hist")), 1e-12
    else:
        _require(_text_value(out, "n") == n, "n")
        frac = {k: _text_value(out, k) for k in ("frac_nan", "frac_inf", "frac_overflow")}
        match = re.search(r"histogram: (\d+) bins over \[0, ([^\]]+)\] \(in-histogram mass ([^)]+)\)", out)
        _require(match is not None and int(match.group(1)) == bins, "histogram line")
        frac["hist"] = float(match.group(3))
        frac["first_bin"] = None
        frac["mean"] = _text_value(out, "mean")
        total, tol = sum(frac[k] for k in ("frac_nan", "frac_inf", "frac_overflow", "hist")), 4 * 5e-6
    _require(abs(total - 1.0) <= tol, f"mass accounting sums to {total!r}")
    return frac


def _check_mc(kind: str, p: dict, fmt: str, out: str) -> None:
    frac = _mc_report(p, fmt, out)
    if frac is None:
        return
    n, cutoff = p["n"], p["cutoff"]
    slack = 0.0 if fmt == "json" else TEXT_REL  # text rounds fractions to 6 digits
    if kind == "predict_ratio":
        l1, l2 = p["l1"], p["l2"]
        _binomial_consistent(frac["frac_nan"] * n, n, math.exp(-(l1 + l2)), "frac_nan", slack)
        _binomial_consistent(frac["frac_inf"] * n, n, -math.expm1(-l1) * math.exp(-l2), "frac_inf", slack)
    elif kind == "mc_gamma":
        law = RatioLaw(p["a1"], p["b1"], p["a2"], p["b2"])
        want = law.summaries()
        _require(frac["frac_nan"] == 0.0 and frac["frac_inf"] == 0.0, "NaN or Inf from Gamma draws")
        se = want["sd"] / math.sqrt(n)
        _close(frac["mean"], want["mean"], rel=TEXT_REL if fmt == "text" else 0.0,
               abs_tol=N_SIGMA * se, what="Gamma-ratio mean")
        _binomial_consistent(frac["frac_overflow"] * n, n, float(1.0 - law.cdf(cutoff)), "frac_overflow", slack)
    else:
        # U1/U2 exceeds c with probability 1/(2c) for c >= 1 and has mass w/2 below w <= 1
        _require(frac["frac_nan"] == 0.0 and frac["frac_inf"] == 0.0, "NaN or Inf from uniform draws")
        _binomial_consistent(frac["frac_overflow"] * n, n, 0.5 / cutoff, "frac_overflow", slack)
        if frac["first_bin"] is not None:
            width = cutoff / p["bins"]
            _binomial_consistent(frac["first_bin"] * n, n, width / 2.0, "first bin")


# ------------------------------------------------------------ mcmc


def mcmc_closed_form_mean(spec: dict) -> float | None:
    """Posterior mean of rho where a closed form exists, else None.

    A: independent Gamma posteriors of r1, r2.  B: flat prior on rho (the
    sampler's Gamma(1, 1e-6) stand-in, whose effect is below 1e-5 of the
    mean here), r2 ~ Gamma(a, b): rho is (b+T2)/T1 * BetaPrime(x1+1, a+x2-1).
    B_EFF with fixed efficiencies is B with T_i -> eps_i * T_i by thinning.
    """
    flat = (1.0, 1e-6)

    def prior(raw):
        return flat if raw == "flat" else (raw["alpha"], raw["beta"])

    d, pr = spec["data"], spec["priors"]
    t1, t2 = d["T1"], d["T2"]
    if spec["variant"] == "A":
        (a1, b1), (a2, b2) = prior(pr["r1"]), prior(pr["r2"])
        return (a1 + d["x1"]) / (b1 + t1) * (b2 + t2) / (a2 + d["x2"] - 1.0)
    if spec["variant"] == "B_EFF":
        effs = spec["efficiencies"]
        if not all(isinstance(e, float) for e in effs):
            return None
        t1, t2 = effs[0] * t1, effs[1] * t2
    elif spec["variant"] != "B":
        return None
    a2, b2 = prior(pr["r2"])
    return (b2 + t2) / t1 * (d["x1"] + 1.0) / (a2 + d["x2"] - 2.0)


def read_chain(prefix) -> dict:
    path = prefix.with_name(prefix.name + ".chain.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: table[:, i] for i, name in enumerate(header)}


def _check_mcmc(req, fmt: str, out: str) -> float:
    """Checks one chain; returns the ESS of its rho draws."""
    prefix = req.out_prefix
    chain = read_chain(prefix)
    rho = chain["rho"]
    _require(rho.size == int(req.argv[req.argv.index("--n-iter") + 1]), f"chain has {rho.size} draws")
    _require(np.all(np.isfinite(rho)) and np.all(rho > 0), "non-positive or non-finite rho")
    summary = json.loads(prefix.with_name(prefix.name + ".summary.json").read_text())
    for name, column in chain.items():
        if name == "iteration":
            continue
        got = summary["variables"][name]
        _close(got["mean"], float(column.mean()), rel=1e-9, what=f"{name} mean")
        _close(got["sd"], float(column.std(ddof=1)), rel=1e-9, what=f"{name} sd")
    if fmt == "json":
        _require(json.loads(out[out.index("{"):])["variables"] == summary["variables"], "stdout summary")
    elif fmt == "text":
        _require(out.split("\n", 1)[1] == prefix.with_name(prefix.name + ".summary.txt").read_text(),
                 "stdout summary")
    ess_rho = ess.effective_sample_size(rho)
    want = mcmc_closed_form_mean(req.spec)
    if want is not None:
        se = float(rho.std(ddof=1)) / math.sqrt(ess_rho)
        _require(abs(rho.mean() - want) <= N_SIGMA * se,
                 f"rho mean {rho.mean():.6g}, closed form {want:.6g}, SE {se:.3g}")
    return ess_rho


# ------------------------------------------------------------ entry point


def expects_answer(req) -> bool:
    """Whether the input has a mathematical answer (exit 0) rather than exit 3."""
    if req.kind == "ratio":
        return _ratio_laws(req.params) is not None
    if req.kind == "combine_ratio":
        return _combine_ratio_law(req.params) is not None
    return True


def _format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def check(req, code, out: str) -> tuple[Verdict, float | None]:
    """Verdict on one request, plus the ESS of rho for an mcmc request."""
    if req.kind == "warmup":
        return (OK if code == 0 else Verdict("refused", f"warm-up exit {code}")), None
    answer = expects_answer(req)
    if code != 0:
        if not answer and code == 3:
            return OK, None
        return Verdict("refused" if answer else "wrong", f"exit {code}"), None
    if not answer:
        return Verdict("wrong", "answered an input that has no posterior"), None
    fmt = _format(req.argv)
    ess_rho = None
    try:
        if req.kind == "infer":
            _check_infer(req.params, fmt, out)
        elif req.kind == "ratio":
            _check_ratio(req.params, fmt, out)
        elif req.kind == "combine_rate":
            _check_combine_rate(req.params, fmt, out)
        elif req.kind == "combine_ratio":
            _check_combine_ratio(req.params, fmt, out)
        elif req.kind == "predict_diff":
            _check_predict_diff(req.params, fmt, out)
        elif req.kind in ("predict_ratio", "mc_gamma", "mc_uniform"):
            _check_mc(req.kind, req.params, fmt, out)
        elif req.kind == "mcmc":
            ess_rho = _check_mcmc(req, fmt, out)
        else:
            raise ValueError(f"no oracle for {req.kind!r}")
    except Mismatch as exc:
        return Verdict("wrong", str(exc)), None
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return Verdict("wrong", f"malformed output: {exc!r}"), None
    return OK, ess_rho
