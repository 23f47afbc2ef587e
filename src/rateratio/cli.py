"""Command-line front end.

Subcommands: predict, infer, ratio, combine, mc, mcmc.  Global flags on every
subcommand: --seed, --format {json,csv,text}, --out.  Exit codes: 0 success,
2 usage error (bad flags, precondition violations, malformed spec files),
3 numeric/domain error raised during computation; a stdout pipe closed by
its reader ends the command quietly with 0.  A command that draws random
numbers and was given no --seed draws one and writes it to stderr, so the run
can be replayed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import numeric
from .distributions import (
    GammaParams,
    SummaryStats,
    _sample_sd,
    gamma_summaries,
    poisson_process_waiting_times,
    skellam_dist,
)
from .inference import (
    FLAT_PRIOR,
    CountObservation,
    combine_observations,
    elicit_gamma,
    rate_posterior,
    update_rate,
)
from .mcmc import (
    ModelSpec,
    build_model,
    chain_to_csv,
    format_chain_summary,
    run_chain,
    summarize_chain,
)
from .montecarlo import (
    DEFAULT_BINS,
    DEFAULT_CUTOFF,
    RatioSampleReport,
    simulate_count_ratio,
    simulate_gamma_ratio,
    simulate_uniform_ratio,
    write_histogram_csv,
)
from .ratio import (
    RatioPosteriorSpec,
    combine_ratio_instances,
    ratio_posterior,
)


class UsageError(Exception):
    """Bad input detected before computation starts; maps to exit code 2."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is None and args.handler in _RANDOM_COMMANDS:
        # draw the seed once and use it everywhere, so the run can be replayed
        args.seed = np.random.SeedSequence().entropy
        print(f"rateratio: seed = {args.seed}", file=sys.stderr)
    try:
        args.handler(args)
        sys.stdout.flush()  # here, so that a closed pipe raises inside the try
    except BrokenPipeError:  # the reader has what it wanted; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


# Built once per process: parse_args never changes a parser, the append
# options default to None, and every parse builds a fresh Namespace and fresh
# lists, so one parser serves every main() call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None, help="RNG seed (default: drawn fresh and reported)"
    )
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="text", help="output format"
    )
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="rateratio",
        description="Bayesian inference for Poisson process rates and their ratio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict", help="forward predictive distributions of counts")
    psub = predict.add_subparsers(dest="mode", required=True)
    p_diff = psub.add_parser("diff", parents=[common], help="exact pmf of X1 - X2")
    p_diff.add_argument("--l1", type=_finite_float, required=True, help="lambda1 (expected counts)")
    p_diff.add_argument("--l2", type=_finite_float, required=True, help="lambda2 (expected counts)")
    p_diff.add_argument("--d-min", type=int, default=None)
    p_diff.add_argument("--d-max", type=int, default=None)
    p_diff.set_defaults(handler=_cmd_predict_diff)
    p_ratio = psub.add_parser("ratio", parents=[common], help="simulated X1/X2 with NaN/Inf accounting")
    p_ratio.add_argument("--l1", type=_finite_float, required=True)
    p_ratio.add_argument("--l2", type=_finite_float, required=True)
    _add_sim_options(p_ratio, n_help="number of draws")
    p_ratio.set_defaults(handler=_cmd_predict_ratio)

    infer = sub.add_parser("infer", parents=[common], help="rate posterior from one observation")
    infer.add_argument("--x", type=int, required=True, help="observed counts")
    infer.add_argument("--T", type=_finite_float, required=True, help="observation time")
    _add_prior_options(infer)
    infer.set_defaults(handler=_cmd_infer)

    ratio = sub.add_parser("ratio", parents=[common], help="closed-form posterior of rho = r1/r2")
    ratio.add_argument("--model", choices=("A", "B"), default="A")
    ratio.add_argument("--x1", type=int, required=True)
    ratio.add_argument("--T1", type=_finite_float, required=True)
    ratio.add_argument("--x2", type=int, required=True)
    ratio.add_argument("--T2", type=_finite_float, required=True)
    ratio.add_argument("--prior-alpha0", type=_finite_float, default=None, help="Gamma prior on r2 (model B)")
    ratio.add_argument("--prior-beta0", type=_finite_float, default=None)
    ratio.add_argument("--compare", action="store_true", help="emit models A and B side by side")
    ratio.set_defaults(handler=_cmd_ratio)

    combine = sub.add_parser("combine", help="pool observations of one rate or one ratio")
    csub = combine.add_subparsers(dest="mode", required=True)
    c_rate = csub.add_parser("rate", parents=[common], help="pool (x, T) observations of one rate")
    c_rate.add_argument(
        "--obs", action="append", required=True, metavar="X,T", help="one observation; repeatable"
    )
    c_rate.add_argument(
        "--per-observation", action="store_true", help="also report each observation's own posterior"
    )
    _add_prior_options(c_rate)
    c_rate.set_defaults(handler=_cmd_combine_rate)
    c_ratio = csub.add_parser(
        "ratio", parents=[common], help="pool (x1, T1, x2, T2) instances of one ratio (direct-ratio model)"
    )
    c_ratio.add_argument(
        "--instance",
        action="append",
        required=True,
        metavar="X1,T1,X2,T2",
        help="one instance; repeatable",
    )
    c_ratio.add_argument("--prior-alpha0", type=_finite_float, default=None, help="Gamma prior on r2")
    c_ratio.add_argument("--prior-beta0", type=_finite_float, default=None)
    c_ratio.set_defaults(handler=_cmd_combine_ratio)

    mc = sub.add_parser("mc", help="Monte Carlo simulators")
    msub = mc.add_subparsers(dest="mode", required=True)
    m_gamma = msub.add_parser("gamma-ratio", parents=[common], help="ratio of two Gamma variates")
    for flag in ("--alpha1", "--beta1", "--alpha2", "--beta2"):
        m_gamma.add_argument(flag, type=_finite_float, required=True)
    _add_sim_options(m_gamma)
    m_gamma.set_defaults(handler=_cmd_mc_gamma)
    m_unif = msub.add_parser("uniform-ratio", parents=[common], help="ratio of two uniform variates")
    m_unif.add_argument("--rmax", type=_finite_float, default=1.0)
    _add_sim_options(m_unif)
    m_unif.set_defaults(handler=_cmd_mc_uniform)
    m_wait = msub.add_parser(
        "waiting-times", parents=[common], help="arrival times of a Poisson process"
    )
    m_wait.add_argument("--rate", type=_finite_float, required=True)
    m_wait.add_argument("--k", type=int, required=True, help="number of arrivals per path")
    m_wait.add_argument("--paths", type=int, default=1)
    m_wait.set_defaults(handler=_cmd_mc_waiting)

    mcmc = sub.add_parser("mcmc", parents=[common], help="run an exact Gibbs chain")
    mcmc.add_argument("--spec", required=True, help="JSON model spec file")
    mcmc.add_argument("--n-iter", type=int, default=100_000)
    mcmc.add_argument("--burn-in", type=int, default=None)
    mcmc.set_defaults(handler=_cmd_mcmc)

    return parser


def _finite_float(text: str) -> float:
    """argparse type of every float flag: argparse names the flag in the error and exits 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_sim_options(parser: argparse.ArgumentParser, n_help: str | None = None) -> None:
    parser.add_argument("--n", type=int, default=1_000_000, help=n_help)
    parser.add_argument("--cutoff", type=_finite_float, default=DEFAULT_CUTOFF)
    parser.add_argument("--bins", type=int, default=DEFAULT_BINS)
    parser.add_argument("--workers", type=int, default=1)


def _add_prior_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prior-mean", type=_finite_float, default=None, help="prior mean (with --prior-sd)")
    parser.add_argument("--prior-sd", type=_finite_float, default=None)
    parser.add_argument("--prior-alpha", type=_finite_float, default=None, help="prior Gamma shape")
    parser.add_argument("--prior-beta", type=_finite_float, default=None, help="prior Gamma rate")


def _prior_from_args(args) -> GammaParams:
    elicited = (args.prior_mean, args.prior_sd)
    if elicited == (None, None):
        return _gamma_from_flags(args, "--prior-alpha", "--prior-beta")
    if (args.prior_alpha, args.prior_beta) != (None, None):
        raise UsageError("give either --prior-mean/--prior-sd or --prior-alpha/--prior-beta, not both")
    if None in elicited:
        raise UsageError("--prior-mean and --prior-sd must be given together")
    if min(elicited) <= 0:
        raise UsageError("--prior-mean and --prior-sd must be > 0")
    return elicit_gamma(*elicited)


def _gamma_from_flags(args, alpha: str, beta: str) -> GammaParams:
    """Gamma(alpha, beta) from two flags given together; the flat prior when neither is."""
    a, b = (getattr(args, flag[2:].replace("-", "_")) for flag in (alpha, beta))
    if a is None and b is None:
        return FLAT_PRIOR
    if a is None or b is None:
        raise UsageError(f"{alpha} and {beta} must be given together")
    if a <= 0 or b < 0:
        raise UsageError(f"{alpha} must be > 0 and {beta} >= 0")
    return GammaParams(a, b)


def _render(fmt: str, fh, payload, table, lines) -> None:
    """Write one result to fh in one format.  Only the renderer of that format runs.

    payload() returns the JSON document, table(fh) writes the CSV to fh, and
    lines() returns the lines of text.  Each computes its data before it
    writes, so an error leaves no partial output.
    """
    if fmt == "csv":
        table(fh)
    elif fmt == "json":
        fh.write(_json_dump(payload()))
    else:
        fh.write("\n".join(lines()) + "\n")


def _emit(args, payload, table, lines) -> None:
    """Write the result in --format to stdout, or to --out once it is whole."""
    fh = io.StringIO() if args.out else sys.stdout
    _render(args.format, fh, payload, table, lines)
    if args.out:
        Path(args.out).write_text(fh.getvalue())


def _json_dump(payload) -> str:
    # one line with sorted keys: without indent, json.dumps runs CPython's C
    # encoder.  NaN and Infinity are not JSON: it raises ValueError (exit 3)
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _write_csv(fh, columns: dict) -> None:
    """CSV of named, equal-length columns of ints, strings and Python floats.

    "%s" writes a Python float as its repr, the shortest string that reads
    back to the same float.
    """
    fh.write(",".join(columns) + "\n")
    line = ",".join(["%s"] * len(columns)) + "\n"
    fh.writelines(line % row for row in zip(*columns.values()))


def _curve(law, x_name: str) -> dict:
    """The law's plotted density: {x_name: grid, "density": values}."""
    xs, ys = numeric.pdf_curve(law)
    return {x_name: xs.tolist(), "density": ys.tolist()}


def _sig6(value: float | None, reason: str) -> str:
    """value at 6 significant digits, or undef(reason) where it does not exist."""
    return f"undef({reason})" if value is None else f"{value:.6g}"


def _summary_lines(s: SummaryStats) -> list[str]:
    return [
        f"{name} = {_sig6(getattr(s, name), s.undefined.get(name, 'undefined'))}"
        for name in ("mode", "mean", "sd")
    ]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


# ---------------------------------------------------------------- predict


def _cmd_predict_diff(args) -> None:
    _require(args.l1 > 0, "--l1 must be > 0")
    _require(args.l2 > 0, "--l2 must be > 0")
    lo = -np.inf if args.d_min is None else args.d_min
    hi = np.inf if args.d_max is None else args.d_max
    _require(lo <= hi, "--d-min must be <= --d-max")
    dist = skellam_dist(args.l1, args.l2)
    # --d-min/--d-max select a display window; pmf values and the mean/sd
    # stay those of the full distribution.
    keep = (dist.values >= lo) & (dist.values <= hi)
    values = dist.values[keep].tolist()
    probs = dist.probs[keep].tolist()
    _emit(
        args,
        payload=lambda: {
            "lambda1": args.l1,
            "lambda2": args.l2,
            "support": values,
            "pmf": probs,
            "mean": dist.mean(),
            "sd": dist.sd(),
        },
        table=lambda fh: _write_csv(fh, {"d": values, "probability": probs}),
        lines=lambda: [
            f"difference of counts: lambda1 = {args.l1:g}, lambda2 = {args.l2:g}",
            "",
            f"{'d':>6}  {'f(d)':>12}",
            *map("%6d  %12.6g".__mod__, zip(values, probs)),
            "",
            f"mean = {dist.mean():.6g}, sd = {dist.sd():.6g}",
        ],
    )


def _emit_report(args, report: RatioSampleReport, header: str) -> None:
    def lines() -> list[str]:
        return [
            header,
            f"n = {report.n}, seed = {report.seed}",
            f"mean = {_sig6(report.mean, report.undefined.get('mean', 'undefined'))}, "
            f"sd = {_sig6(report.sd, report.undefined.get('sd', 'undefined'))}, "
            f"mode_estimate = {_sig6(report.mode_estimate, 'empty histogram')}",
            f"frac_nan = {report.frac_nan:.6g}, frac_inf = {report.frac_inf:.6g}, "
            f"frac_overflow = {report.frac_overflow:.6g}",
            f"histogram: {report.counts.size} bins over [0, {report.cutoff:g}] "
            f"(in-histogram mass {report.hist_mass:.6g})",
        ]

    _emit(args, report.as_dict, lambda fh: write_histogram_csv(report, fh), lines)


def _check_sim_args(args) -> None:
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.cutoff > 0, "--cutoff must be > 0")
    _require(args.bins >= 1, "--bins must be >= 1")
    _require(args.workers >= 1, "--workers must be >= 1")


def _cmd_predict_ratio(args) -> None:
    _require(args.l1 > 0, "--l1 must be > 0")
    _require(args.l2 > 0, "--l2 must be > 0")
    _check_sim_args(args)
    report = simulate_count_ratio(
        args.l1, args.l2, args.n, args.cutoff, args.bins, args.seed, args.workers
    )
    _emit_report(args, report, f"ratio of counts: lambda1 = {args.l1:g}, lambda2 = {args.l2:g}")


# ---------------------------------------------------------------- infer


def _cmd_infer(args) -> None:
    _require(args.x >= 0, "--x must be >= 0")
    _require(args.T > 0, "--T must be > 0")
    prior = _prior_from_args(args)
    estimate = rate_posterior(CountObservation(args.x, args.T), prior)
    posterior = estimate.posterior
    _emit(
        args,
        payload=lambda: {
            "data": {"x": args.x, "T": args.T},
            "prior": {"alpha": prior.alpha, "beta": prior.beta},
            "posterior": {"alpha": posterior.alpha, "beta": posterior.beta},
            "summaries": estimate.summaries.as_dict(),
            "curve": _curve(posterior, "r"),
        },
        table=lambda fh: _write_csv(fh, _curve(posterior, "r")),
        lines=lambda: [
            f"data: x = {args.x}, T = {args.T:g}",
            f"prior: Gamma(alpha={prior.alpha:g}, beta={prior.beta:g})",
            f"posterior: Gamma(alpha={posterior.alpha:g}, beta={posterior.beta:g})",
            *_summary_lines(estimate.summaries),
        ],
    )


# ---------------------------------------------------------------- ratio


def _cmd_ratio(args) -> None:
    _require(args.x1 >= 0, "--x1 must be >= 0")
    _require(args.x2 >= 0, "--x2 must be >= 0")
    _require(args.T1 > 0, "--T1 must be > 0")
    _require(args.T2 > 0, "--T2 must be > 0")
    prior_r2 = _gamma_from_flags(args, "--prior-alpha0", "--prior-beta0")
    if args.model == "A" and prior_r2 != FLAT_PRIOR and not args.compare:
        raise UsageError("model A has no closed form for non-flat priors; use --model B")
    d1 = CountObservation(args.x1, args.T1)
    d2 = CountObservation(args.x2, args.T2)
    models = ("A", "B") if args.compare else (args.model,)
    posts = {
        m: ratio_posterior(RatioPosteriorSpec(m, d1, d2, prior_r2 if m == "B" else FLAT_PRIOR))
        for m in models
    }

    def payload() -> dict:
        return {
            "data": {"x1": args.x1, "T1": args.T1, "x2": args.x2, "T2": args.T2},
            "models": {
                m: {
                    "prior_r2": {"alpha": p.spec.prior_r2.alpha, "beta": p.spec.prior_r2.beta},
                    "summaries": p.summaries.as_dict(),
                }
                for m, p in posts.items()
            },
            "curves": {m: _curve(p, "rho") for m, p in posts.items()},
        }

    def table(fh) -> None:
        # with --compare, both densities share one grid, wide enough for the wider of the two
        xs, *densities = numeric.pdf_curve(*posts.values())
        names = [f"density_{m.lower()}" for m in models] if args.compare else ["density"]
        _write_csv(fh, {"rho": xs.tolist(), **{n: y.tolist() for n, y in zip(names, densities)}})

    def lines() -> list[str]:
        out = [f"data: x1 = {args.x1}, T1 = {args.T1:g}, x2 = {args.x2}, T2 = {args.T2:g}"]
        for m, p in posts.items():
            pr = p.spec.prior_r2
            prior_txt = "flat" if pr == FLAT_PRIOR else f"Gamma(alpha={pr.alpha:g}, beta={pr.beta:g})"
            out += ["", f"model {m} (prior on r2: {prior_txt}):"]
            out += ["  " + line for line in _summary_lines(p.summaries)]
        return out

    _emit(args, payload, table, lines)


# ---------------------------------------------------------------- combine


def _parse_numbers(text: str, count: int, label: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{label}: expected {count} comma-separated numbers, got {text!r}")
    try:
        return [_finite_float(p) for p in parts]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{label}: {exc} in {text!r}") from None


def _observation(x: float, t: float, label: str) -> CountObservation:
    if x < 0 or x != int(x):
        raise UsageError(f"{label}: counts must be a non-negative integer, got {x}")
    if t <= 0:
        raise UsageError(f"{label}: time must be > 0, got {t}")
    return CountObservation(int(x), t)


def _cmd_combine_rate(args) -> None:
    prior = _prior_from_args(args)
    observations = []
    for i, text in enumerate(args.obs):
        label = f"--obs[{i}]"
        observations.append(_observation(*_parse_numbers(text, 2, label), label))
    pooled = combine_observations(prior, observations)
    per_obs = [update_rate(prior, o) for o in observations] if args.per_observation else []

    def payload() -> dict:
        doc = {
            "prior": {"alpha": prior.alpha, "beta": prior.beta},
            "observations": [{"x": o.x, "T": o.T} for o in observations],
            "pooled": {"alpha": pooled.alpha, "beta": pooled.beta},
            "summaries": gamma_summaries(pooled).as_dict(),
        }
        if per_obs:
            doc["per_observation"] = [
                {
                    "posterior": {"alpha": p.alpha, "beta": p.beta},
                    "summaries": gamma_summaries(p).as_dict(),
                }
                for p in per_obs
            ]
        return doc

    def table(fh) -> None:
        rows = []
        for label, params in [("pooled", pooled)] + [(f"obs{i + 1}", p) for i, p in enumerate(per_obs)]:
            s = gamma_summaries(params)
            rows.append((label, params.alpha, params.beta, s.mode, s.mean, s.sd))
        _write_csv(fh, dict(zip(("label", "alpha", "beta", "mode", "mean", "sd"), zip(*rows))))

    def lines() -> list[str]:
        out = [
            f"observations: {', '.join(f'({o.x}, {o.T:g})' for o in observations)}",
            f"pooled posterior: Gamma(alpha={pooled.alpha:g}, beta={pooled.beta:g})",
            *_summary_lines(gamma_summaries(pooled)),
        ]
        for i, (o, p) in enumerate(zip(observations, per_obs)):
            s = gamma_summaries(p)
            out.append(
                f"obs{i + 1} (x={o.x}, T={o.T:g}): Gamma(alpha={p.alpha:g}, beta={p.beta:g}), "
                f"mean = {s.mean:.6g}, sd = {s.sd:.6g}"
            )
        return out

    _emit(args, payload, table, lines)


def _cmd_combine_ratio(args) -> None:
    prior_r2 = _gamma_from_flags(args, "--prior-alpha0", "--prior-beta0")
    instances = []
    for i, text in enumerate(args.instance):
        label = f"--instance[{i}]"
        x1, t1, x2, t2 = _parse_numbers(text, 4, label)
        instances.append((_observation(x1, t1, label), _observation(x2, t2, label)))
    post = combine_ratio_instances(instances, prior_r2)
    pooled1, pooled2 = post.spec.data1, post.spec.data2
    _emit(
        args,
        payload=lambda: {
            "instances": [
                {"x1": d1.x, "T1": d1.T, "x2": d2.x, "T2": d2.T} for d1, d2 in instances
            ],
            "pooled": {"x1": pooled1.x, "T1": pooled1.T, "x2": pooled2.x, "T2": pooled2.T},
            "prior_r2": {"alpha": prior_r2.alpha, "beta": prior_r2.beta},
            "summaries": post.summaries.as_dict(),
        },
        table=lambda fh: _write_csv(fh, _curve(post, "rho")),
        lines=lambda: [
            f"pooled totals: x1 = {pooled1.x}, T1 = {pooled1.T:g}, "
            f"x2 = {pooled2.x}, T2 = {pooled2.T:g}",
            "direct-ratio posterior:",
            *_summary_lines(post.summaries),
        ],
    )


# ---------------------------------------------------------------- mc


def _cmd_mc_gamma(args) -> None:
    for name in ("alpha1", "beta1", "alpha2", "beta2"):
        _require(getattr(args, name) > 0, f"--{name} must be > 0")
    _check_sim_args(args)
    report = simulate_gamma_ratio(
        GammaParams(args.alpha1, args.beta1),
        GammaParams(args.alpha2, args.beta2),
        args.n,
        args.cutoff,
        args.bins,
        args.seed,
        args.workers,
    )
    _emit_report(
        args,
        report,
        f"ratio of Gamma({args.alpha1:g}, {args.beta1:g}) / Gamma({args.alpha2:g}, {args.beta2:g})",
    )


def _cmd_mc_uniform(args) -> None:
    _require(args.rmax > 0, "--rmax must be > 0")
    _check_sim_args(args)
    report = simulate_uniform_ratio(args.rmax, args.n, args.cutoff, args.bins, args.seed, args.workers)
    _emit_report(args, report, f"ratio of two U(0, {args.rmax:g}) variates")


def _cmd_mc_waiting(args) -> None:
    _require(args.rate > 0, "--rate must be > 0")
    _require(args.k >= 1, "--k must be >= 1")
    _require(args.paths >= 1, "--paths must be >= 1")
    # one row per path, also for one path
    times = poisson_process_waiting_times(args.rate, args.k, args.seed, n_paths=args.paths)

    def table(fh) -> None:
        path, event = np.indices(times.shape) + 1
        columns = {"path": path, "event": event, "time": times}
        _write_csv(fh, {name: values.ravel().tolist() for name, values in columns.items()})

    def lines() -> list[str]:
        first, last = times[:, 0], times[:, -1]
        sd = _sample_sd(first) if first.size > 1 else None
        return [
            f"Poisson process arrivals: rate = {args.rate:g}, k = {args.k}, paths = {args.paths}",
            f"first arrival: mean = {first.mean():.6g}, sd = {_sig6(sd, 'one path')}",
            f"arrival {args.k}: mean = {last.mean():.6g}",
        ]

    _emit(
        args,
        payload=lambda: {
            "rate": args.rate,
            "k": args.k,
            "paths": args.paths,
            "seed": args.seed,
            "times": times.tolist(),
        },
        table=table,
        lines=lines,
    )


# ---------------------------------------------------------------- mcmc


def _cmd_mcmc(args) -> None:
    _require(args.n_iter >= 1, "--n-iter must be >= 1")
    _require(args.burn_in is None or args.burn_in >= 0, "--burn-in must be >= 0")
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise UsageError(f"spec file not found: {spec_path}")
    try:
        spec = ModelSpec.from_json(json.loads(spec_path.read_text()))
    except json.JSONDecodeError as exc:
        raise UsageError(f"spec file is not valid JSON: {exc}") from None
    except ValueError as exc:  # the spec's field path and the reason
        raise UsageError(str(exc)) from None
    warning = spec.warning()
    if warning:
        print(f"rateratio: warning: {warning}", file=sys.stderr)
    chain = run_chain(build_model(spec), args.n_iter, args.burn_in, args.seed)
    summary = summarize_chain(chain)
    if not all(math.isfinite(v.batch_se) for v in summary.variables.values()):
        print(
            "rateratio: warning: fewer than 20 draws give no batch-means SE",
            file=sys.stderr,
        )
    renderers = {
        "payload": lambda: {**summary.as_dict(), "acceptance": dict(chain.acceptance)},
        "table": lambda fh: chain_to_csv(chain, fh),
        "lines": lambda: [format_chain_summary(summary).removesuffix("\n")],
    }
    if not args.out:
        _emit(args, **renderers)
        return
    # --out is a prefix: the chain and both summaries go to files, and stdout
    # lists them, then repeats the summary in --format (csv: nothing more)
    prefix = Path(args.out)
    summaries = {}
    for fmt in ("json", "text"):  # both whole before any file is written
        buf = io.StringIO()
        _render(fmt, buf, **renderers)
        summaries[fmt] = buf.getvalue()
    chain_path = prefix.with_name(prefix.name + ".chain.csv")
    with open(chain_path, "w") as fh:
        chain_to_csv(chain, fh)
    prefix.with_name(prefix.name + ".summary.txt").write_text(summaries["text"])
    prefix.with_name(prefix.name + ".summary.json").write_text(summaries["json"])
    sys.stdout.write(f"wrote {chain_path}, {prefix.name}.summary.txt, {prefix.name}.summary.json\n")
    sys.stdout.write(summaries.get(args.format, ""))


_RANDOM_COMMANDS = frozenset(
    {_cmd_predict_ratio, _cmd_mc_gamma, _cmd_mc_uniform, _cmd_mc_waiting, _cmd_mcmc}
)


if __name__ == "__main__":
    sys.exit(main())
