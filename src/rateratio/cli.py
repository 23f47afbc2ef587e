"""Command-line front end.

Subcommands: predict, infer, ratio, combine, mc, mcmc.  Global flags on every
subcommand: --seed, --format {json,csv,text}, --out.  Exit codes: 0 success,
2 usage error (bad flags, cross-flag rules, malformed spec files),
3 numeric/domain error raised during computation; a stdout pipe closed by
its reader ends the command quietly with 0.  Each flag's argparse type holds
its single-flag bound (a count >= 0, a time or intensity > 0, ...), so a bad
value is argparse's usage error: it raises SystemExit(2) from parse_args and
names the flag, before any seed is drawn.  The handlers check only the rules
that involve more than one flag, the --obs/--instance fields and the spec
file, and raise UsageError.  A command that draws random numbers and was given
no --seed draws one once its input is accepted, and writes it to stderr, so
the run can be replayed.
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
from typing import TYPE_CHECKING

# Each handler imports the library modules it runs, inside its body, so a
# launch loads only those: text infer, ratio and combine load no NumPy, and
# no closed-form command loads mcmc or montecarlo.  Names are looked up in
# their modules at call time, never kept here.
if TYPE_CHECKING:
    from .distributions import GammaParams, SummaryStats
    from .montecarlo import RatioSampleReport


class UsageError(Exception):
    """Bad input detected before computation starts; maps to exit code 2."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except MemoryError as exc:  # an allocation NumPy refuses at once, with its size in the text
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 3
    return 0


# Built once per process: parse_args never changes a parser, the append
# options default to None, and every parse builds a fresh Namespace and fresh
# lists, so one parser serves every main() call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=_count, default=None, help="RNG seed (default: drawn fresh and reported)"
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
    p_diff.add_argument("--l1", type=_positive, required=True, help="lambda1 (expected counts)")
    p_diff.add_argument("--l2", type=_positive, required=True, help="lambda2 (expected counts)")
    p_diff.add_argument("--d-min", type=int, default=None)
    p_diff.add_argument("--d-max", type=int, default=None)
    p_diff.set_defaults(handler=_cmd_predict_diff)
    p_ratio = psub.add_parser("ratio", parents=[common], help="simulated X1/X2 with NaN/Inf accounting")
    p_ratio.add_argument("--l1", type=_positive, required=True)
    p_ratio.add_argument("--l2", type=_positive, required=True)
    _add_sim_options(p_ratio, n_help="number of draws")
    p_ratio.set_defaults(handler=_cmd_predict_ratio)

    infer = sub.add_parser("infer", parents=[common], help="rate posterior from one observation")
    infer.add_argument("--x", type=_count, required=True, help="observed counts")
    infer.add_argument("--T", type=_positive, required=True, help="observation time")
    _add_prior_options(infer)
    infer.set_defaults(handler=_cmd_infer)

    ratio = sub.add_parser("ratio", parents=[common], help="closed-form posterior of rho = r1/r2")
    ratio.add_argument("--model", choices=("A", "B"), default="A")
    ratio.add_argument("--x1", type=_count, required=True)
    ratio.add_argument("--T1", type=_positive, required=True)
    ratio.add_argument("--x2", type=_count, required=True)
    ratio.add_argument("--T2", type=_positive, required=True)
    ratio.add_argument("--prior-alpha0", type=_positive, default=None, help="Gamma prior on r2 (model B)")
    ratio.add_argument("--prior-beta0", type=_non_negative, default=None)
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
    c_ratio.add_argument("--prior-alpha0", type=_positive, default=None, help="Gamma prior on r2")
    c_ratio.add_argument("--prior-beta0", type=_non_negative, default=None)
    c_ratio.set_defaults(handler=_cmd_combine_ratio)

    mc = sub.add_parser("mc", help="Monte Carlo simulators")
    msub = mc.add_subparsers(dest="mode", required=True)
    m_gamma = msub.add_parser("gamma-ratio", parents=[common], help="ratio of two Gamma variates")
    for flag in ("--alpha1", "--beta1", "--alpha2", "--beta2"):
        m_gamma.add_argument(flag, type=_positive, required=True)
    _add_sim_options(m_gamma)
    m_gamma.set_defaults(handler=_cmd_mc_gamma)
    m_unif = msub.add_parser("uniform-ratio", parents=[common], help="ratio of two uniform variates")
    m_unif.add_argument("--rmax", type=_positive, default=1.0)
    _add_sim_options(m_unif)
    m_unif.set_defaults(handler=_cmd_mc_uniform)
    m_wait = msub.add_parser(
        "waiting-times", parents=[common], help="arrival times of a Poisson process"
    )
    m_wait.add_argument("--rate", type=_positive, required=True)
    m_wait.add_argument("--k", type=_at_least_one, required=True, help="number of arrivals per path")
    m_wait.add_argument("--paths", type=_at_least_one, default=1)
    m_wait.set_defaults(handler=_cmd_mc_waiting)

    mcmc = sub.add_parser("mcmc", parents=[common], help="run an exact Gibbs chain")
    mcmc.add_argument("--spec", required=True, help="JSON model spec file")
    mcmc.add_argument("--n-iter", type=_at_least_one, default=100_000)
    mcmc.add_argument("--burn-in", type=_count, default=None)
    mcmc.set_defaults(handler=_cmd_mcmc)

    return parser


def _finite_float(text: str) -> float:
    """The parse of every float flag and of each --obs/--instance field: finite, or refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _bounded(parse, ok, bound: str):
    """argparse type: parse(text), refused with its bound unless ok(value)."""

    def parse_bounded(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    parse_bounded.__name__ = parse.__name__  # argparse's "invalid int value: 'abc'"
    return parse_bounded


# every single-flag bound: a refused value exits 2 in parse_args, before any seed is drawn
_positive = _bounded(_finite_float, lambda v: v > 0, "> 0")
_non_negative = _bounded(_finite_float, lambda v: v >= 0, ">= 0")
_count = _bounded(int, lambda v: v >= 0, ">= 0")
_at_least_one = _bounded(int, lambda v: v >= 1, ">= 1")


def _add_sim_options(parser: argparse.ArgumentParser, n_help: str | None = None) -> None:
    parser.add_argument("--n", type=_at_least_one, default=1_000_000, help=n_help)
    # --cutoff and --bins default to None: an absent one keeps the simulator's default
    parser.add_argument("--cutoff", type=_positive, default=None)
    parser.add_argument("--bins", type=_at_least_one, default=None)
    parser.add_argument("--workers", type=_at_least_one, default=1)


def _add_prior_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prior-mean", type=_positive, default=None, help="prior mean (with --prior-sd)")
    parser.add_argument("--prior-sd", type=_positive, default=None)
    parser.add_argument("--prior-alpha", type=_positive, default=None, help="prior Gamma shape")
    # 0 is the improper flat-prior limit
    parser.add_argument("--prior-beta", type=_non_negative, default=None, help="prior Gamma rate")


def _prior_from_args(args) -> GammaParams:
    from . import inference

    elicited = (args.prior_mean, args.prior_sd)
    if elicited == (None, None):
        return _gamma_from_flags(args, "--prior-alpha", "--prior-beta")
    if (args.prior_alpha, args.prior_beta) != (None, None):
        raise UsageError("give either --prior-mean/--prior-sd or --prior-alpha/--prior-beta, not both")
    if None in elicited:
        raise UsageError("--prior-mean and --prior-sd must be given together")
    return inference.elicit_gamma(*elicited)


def _gamma_from_flags(args, alpha: str, beta: str) -> GammaParams:
    """Gamma(alpha, beta) from two flags given together; the flat prior when neither is."""
    from . import distributions, inference

    a, b = (getattr(args, flag[2:].replace("-", "_")) for flag in (alpha, beta))
    if a is None and b is None:
        return inference.FLAT_PRIOR
    if a is None or b is None:
        raise UsageError(f"{alpha} and {beta} must be given together")
    return distributions.GammaParams(a, b)


def _seed(args) -> int:
    """args.seed, drawn once and written to stderr where none was given, so the run can be replayed.

    Each command that draws random numbers calls it once its input is
    accepted, so a refused command draws no seed.
    """
    if args.seed is None:
        import numpy as np

        args.seed = np.random.SeedSequence().entropy
        print(f"rateratio: seed = {args.seed}", file=sys.stderr)
    return args.seed


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


def _curve(x_name: str, laws: dict) -> dict:
    """The plotted densities of named laws on one grid: {x_name: grid, name: values, ...}."""
    from . import numeric

    xs, *densities = numeric.pdf_curve(*laws.values())
    return {x_name: xs.tolist(), **{name: y.tolist() for name, y in zip(laws, densities)}}


def _sig6(value: float | None, reason: str) -> str:
    """value at 6 significant digits, or undef(reason) where it does not exist."""
    return f"undef({reason})" if value is None else f"{value:.6g}"


def _summary_lines(s: SummaryStats) -> list[str]:
    return [
        f"{name} = {_sig6(getattr(s, name), s.undefined.get(name, 'undefined'))}"
        for name in ("mode", "mean", "sd")
    ]


# ---------------------------------------------------------------- predict


def _cmd_predict_diff(args) -> None:
    from . import distributions

    lo = -math.inf if args.d_min is None else args.d_min
    hi = math.inf if args.d_max is None else args.d_max
    if lo > hi:
        raise UsageError("--d-min must be <= --d-max")
    dist = distributions.skellam_dist(args.l1, args.l2)
    # --d-min/--d-max select a display window; the pmf values stay those of
    # the full distribution, and the mean and sd are its exact moments.
    mean, sd = args.l1 - args.l2, math.sqrt(args.l1 + args.l2)
    values, probs = dist.values, dist.probs
    if args.d_min is not None or args.d_max is not None:
        keep = (values >= lo) & (values <= hi)
        values, probs = values[keep], probs[keep]
    values, probs = values.tolist(), probs.tolist()
    _emit(
        args,
        payload=lambda: {
            "lambda1": args.l1,
            "lambda2": args.l2,
            "support": values,
            "pmf": probs,
            "mean": mean,
            "sd": sd,
        },
        table=lambda fh: distributions._write_csv(fh, {"d": values, "probability": probs}),
        lines=lambda: [
            f"difference of counts: lambda1 = {args.l1:g}, lambda2 = {args.l2:g}",
            "",
            f"{'d':>6}  {'f(d)':>12}",
            *map("%6d  %12.6g".__mod__, zip(values, probs)),
            "",
            f"mean = {mean:.6g}, sd = {sd:.6g}",
        ],
    )


def _simulation(args) -> dict:
    """The simulate_* keywords n, seed and workers, and cutoff and bins where given.

    The seed is drawn here, so call this once the other input is accepted.
    """
    given = {flag: getattr(args, flag) for flag in ("cutoff", "bins") if getattr(args, flag) is not None}
    return {"n": args.n, **given, "seed": _seed(args), "workers": args.workers}


def _emit_report(args, report: RatioSampleReport, header: str) -> None:
    from . import montecarlo

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

    _emit(args, report.as_dict, lambda fh: montecarlo.write_histogram_csv(report, fh), lines)


def _cmd_predict_ratio(args) -> None:
    from . import montecarlo

    report = montecarlo.simulate_count_ratio(args.l1, args.l2, **_simulation(args))
    _emit_report(args, report, f"ratio of counts: lambda1 = {args.l1:g}, lambda2 = {args.l2:g}")


# ---------------------------------------------------------------- infer


def _cmd_infer(args) -> None:
    from . import distributions, inference

    prior = _prior_from_args(args)
    estimate = inference.rate_posterior(inference.CountObservation(args.x, args.T), prior)
    posterior = estimate.posterior
    _emit(
        args,
        payload=lambda: {
            "data": {"x": args.x, "T": args.T},
            "prior": {"alpha": prior.alpha, "beta": prior.beta},
            "posterior": {"alpha": posterior.alpha, "beta": posterior.beta},
            "summaries": estimate.summaries.as_dict(),
            "curve": _curve("r", {"density": posterior}),
        },
        table=lambda fh: distributions._write_csv(fh, _curve("r", {"density": posterior})),
        lines=lambda: [
            f"data: x = {args.x}, T = {args.T:g}",
            f"prior: Gamma(alpha={prior.alpha:g}, beta={prior.beta:g})",
            f"posterior: Gamma(alpha={posterior.alpha:g}, beta={posterior.beta:g})",
            *_summary_lines(estimate.summaries),
        ],
    )


# ---------------------------------------------------------------- ratio


def _cmd_ratio(args) -> None:
    from . import distributions, inference, ratio

    flat = inference.FLAT_PRIOR
    prior_r2 = _gamma_from_flags(args, "--prior-alpha0", "--prior-beta0")
    if args.model == "A" and prior_r2 != flat and not args.compare:
        raise UsageError("model A has no closed form for non-flat priors; use --model B")
    d1 = inference.CountObservation(args.x1, args.T1)
    d2 = inference.CountObservation(args.x2, args.T2)
    models = ("A", "B") if args.compare else (args.model,)
    posts = {
        m: ratio.ratio_posterior(ratio.RatioPosteriorSpec(m, d1, d2, prior_r2 if m == "B" else flat))
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
            "curves": {m: _curve("rho", {"density": p}) for m, p in posts.items()},
        }

    def table(fh) -> None:
        # with --compare, both densities share one grid, wide enough for the wider of the two
        names = [f"density_{m.lower()}" for m in models] if args.compare else ["density"]
        distributions._write_csv(fh, _curve("rho", dict(zip(names, posts.values()))))

    def lines() -> list[str]:
        out = [f"data: x1 = {args.x1}, T1 = {args.T1:g}, x2 = {args.x2}, T2 = {args.T2:g}"]
        for m, p in posts.items():
            pr = p.spec.prior_r2
            prior_txt = "flat" if pr == flat else f"Gamma(alpha={pr.alpha:g}, beta={pr.beta:g})"
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


def _observations(entries: list[str], flag: str, pairs: int) -> list[tuple]:
    """Each "x,T" (pairs = 1) or "x1,T1,x2,T2" (pairs = 2) entry, as a tuple of CountObservations.

    CountObservation's own rule refuses a count or a time, with flag[i] put before its reason.
    """
    from . import inference

    parsed = []
    for i, text in enumerate(entries):
        label = f"{flag}[{i}]"
        numbers = _parse_numbers(text, 2 * pairs, label)
        try:
            parsed.append(tuple(map(inference.CountObservation, numbers[::2], numbers[1::2])))
        except ValueError as exc:
            raise UsageError(f"{label}: {exc}") from None
    return parsed


def _cmd_combine_rate(args) -> None:
    from . import distributions, inference

    prior = _prior_from_args(args)
    observations = [obs for (obs,) in _observations(args.obs, "--obs", 1)]
    pooled = inference.combine_observations(prior, observations)
    per_obs = [inference.update_rate(prior, o) for o in observations] if args.per_observation else []

    def payload() -> dict:
        doc = {
            "prior": {"alpha": prior.alpha, "beta": prior.beta},
            "observations": [{"x": o.x, "T": o.T} for o in observations],
            "pooled": {"alpha": pooled.alpha, "beta": pooled.beta},
            "summaries": distributions.gamma_summaries(pooled).as_dict(),
        }
        if per_obs:
            doc["per_observation"] = [
                {
                    "posterior": {"alpha": p.alpha, "beta": p.beta},
                    "summaries": distributions.gamma_summaries(p).as_dict(),
                }
                for p in per_obs
            ]
        return doc

    def table(fh) -> None:
        rows = []
        for label, params in [("pooled", pooled)] + [(f"obs{i + 1}", p) for i, p in enumerate(per_obs)]:
            s = distributions.gamma_summaries(params)
            rows.append((label, params.alpha, params.beta, s.mode, s.mean, s.sd))
        distributions._write_csv(fh, dict(zip(("label", "alpha", "beta", "mode", "mean", "sd"), zip(*rows))))

    def lines() -> list[str]:
        out = [
            f"observations: {', '.join(f'({o.x}, {o.T:g})' for o in observations)}",
            f"pooled posterior: Gamma(alpha={pooled.alpha:g}, beta={pooled.beta:g})",
            *_summary_lines(distributions.gamma_summaries(pooled)),
        ]
        for i, (o, p) in enumerate(zip(observations, per_obs)):
            s = distributions.gamma_summaries(p)
            out.append(
                f"obs{i + 1} (x={o.x}, T={o.T:g}): Gamma(alpha={p.alpha:g}, beta={p.beta:g}), "
                f"mean = {s.mean:.6g}, sd = {s.sd:.6g}"
            )
        return out

    _emit(args, payload, table, lines)


def _cmd_combine_ratio(args) -> None:
    from . import distributions, ratio

    prior_r2 = _gamma_from_flags(args, "--prior-alpha0", "--prior-beta0")
    instances = _observations(args.instance, "--instance", 2)
    post = ratio.combine_ratio_instances(instances, prior_r2)
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
        table=lambda fh: distributions._write_csv(fh, _curve("rho", {"density": post})),
        lines=lambda: [
            f"pooled totals: x1 = {pooled1.x}, T1 = {pooled1.T:g}, "
            f"x2 = {pooled2.x}, T2 = {pooled2.T:g}",
            "direct-ratio posterior:",
            *_summary_lines(post.summaries),
        ],
    )


# ---------------------------------------------------------------- mc


def _cmd_mc_gamma(args) -> None:
    from . import distributions, montecarlo

    report = montecarlo.simulate_gamma_ratio(
        distributions.GammaParams(args.alpha1, args.beta1),
        distributions.GammaParams(args.alpha2, args.beta2),
        **_simulation(args),
    )
    _emit_report(
        args,
        report,
        f"ratio of Gamma({args.alpha1:g}, {args.beta1:g}) / Gamma({args.alpha2:g}, {args.beta2:g})",
    )


def _cmd_mc_uniform(args) -> None:
    from . import montecarlo

    report = montecarlo.simulate_uniform_ratio(args.rmax, **_simulation(args))
    _emit_report(args, report, f"ratio of two U(0, {args.rmax:g}) variates")


def _cmd_mc_waiting(args) -> None:
    import numpy as np

    from . import distributions

    # one row per path, also for one path
    times = distributions.poisson_process_waiting_times(args.rate, args.k, _seed(args), n_paths=args.paths)

    def table(fh) -> None:
        path, event = np.indices(times.shape) + 1
        columns = {"path": path, "event": event, "time": times}
        distributions._write_csv(fh, {name: values.ravel().tolist() for name, values in columns.items()})

    def lines() -> list[str]:
        first, last = times[:, 0], times[:, -1]
        sd = distributions._sample_sd(first) if first.size > 1 else None
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
    from . import mcmc

    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise UsageError(f"spec file not found: {spec_path}")
    try:
        spec = mcmc.ModelSpec.from_json(json.loads(spec_path.read_text()))
    except json.JSONDecodeError as exc:
        raise UsageError(f"spec file is not valid JSON: {exc}") from None
    except ValueError as exc:  # the spec's field path and the reason
        raise UsageError(str(exc)) from None
    seed = _seed(args)
    warning = spec.warning()
    if warning:
        print(f"rateratio: warning: {warning}", file=sys.stderr)
    chain = mcmc.run_chain(mcmc.build_model(spec), args.n_iter, args.burn_in, seed)
    summary = mcmc.summarize_chain(chain)
    if not all(math.isfinite(v.batch_se) for v in summary.variables.values()):
        print(
            "rateratio: warning: fewer than 20 draws give no batch-means SE",
            file=sys.stderr,
        )
    renderers = {
        "payload": lambda: {**summary.as_dict(), "acceptance": dict(chain.acceptance)},
        "table": lambda fh: mcmc.chain_to_csv(chain, fh),
        "lines": lambda: [mcmc.format_chain_summary(summary).removesuffix("\n")],
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
        mcmc.chain_to_csv(chain, fh)
    prefix.with_name(prefix.name + ".summary.txt").write_text(summaries["text"])
    prefix.with_name(prefix.name + ".summary.json").write_text(summaries["json"])
    sys.stdout.write(f"wrote {chain_path}, {prefix.name}.summary.txt, {prefix.name}.summary.json\n")
    sys.stdout.write(summaries.get(args.format, ""))


if __name__ == "__main__":
    sys.exit(main())
