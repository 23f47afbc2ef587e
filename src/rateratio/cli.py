"""Command-line front end.

Subcommands: predict, infer, ratio, combine, mc, mcmc.  Global flags on every
subcommand: --seed, --format {json,csv,text}, --out.  Exit codes: 0 success,
2 usage error (bad flags, precondition violations, malformed spec files),
3 numeric/domain error raised during computation.  A command that draws random
numbers and was given no --seed draws one and writes it to stderr, so the run
can be replayed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import numeric
from .distributions import (
    GammaParams,
    SummaryStats,
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
    MCMC_FLAT_PRIOR,
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
    p_ratio.add_argument("--n", type=int, default=1_000_000, help="number of draws")
    p_ratio.add_argument("--cutoff", type=_finite_float, default=DEFAULT_CUTOFF)
    p_ratio.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p_ratio.add_argument("--workers", type=int, default=1)
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
    m_gamma.add_argument("--alpha1", type=_finite_float, required=True)
    m_gamma.add_argument("--beta1", type=_finite_float, required=True)
    m_gamma.add_argument("--alpha2", type=_finite_float, required=True)
    m_gamma.add_argument("--beta2", type=_finite_float, required=True)
    m_gamma.add_argument("--n", type=int, default=1_000_000)
    m_gamma.add_argument("--cutoff", type=_finite_float, default=DEFAULT_CUTOFF)
    m_gamma.add_argument("--bins", type=int, default=DEFAULT_BINS)
    m_gamma.add_argument("--workers", type=int, default=1)
    m_gamma.set_defaults(handler=_cmd_mc_gamma)
    m_unif = msub.add_parser("uniform-ratio", parents=[common], help="ratio of two uniform variates")
    m_unif.add_argument("--rmax", type=_finite_float, default=1.0)
    m_unif.add_argument("--n", type=int, default=1_000_000)
    m_unif.add_argument("--cutoff", type=_finite_float, default=DEFAULT_CUTOFF)
    m_unif.add_argument("--bins", type=int, default=DEFAULT_BINS)
    m_unif.add_argument("--workers", type=int, default=1)
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


def _add_prior_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prior-mean", type=_finite_float, default=None, help="prior mean (with --prior-sd)")
    parser.add_argument("--prior-sd", type=_finite_float, default=None)
    parser.add_argument("--prior-alpha", type=_finite_float, default=None, help="prior Gamma shape")
    parser.add_argument("--prior-beta", type=_finite_float, default=None, help="prior Gamma rate")


def _prior_from_args(args) -> GammaParams:
    elicited = args.prior_mean is not None or args.prior_sd is not None
    direct = args.prior_alpha is not None or args.prior_beta is not None
    if elicited and direct:
        raise UsageError("give either --prior-mean/--prior-sd or --prior-alpha/--prior-beta, not both")
    if elicited:
        if args.prior_mean is None or args.prior_sd is None:
            raise UsageError("--prior-mean and --prior-sd must be given together")
        if args.prior_mean <= 0 or args.prior_sd <= 0:
            raise UsageError("--prior-mean and --prior-sd must be > 0")
        return elicit_gamma(args.prior_mean, args.prior_sd)
    if direct:
        if args.prior_alpha is None or args.prior_beta is None:
            raise UsageError("--prior-alpha and --prior-beta must be given together")
        if args.prior_alpha <= 0 or args.prior_beta < 0:
            raise UsageError("--prior-alpha must be > 0 and --prior-beta >= 0")
        return GammaParams(args.prior_alpha, args.prior_beta)
    return FLAT_PRIOR


def _write(args, content: str) -> None:
    if args.out:
        Path(args.out).write_text(content)
    else:
        sys.stdout.write(content)


def _json_dump(payload) -> str:
    # NaN and Infinity are not JSON: json.dumps raises ValueError (exit 3)
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _summary_lines(s: SummaryStats) -> list[str]:
    def cell(name: str, value: float | None) -> str:
        if value is None:
            return f"{name} = undef({s.undefined.get(name, 'undefined')})"
        return f"{name} = {value:.6g}"

    return [cell("mode", s.mode), cell("mean", s.mean), cell("sd", s.sd)]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


# ---------------------------------------------------------------- predict


def _cmd_predict_diff(args) -> None:
    _require(args.l1 > 0, "--l1 must be > 0")
    _require(args.l2 > 0, "--l2 must be > 0")
    if args.d_min is not None and args.d_max is not None:
        _require(args.d_min <= args.d_max, "--d-min must be <= --d-max")
    dist = skellam_dist(args.l1, args.l2)
    # --d-min/--d-max select a display window; pmf values and the mean/sd
    # stay those of the full distribution.
    keep = np.ones(dist.values.size, dtype=bool)
    if args.d_min is not None:
        keep &= dist.values >= args.d_min
    if args.d_max is not None:
        keep &= dist.values <= args.d_max
    values = dist.values[keep]
    probs = dist.probs[keep]
    if args.format == "json":
        payload = {
            "lambda1": args.l1,
            "lambda2": args.l2,
            "support": [int(v) for v in values],
            "pmf": [float(p) for p in probs],
            "mean": dist.mean(),
            "sd": dist.sd(),
        }
        _write(args, _json_dump(payload))
    elif args.format == "csv":
        buf = io.StringIO()
        buf.write("d,probability\n")
        for d, p in zip(values, probs):
            buf.write(f"{int(d)},{float(p)!r}\n")
        _write(args, buf.getvalue())
    else:
        lines = [f"difference of counts: lambda1 = {args.l1:g}, lambda2 = {args.l2:g}", ""]
        lines.append(f"{'d':>6}  {'f(d)':>12}")
        for d, p in zip(values, probs):
            lines.append(f"{int(d):>6}  {p:>12.6g}")
        lines.append("")
        lines.append(f"mean = {dist.mean():.6g}, sd = {dist.sd():.6g}")
        _write(args, "\n".join(lines) + "\n")


def _report_output(args, report: RatioSampleReport, header: str) -> None:
    if args.format == "json":
        _write(args, _json_dump(report.as_dict()))
    elif args.format == "csv":
        buf = io.StringIO()
        write_histogram_csv(report, buf)
        _write(args, buf.getvalue())
    else:
        mean = "undef(no finite draws)" if report.mean is None else f"{report.mean:.6g}"
        sd = "undef(no finite draws)" if report.sd is None else f"{report.sd:.6g}"
        mode = "undef(empty histogram)" if report.mode_estimate is None else f"{report.mode_estimate:.6g}"
        lines = [
            header,
            f"n = {report.n}, seed = {report.seed}",
            f"mean = {mean}, sd = {sd}, mode_estimate = {mode}",
            f"frac_nan = {report.frac_nan:.6g}, frac_inf = {report.frac_inf:.6g}, "
            f"frac_overflow = {report.frac_overflow:.6g}",
            f"histogram: {report.counts.size} bins over [0, {report.cutoff:g}] "
            f"(in-histogram mass {report.hist_mass:.6g})",
        ]
        _write(args, "\n".join(lines) + "\n")


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
    _report_output(args, report, f"ratio of counts: lambda1 = {args.l1:g}, lambda2 = {args.l2:g}")


# ---------------------------------------------------------------- infer


def _cmd_infer(args) -> None:
    _require(args.x >= 0, "--x must be >= 0")
    _require(args.T > 0, "--T must be > 0")
    prior = _prior_from_args(args)
    estimate = rate_posterior(CountObservation(args.x, args.T), prior)
    posterior = estimate.posterior
    xs, ys = numeric.pdf_curve(posterior)
    if args.format == "json":
        payload = {
            "data": {"x": args.x, "T": args.T},
            "prior": {"alpha": prior.alpha, "beta": prior.beta},
            "posterior": {"alpha": posterior.alpha, "beta": posterior.beta},
            "summaries": estimate.summaries.as_dict(),
            "curve": {"r": xs.tolist(), "density": ys.tolist()},
        }
        _write(args, _json_dump(payload))
    elif args.format == "csv":
        buf = io.StringIO()
        buf.write("r,density\n")
        for x, y in zip(xs, ys):
            buf.write(f"{float(x)!r},{float(y)!r}\n")
        _write(args, buf.getvalue())
    else:
        lines = [
            f"data: x = {args.x}, T = {args.T:g}",
            f"prior: Gamma(alpha={prior.alpha:g}, beta={prior.beta:g})",
            f"posterior: Gamma(alpha={posterior.alpha:g}, beta={posterior.beta:g})",
        ]
        lines += _summary_lines(estimate.summaries)
        _write(args, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- ratio


def _ratio_prior_from_args(args) -> GammaParams:
    given = args.prior_alpha0 is not None or args.prior_beta0 is not None
    if not given:
        return FLAT_PRIOR
    if args.prior_alpha0 is None or args.prior_beta0 is None:
        raise UsageError("--prior-alpha0 and --prior-beta0 must be given together")
    if args.prior_alpha0 <= 0 or args.prior_beta0 < 0:
        raise UsageError("--prior-alpha0 must be > 0 and --prior-beta0 >= 0")
    return GammaParams(args.prior_alpha0, args.prior_beta0)


def _cmd_ratio(args) -> None:
    _require(args.x1 >= 0, "--x1 must be >= 0")
    _require(args.x2 >= 0, "--x2 must be >= 0")
    _require(args.T1 > 0, "--T1 must be > 0")
    _require(args.T2 > 0, "--T2 must be > 0")
    prior_r2 = _ratio_prior_from_args(args)
    if args.model == "A" and prior_r2 != FLAT_PRIOR and not args.compare:
        raise UsageError("model A has no closed form for non-flat priors; use --model B")
    d1 = CountObservation(args.x1, args.T1)
    d2 = CountObservation(args.x2, args.T2)

    def build(model: str):
        spec = RatioPosteriorSpec(
            model=model, data1=d1, data2=d2, prior_r2=prior_r2 if model == "B" else FLAT_PRIOR
        )
        return ratio_posterior(spec)

    models = ("A", "B") if args.compare else (args.model,)
    posts = {m: build(m) for m in models}
    if args.format == "json":
        payload = {"data": {"x1": args.x1, "T1": args.T1, "x2": args.x2, "T2": args.T2}}
        payload["models"] = {
            m: {
                "prior_r2": {"alpha": p.spec.prior_r2.alpha, "beta": p.spec.prior_r2.beta},
                "summaries": p.summaries.as_dict(),
            }
            for m, p in posts.items()
        }
        grids = {m: numeric.pdf_curve(p) for m, p in posts.items()}
        payload["curves"] = {
            m: {"rho": xs.tolist(), "density": ys.tolist()} for m, (xs, ys) in grids.items()
        }
        _write(args, _json_dump(payload))
    elif args.format == "csv":
        buf = io.StringIO()
        if len(models) == 1:
            post = posts[models[0]]
            xs, ys = numeric.pdf_curve(post)
            buf.write("rho,density\n")
            for x, y in zip(xs, ys):
                buf.write(f"{float(x)!r},{float(y)!r}\n")
        else:
            hi = max(numeric.pdf_quantile(posts[m], 0.999) for m in models)
            xs = np.linspace(0.0, hi, 512)
            cols = {m: posts[m].pdf(xs) for m in models}
            buf.write("rho,density_a,density_b\n")
            for i, x in enumerate(xs):
                buf.write(f"{float(x)!r},{float(cols['A'][i])!r},{float(cols['B'][i])!r}\n")
        _write(args, buf.getvalue())
    else:
        lines = [f"data: x1 = {args.x1}, T1 = {args.T1:g}, x2 = {args.x2}, T2 = {args.T2:g}"]
        for m, p in posts.items():
            pr = p.spec.prior_r2
            prior_txt = "flat" if pr == FLAT_PRIOR else f"Gamma(alpha={pr.alpha:g}, beta={pr.beta:g})"
            lines.append("")
            lines.append(f"model {m} (prior on r2: {prior_txt}):")
            lines += ["  " + line for line in _summary_lines(p.summaries)]
        _write(args, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- combine


def _parse_numbers(text: str, count: int, label: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{label}: expected {count} comma-separated numbers, got {text!r}")
    try:
        return [_finite_float(p) for p in parts]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{label}: {exc} in {text!r}") from None


def _parse_observation(text: str, label: str) -> CountObservation:
    x, t = _parse_numbers(text, 2, label)
    if x < 0 or x != int(x):
        raise UsageError(f"{label}: counts must be a non-negative integer, got {x}")
    if t <= 0:
        raise UsageError(f"{label}: time must be > 0, got {t}")
    return CountObservation(int(x), t)


def _cmd_combine_rate(args) -> None:
    prior = _prior_from_args(args)
    observations = [
        _parse_observation(text, f"--obs[{i}]") for i, text in enumerate(args.obs)
    ]
    pooled = combine_observations(prior, observations)
    pooled_summaries = gamma_summaries(pooled)
    per_obs = [update_rate(prior, o) for o in observations] if args.per_observation else None
    if args.format == "json":
        payload = {
            "prior": {"alpha": prior.alpha, "beta": prior.beta},
            "observations": [{"x": o.x, "T": o.T} for o in observations],
            "pooled": {"alpha": pooled.alpha, "beta": pooled.beta},
            "summaries": pooled_summaries.as_dict(),
        }
        if per_obs is not None:
            payload["per_observation"] = [
                {
                    "posterior": {"alpha": p.alpha, "beta": p.beta},
                    "summaries": gamma_summaries(p).as_dict(),
                }
                for p in per_obs
            ]
        _write(args, _json_dump(payload))
    elif args.format == "csv":
        buf = io.StringIO()
        buf.write("label,alpha,beta,mode,mean,sd\n")

        def row(label: str, params: GammaParams) -> str:
            s = gamma_summaries(params)
            cells = [repr(v) if v is not None else "" for v in (s.mode, s.mean, s.sd)]
            return f"{label},{params.alpha!r},{params.beta!r},{','.join(cells)}\n"

        buf.write(row("pooled", pooled))
        if per_obs is not None:
            for i, p in enumerate(per_obs):
                buf.write(row(f"obs{i + 1}", p))
        _write(args, buf.getvalue())
    else:
        lines = [
            f"observations: {', '.join(f'({o.x}, {o.T:g})' for o in observations)}",
            f"pooled posterior: Gamma(alpha={pooled.alpha:g}, beta={pooled.beta:g})",
        ]
        lines += _summary_lines(pooled_summaries)
        if per_obs is not None:
            for i, (o, p) in enumerate(zip(observations, per_obs)):
                s = gamma_summaries(p)
                lines.append(
                    f"obs{i + 1} (x={o.x}, T={o.T:g}): Gamma(alpha={p.alpha:g}, beta={p.beta:g}), "
                    f"mean = {s.mean:.6g}, sd = {s.sd:.6g}"
                )
        _write(args, "\n".join(lines) + "\n")


def _cmd_combine_ratio(args) -> None:
    prior_r2 = _ratio_prior_from_args(args)
    instances = []
    for i, text in enumerate(args.instance):
        x1, t1, x2, t2 = _parse_numbers(text, 4, f"--instance[{i}]")
        label = f"--instance[{i}]"
        if x1 < 0 or x1 != int(x1) or x2 < 0 or x2 != int(x2):
            raise UsageError(f"{label}: counts must be non-negative integers")
        if t1 <= 0 or t2 <= 0:
            raise UsageError(f"{label}: times must be > 0")
        instances.append((CountObservation(int(x1), t1), CountObservation(int(x2), t2)))
    post = combine_ratio_instances(instances, prior_r2)
    pooled1, pooled2 = post.spec.data1, post.spec.data2
    if args.format == "json":
        payload = {
            "instances": [
                {"x1": d1.x, "T1": d1.T, "x2": d2.x, "T2": d2.T} for d1, d2 in instances
            ],
            "pooled": {"x1": pooled1.x, "T1": pooled1.T, "x2": pooled2.x, "T2": pooled2.T},
            "prior_r2": {"alpha": prior_r2.alpha, "beta": prior_r2.beta},
            "summaries": post.summaries.as_dict(),
        }
        _write(args, _json_dump(payload))
    elif args.format == "csv":
        xs, ys = numeric.pdf_curve(post)
        buf = io.StringIO()
        buf.write("rho,density\n")
        for x, y in zip(xs, ys):
            buf.write(f"{float(x)!r},{float(y)!r}\n")
        _write(args, buf.getvalue())
    else:
        lines = [
            f"pooled totals: x1 = {pooled1.x}, T1 = {pooled1.T:g}, "
            f"x2 = {pooled2.x}, T2 = {pooled2.T:g}",
            "direct-ratio posterior:",
        ]
        lines += _summary_lines(post.summaries)
        _write(args, "\n".join(lines) + "\n")


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
    _report_output(
        args,
        report,
        f"ratio of Gamma({args.alpha1:g}, {args.beta1:g}) / Gamma({args.alpha2:g}, {args.beta2:g})",
    )


def _cmd_mc_uniform(args) -> None:
    _require(args.rmax > 0, "--rmax must be > 0")
    _check_sim_args(args)
    report = simulate_uniform_ratio(args.rmax, args.n, args.cutoff, args.bins, args.seed, args.workers)
    _report_output(args, report, f"ratio of two U(0, {args.rmax:g}) variates")


def _cmd_mc_waiting(args) -> None:
    _require(args.rate > 0, "--rate must be > 0")
    _require(args.k >= 1, "--k must be >= 1")
    _require(args.paths >= 1, "--paths must be >= 1")
    times = poisson_process_waiting_times(args.rate, args.k, args.seed, n_paths=args.paths)
    times = np.atleast_2d(times)
    if args.format == "json":
        payload = {
            "rate": args.rate,
            "k": args.k,
            "paths": args.paths,
            "seed": args.seed,
            "times": times.tolist(),
        }
        _write(args, _json_dump(payload))
    elif args.format == "csv":
        buf = io.StringIO()
        buf.write("path,event,time\n")
        for p in range(times.shape[0]):
            for k in range(times.shape[1]):
                buf.write(f"{p + 1},{k + 1},{float(times[p, k])!r}\n")
        _write(args, buf.getvalue())
    else:
        lines = [f"Poisson process arrivals: rate = {args.rate:g}, k = {args.k}, paths = {args.paths}"]
        first = times[:, 0]
        lines.append(f"first arrival: mean = {first.mean():.6g}, sd = {first.std(ddof=1) if first.size > 1 else 0.0:.6g}")
        last = times[:, -1]
        lines.append(f"arrival {args.k}: mean = {last.mean():.6g}")
        _write(args, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- mcmc


def _spec_error(path: str, message: str) -> UsageError:
    return UsageError(f"spec {path}: {message}")


def _is_number(raw) -> bool:
    """A finite JSON number within the float range.

    json.loads reads NaN, Infinity and ints of any size, and bool is an int in Python.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return False
    try:
        return math.isfinite(raw)
    except OverflowError:
        return False


def _parse_prior(raw, path: str) -> GammaParams:
    if raw == "flat":
        return MCMC_FLAT_PRIOR
    if not isinstance(raw, dict):
        raise _spec_error(path, 'expected {"alpha": ..., "beta": ...} or "flat"')
    extra = set(raw) - {"alpha", "beta"}
    if extra:
        raise _spec_error(path, f"unknown keys {sorted(extra)}")
    for key in ("alpha", "beta"):
        if key not in raw:
            raise _spec_error(f"{path}.{key}", "missing")
        if not _is_number(raw[key]):
            raise _spec_error(f"{path}.{key}", "must be a finite number")
    if raw["alpha"] <= 0:
        raise _spec_error(f"{path}.alpha", "must be > 0")
    if raw["beta"] <= 0:
        raise _spec_error(f"{path}.beta", 'must be > 0 (use "flat" for a flat prior)')
    return GammaParams(float(raw["alpha"]), float(raw["beta"]))


def _parse_efficiency(raw, path: str):
    if isinstance(raw, bool):
        raise _spec_error(path, "must be a number in (0, 1] or {a, b}")
    if isinstance(raw, (int, float)):
        if not (0 < raw <= 1):
            raise _spec_error(path, f"fixed efficiency must be in (0, 1], got {raw}")
        return float(raw)
    if isinstance(raw, dict):
        extra = set(raw) - {"a", "b"}
        if extra:
            raise _spec_error(path, f"unknown keys {sorted(extra)}")
        for key in ("a", "b"):
            if key not in raw:
                raise _spec_error(f"{path}.{key}", "missing")
            if not _is_number(raw[key]):
                raise _spec_error(f"{path}.{key}", "must be a finite number")
            if raw[key] <= 0:
                raise _spec_error(f"{path}.{key}", "must be > 0")
        return (float(raw["a"]), float(raw["b"]))
    raise _spec_error(path, "must be a number in (0, 1] or {a, b}")


def _parse_efficiency_pair(raw, path: str):
    if not isinstance(raw, list) or len(raw) != 2:
        raise _spec_error(path, "expected a two-element list")
    return (
        _parse_efficiency(raw[0], f"{path}[0]"),
        _parse_efficiency(raw[1], f"{path}[1]"),
    )


def parse_model_spec(payload: dict) -> ModelSpec:
    """Validate a JSON model spec document, reporting errors with field paths."""
    if not isinstance(payload, dict):
        raise _spec_error("$", "top level must be an object")
    known = {"variant", "data", "priors", "efficiencies", "background_efficiencies", "monitor"}
    extra = set(payload) - known
    if extra:
        raise _spec_error("$", f"unknown keys {sorted(extra)}")
    variant = payload.get("variant")
    if variant not in ("A", "B", "B_EFF", "B_EFF_BKG"):
        raise _spec_error("variant", "must be one of A, B, B_EFF, B_EFF_BKG")
    data = payload.get("data")
    if not isinstance(data, dict):
        raise _spec_error("data", "expected an object with x1, T1, x2, T2")
    extra = set(data) - {"x1", "T1", "x2", "T2"}
    if extra:
        raise _spec_error("data", f"unknown keys {sorted(extra)}")
    for key in ("x1", "T1", "x2", "T2"):
        if key not in data:
            raise _spec_error(f"data.{key}", "missing")
        if not _is_number(data[key]):
            raise _spec_error(f"data.{key}", "must be a finite number")
    for key in ("x1", "x2"):
        if data[key] < 0 or data[key] != int(data[key]):
            raise _spec_error(f"data.{key}", "must be a non-negative integer")
    for key in ("T1", "T2"):
        if data[key] <= 0:
            raise _spec_error(f"data.{key}", "must be > 0")
    priors_raw = payload.get("priors")
    if not isinstance(priors_raw, dict):
        raise _spec_error("priors", "expected an object mapping node names to priors")
    priors = {name: _parse_prior(raw, f"priors.{name}") for name, raw in priors_raw.items()}
    efficiencies = None
    if "efficiencies" in payload:
        efficiencies = _parse_efficiency_pair(payload["efficiencies"], "efficiencies")
    background_efficiencies = None
    if "background_efficiencies" in payload:
        background_efficiencies = _parse_efficiency_pair(
            payload["background_efficiencies"], "background_efficiencies"
        )
    monitor = ("r1", "r2", "rho")
    if "monitor" in payload:
        raw_monitor = payload["monitor"]
        if (
            not isinstance(raw_monitor, list)
            or not raw_monitor
            or not all(isinstance(name, str) for name in raw_monitor)
        ):
            raise _spec_error("monitor", "expected a non-empty list of variable names")
        monitor = tuple(raw_monitor)
    try:
        return ModelSpec(
            variant=variant,
            data1=CountObservation(int(data["x1"]), float(data["T1"])),
            data2=CountObservation(int(data["x2"]), float(data["T2"])),
            priors=priors,
            efficiencies=efficiencies,
            background_efficiencies=background_efficiencies,
            monitor=monitor,
        )
    except ValueError as exc:
        raise _spec_error("$", str(exc)) from None


def _cmd_mcmc(args) -> None:
    _require(args.n_iter >= 1, "--n-iter must be >= 1")
    if args.burn_in is not None:
        _require(args.burn_in >= 0, "--burn-in must be >= 0")
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise UsageError(f"spec file not found: {spec_path}")
    try:
        payload = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"spec file is not valid JSON: {exc}") from None
    spec = parse_model_spec(payload)
    try:
        model = build_model(spec)
    except ValueError as exc:
        raise UsageError(f"spec $: {exc}") from None
    chain = run_chain(model, args.n_iter, args.burn_in, args.seed)
    summary = summarize_chain(chain)
    if not all(math.isfinite(v.batch_se) for v in summary.variables.values()):
        print(
            "rateratio: warning: fewer than 20 draws give no batch-means SE",
            file=sys.stderr,
        )
    summary_json = _json_dump(
        {**summary.as_dict(), "acceptance": {k: v for k, v in chain.acceptance.items()}}
    )
    summary_text = format_chain_summary(summary)
    if args.out:
        prefix = Path(args.out)
        chain_path = prefix.with_name(prefix.name + ".chain.csv")
        with open(chain_path, "w") as fh:
            chain_to_csv(chain, fh)
        prefix.with_name(prefix.name + ".summary.txt").write_text(summary_text)
        prefix.with_name(prefix.name + ".summary.json").write_text(summary_json)
        sys.stdout.write(
            f"wrote {chain_path}, {prefix.name}.summary.txt, {prefix.name}.summary.json\n"
        )
    if args.format == "json":
        sys.stdout.write(summary_json)
    elif args.format == "csv":
        if not args.out:
            chain_to_csv(chain, sys.stdout)
    else:
        sys.stdout.write(summary_text)


_RANDOM_COMMANDS = frozenset(
    {_cmd_predict_ratio, _cmd_mc_gamma, _cmd_mc_uniform, _cmd_mc_waiting, _cmd_mcmc}
)


if __name__ == "__main__":
    sys.exit(main())
