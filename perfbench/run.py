#!/usr/bin/env python3
"""Benchmark of the `rateratio` command line, run in-process as one closed-loop client.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 15 --trace 0

Builds nothing: it imports `rateratio` from the `src/` directory next to this
one.  A pass sends a seeded request list to `rateratio.cli.main(argv)`, each
call after the previous one returns; every pass draws a fresh list from the
seed and the pass number.  The run makes round(--seconds / PASS_SECONDS)
passes, at least MIN_PASSES, so the same arguments always send the same
requests.

Between requests, `hostspeed.HostSpeed` times fixed reference kernels, and
every time reported is scaled to a host at reference speed (see
hostspeed.py).  `wall_s` is the mean over passes of the summed latencies of
one pass's list; the request latencies of all passes give `req_p50_s` and
`req_tail_s`.  `setup_s` is scaled the same way.  `peak_rss_mb` is read when
the last pass ends, before the harness loads its oracle.  Every output is
then checked against `oracle.py`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, or with
`--trace 1` the per-layer metrics of traced passes, each paired with an
untraced pass of the same requests.  The line before it is a fuller report:
machine facts, every metric with its unit, the tail percentile and its
sample count, the latency of every request by pass, the same figures
before scaling, the host slowness the probes saw, and the failed requests
of the first pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PASS_SECONDS = {"closed_form": 5.1, "monte_carlo": 4.8, "mcmc": 7.5}  # one pass at reference speed, s
MIN_PASSES = 2
SETUP_LAUNCHES = 5
REQUEST_TIMEOUT_S = 60
MEASURE_LIMIT_S = 110  # no new pass starts after this much measuring, so a very slow host still ends in time
TAIL_BEYOND = 10  # requests of one pass that lie beyond the reported tail percentile


class RequestTimeout(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("closed_form", "monte_carlo", "mcmc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(launches: int, host) -> list[tuple[float, float]]:
    """(start, wall time) of fresh interpreters importing rateratio.cli, each between two probes.

    One untimed launch comes first.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import rateratio.cli"]
    times = []
    for i in range(launches + 1):
        host.probe()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        if i:
            times.append((start, time.perf_counter() - start))
    host.probe()
    return times


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request ran over {REQUEST_TIMEOUT_S} s")


def call(main, argv: list[str]) -> tuple[float, float, int | None, str]:
    """One in-process CLI call: (start, latency s, exit code or None on an exception, stdout or stderr)."""
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(REQUEST_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("default")  # each call shows its warnings once, as a fresh process would
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    finally:
        latency = time.perf_counter() - start
        signal.alarm(0)
    return start, latency, code, out.getvalue() if code == 0 else err.getvalue()


def run_pass(cli, reqs, host, tracer=None, label="") -> list:
    """Send the requests one after another, probing the host between them: the per-request results.

    `cli.main` is looked up per call, so that a tracer installed around the
    pass wraps it.
    """
    results = []
    for i, req in enumerate(reqs):
        host.maybe_probe()
        if tracer is not None:
            tracer.request = f"{label}.{i}"
        results.append(call(cli.main, req.argv))
    return results


def run_traced(cli, reqs, host, tracer, label: str) -> list:
    tracer.install()
    try:
        return run_pass(cli, reqs, host, tracer, label)
    finally:
        tracer.uninstall()


def tail(samples: list[float], per_pass: int) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with TAIL_BEYOND of one pass's requests beyond it.

    The percentile depends only on the list length, not on how many passes
    ran.  The value is the Harrell-Davis estimate over the latencies of all
    passes, a weighted mean of the order statistics near that rank.
    """
    from scipy.stats.mstats import hdquantiles

    pct = 100.0 * (1.0 - TAIL_BEYOND / per_pass)
    return pct, float(hdquantiles(samples, prob=[pct / 100.0])[0])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rateratio" / "cli.py").is_file():
        print(f"error: no rateratio sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hostspeed
    import tracing
    import workloads

    facts = machine_facts()
    setup_host = hostspeed.HostSpeed("setup")
    host = hostspeed.HostSpeed(args.workload)
    for _ in range(3):  # warm the probes' own code paths
        setup_host.probe()
        host.probe()
    setup = measure_setup(SETUP_LAUNCHES, setup_host)
    from rateratio import cli

    results_dir = HERE / "results"
    workdir = results_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = tracing.Tracer() if args.trace else None
    try:
        warm = workloads.warmup_requests(args.workload, workdir)
        warm_results = run_pass(cli, warm, host)
        if tracer is not None:
            warm_results += run_traced(cli, warm, host, tracer, "warm")
            tracer.spans.clear()
            tracer.counts.clear()
        for _, _, code, text in warm_results:
            if code != 0:
                print(f"warm-up request failed: {text.strip()[:300]}", file=sys.stderr)
        baseline_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        want_passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
        sent = []  # (pass, request, start, latency, exit code, file holding stdout or stderr)
        traced_sent = []  # (pass, start, latency) of the traced twin of each request
        passes = 0
        t0 = time.perf_counter()
        while passes < want_passes and time.perf_counter() - t0 < MEASURE_LIMIT_S:
            pass_dir = workdir / f"pass{passes}"
            pass_dir.mkdir()
            reqs = workloads.requests(args.workload, args.seed, passes, pass_dir)
            traced = None
            if tracer is not None and passes % 2:  # alternate which of the pair runs first
                traced = run_traced(cli, reqs, host, tracer, str(passes))
            results = run_pass(cli, reqs, host)
            if tracer is not None and traced is None:
                traced = run_traced(cli, reqs, host, tracer, str(passes))
            if tracer is not None:
                for req, first, again in zip(reqs, results, traced):
                    if first[2:] != again[2:]:
                        raise RuntimeError(f"traced pass changed the output of {req.argv}")
                    traced_sent.append((passes, again[0], again[1]))
            for i, (req, (start, latency, code, text)) in enumerate(zip(reqs, results)):
                out_file = pass_dir / f"{i}.out"
                out_file.write_text(text)
                sent.append((passes, req, start, latency, code, out_file))
            passes += 1
        host.probe()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import oracle

        verdicts = []  # (pass, request kind, Verdict, argv)
        ess_by_variant: dict[str, float] = {}
        scaled = []  # latency of each request at reference speed
        mc_draws, mc_s, mcmc_ess, mcmc_s = 0, 0.0, 0.0, 0.0
        for rep, req, start, latency, code, out_file in sent:
            verdict, ess_rho = oracle.check(req, code, out_file.read_text())
            verdicts.append((rep, req.kind, verdict, req.argv))
            scaled.append(host.scale(start, latency))
            if req.draws:
                mc_draws += req.draws
                mc_s += scaled[-1]
            if req.kind == "mcmc":
                mcmc_s += scaled[-1]
                if ess_rho is not None:
                    mcmc_ess += ess_rho
                    variant = req.params["variant"]
                    ess_by_variant[variant] = ess_by_variant.get(variant, 0.0) + ess_rho

        attempted = len(verdicts)
        bad = [(rep, kind, v, argv) for rep, kind, v, argv in verdicts if v.status != "ok"]
        raw = [latency for _, _, _, latency, _, _ in sent]
        per_pass = len(sent) // passes

        def by_pass(values, reps):
            return [[v for v, rep in zip(values, reps) if rep == n] for n in range(passes)]

        reps = [rep for rep, *_ in sent]
        walls = [sum(pass_values) for pass_values in by_pass(scaled, reps)]
        pct, tail_s = tail(scaled, per_pass)
        setup_scaled = [setup_host.scale(start, seconds) for start, seconds in setup]
        end_to_end = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.mean(walls), "s"),
            "req_p50_s": (statistics.median(scaled), "s"),
            "req_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        run_wide = {
            "fail_frac": (len(bad) / attempted, "ratio"),
            "draws_per_s": (mc_draws / mc_s if mc_s else 0.0, "1/s"),
            "ess_per_s": (mcmc_ess / mcmc_s if mcmc_s else 0.0, "1/s"),
        }
        reported = end_to_end
        if tracer is not None:
            tracer.check_coverage(args.workload)
            reported = tracer.metrics(passes, ess_by_variant)
            traced_walls = [sum(host.scale(start, latency) for rep, start, latency in traced_sent if rep == n)
                            for n in range(passes)]
            ratios = [traced / plain for traced, plain in zip(traced_walls, walls)]
            reported["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
            reported.update(run_wide)
            tracer.write(results_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "machine": facts, "client": "closed loop, 1 process, 1 client thread",
            "passes": passes, "requests_per_pass": per_pass,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **run_wide, **reported}.items()},
            "req_tail": {"percentile": pct, "samples": len(scaled), "of": "every request of every pass"},
            "unscaled": {
                "setup_s": statistics.median(seconds for _, seconds in setup),
                "wall_s": statistics.mean(sum(v) for v in by_pass(raw, reps)),
                "req_p50_s": statistics.median(raw),
                "req_tail_s": tail(raw, per_pass)[1],
            },
            "host_slowness": host.summary(),
            "setup_host_slowness": setup_host.summary(),
            "rss_before_first_pass_mb": baseline_rss_mb,
            "pass_walls_s": walls,
            "latencies_s": by_pass(scaled, reps),
            "unscaled_latencies_s": by_pass(raw, reps),
            "request_starts_s": by_pass([start - t0 for _, _, start, _, _, _ in sent], reps),
            "probes": {"t_s": [t - t0 for t in host.times], **host.kernel_slowness},
            "setup_samples_s": setup_scaled,
            "mcmc_ess_by_variant": ess_by_variant,
            "failures_in_first_pass": [{"kind": k, "status": v.status, "reason": v.reason[:200], "argv": argv}
                                       for rep, k, v, argv in bad if rep == 0],
        }
        print(json.dumps({"report": report}))
        result = {
            "correct": not any(v.status == "wrong" for _, _, v, _ in bad),
            "attempted": attempted,
            "failed": len(bad),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
