"""Traced run mode: spans and call counts around `rateratio`'s public functions.

The tracer swaps wrappers into the module attributes that hold each listed
function, in every `rateratio` module, so names re-imported elsewhere
(`cli.run_chain`, `cli.skellam_dist`, `ratio.gamma_ratio_pdf`, ...) are
traced too.  Spans are kept in memory and written out as JSON lines when the
run ends.  Densities evaluated inside quadrature are only counted, because a
span per evaluation would cost more than the evaluation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

MODULES = ("cli", "numeric", "distributions", "inference", "ratio", "montecarlo", "mcmc")
VARIANTS = ("A", "B", "B_EFF", "B_EFF_BKG")

# (module, function) -> workload that must call it; None: every workload
SPANS = {
    ("cli", "main"): None,
    ("numeric", "pdf_curve"): "closed_form",
    ("numeric", "pdf_quantile"): "closed_form",
    ("numeric", "pdf_cdf"): "closed_form",
    ("distributions", "skellam_dist"): "closed_form",
    ("inference", "rate_posterior"): "closed_form",
    ("inference", "update_rate"): "closed_form",
    ("inference", "combine_observations"): "closed_form",
    ("inference", "elicit_gamma"): "closed_form",
    ("ratio", "ratio_posterior"): "closed_form",
    ("ratio", "combine_ratio_instances"): "closed_form",
    ("montecarlo", "simulate_count_ratio"): "monte_carlo",
    ("montecarlo", "simulate_gamma_ratio"): "monte_carlo",
    ("montecarlo", "simulate_uniform_ratio"): "monte_carlo",
    ("montecarlo", "write_histogram_csv"): "monte_carlo",
    ("mcmc", "build_model"): "mcmc",
    ("mcmc", "run_chain"): "mcmc",
    ("mcmc", "summarize_chain"): "mcmc",
    ("mcmc", "chain_to_csv"): "mcmc",
    ("mcmc", "format_chain_summary"): "mcmc",
}
COUNTS = {
    ("distributions", "gamma_pdf"): "closed_form",
    ("distributions", "gamma_ratio_pdf"): "closed_form",
    ("distributions", "skellam_pmf"): "closed_form",
}
PDFS = ("distributions.gamma_pdf", "distributions.gamma_ratio_pdf")


@dataclass
class Span:
    id: int
    parent: int
    request: str
    name: str
    start_ns: int
    end_ns: int
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans and counts while installed; install() and uninstall() bracket a traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._modules = {name: importlib.import_module(f"rateratio.{name}") for name in MODULES}
        self._modules["rateratio"] = importlib.import_module("rateratio")

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for (module, name) in SPANS:
            self._patch(module, name, self._span_wrapper)
        for (module, name) in COUNTS:
            self._patch(module, name, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, name: str, make_wrapper) -> None:
        original = getattr(self._modules[module], name)
        wrapper = make_wrapper(f"{module}.{name}", original)
        for owner in self._modules.values():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name] += 1
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = Span(span_id, parent, self.request, name, start, end)
            if name.startswith("montecarlo.simulate_"):
                self.spans[span_id].extra["draws"] = int(signature.bind(*args, **kwargs).arguments["n"])
            elif name == "mcmc.run_chain":
                self.spans[span_id].extra.update(
                    variant=args[0].spec.variant, sweeps=result.n_iter + result.burn_in
                )
            return result

        return traced

    # ------------------------------------------------------------ results

    def check_coverage(self, workload: str) -> None:
        """Fail loudly when a span or count meant for this workload saw no calls."""
        idle = [
            f"{module}.{name}"
            for table in (SPANS, COUNTS)
            for (module, name), meant in table.items()
            if meant in (None, workload) and self.counts[f"{module}.{name}"] == 0
        ]
        if idle:
            raise RuntimeError(f"traced {workload!r} run made no calls to {', '.join(idle)}")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def metrics(self, passes: int, ess_by_variant: dict) -> dict:
        """Per-layer metrics; times and counts are per traced pass of the request list."""
        by_id = {span.id: span for span in self.spans}
        seconds = defaultdict(float)  # name -> summed span time
        module_s = defaultdict(float)  # module -> time in its outermost spans
        children_s = defaultdict(float)  # span id -> summed time of direct children
        sweeps, chain_s = Counter(), defaultdict(float)
        draws = 0
        for span in self.spans:
            seconds[span.name] += span.seconds
            if span.parent >= 0:
                children_s[span.parent] += span.seconds
            module = span.name.split(".")[0]
            parent = by_id.get(span.parent)
            if parent is None or parent.name.split(".")[0] != module:
                module_s[module] += span.seconds
            draws += span.extra.get("draws", 0)
            if "variant" in span.extra:
                sweeps[span.extra["variant"]] += span.extra["sweeps"]
                chain_s[span.extra["variant"]] += span.seconds
        cli_self = sum(s.seconds - children_s[s.id] for s in self.spans if s.name == "cli.main")
        simulate_s = sum(v for k, v in seconds.items() if k.startswith("montecarlo.simulate_"))

        def per_pass(value):
            return value / passes

        def rate(num, den):
            return num / den if den > 0 else 0.0

        out = {
            "cli.self_s": (per_pass(cli_self), "s"),
            "cli.main.calls": (per_pass(self.counts["cli.main"]), "count"),
            "numeric.pdf_curve.s": (per_pass(seconds["numeric.pdf_curve"]), "s"),
            "numeric.pdf_quantile.s": (per_pass(seconds["numeric.pdf_quantile"]), "s"),
            "numeric.pdf_quantile.calls": (per_pass(self.counts["numeric.pdf_quantile"]), "count"),
            "numeric.pdf_cdf.calls": (per_pass(self.counts["numeric.pdf_cdf"]), "count"),
            "distributions.pdf_evals": (per_pass(sum(self.counts[n] for n in PDFS)), "count"),
            "distributions.skellam_dist.s": (per_pass(seconds["distributions.skellam_dist"]), "s"),
            "distributions.skellam_pmf.calls": (per_pass(self.counts["distributions.skellam_pmf"]), "count"),
            "inference.s": (per_pass(module_s["inference"]), "s"),
            "ratio.s": (per_pass(module_s["ratio"]), "s"),
            "montecarlo.simulate.s": (per_pass(simulate_s), "s"),
            "montecarlo.draws": (per_pass(draws), "count"),
            "montecarlo.ns_per_draw": (rate(simulate_s * 1e9, draws), "ns"),
            "montecarlo.write_histogram_csv.s": (per_pass(seconds["montecarlo.write_histogram_csv"]), "s"),
        }
        for name in ("build_model", "run_chain", "summarize_chain", "chain_to_csv", "format_chain_summary"):
            out[f"mcmc.{name}.s"] = (per_pass(seconds[f"mcmc.{name}"]), "s")
        for variant in VARIANTS:
            out[f"mcmc.sweeps_per_s.{variant}"] = (rate(sweeps[variant], chain_s[variant]), "1/s")
            out[f"mcmc.ess_per_s.{variant}"] = (rate(ess_by_variant.get(variant, 0.0), chain_s[variant]), "1/s")
        return out
