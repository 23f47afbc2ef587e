"""Seeded request lists for the three benchmark workloads.

A workload is a list of `rateratio` command lines, drawn afresh for each
pass from the seed and the pass number; the same seed gives the same lists.
Inputs follow a stratified design.  For an input drawn for k requests, its
range is cut into k equal cells and request slot i always falls in the same
cell, fixed by DESIGN_SEED, as are the formats and other discrete choices of
each slot.  The seed and the pass number place each draw within its cell.
So every input keeps its stated law (log-uniform, say) over the seeds, and
every pass has the same make-up.  Some request costs still jump within a
cell (a quantile search that fails fast or late, depending on where the
density's peak falls), which is why a run averages over several fresh lists.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DESIGN_SEED = 20201208
FORMATS = ("json", "csv", "text")
# A and B sweep about 2.5 times as fast as B_EFF; their longer chains take about as long as a
# B_EFF chain, so the median request lies inside that cluster, not in a gap between two groups.
MCMC_N_ITER = {"A": 8_000, "B": 8_000, "B_EFF": 3_000, "B_EFF_BKG": 3_000}
MC_SMALL_N = 1_000_000
MC_LARGE_N = 10_000_000


@dataclass
class Request:
    """One CLI call plus the inputs the oracle needs to check its output."""

    kind: str
    argv: list[str]
    params: dict
    draws: int = 0
    out_prefix: Path | None = None
    spec: dict | None = field(default=None, repr=False)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Design:
    """Stratified draws: cells and discrete choices from DESIGN_SEED, positions in cells from the seed and pass."""

    def __init__(self, seed: int, rep: int) -> None:
        self._design = np.random.default_rng(DESIGN_SEED)
        self._rng = np.random.default_rng([seed, rep])

    def uniform(self, k: int) -> np.ndarray:
        """k draws on (0, 1), the i-th in a fixed one of k equal cells."""
        return (self._design.permutation(k) + self._rng.random(k)) / k

    def twins(self, k: int) -> np.ndarray:
        """k draws on (0, 1) in k // 2 cells, two to a cell at mirror positions u and 1 - u.

        Each draw is still uniform in its cell, but a steep cost of the draw
        evens out over the pair.
        """
        if k % 2:
            raise ValueError(f"twins need an even count, got {k}")
        cells = self._design.permutation(k // 2)
        u = self._rng.random(k // 2)
        return np.stack([cells + u, cells + 1.0 - u], axis=1).ravel() / (k // 2)

    def log_uniform(self, k: int, lo: float, hi: float, twins: bool = False) -> np.ndarray:
        return lo * (hi / lo) ** (self.twins(k) if twins else self.uniform(k))

    def assign(self, options, k: int) -> list:
        """A fixed, balanced assignment of options to k slots."""
        picks = [options[i % len(options)] for i in range(k)]
        self._design.shuffle(picks)
        return picks

    def order(self, reqs: list) -> list:
        self._design.shuffle(reqs)
        return reqs

    def program_seed(self) -> int:
        return int(self._rng.integers(2**31))


def count(u: float) -> int:
    """A quarter of counts are 0-10; the rest log-uniform on 10-1e7."""
    if u < 0.25:
        return int(u / 0.25 * 11)
    return int(10.0 * 1e6 ** ((u - 0.25) / 0.75))


def _num(value: float) -> str:
    return repr(float(value))


# ------------------------------------------------------------ closed_form


def _times(d: Design, k: int) -> list[float]:
    return [float(t) for t in d.log_uniform(k, 1e-3, 1e9)]


def _infer(d: Design, k: int) -> list[Request]:
    xs, ts = [count(u) for u in d.uniform(k)], _times(d, k)
    pa, pb = d.uniform(k), d.uniform(k)
    out = []
    for i, (prior, fmt) in enumerate(zip(d.assign(["flat", "flat", "elicit", "direct"], k), d.assign(FORMATS, k))):
        argv = ["infer", "--x", str(xs[i]), "--T", _num(ts[i]), "--format", fmt]
        params = {"x": xs[i], "T": ts[i], "prior": ("flat",)}
        if prior == "elicit":
            mean = 1e-2 * 1e4 ** pa[i]
            sd = mean * 0.1 * 100.0 ** pb[i]
            argv += ["--prior-mean", _num(mean), "--prior-sd", _num(sd)]
            params["prior"] = ("elicit", mean, sd)
        elif prior == "direct":
            alpha, beta = 0.1 * 100.0 ** pa[i], 1e-2 * 1e4 ** pb[i]
            argv += ["--prior-alpha", _num(alpha), "--prior-beta", _num(beta)]
            params["prior"] = ("direct", alpha, beta)
        out.append(Request("infer", argv, params))
    return out


def _ratio(d: Design, k: int) -> list[Request]:
    x1s, t1s = [count(u) for u in d.uniform(k)], _times(d, k)
    x2s, t2s = [count(u) for u in d.uniform(k)], _times(d, k)
    alphas, betas = d.log_uniform(k, 0.5, 20.0), d.log_uniform(k, 1e-2, 1e2)
    modes = d.assign(["A", "A", "B", "B_prior", "compare", "compare_prior"], k)
    out = []
    for i, fmt in enumerate(d.assign(FORMATS, k)):
        argv = ["ratio", "--x1", str(x1s[i]), "--T1", _num(t1s[i]), "--x2", str(x2s[i]), "--T2", _num(t2s[i])]
        prior = None
        if modes[i].endswith("_prior"):
            prior = (float(alphas[i]), float(betas[i]))
            argv += ["--prior-alpha0", _num(prior[0]), "--prior-beta0", _num(prior[1])]
        if modes[i].startswith("compare"):
            argv.append("--compare")
            models = ("A", "B")
        else:
            models = (modes[i][0],)
            argv += ["--model", models[0]]
        argv += ["--format", fmt]
        params = {"x1": x1s[i], "T1": t1s[i], "x2": x2s[i], "T2": t2s[i], "models": models, "prior_r2": prior}
        out.append(Request("ratio", argv, params))
    return out


def _combine_rate(d: Design, k: int, per_request: int) -> list[Request]:
    xs, ts = [count(u) for u in d.uniform(k * per_request)], _times(d, k * per_request)
    alphas, betas = d.log_uniform(k, 0.1, 10.0), d.log_uniform(k, 1e-2, 1e2)
    out = []
    for i, fmt in enumerate(d.assign(FORMATS, k)):
        rows = slice(i * per_request, (i + 1) * per_request)
        obs = list(zip(xs[rows], ts[rows]))
        argv = ["combine", "rate"]
        for x, t in obs:
            argv += ["--obs", f"{x},{_num(t)}"]
        params = {"obs": obs, "prior": ("flat",), "per_observation": bool(i % 2)}
        if params["per_observation"]:
            argv.append("--per-observation")
        if i % 3 == 1:
            argv += ["--prior-alpha", _num(alphas[i]), "--prior-beta", _num(betas[i])]
            params["prior"] = ("direct", float(alphas[i]), float(betas[i]))
        out.append(Request("combine_rate", argv + ["--format", fmt], params))
    return out


def _combine_ratio(d: Design, k: int, per_request: int) -> list[Request]:
    n = k * per_request
    x1s, t1s = [count(u) for u in d.uniform(n)], _times(d, n)
    x2s, t2s = [count(u) for u in d.uniform(n)], _times(d, n)
    alphas, betas = d.log_uniform(k, 0.5, 20.0), d.log_uniform(k, 1e-2, 1e2)
    out = []
    for i, fmt in enumerate(d.assign(FORMATS, k)):
        rows = range(i * per_request, (i + 1) * per_request)
        instances = [(x1s[j], t1s[j], x2s[j], t2s[j]) for j in rows]
        argv = ["combine", "ratio"]
        for x1, t1, x2, t2 in instances:
            argv += ["--instance", f"{x1},{_num(t1)},{x2},{_num(t2)}"]
        params = {"instances": instances, "prior_r2": None}
        if i % 2:
            params["prior_r2"] = (float(alphas[i]), float(betas[i]))
            argv += ["--prior-alpha0", _num(alphas[i]), "--prior-beta0", _num(betas[i])]
        out.append(Request("combine_ratio", argv + ["--format", fmt], params))
    return out


def _predict_diff(d: Design, k: int) -> list[Request]:
    """lambda1 log-uniform on 0.1-1e4; lambda2 within a factor 10**0.2 of it, kept in the same range.

    skellam_dist costs O(lambda**1.5), so the few requests near the top of
    the range would set the cost of the list; both inputs are drawn as
    twins, which keeps that cost nearly the same from list to list.
    """
    l1s = d.log_uniform(k, 0.1, 1e4, twins=True)
    factors = 10.0 ** (0.2 * (2 * d.twins(k) - 1))
    out = []
    for i, fmt in enumerate(d.assign(FORMATS, k)):
        l1, l2 = float(l1s[i]), float(min(max(l1s[i] * factors[i], 0.1), 1e4))
        argv = ["predict", "diff", "--l1", _num(l1), "--l2", _num(l2), "--format", fmt]
        window = None
        if i % 4 == 3:
            center, half = l1 - l2, 3.0 * (l1 + l2) ** 0.5 + 1.0
            window = (int(center - half), int(center + half))
            argv += ["--d-min", str(window[0]), "--d-max", str(window[1])]
        out.append(Request("predict_diff", argv, {"l1": l1, "l2": l2, "window": window}))
    return out


def closed_form(d: Design, workdir: Path) -> list[Request]:
    return d.order(
        _infer(d, 18) + _ratio(d, 18) + _combine_rate(d, 6, 3) + _combine_ratio(d, 6, 3) + _predict_diff(d, 24)
    )


# ------------------------------------------------------------ monte_carlo


def _mc_requests(d: Design, kind: str, heads: list[list[str]], sizes: list[int], params: list[dict]) -> list[Request]:
    k = len(sizes)
    bins, cutoffs, fmts = d.assign([150, 1500], k), d.assign([8.0, 20.0], k), d.assign(FORMATS, k)
    out = []
    for i, n in enumerate(sizes):
        workers = nproc() if n > MC_SMALL_N else 1
        seed = d.program_seed()
        argv = heads[i] + ["--n", str(n), "--bins", str(bins[i]), "--cutoff", _num(cutoffs[i]),
                           "--workers", str(workers), "--seed", str(seed), "--format", fmts[i]]
        p = {"n": n, "bins": bins[i], "cutoff": cutoffs[i], "workers": workers, "seed": seed, **params[i]}
        out.append(Request(kind, argv, p, draws=n))
    return out


def monte_carlo(d: Design, workdir: Path) -> list[Request]:
    sizes = [MC_SMALL_N] * 10 + [MC_LARGE_N]
    k = len(sizes)
    l1s, l2s = d.log_uniform(k, 0.05, 1e3), d.log_uniform(k, 0.05, 1e3)
    counts = _mc_requests(
        d, "predict_ratio",
        [["predict", "ratio", "--l1", _num(l1s[i]), "--l2", _num(l2s[i])] for i in range(k)],
        sizes, [{"l1": float(l1s[i]), "l2": float(l2s[i])} for i in range(k)])
    a1, b1 = d.log_uniform(k, 0.5, 50.0), d.log_uniform(k, 0.1, 10.0)
    a2, b2 = d.log_uniform(k, 6.0, 60.0), d.log_uniform(k, 0.1, 10.0)
    gammas = _mc_requests(
        d, "mc_gamma",
        [["mc", "gamma-ratio", "--alpha1", _num(a1[i]), "--beta1", _num(b1[i]),
          "--alpha2", _num(a2[i]), "--beta2", _num(b2[i])] for i in range(k)],
        sizes, [{"a1": float(a1[i]), "b1": float(b1[i]), "a2": float(a2[i]), "b2": float(b2[i])} for i in range(k)])
    rmax = d.log_uniform(k, 1e-2, 1e2)
    uniforms = _mc_requests(
        d, "mc_uniform", [["mc", "uniform-ratio", "--rmax", _num(rmax[i])] for i in range(k)],
        sizes, [{"rmax": float(rmax[i])} for i in range(k)])
    return d.order(counts + gammas + uniforms)


# ------------------------------------------------------------ mcmc


# (variant, whether efficiencies are Beta-distributed, chains)
MCMC_MIX = [("A", False, 10), ("B", False, 10), ("B_EFF", False, 8), ("B_EFF", True, 4),
            ("B_EFF_BKG", False, 4), ("B_EFF_BKG", True, 4)]


def mcmc(d: Design, workdir: Path) -> list[Request]:
    """Chains over all four variants.

    x1 is log-uniform on 3-1e3 and x2 on 8-1e3: x2 >= 8 gives the Model B
    posterior of rho at least four finite moments, which the check of the
    chain mean needs.
    """
    mix = [(variant, beta_eff) for variant, beta_eff, chains in MCMC_MIX for _ in range(chains)]
    k = len(mix)
    x1s, x2s = d.log_uniform(k, 3.0, 1e3), d.log_uniform(k, 8.0, 1e3)
    t1s, t2s = d.log_uniform(k, 0.5, 50.0), d.log_uniform(k, 0.5, 50.0)
    flat1, flat2 = d.assign([True, False], k), d.assign([True, False], k)
    p_alpha, p_beta = d.log_uniform(k, 0.5, 5.0), d.log_uniform(k, 0.1, 2.0)
    effs = d.uniform(4 * k).reshape(k, 4)
    e_a, e_b = d.log_uniform(k, 2.0, 20.0), d.log_uniform(k, 2.0, 20.0)
    rb = d.log_uniform(2 * k, 0.5, 5.0).reshape(k, 2)

    def prior(i: int, flat: bool):
        return "flat" if flat else {"alpha": float(p_alpha[i]), "beta": float(p_beta[i])}

    def efficiency(i: int, j: int, stochastic: bool):
        if stochastic:
            return {"a": float(e_a[i]), "b": float(e_b[i])}
        return 0.2 + 0.8 * float(effs[i, j])

    reqs = []
    for i, ((variant, beta_eff), fmt) in enumerate(zip(mix, d.assign(FORMATS, k))):
        data = {"x1": int(x1s[i]), "T1": float(t1s[i]), "x2": int(x2s[i]), "T2": float(t2s[i])}
        if variant == "A":
            priors = {"r1": prior(i, flat1[i]), "r2": prior(i, flat2[i])}
        else:
            priors = {"rho": "flat", "r2": prior(i, flat2[i])}
        spec = {"variant": variant, "data": data, "priors": priors}
        if variant == "B_EFF":
            spec["efficiencies"] = [efficiency(i, j, beta_eff and j == 0) for j in range(2)]
        if variant == "B_EFF_BKG":
            priors["rb1"] = {"alpha": 2.0, "beta": float(rb[i, 0])}
            priors["rb2"] = {"alpha": 2.0, "beta": float(rb[i, 1])}
            spec["efficiencies"] = [efficiency(i, j, beta_eff and j == 1) for j in range(2)]
            spec["background_efficiencies"] = [efficiency(i, 2 + j, beta_eff and j == 0) for j in range(2)]
        spec_path = workdir / f"spec{i}.json"
        spec_path.write_text(json.dumps(spec))
        prefix = workdir / f"chain{i}"
        seed = d.program_seed()
        argv = ["mcmc", "--spec", str(spec_path), "--n-iter", str(MCMC_N_ITER[variant]), "--seed", str(seed),
                "--out", str(prefix), "--format", fmt]
        reqs.append(Request("mcmc", argv, {"variant": variant, "seed": seed}, out_prefix=prefix, spec=spec))
    return d.order(reqs)


WORKLOADS = {"closed_form": closed_form, "monte_carlo": monte_carlo, "mcmc": mcmc}


def requests(workload: str, seed: int, rep: int, workdir: Path) -> list[Request]:
    """The request list of a workload for pass `rep`."""
    return WORKLOADS[workload](Design(seed, rep), workdir)


def warmup_requests(workload: str, workdir: Path) -> list[Request]:
    """Small untimed requests that load every code path a workload uses."""
    if workload == "closed_form":
        argvs = [["infer", "--x", "3", "--T", "3", "--format", "json"],
                 ["ratio", "--x1", "3", "--T1", "3", "--x2", "6", "--T2", "6", "--compare", "--format", "csv"],
                 ["combine", "rate", "--obs", "3,3", "--obs", "6,6"],
                 ["combine", "ratio", "--instance", "3,3,6,6", "--instance", "1,2,2,5", "--format", "csv"],
                 ["predict", "diff", "--l1", "2", "--l2", "3", "--format", "json"]]
    elif workload == "monte_carlo":
        argvs = [["predict", "ratio", "--l1", "2", "--l2", "3", "--n", "100000", "--seed", "1"],
                 ["mc", "gamma-ratio", "--alpha1", "4", "--beta1", "3", "--alpha2", "7", "--beta2", "6",
                  "--n", "200000", "--workers", str(nproc()), "--seed", "1", "--format", "csv"],
                 ["mc", "uniform-ratio", "--n", "100000", "--seed", "1", "--format", "json"]]
    else:
        argvs = []
        for variant, extra in (("A", {}), ("B_EFF_BKG", {"efficiencies": [0.9, {"a": 6, "b": 4}]})):
            spec = {"variant": variant, "data": {"x1": 9, "T1": 3.0, "x2": 12, "T2": 6.0},
                    "priors": {"r1": "flat", "r2": "flat"} if variant == "A" else
                    {"rho": "flat", "r2": "flat", "rb1": {"alpha": 2, "beta": 2}, "rb2": {"alpha": 2, "beta": 2}},
                    **extra}
            path = workdir / f"warm_{variant}.json"
            path.write_text(json.dumps(spec))
            argvs.append(["mcmc", "--spec", str(path), "--n-iter", "2000", "--seed", "1",
                          "--out", str(workdir / f"warm_{variant}"), "--format", "json"])
    return [Request("warmup", argv, {}) for argv in argvs]
