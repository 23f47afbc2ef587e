"""Metropolis-within-Gibbs sampling for a fixed family of counting models.

Four variants of one directed acyclic model are supported:

  A          x_i ~ Pois(r_i * T_i) with independent priors on r1, r2;
             rho = r1/r2 is deduced.
  B          rho and r2 carry the priors, r1 = rho * r2 is deterministic,
             so the ratio is inferred directly.
  B_EFF      as B, but the Poisson variates n_i are latent and the observed
             counts are binomially thinned: x_i ~ Binom(n_i, eps_i).
  B_EFF_BKG  as B_EFF with one background Poisson process per channel:
             latent produced counts nS_i ~ Pois(r_i * T_i) and
             nB_i ~ Pois(rb_i * T_i), latent observed-signal split s_i,
             observed x_i = s_i + (x_i - s_i) with
             s_i ~ Binom(nS_i, epsS_i) and x_i - s_i ~ Binom(nB_i, epsB_i).

Positive continuous nodes move by Gaussian random walks on the log scale
(logit scale for efficiencies), adapting toward ~0.44 acceptance during
burn-in and frozen afterwards.  Latent counts move by bounded integer random
walks; the split s_i moves by a transfer step that shifts (s_i, nS_i, nB_i)
together so the chain still mixes when an efficiency is exactly 1.

Flat priors are encoded as Gamma(1, 1e-6), the conventional proper stand-in
used by BUGS-family samplers; closed-form modules keep the exact improper
limit instead.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .distributions import GammaParams
from .inference import CountObservation


__all__ = [
    "MCMC_FLAT_PRIOR",
    "ModelSpec",
    "Model",
    "Chain",
    "VariableSummary",
    "ChainSummary",
    "InitializationError",
    "build_model",
    "run_chain",
    "summarize_chain",
    "format_chain_summary",
    "chain_to_csv",
]


logger = logging.getLogger(__name__)

MCMC_FLAT_PRIOR = GammaParams(1.0, 1e-6)

QUANTILE_LEVELS = (2.5, 25.0, 50.0, 75.0, 97.5)

_ADAPT_WINDOW = 50
_ADAPT_GAIN = 0.66
_TARGET_ACCEPT = 0.44

Variant = Literal["A", "B", "B_EFF", "B_EFF_BKG"]

_REQUIRED_PRIORS: dict[str, tuple[str, ...]] = {
    "A": ("r1", "r2"),
    "B": ("rho", "r2"),
    "B_EFF": ("rho", "r2"),
    "B_EFF_BKG": ("rho", "r2", "rb1", "rb2"),
}


class InitializationError(RuntimeError):
    """The chain could not start: non-finite log density at the initial state."""


@dataclass(frozen=True)
class _Efficiency:
    """Fixed value or Beta(a, b) prior for one efficiency."""

    fixed: float | None
    a: float | None = None
    b: float | None = None

    @classmethod
    def parse(cls, raw, label: str) -> "_Efficiency":
        if isinstance(raw, (int, float)):
            value = float(raw)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{label}: fixed efficiency must be in (0, 1], got {value}")
            return cls(fixed=value)
        if isinstance(raw, (tuple, list)) and len(raw) == 2:
            a, b = float(raw[0]), float(raw[1])
            if a <= 0 or b <= 0:
                raise ValueError(f"{label}: Beta parameters must be > 0, got ({a}, {b})")
            return cls(fixed=None, a=a, b=b)
        raise ValueError(f"{label}: expected a number or (a, b) pair, got {raw!r}")

    @property
    def is_stochastic(self) -> bool:
        return self.fixed is None

    def initial(self) -> float:
        if self.fixed is not None:
            return self.fixed
        return self.a / (self.a + self.b)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one model instance.

    priors must contain every top node of the variant (r1, r2 for A;
    rho, r2 for the B family; plus rb1, rb2 for the background variant) as
    proper Gamma distributions — use MCMC_FLAT_PRIOR for a flat prior.
    efficiencies (signal) and background_efficiencies are each a pair whose
    entries are a fixed value in (0, 1] or a (a, b) Beta parameter pair.
    """

    variant: Variant
    data1: CountObservation
    data2: CountObservation
    priors: Mapping[str, GammaParams] = field(default_factory=dict)
    efficiencies: tuple | None = None
    background_efficiencies: tuple | None = None
    monitor: tuple[str, ...] = ("r1", "r2", "rho")

    def __post_init__(self) -> None:
        if self.variant not in _REQUIRED_PRIORS:
            raise ValueError(
                f"variant must be one of {sorted(_REQUIRED_PRIORS)}, got {self.variant!r}"
            )
        required = _REQUIRED_PRIORS[self.variant]
        missing = [name for name in required if name not in self.priors]
        if missing:
            raise ValueError(f"missing priors for {missing}; required: {list(required)}")
        unknown = [name for name in self.priors if name not in required]
        if unknown:
            raise ValueError(f"unknown prior names {unknown}; this variant uses {list(required)}")
        for name, prior in self.priors.items():
            if not isinstance(prior, GammaParams):
                raise ValueError(f"prior {name!r} must be GammaParams")
            if not prior.is_proper:
                raise ValueError(
                    f"prior {name!r} is improper (beta == 0); samplers need a proper "
                    "prior — use MCMC_FLAT_PRIOR = Gamma(1, 1e-6) for a flat prior"
                )
        if self.variant in ("A", "B") and self.efficiencies is not None:
            raise ValueError(f"variant {self.variant} takes no efficiencies")
        if self.variant == "B_EFF" and self.efficiencies is None:
            raise ValueError("variant B_EFF requires efficiencies=(eps1, eps2)")
        if self.variant != "B_EFF_BKG" and self.background_efficiencies is not None:
            raise ValueError("background_efficiencies apply to variant B_EFF_BKG only")
        for field_name in ("efficiencies", "background_efficiencies"):
            pair = getattr(self, field_name)
            if pair is None:
                continue
            if len(pair) != 2:
                raise ValueError(f"{field_name} must be a pair, got {pair!r}")
            for i, raw in enumerate(pair):
                _Efficiency.parse(raw, f"{field_name}[{i}]")


@dataclass(frozen=True)
class _Node:
    """One stochastic node: full-conditional log density plus move metadata."""

    name: str
    kind: Literal["pos", "unit", "int", "alloc"]
    logdensity: Callable[[dict], float]
    # integer nodes: inclusive lower bound given the rest of the state
    lower: Callable[[dict], int] | None = None
    # alloc nodes: (split, n_signal, n_background) state keys and the fixed total
    alloc_names: tuple[str, str, str] | None = None
    alloc_total: int | None = None
    initial_step: float = 0.5


class Model:
    """A built model: immutable nodes, deterministic readouts, initial state."""

    def __init__(
        self,
        spec: ModelSpec,
        nodes: Sequence[_Node],
        deterministics: Mapping[str, Callable[[dict], float]],
        initial: Mapping[str, float],
    ) -> None:
        self.spec = spec
        self.nodes = tuple(nodes)
        self.deterministics = dict(deterministics)
        self._initial = dict(initial)
        for name in spec.monitor:
            if name not in self._initial and name not in self.deterministics:
                raise ValueError(
                    f"cannot monitor {name!r}: not a node or deterministic quantity"
                )

    def init_state(self) -> dict:
        return dict(self._initial)

    def value_of(self, state: dict, name: str) -> float:
        if name in state:
            return float(state[name])
        return float(self.deterministics[name](state))


@dataclass(frozen=True)
class Chain:
    """Post-burn-in draws for each monitored variable."""

    monitored: Mapping[str, np.ndarray]
    n_iter: int
    burn_in: int
    seed: object
    acceptance: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class VariableSummary:
    mean: float
    sd: float
    naive_se: float
    batch_se: float
    quantiles: Mapping[float, float]


@dataclass(frozen=True)
class ChainSummary:
    """Per-variable chain statistics.

    naive_se = sd/sqrt(n); batch_se is the batch-means standard error with
    20 batches, an autocorrelation-aware estimate; quantiles use inclusive
    linear interpolation on the sorted draws (numpy's default, R type 7).
    """

    variables: Mapping[str, VariableSummary]
    n_iter: int
    burn_in: int
    seed: object

    def as_dict(self) -> dict:
        return {
            "n_iter": self.n_iter,
            "burn_in": self.burn_in,
            "seed": self.seed if isinstance(self.seed, (int, type(None))) else str(self.seed),
            "variables": {
                name: {
                    "mean": v.mean,
                    "sd": v.sd,
                    "naive_se": v.naive_se,
                    "batch_se": v.batch_se,
                    "quantiles": {f"{level:g}": q for level, q in v.quantiles.items()},
                }
                for name, v in self.variables.items()
            },
        }


def _binom_logpmf(x: int, n: int, p: float) -> float:
    if x < 0 or x > n:
        return -math.inf
    if p >= 1.0:
        return 0.0 if x == n else -math.inf
    if p <= 0.0:
        return 0.0 if x == 0 else -math.inf
    return (
        math.lgamma(n + 1.0)
        - math.lgamma(x + 1.0)
        - math.lgamma(n - x + 1.0)
        + x * math.log(p)
        + (n - x) * math.log1p(-p)
    )


def _pois_logpmf(n: int, lam: float) -> float:
    if lam <= 0.0 or n < 0:
        return -math.inf
    return n * math.log(lam) - lam - math.lgamma(n + 1.0)


def _gamma_logprior(v: float, prior: GammaParams) -> float:
    # unnormalized: the normalization is constant along the chain
    return (prior.alpha - 1.0) * math.log(v) - prior.beta * v


def _latent_start(x: int, eff: _Efficiency) -> int:
    """Initial produced count for x observed at efficiency eff: about x / eps, never below x."""
    return max(x, round(x / eff.initial()))


def build_model(spec: ModelSpec) -> Model:
    """Assemble nodes, conditionals, deterministic readouts and initial state."""
    x1, t1 = spec.data1.x, spec.data1.T
    x2, t2 = spec.data2.x, spec.data2.T
    priors = spec.priors

    if spec.variant == "A":
        pr1, pr2 = priors["r1"], priors["r2"]

        def ld_r1(s: dict) -> float:
            return _gamma_logprior(s["r1"], pr1) + x1 * math.log(s["r1"] * t1) - s["r1"] * t1

        def ld_r2(s: dict) -> float:
            return _gamma_logprior(s["r2"], pr2) + x2 * math.log(s["r2"] * t2) - s["r2"] * t2

        nodes = [_Node("r1", "pos", ld_r1), _Node("r2", "pos", ld_r2)]
        deterministics = {
            "rho": lambda s: s["r1"] / s["r2"],
            "lambda1": lambda s: s["r1"] * t1,
            "lambda2": lambda s: s["r2"] * t2,
        }
        initial = {"r1": (x1 + 1.0) / t1, "r2": (x2 + 1.0) / t2}
        return Model(spec, nodes, deterministics, initial)

    if spec.variant == "B":
        prho, pr2 = priors["rho"], priors["r2"]

        def ld_rho(s: dict) -> float:
            lam1 = s["rho"] * s["r2"] * t1
            return _gamma_logprior(s["rho"], prho) + x1 * math.log(lam1) - lam1

        def ld_r2(s: dict) -> float:
            lam1 = s["rho"] * s["r2"] * t1
            lam2 = s["r2"] * t2
            return (
                _gamma_logprior(s["r2"], pr2)
                + x1 * math.log(lam1)
                - lam1
                + x2 * math.log(lam2)
                - lam2
            )

        nodes = [_Node("rho", "pos", ld_rho), _Node("r2", "pos", ld_r2)]
        deterministics = {
            "r1": lambda s: s["rho"] * s["r2"],
            "lambda1": lambda s: s["rho"] * s["r2"] * t1,
            "lambda2": lambda s: s["r2"] * t2,
        }
        r2_init = (x2 + 1.0) / t2
        initial = {"r2": r2_init, "rho": ((x1 + 1.0) / t1) / r2_init}
        return Model(spec, nodes, deterministics, initial)

    if spec.variant == "B_EFF":
        prho, pr2 = priors["rho"], priors["r2"]
        eff1 = _Efficiency.parse(spec.efficiencies[0], "efficiencies[0]")
        eff2 = _Efficiency.parse(spec.efficiencies[1], "efficiencies[1]")

        def eps1(s: dict) -> float:
            return s["eps1"] if eff1.is_stochastic else eff1.fixed

        def eps2(s: dict) -> float:
            return s["eps2"] if eff2.is_stochastic else eff2.fixed

        def ld_rho(s: dict) -> float:
            lam1 = s["rho"] * s["r2"] * t1
            return _gamma_logprior(s["rho"], prho) + _pois_logpmf(s["n1"], lam1)

        def ld_r2(s: dict) -> float:
            lam1 = s["rho"] * s["r2"] * t1
            lam2 = s["r2"] * t2
            return (
                _gamma_logprior(s["r2"], pr2)
                + _pois_logpmf(s["n1"], lam1)
                + _pois_logpmf(s["n2"], lam2)
            )

        def ld_n1(s: dict) -> float:
            lam1 = s["rho"] * s["r2"] * t1
            return _pois_logpmf(s["n1"], lam1) + _binom_logpmf(x1, s["n1"], eps1(s))

        def ld_n2(s: dict) -> float:
            lam2 = s["r2"] * t2
            return _pois_logpmf(s["n2"], lam2) + _binom_logpmf(x2, s["n2"], eps2(s))

        nodes = [
            _Node("rho", "pos", ld_rho),
            _Node("r2", "pos", ld_r2),
            _Node("n1", "int", ld_n1, lower=lambda s: x1),
            _Node("n2", "int", ld_n2, lower=lambda s: x2),
        ]
        # latent counts start near their posterior, x_i / eps_i, as r2 and rho do
        initial: dict[str, float] = {"n1": _latent_start(x1, eff1), "n2": _latent_start(x2, eff2)}
        if eff1.is_stochastic:

            def ld_eps1(s: dict) -> float:
                e = s["eps1"]
                return (
                    (eff1.a - 1.0) * math.log(e)
                    + (eff1.b - 1.0) * math.log1p(-e)
                    + _binom_logpmf(x1, s["n1"], e)
                )

            nodes.append(_Node("eps1", "unit", ld_eps1))
            initial["eps1"] = eff1.initial()
        if eff2.is_stochastic:

            def ld_eps2(s: dict) -> float:
                e = s["eps2"]
                return (
                    (eff2.a - 1.0) * math.log(e)
                    + (eff2.b - 1.0) * math.log1p(-e)
                    + _binom_logpmf(x2, s["n2"], e)
                )

            nodes.append(_Node("eps2", "unit", ld_eps2))
            initial["eps2"] = eff2.initial()

        deterministics = {
            "r1": lambda s: s["rho"] * s["r2"],
            "lambda1": lambda s: s["rho"] * s["r2"] * t1,
            "lambda2": lambda s: s["r2"] * t2,
        }
        if not eff1.is_stochastic:
            deterministics["eps1"] = lambda s: eff1.fixed
        if not eff2.is_stochastic:
            deterministics["eps2"] = lambda s: eff2.fixed
        r2_init = (x2 / eff2.initial() + 1.0) / t2
        initial["r2"] = r2_init
        initial["rho"] = ((x1 / eff1.initial() + 1.0) / t1) / r2_init
        return Model(spec, nodes, deterministics, initial)

    # B_EFF_BKG
    prho, pr2 = priors["rho"], priors["r2"]
    prb = {1: priors["rb1"], 2: priors["rb2"]}
    sig_eff_raw = spec.efficiencies if spec.efficiencies is not None else (1.0, 1.0)
    bkg_eff_raw = (
        spec.background_efficiencies if spec.background_efficiencies is not None else (1.0, 1.0)
    )
    eff_s = {
        1: _Efficiency.parse(sig_eff_raw[0], "efficiencies[0]"),
        2: _Efficiency.parse(sig_eff_raw[1], "efficiencies[1]"),
    }
    eff_b = {
        1: _Efficiency.parse(bkg_eff_raw[0], "background_efficiencies[0]"),
        2: _Efficiency.parse(bkg_eff_raw[1], "background_efficiencies[1]"),
    }
    data = {1: (x1, t1), 2: (x2, t2)}

    def lam_s(s: dict, i: int) -> float:
        _, t = data[i]
        rate = s["rho"] * s["r2"] if i == 1 else s["r2"]
        return rate * t

    def lam_b(s: dict, i: int) -> float:
        _, t = data[i]
        return s[f"rb{i}"] * t

    def eps_value(s: dict, eff: _Efficiency, key: str) -> float:
        return s[key] if eff.is_stochastic else eff.fixed

    def channel_terms(s: dict, i: int) -> float:
        x, _ = data[i]
        split = s[f"s{i}"]
        return (
            _pois_logpmf(s[f"nS{i}"], lam_s(s, i))
            + _pois_logpmf(s[f"nB{i}"], lam_b(s, i))
            + _binom_logpmf(split, s[f"nS{i}"], eps_value(s, eff_s[i], f"epsS{i}"))
            + _binom_logpmf(x - split, s[f"nB{i}"], eps_value(s, eff_b[i], f"epsB{i}"))
        )

    def ld_rho(s: dict) -> float:
        return _gamma_logprior(s["rho"], prho) + _pois_logpmf(s["nS1"], lam_s(s, 1))

    def ld_r2(s: dict) -> float:
        return (
            _gamma_logprior(s["r2"], pr2)
            + _pois_logpmf(s["nS1"], lam_s(s, 1))
            + _pois_logpmf(s["nS2"], lam_s(s, 2))
        )

    nodes = [_Node("rho", "pos", ld_rho), _Node("r2", "pos", ld_r2)]
    deterministics: dict[str, Callable[[dict], float]] = {
        "r1": lambda s: s["rho"] * s["r2"],
        "lambda1": lambda s: lam_s(s, 1),
        "lambda2": lambda s: lam_s(s, 2),
    }
    initial = {}

    for i in (1, 2):
        x, t = data[i]

        def ld_rb(s: dict, i=i) -> float:
            return _gamma_logprior(s[f"rb{i}"], prb[i]) + _pois_logpmf(s[f"nB{i}"], lam_b(s, i))

        def ld_ns(s: dict, i=i) -> float:
            return _pois_logpmf(s[f"nS{i}"], lam_s(s, i)) + _binom_logpmf(
                s[f"s{i}"], s[f"nS{i}"], eps_value(s, eff_s[i], f"epsS{i}")
            )

        def ld_nb(s: dict, i=i, x=x) -> float:
            return _pois_logpmf(s[f"nB{i}"], lam_b(s, i)) + _binom_logpmf(
                x - s[f"s{i}"], s[f"nB{i}"], eps_value(s, eff_b[i], f"epsB{i}")
            )

        def ld_alloc(s: dict, i=i) -> float:
            return channel_terms(s, i)

        nodes.append(_Node(f"rb{i}", "pos", ld_rb))
        nodes.append(_Node(f"nS{i}", "int", ld_ns, lower=lambda s, i=i: s[f"s{i}"]))
        nodes.append(_Node(f"nB{i}", "int", ld_nb, lower=lambda s, i=i, x=x: x - s[f"s{i}"]))
        nodes.append(
            _Node(
                f"s{i}",
                "alloc",
                ld_alloc,
                alloc_names=(f"s{i}", f"nS{i}", f"nB{i}"),
                alloc_total=x,
            )
        )
        prior_b = prb[i]
        initial[f"rb{i}"] = prior_b.alpha / prior_b.beta
        initial[f"s{i}"] = x
        initial[f"nS{i}"] = _latent_start(x, eff_s[i])
        initial[f"nB{i}"] = 0

        for label, eff, observed_of in (
            (f"epsS{i}", eff_s[i], lambda s, i=i: (s[f"s{i}"], s[f"nS{i}"])),
            (f"epsB{i}", eff_b[i], lambda s, i=i, x=x: (x - s[f"s{i}"], s[f"nB{i}"])),
        ):
            if eff.is_stochastic:

                def ld_eps(s: dict, eff=eff, observed_of=observed_of, label=label) -> float:
                    e = s[label]
                    obs, n_latent = observed_of(s)
                    return (
                        (eff.a - 1.0) * math.log(e)
                        + (eff.b - 1.0) * math.log1p(-e)
                        + _binom_logpmf(obs, n_latent, e)
                    )

                nodes.append(_Node(label, "unit", ld_eps))
                initial[label] = eff.initial()
            else:
                deterministics[label] = lambda s, eff=eff: eff.fixed

    r2_init = (x2 / eff_s[2].initial() + 1.0) / t2
    initial["r2"] = r2_init
    initial["rho"] = ((x1 / eff_s[1].initial() + 1.0) / t1) / r2_init
    return Model(spec, nodes, deterministics, initial)


class _NodeRuntime:
    """Per-run mutable sampler state for one node."""

    __slots__ = ("log_step", "width", "window_proposed", "window_accepted", "proposed", "accepted")

    def __init__(self, node: _Node) -> None:
        self.log_step = math.log(node.initial_step)
        self.width = 2
        self.window_proposed = 0
        self.window_accepted = 0
        self.proposed = 0
        self.accepted = 0

    def record(self, accepted: bool, adapting: bool) -> None:
        self.proposed += 1
        self.accepted += accepted
        if adapting:
            self.window_proposed += 1
            self.window_accepted += accepted
            if self.window_proposed >= _ADAPT_WINDOW:
                rate = self.window_accepted / self.window_proposed
                self.log_step += _ADAPT_GAIN * (rate - _TARGET_ACCEPT)
                self.width = max(1, round(math.exp(self.log_step)))
                self.window_proposed = 0
                self.window_accepted = 0

    @property
    def step(self) -> float:
        return math.exp(self.log_step)


def _step_node(node: _Node, rt: _NodeRuntime, state: dict, rng, adapting: bool) -> None:
    if node.kind == "pos":
        v = state[node.name]
        z = math.log(v)
        z_new = z + rt.step * rng.standard_normal()
        v_new = math.exp(z_new)
        if v_new <= 0.0 or math.isinf(v_new):
            rt.record(False, adapting)
            return
        cur = node.logdensity(state) + z
        state[node.name] = v_new
        new = node.logdensity(state) + z_new
        if math.log(rng.random() or 1e-300) < new - cur:
            rt.record(True, adapting)
        else:
            state[node.name] = v
            rt.record(False, adapting)
    elif node.kind == "unit":
        v = state[node.name]
        z = math.log(v) - math.log1p(-v)
        z_new = z + rt.step * rng.standard_normal()
        v_new = 1.0 / (1.0 + math.exp(-z_new))
        if not (0.0 < v_new < 1.0):
            rt.record(False, adapting)
            return
        cur = node.logdensity(state) + math.log(v) + math.log1p(-v)
        state[node.name] = v_new
        new = node.logdensity(state) + math.log(v_new) + math.log1p(-v_new)
        if math.log(rng.random() or 1e-300) < new - cur:
            rt.record(True, adapting)
        else:
            state[node.name] = v
            rt.record(False, adapting)
    elif node.kind == "int":
        v = state[node.name]
        j = int(rng.integers(1, rt.width + 1))
        if rng.random() < 0.5:
            j = -j
        v_new = v + j
        if v_new < node.lower(state):
            rt.record(False, adapting)
            return
        cur = node.logdensity(state)
        state[node.name] = v_new
        new = node.logdensity(state)
        if math.log(rng.random() or 1e-300) < new - cur:
            rt.record(True, adapting)
        else:
            state[node.name] = v
            rt.record(False, adapting)
    else:  # alloc: transfer counts between the signal and background legs
        s_name, ns_name, nb_name = node.alloc_names
        s, ns, nb = state[s_name], state[ns_name], state[nb_name]
        j = int(rng.integers(1, rt.width + 1))
        if rng.random() < 0.5:
            j = -j
        s_new, ns_new, nb_new = s + j, ns + j, nb - j
        if s_new < 0 or s_new > node.alloc_total or ns_new < 0 or nb_new < 0:
            rt.record(False, adapting)
            return
        cur = node.logdensity(state)
        state[s_name], state[ns_name], state[nb_name] = s_new, ns_new, nb_new
        new = node.logdensity(state)
        if math.log(rng.random() or 1e-300) < new - cur:
            rt.record(True, adapting)
        else:
            state[s_name], state[ns_name], state[nb_name] = s, ns, nb
            rt.record(False, adapting)


def run_chain(model: Model, n_iter: int, burn_in: int | None = None, seed=None) -> Chain:
    """Run one chain: burn-in with step adaptation, then n_iter recorded sweeps.

    burn_in defaults to max(1000, n_iter // 100); that is deliberately longer
    than the reference scripts' 100 updates, which rely on a more efficient
    sampler.  Raises InitializationError if any full conditional is non-finite
    at the initial state.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if burn_in is None:
        burn_in = max(1000, n_iter // 100)
    burn_in = int(burn_in)
    rng = np.random.default_rng(seed)
    state = model.init_state()
    for node in model.nodes:
        value = node.logdensity(state)
        if not math.isfinite(value):
            raise InitializationError(
                f"non-finite log density ({value}) at node {node.name!r} "
                f"with initial state {state}"
            )
    runtimes = [_NodeRuntime(node) for node in model.nodes]
    monitor = model.spec.monitor
    storage = {name: np.empty(int(n_iter)) for name in monitor}
    pairs = list(zip(model.nodes, runtimes))
    for it in range(burn_in + int(n_iter)):
        adapting = it < burn_in
        for node, rt in pairs:
            _step_node(node, rt, state, rng, adapting)
        if not adapting:
            k = it - burn_in
            for name in monitor:
                storage[name][k] = model.value_of(state, name)
    acceptance = {
        node.name: (rt.accepted / rt.proposed if rt.proposed else 0.0)
        for node, rt in pairs
    }
    logger.info(
        "chain finished: variant=%s n_iter=%d burn_in=%d acceptance=%s",
        model.spec.variant,
        n_iter,
        burn_in,
        {k: round(v, 3) for k, v in acceptance.items()},
    )
    return Chain(
        monitored=storage, n_iter=int(n_iter), burn_in=burn_in, seed=seed, acceptance=acceptance
    )


def _batch_se(draws: np.ndarray, n_batches: int = 20) -> float:
    n = draws.size
    if n < n_batches:
        return float("nan")
    batch_len = n // n_batches
    trimmed = draws[: batch_len * n_batches]
    means = trimmed.reshape(n_batches, batch_len).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(n_batches))


def summarize_chain(chain: Chain) -> ChainSummary:
    """Mean, sd, naive SE, batch-means SE and quantiles per monitored variable."""
    if not chain.monitored or any(v.size == 0 for v in chain.monitored.values()):
        raise ValueError("chain is empty")
    variables = {}
    for name, draws in chain.monitored.items():
        n = draws.size
        sd = float(np.std(draws, ddof=1)) if n > 1 else 0.0
        qs = np.quantile(draws, [level / 100.0 for level in QUANTILE_LEVELS])
        variables[name] = VariableSummary(
            mean=float(draws.mean()),
            sd=sd,
            naive_se=sd / math.sqrt(n),
            batch_se=_batch_se(draws),
            quantiles=dict(zip(QUANTILE_LEVELS, map(float, qs))),
        )
    return ChainSummary(
        variables=variables, n_iter=chain.n_iter, burn_in=chain.burn_in, seed=chain.seed
    )


def _sig(value: float, digits: int = 4) -> str:
    if not math.isfinite(value):
        return str(value)
    return f"{value:.{digits}g}"


def format_chain_summary(summary: ChainSummary) -> str:
    """Aligned text table in the style of coda's print method for one chain."""
    first = summary.burn_in + 1
    last = summary.burn_in + summary.n_iter
    lines = [
        f"Iterations = {first}:{last}",
        "Thinning interval = 1",
        "Number of chains = 1",
        f"Sample size per chain = {summary.n_iter}",
        "",
        "1. Empirical mean and standard deviation for each variable,",
        "   plus standard error of the mean:",
        "",
    ]
    headers = ["", "Mean", "SD", "Naive SE", "Time-series SE"]
    rows = [
        [
            name,
            _sig(v.mean),
            _sig(v.sd),
            _sig(v.naive_se),
            _sig(v.batch_se),
        ]
        for name, v in summary.variables.items()
    ]
    lines.extend(_align(headers, rows))
    lines.extend(["", "2. Quantiles for each variable:", ""])
    headers = [""] + [f"{level:g}%" for level in QUANTILE_LEVELS]
    rows = [
        [name] + [_sig(v.quantiles[level]) for level in QUANTILE_LEVELS]
        for name, v in summary.variables.items()
    ]
    lines.extend(_align(headers, rows))
    lines.append("")
    return "\n".join(lines)


def _align(headers: list[str], rows: list[list[str]]) -> list[str]:
    table = [headers] + rows
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    out = []
    for row in table:
        cells = [
            row[0].ljust(widths[0]) if col == 0 else row[col].rjust(widths[col])
            for col in range(len(row))
        ]
        out.append(" ".join(cells).rstrip())
    return out


def chain_to_csv(chain: Chain, fileobj) -> None:
    """Write draws as CSV: iteration column plus one column per variable."""
    names = list(chain.monitored)
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["iteration"] + names)
    columns = [chain.monitored[name] for name in names]
    for i in range(chain.n_iter):
        writer.writerow([i + 1] + [repr(float(col[i])) for col in columns])
