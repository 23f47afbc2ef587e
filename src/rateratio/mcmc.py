"""Exact Gibbs sampling for a fixed family of counting models.

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

Every variant is conditionally conjugate, so each node is redrawn exactly
from its full conditional (Gelfand & Smith 1990), as BUGS-family samplers
do: rates by Gamma-Poisson conjugacy, latent produced counts by Poisson
thinning, efficiencies by Beta-binomial conjugacy, and in B_EFF_BKG the
split s_i together with nS_i and nB_i as one block.  Model A's rates are
independent a posteriori and drawn iid.

Flat priors are encoded as Gamma(1, 1e-6), the conventional proper stand-in
used by BUGS-family samplers; closed-form modules keep the exact improper
limit instead.
"""

from __future__ import annotations

import csv
import logging
import math
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Literal

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
    "build_model",
    "run_chain",
    "summarize_chain",
    "format_chain_summary",
    "chain_to_csv",
]


logger = logging.getLogger(__name__)

MCMC_FLAT_PRIOR = GammaParams(1.0, 1e-6)

QUANTILE_LEVELS = (2.5, 25.0, 50.0, 75.0, 97.5)

Variant = Literal["A", "B", "B_EFF", "B_EFF_BKG"]

_REQUIRED_PRIORS: dict[str, tuple[str, ...]] = {
    "A": ("r1", "r2"),
    "B": ("rho", "r2"),
    "B_EFF": ("rho", "r2"),
    "B_EFF_BKG": ("rho", "r2", "rb1", "rb2"),
}

_RATES = ("r1", "r2", "rho", "lambda1", "lambda2")
# the variables that build_model gives each variant: what a spec may monitor
_VARIABLES: dict[str, tuple[str, ...]] = {
    "A": _RATES,
    "B": _RATES,
    "B_EFF": _RATES + ("n1", "n2", "eps1", "eps2"),
    "B_EFF_BKG": _RATES
    + ("rb1", "rb2", "s1", "s2", "nS1", "nS2", "nB1", "nB2", "epsS1", "epsS2", "epsB1", "epsB2"),
}

# "data" holds data1 and data2; ModelSpec takes the other keys of a JSON spec as they are
_JSON_KEYS = {"variant", "data", "priors", "efficiencies", "background_efficiencies", "monitor"}


def _number(raw, path: str) -> float:
    """raw as a float, if it is a finite number: json.loads also reads NaN, Infinity and huge ints."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and abs(raw) <= sys.float_info.max:
        return float(raw)
    raise ValueError(f"{path}: must be a finite number")


def _numbers(raw, keys: tuple[str, ...], path: str, expected: str) -> list[float]:
    """The values of a JSON object that holds exactly the given keys, each a finite number."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected {expected}")
    extra = set(raw) - set(keys)
    if extra:
        raise ValueError(f"{path}: unknown keys {sorted(extra)}")
    for key in keys:
        if key not in raw:
            raise ValueError(f"{path}.{key}: missing")
    return [_number(raw[key], f"{path}.{key}") for key in keys]


def _prior(raw, path: str) -> GammaParams:
    """A proper Gamma prior, given as GammaParams, {"alpha": a, "beta": b} or "flat"."""
    if raw == "flat":
        return MCMC_FLAT_PRIOR
    if isinstance(raw, dict):
        values = _numbers(raw, ("alpha", "beta"), path, '{"alpha": ..., "beta": ...} or "flat"')
        for key, value in zip(("alpha", "beta"), values):
            if value <= 0:
                raise ValueError(f'{path}.{key}: must be > 0 (use "flat" for a flat prior)')
        raw = GammaParams(*values)
    if not isinstance(raw, GammaParams):
        raise ValueError(f'{path}: expected GammaParams, {{"alpha": ..., "beta": ...}} or "flat"')
    if not raw.is_proper:
        raise ValueError(
            f"{path}: improper (beta == 0); samplers need a proper "
            "prior — use MCMC_FLAT_PRIOR = Gamma(1, 1e-6) for a flat prior"
        )
    return raw


@dataclass(frozen=True)
class _Efficiency:
    """Fixed value or Beta(a, b) prior for one efficiency."""

    fixed: float | None
    a: float | None = None
    b: float | None = None

    @classmethod
    def parse(cls, raw, path: str) -> "_Efficiency":
        """A fixed value in (0, 1], or Beta parameters as an (a, b) pair or {"a": a, "b": b}."""
        if isinstance(raw, dict):
            raw = _numbers(raw, ("a", "b"), path, '{"a": ..., "b": ...}')
        if isinstance(raw, (tuple, list)) and len(raw) == 2:
            a, b = (_number(value, f"{path}.{key}") for key, value in zip("ab", raw))
            if a <= 0 or b <= 0:
                raise ValueError(f"{path}: Beta parameters must be > 0, got ({a}, {b})")
            # past the float range a / (a + b) and NumPy's Beta draws both read 0
            if not math.isfinite(a + b):
                raise ValueError(f"{path}: Beta parameters sum past the float range, got ({a}, {b})")
            return cls(fixed=None, a=a, b=b)
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ValueError(f"{path}: must be a number in (0, 1] or Beta parameters (a, b)")
        if not 0.0 < _number(raw, path) <= 1.0:
            raise ValueError(f"{path}: fixed efficiency must be in (0, 1], got {raw}")
        return cls(fixed=float(raw))

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
    proper Gamma distributions: GammaParams, {"alpha": a, "beta": b}, or
    "flat" for MCMC_FLAT_PRIOR.  efficiencies (signal) and
    background_efficiencies are each a pair whose entries are a fixed value
    in (0, 1] or Beta parameters, an (a, b) pair or {"a": a, "b": b}.
    monitor names variables of the variant's model.  Every error is a
    ValueError that starts with the path of the field at fault.
    """

    variant: Variant
    data1: CountObservation
    data2: CountObservation
    priors: Mapping[str, GammaParams] = field(default_factory=dict)
    efficiencies: tuple | None = None
    background_efficiencies: tuple | None = None
    monitor: tuple[str, ...] = ("r1", "r2", "rho")
    # the parsed efficiency pairs; absent efficiencies are 1
    _signal: tuple[_Efficiency, _Efficiency] = field(init=False, repr=False, compare=False)
    _background: tuple[_Efficiency, _Efficiency] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.variant, str) or self.variant not in _REQUIRED_PRIORS:
            raise ValueError(
                f"variant: must be one of {', '.join(_REQUIRED_PRIORS)}, got {self.variant!r}"
            )
        if not isinstance(self.priors, Mapping):
            raise ValueError("priors: expected an object mapping node names to priors")
        required = _REQUIRED_PRIORS[self.variant]
        missing = [name for name in required if name not in self.priors]
        if missing:
            raise ValueError(f"priors: missing priors for {missing}; required: {list(required)}")
        unknown = [name for name in self.priors if name not in required]
        if unknown:
            raise ValueError(
                f"priors: unknown prior names {unknown}; this variant uses {list(required)}"
            )
        priors = {name: _prior(raw, f"priors.{name}") for name, raw in self.priors.items()}
        object.__setattr__(self, "priors", priors)
        if self.variant in ("A", "B") and self.efficiencies is not None:
            raise ValueError(f"efficiencies: variant {self.variant} takes none")
        if self.variant == "B_EFF" and self.efficiencies is None:
            raise ValueError("efficiencies: variant B_EFF requires a pair (eps1, eps2)")
        if self.variant != "B_EFF_BKG" and self.background_efficiencies is not None:
            raise ValueError("background_efficiencies: apply to variant B_EFF_BKG only")
        for name in ("efficiencies", "background_efficiencies"):
            pair = (1.0, 1.0) if getattr(self, name) is None else getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"{name}: expected a pair, one per channel")
            parsed = tuple(_Efficiency.parse(raw, f"{name}[{i}]") for i, raw in enumerate(pair))
            object.__setattr__(self, "_signal" if name == "efficiencies" else "_background", parsed)
        eps1 = self._flat_rho_eps1()
        if eps1 is not None and eps1.a <= 1:
            raise ValueError(
                f"efficiencies[0]: Beta({eps1.a:g}, {eps1.b:g}) under a flat rho prior leaves the "
                "posterior improper (eps1 | x ~ Beta(a - 1, b)); it needs a > 1"
            )
        if not isinstance(self.monitor, (tuple, list)) or not self.monitor:
            raise ValueError("monitor: expected a non-empty list of variable names")
        for name in self.monitor:
            if not isinstance(name, str) or name not in _VARIABLES[self.variant]:
                raise ValueError(
                    f"monitor: variant {self.variant} has no variable {name!r}; "
                    f"it has {list(_VARIABLES[self.variant])}"
                )
        object.__setattr__(self, "monitor", tuple(self.monitor))

    def _flat_rho_eps1(self) -> _Efficiency | None:
        """efficiencies[0] where it is a Beta(a, b) under a flat rho prior in B_EFF, else None.

        The flat prior integrates to a factor 1/eps1, so eps1 | x ~ Beta(a - 1, b),
        and rho's posterior k-th moment, through E[eps1^-k], is finite only for a > k + 1.
        """
        eps1 = self._signal[0]
        flat_rho = self.variant == "B_EFF" and self.priors["rho"] == MCMC_FLAT_PRIOR
        return eps1 if flat_rho and eps1.is_stochastic else None

    def warning(self) -> str | None:
        """Why rho's posterior has no finite mean or sd, though it is proper; None if it has both."""
        eps1 = self._flat_rho_eps1()
        if eps1 is None or eps1.a > 3:
            return None
        moment = "mean" if eps1.a <= 2 else "sd"
        return (
            f"efficiencies[0]: Beta({eps1.a:g}, {eps1.b:g}) under a flat rho prior "
            f"gives rho an infinite posterior {moment}"
        )

    @classmethod
    def from_json(cls, payload) -> "ModelSpec":
        """The spec of a JSON document, as json.loads reads it.

        Every error is a ValueError "spec <field path>: <reason>".
        """
        try:
            if not isinstance(payload, dict):
                raise ValueError("$: top level must be an object")
            extra = set(payload) - _JSON_KEYS
            if extra:
                raise ValueError(f"$: unknown keys {sorted(extra)}")
            keys = ("x1", "T1", "x2", "T2")
            values = _numbers(payload.get("data"), keys, "data", "an object with x1, T1, x2, T2")
            data = dict(zip(keys, values))
            for key in ("x1", "x2"):
                if data[key] < 0 or data[key] != int(data[key]):
                    raise ValueError(f"data.{key}: must be a non-negative integer")
            for key in ("T1", "T2"):
                if data[key] <= 0:
                    raise ValueError(f"data.{key}: must be > 0")
            return cls(
                variant=payload.get("variant"),
                data1=CountObservation(int(data["x1"]), data["T1"]),
                data2=CountObservation(int(data["x2"]), data["T2"]),
                **{key: value for key, value in payload.items() if key not in ("variant", "data")},
            )
        except ValueError as exc:
            raise ValueError(f"spec {exc}") from None


@dataclass(frozen=True)
class _Node:
    """One block of the state and the exact draw from its full conditional.

    update(state, rng) redraws the block in place.  A rate whose Gamma
    conditional has a constant shape also carries that shape and its rate as
    a function of the state: run_chain then draws the standard-Gamma variates
    of every sweep in one call, and a sweep only divides.
    """

    name: str
    update: Callable[[dict, np.random.Generator], None]
    shape: float | None = None
    rate: Callable[[dict], float] | None = None


@dataclass(frozen=True)
class Model:
    """A built model: nodes in sweep order and the initial state.

    The state holds every variable of the model that a node draws, and every
    efficiency: a fixed one is a constant that no node redraws.  The rates
    that no node draws are read out of the recorded draws (_readout).
    """

    spec: ModelSpec
    nodes: tuple[_Node, ...]
    initial: Mapping[str, float]

    def init_state(self) -> dict:
        return dict(self.initial)


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
    20 batches, an autocorrelation-aware estimate, and NaN for fewer than
    20 draws (null in as_dict); quantiles use inclusive linear interpolation
    on the sorted draws (numpy's default, R type 7).
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
                    "batch_se": v.batch_se if math.isfinite(v.batch_se) else None,
                    "quantiles": {f"{level:g}": q for level, q in v.quantiles.items()},
                }
                for name, v in self.variables.items()
            },
        }


def _latent_start(x: int, eff: _Efficiency) -> int:
    """Initial produced count for x observed at efficiency eff: about x / eps, never below x."""
    return max(x, round(x / eff.initial()))


def _gamma_node(name: str, shape, rate: Callable[[dict], float]) -> _Node:
    """name | rest ~ Gamma(shape, rate(state)): the conjugate update of a Poisson rate.

    shape is a number, or a function of the state when latent counts enter it.
    """
    shape_of = shape if callable(shape) else (lambda state: shape)

    def update(state: dict, rng: np.random.Generator) -> None:
        state[name] = rng.standard_gamma(shape_of(state)) / rate(state)

    return _Node(name, update, None if callable(shape) else float(shape), rate)


def _ratio_nodes(priors: Mapping[str, GammaParams], t1: float, t2: float, n1, n2) -> list[_Node]:
    """rho and r2 of the B family, given the signal counts produced in each channel.

    rho | r2 ~ Gamma(a_rho + n1, b_rho + r2*T1) and
    r2 | rho ~ Gamma(a_2 + n1 + n2, b_2 + rho*T1 + T2).  n1 and n2 are the
    observed counts in Model B, else the names of latent counts in the state.
    """
    prho, pr2 = priors["rho"], priors["r2"]

    def rho_rate(s: dict) -> float:
        return prho.beta + s["r2"] * t1

    def r2_rate(s: dict) -> float:
        return pr2.beta + s["rho"] * t1 + t2

    if isinstance(n1, str):
        return [
            _gamma_node("rho", lambda s: prho.alpha + s[n1], rho_rate),
            _gamma_node("r2", lambda s: pr2.alpha + s[n1] + s[n2], r2_rate),
        ]
    return [
        _gamma_node("rho", prho.alpha + n1, rho_rate),
        _gamma_node("r2", pr2.alpha + n1 + n2, r2_rate),
    ]


def _thinning_node(name: str, x: int, expected, eps: str) -> _Node:
    """n | rest = x + Pois(lambda*(1 - eps)): the produced count behind x seen at state[eps].

    By Poisson thinning the produced counts that went unseen are independent
    of the x that were seen.
    """

    def update(state: dict, rng: np.random.Generator) -> None:
        state[name] = x + rng.poisson(expected(state) * (1.0 - state[eps]))

    return _Node(name, update)


def _efficiency_node(name: str, eff: _Efficiency, observed, produced: str) -> _Node:
    """eps | rest ~ Beta(a + k, b + n - k) when k of the n = state[produced] counts were seen."""

    def update(state: dict, rng: np.random.Generator) -> None:
        k = observed(state)
        state[name] = rng.beta(eff.a + k, eff.b + state[produced] - k)

    return _Node(name, update)


def _split_node(i: int, x: int, t: float, signal, eps_s: str, eps_b: str) -> _Node:
    """(s_i, nS_i, nB_i) | rest as one block, named after the split s_i.

    The seen signal and background counts are independent Poisson variates
    with means lambda_S*epsS and lambda_B*epsB = rb_i*T_i*epsB, so given their
    sum x the split is s ~ Binom(x, lambda_S*epsS / (lambda_S*epsS + lambda_B*epsB)).
    The unseen parts of each leg are Poisson with means lambda*(1 - eps).
    The efficiencies are read from the state under the keys eps_s and eps_b.
    """
    s_key, ns_key, nb_key, rb_key = f"s{i}", f"nS{i}", f"nB{i}", f"rb{i}"

    def update(state: dict, rng: np.random.Generator) -> None:
        lam_s, lam_b = signal(state), state[rb_key] * t
        es, eb = state[eps_s], state[eps_b]
        seen_s, seen_b = lam_s * es, lam_b * eb
        # with x = 0 there is nothing to split, and both means may have underflowed to 0
        split = rng.binomial(x, seen_s / (seen_s + seen_b)) if x else 0
        state[s_key] = split
        state[ns_key] = split + rng.poisson(lam_s * (1.0 - es))
        state[nb_key] = x - split + rng.poisson(lam_b * (1.0 - eb))

    return _Node(s_key, update)


def build_model(spec: ModelSpec) -> Model:
    """Assemble nodes, conditionals and initial state."""
    x1, t1 = spec.data1.x, spec.data1.T
    x2, t2 = spec.data2.x, spec.data2.T
    priors = spec.priors

    if spec.variant == "A":
        pr1, pr2 = priors["r1"], priors["r2"]
        # the rates are independent a posteriori: neither conditional reads the state
        nodes = [
            _gamma_node("r1", pr1.alpha + x1, lambda s: pr1.beta + t1),
            _gamma_node("r2", pr2.alpha + x2, lambda s: pr2.beta + t2),
        ]
        initial = {"r1": (x1 + 1.0) / t1, "r2": (x2 + 1.0) / t2}
        return Model(spec, tuple(nodes), initial)

    expected = {1: lambda s: s["rho"] * s["r2"] * t1, 2: lambda s: s["r2"] * t2}
    # r2 and rho start near their posterior: the counts over efficiency-scaled times
    eps1, eps2 = (eff.initial() for eff in spec._signal)
    r2_start = (x2 / eps2 + 1.0) / t2
    initial: dict[str, float] = {"r2": r2_start, "rho": ((x1 / eps1 + 1.0) / t1) / r2_start}

    if spec.variant == "B":
        return Model(spec, tuple(_ratio_nodes(priors, t1, t2, x1, x2)), initial)

    if spec.variant == "B_EFF":
        effs = dict(enumerate(spec._signal, start=1))
        data = {1: x1, 2: x2}
        nodes = _ratio_nodes(priors, t1, t2, "n1", "n2")
        nodes += [_thinning_node(f"n{i}", data[i], expected[i], f"eps{i}") for i in (1, 2)]
        # latent counts start near their posterior, x_i / eps_i, as r2 and rho do
        initial.update({f"n{i}": _latent_start(data[i], effs[i]) for i in (1, 2)})
        for i in (1, 2):
            eff, label = effs[i], f"eps{i}"
            initial[label] = eff.initial()
            if eff.is_stochastic:
                nodes.append(_efficiency_node(label, eff, lambda s, x=data[i]: x, f"n{i}"))
        return Model(spec, tuple(nodes), initial)

    # B_EFF_BKG
    eff_s = dict(enumerate(spec._signal, start=1))
    eff_b = dict(enumerate(spec._background, start=1))
    nodes = _ratio_nodes(priors, t1, t2, "nS1", "nS2")

    for i, x, t in ((1, x1, t1), (2, x2, t2)):
        prior_b = priors[f"rb{i}"]
        rb, s_key, ns_key, nb_key = f"rb{i}", f"s{i}", f"nS{i}", f"nB{i}"
        nodes.append(
            _gamma_node(
                rb,
                lambda s, nb_key=nb_key, a=prior_b.alpha: a + s[nb_key],
                lambda s, rate=prior_b.beta + t: rate,
            )
        )
        nodes.append(_split_node(i, x, t, expected[i], f"epsS{i}", f"epsB{i}"))
        initial[rb] = prior_b.alpha / prior_b.beta
        initial[s_key] = x
        initial[ns_key] = _latent_start(x, eff_s[i])
        initial[nb_key] = 0

        for label, eff, observed, produced in (
            (f"epsS{i}", eff_s[i], lambda s, k=s_key: s[k], ns_key),
            (f"epsB{i}", eff_b[i], lambda s, k=s_key, x=x: x - s[k], nb_key),
        ):
            initial[label] = eff.initial()
            if eff.is_stochastic:
                nodes.append(_efficiency_node(label, eff, observed, produced))
    return Model(spec, tuple(nodes), initial)


def _step(node: _Node, rng: np.random.Generator, sweeps: int) -> Callable[[dict], None]:
    """The update of one node, bound to rng, for a chain of the given number of sweeps."""
    if node.shape is None:
        return lambda state: node.update(state, rng)
    # a memoryview yields Python floats without a list of them all in memory
    gammas = iter(memoryview(rng.standard_gamma(node.shape, sweeps)))
    name, rate = node.name, node.rate

    def step(state: dict) -> None:
        state[name] = next(gammas) / rate(state)

    return step


def run_chain(model: Model, n_iter: int, burn_in: int | None = None, seed=None) -> Chain:
    """Run one chain of exact Gibbs sweeps: burn_in discarded, then n_iter recorded.

    A sweep redraws each node in turn from its full conditional, so every
    update is accepted and nothing is tuned.  Model A's conditionals read
    nothing from the state, so its n_iter draws are iid and drawn at once.
    burn_in defaults to max(1000, n_iter // 100), far longer than the
    reference scripts' 100 updates, so that latent counts forget their start.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if burn_in is None:
        burn_in = max(1000, n_iter // 100)
    burn_in, n_iter = int(burn_in), int(n_iter)
    rng = np.random.default_rng(seed)
    state = model.init_state()
    monitor = model.spec.monitor
    if model.spec.variant == "A":
        draws = {
            node.name: rng.standard_gamma(node.shape, n_iter) / node.rate(state)
            for node in model.nodes
        }
    else:
        steps = [_step(node, rng, burn_in + n_iter) for node in model.nodes]
        columns = [
            (name, np.empty(n_iter))
            for name in state
            if name in monitor or name in ("r1", "r2", "rho")
        ]
        for _ in range(burn_in):
            for step in steps:
                step(state)
        for k in range(n_iter):
            for step in steps:
                step(state)
            for name, column in columns:
                column[k] = state[name]
        draws = dict(columns)
    monitored = {name: _readout(name, draws, model.spec) for name in monitor}
    logger.info(
        "chain finished: variant=%s n_iter=%d burn_in=%d", model.spec.variant, n_iter, burn_in
    )
    return Chain(
        monitored=monitored,
        n_iter=n_iter,
        burn_in=burn_in,
        seed=seed,
        acceptance={node.name: 1.0 for node in model.nodes},
    )


def _readout(name: str, draws: Mapping[str, np.ndarray], spec: ModelSpec) -> np.ndarray:
    """The draws of a monitored variable, read out of the recorded rates where no node draws it.

    r1 = rho * r2 in the B family, rho = r1 / r2 in Model A, and lambda_i = r_i * T_i.
    """
    if name in draws:
        return draws[name]
    if name == "r1":
        return draws["rho"] * draws["r2"]
    if name == "rho":
        return draws["r1"] / draws["r2"]
    if name == "lambda1":
        return _readout("r1", draws, spec) * spec.data1.T
    return draws["r2"] * spec.data2.T


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
    """Write draws as CSV: iteration column plus one column per variable.

    Values are written as repr(float), the shortest string that reads back
    to the same float.
    """
    names = list(chain.monitored)
    csv.writer(fileobj, lineterminator="\n").writerow(["iteration"] + names)
    columns = [memoryview(np.ascontiguousarray(chain.monitored[name], dtype=float)) for name in names]
    row = "%d" + ",%r" * len(columns) + "\n"
    fileobj.writelines(row % values for values in zip(range(1, chain.n_iter + 1), *columns))
