"""Exact posterior sampling for a fixed family of counting models: iid draws or Gibbs sweeps.

Four variants of one directed acyclic model are supported:

  A          x_i ~ Pois(r_i * T_i) with independent priors on r1, r2;
             rho = r1/r2 is deduced.
  B          rho and r2 carry the priors, r1 = rho * r2 is deterministic,
             so the ratio is inferred directly.
  B_EFF      as B, but the produced Poisson counts n_i are binomially
             thinned before they are seen: x_i ~ Binom(n_i, eps_i).
  B_EFF_BKG  as B_EFF with one background Poisson process per channel:
             produced counts nS_i ~ Pois(r_i * T_i) and
             nB_i ~ Pois(rb_i * T_i), latent observed-signal split s_i,
             observed x_i = s_i + (x_i - s_i) with
             s_i ~ Binom(nS_i, epsS_i) and x_i - s_i ~ Binom(nB_i, epsB_i).

Each Poisson leg (the signal or the background of one channel) is seen at
its efficiency.  A fixed efficiency eps thins Pois(r * T) to Pois(r * eps * T),
so it only rescales the leg's exposure: Model B is B_EFF with both
efficiencies fixed at 1.  Latent produced counts exist only behind Beta
efficiencies (the collapsed Gibbs of Liu, Wong & Kong 1994); each leg reads
its produced count, and a fixed efficiency, out of the draws.  Every variant
is conditionally conjugate, so each node is redrawn exactly from its full
conditional (Gelfand & Smith 1990), as BUGS-family samplers do: rates by
Gamma-Poisson conjugacy, latent produced counts by Poisson thinning,
efficiencies by Beta-binomial conjugacy, and in B_EFF_BKG the split s_i.
build_model states each node once, as one Python expression over the
state's variables and the model's named constants, and compiles all the
sweeps of a chain into one function, which keeps the state in local
variables.

Where the posterior has closed-form laws, run_chain draws it iid instead.
Model A's rates are independent a posteriori.  In the B family, under an
exponential rho prior Gamma(1, beta_rho) (which the flat stand-in is),
integrating rho, the background rates and the latent counts out leaves
Beta, Gamma and split-table laws times one factor <= 1, which a rejection
step draws (_iid_drawer).  These laws need every efficiency fixed but the
signal efficiency of channel 1, which may be Beta, and a proper r2 margin
(alpha2 + x2 > 1; alpha2 > 1 in B_EFF_BKG).  The other specs, and a spec
whose rejection step accepts fewer than half of its proposals, run Gibbs
sweeps.

Flat priors are encoded as Gamma(1, 1e-6), the conventional proper stand-in
used by BUGS-family samplers; closed-form modules keep the exact improper
limit instead.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from array import array
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import _PUBLIC
from .distributions import (
    _POISSON_LAM_MAX, GammaParams, _check_positive, _sample_sd, _size, _unit_scaled, _write_csv,
)
from .inference import CountObservation, update_rate


__all__ = list(_PUBLIC["mcmc"])


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
        try:
            raw = GammaParams(*values)
        except ValueError as exc:  # its reason starts with the field's name: "priors.r2.alpha must be ..."
            raise ValueError(f"{path}.{exc}") from None
    if not isinstance(raw, GammaParams):
        raise ValueError(f'{path}: expected GammaParams, {{"alpha": ..., "beta": ...}} or "flat"')
    if not raw.is_proper:
        raise ValueError(
            f"{path}: improper (beta == 0); samplers need a proper "
            'prior — use "flat" (MCMC_FLAT_PRIOR = Gamma(1, 1e-6)) for a flat prior'
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
            a, b = (_check_positive(key, _number(value, key)) for key, value in zip((f"{path}.a", f"{path}.b"), raw))
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
        for path, bound, what, law, need in self._flat_rho_bounds():
            if bound <= 1:
                raise ValueError(
                    f"{path}: {what} under a flat rho prior leaves the "
                    f"posterior improper ({law}); it needs {need}"
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

    def _flat_rho_bounds(self) -> list[tuple[str, float, str, str, str]]:
        """(path, bound, what, law, need) for each bound that a flat rho prior in the B family sets.

        The flat prior integrates to a factor 1/(eps1 * r2), in B_EFF_BKG
        1/(epsS1 * r2) whatever the split.  So a Beta(a, b) signal efficiency
        in channel 1 gives eps1 | x ~ Beta(a - 1, b), and in B and B_EFF near 0
        the marginal of r2 goes as r2^(alpha2 + x2 - 2), alpha2 being the shape
        of r2's prior.  The posterior is proper only for a bound > 1, and rho's
        k-th moment, through E[eps1^-k] and E[r2^-k], is finite only for a
        bound > k + 1.  In B_EFF_BKG the background can absorb every count of
        channel 2, so r2's bound there is alpha2 > 1; it is not enforced.
        """
        if self.variant == "A" or self.priors["rho"] != MCMC_FLAT_PRIOR:
            return []
        pr2, x2, eps1 = self.priors["r2"], self.data2.x, self._signal[0]
        bounds = []
        if eps1.is_stochastic:
            name = "epsS1" if self.variant == "B_EFF_BKG" else "eps1"
            bounds.append(("efficiencies[0]", eps1.a, f"Beta({eps1.a:g}, {eps1.b:g})",
                           f"{name} | x ~ Beta(a - 1, b)", "a > 1"))
        if self.variant != "B_EFF_BKG":
            r2 = f"Gamma({pr2.alpha:g}, {pr2.beta:g}) with x2 = {x2}"
            bounds.append(("priors.r2", pr2.alpha + x2, r2,
                           "r2 | x goes as r2^(alpha2 + x2 - 2) near 0", "alpha2 + x2 > 1"))
        return bounds

    def warning(self) -> str | None:
        """Why rho's posterior has no finite mean or sd, though it is proper; None if it has both."""
        reasons = [
            f"{path}: {what} under a flat rho prior gives rho an infinite posterior "
            + ("mean" if bound <= 2 else "sd")
            for path, bound, what, _, _ in self._flat_rho_bounds()
            if bound <= 3
        ]
        return "; ".join(reasons) or None

    @classmethod
    def from_json(cls, payload) -> "ModelSpec":
        """The spec of a JSON document, as json.loads reads it.

        Every error is a ValueError that starts with "spec " and the path of the field at fault.
        """
        try:
            if not isinstance(payload, dict):
                raise ValueError("$: top level must be an object")
            extra = set(payload) - _JSON_KEYS
            if extra:
                raise ValueError(f"$: unknown keys {sorted(extra)}")
            x1, t1, x2, t2 = _numbers(payload.get("data"), ("x1", "T1", "x2", "T2"), "data",
                                      "an object with x1, T1, x2, T2")
            return cls(
                variant=payload.get("variant"),
                data1=CountObservation(_size("data.x1", x1, least=0), _check_positive("data.T1", t1)),
                data2=CountObservation(_size("data.x2", x2, least=0), _check_positive("data.T2", t2)),
                **{key: value for key, value in payload.items() if key not in ("variant", "data")},
            )
        except ValueError as exc:
            raise ValueError(f"spec {exc}") from None


# Sources hold no number, so every spec of one structure compiles the same code: compile it once
_compile_source = functools.lru_cache(maxsize=256)(compile)
# the names by which node expressions call the Generator's methods
_RNG_METHODS = {"gamma": "standard_gamma", "poisson": "poisson", "binomial": "binomial", "beta": "beta"}


@dataclass(frozen=True)
class _Node:
    """One variable of the state and the exact draw from its full conditional.

    expr is one Python expression over the state's variables, the constants
    in namespace (the model's, which name every number), the Generator rng
    and its methods gamma (standard_gamma), poisson, binomial and beta.  A
    node is batched when expr reads g_<name>, the standard-Gamma variate of a
    rate whose conditional has the constant shape shape_<name>: a chain draws
    those of every sweep in one call.  A law that refuses a state (_thin,
    _signal_share) raises its own ValueError from inside expr.
    """

    name: str
    expr: str
    namespace: dict = field(repr=False, compare=False)

    def update(self, state: Mapping, rng: np.random.Generator):
        """A draw given the rest of the state: a mapping of numbers, or of arrays of independent chains."""
        code = _compile_source(self.expr, "<node>", "eval")
        # the state's variables and the Generator's names are the locals
        scope = {**state, "rng": rng, **{alias: getattr(rng, name) for alias, name in _RNG_METHODS.items()}}
        if f"g_{self.name}" in code.co_names:
            scope[f"g_{self.name}"] = rng.standard_gamma(self.namespace[f"shape_{self.name}"])
        return eval(code, self.namespace, scope)


@dataclass(frozen=True)
class Model:
    """A built model: nodes in sweep order, the initial state, an iid drawer where one exists, and readouts.

    The state holds every variable of the model that a node draws, and every
    efficiency: a fixed one is a constant that no node redraws.  readouts is
    the one table of every variable that no sampler draws, each an expression
    over the draws that readouts[name](draws, rng) evaluates: in the B family
    r1 = rho * r2, lambda_i as its signal leg's mean, and what each leg
    registered (_leg); in Model A rho = r1 / r2 and lambda_i = r_i * t_i.
    draw(rng, n), where it is set, returns n iid posterior draws of the
    variables a node would draw, and the acceptance rate of each node it
    measured; or None, and run_chain then runs the Gibbs sweeps of the nodes:
    sweep(state, rng, burn_in, n_iter), compiled from the nodes, runs them all
    and returns the last n_iter draws of the monitored nodes and of the nodes
    that a monitored readout reads.  Model A has no nodes and no initial
    state: its drawer draws each rate from its prior's conjugate update.
    """

    spec: ModelSpec
    nodes: tuple[_Node, ...]
    initial: Mapping[str, float]
    draw: Callable[[np.random.Generator, int], tuple[dict, dict] | None] | None = None
    readouts: Mapping[str, Callable[[Mapping, np.random.Generator], np.ndarray]] = field(default_factory=dict)
    sweep: Callable[[dict, np.random.Generator, int, int], dict] | None = None

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


def _gamma_node(name: str, alpha: float, counts: tuple[str, ...], rate: str, namespace: dict) -> _Node:
    """name | rest ~ Gamma(alpha + sum(counts), rate): a Poisson rate's conjugate update.

    counts and rate are expressions.  A count that names a constant is added
    to alpha once, into the constant shape_<name>; where every count does,
    the shape is constant and the node, reading its variate g_<name>, is batched.
    """
    fixed = sum((namespace[count] for count in counts if count in namespace), alpha)
    latent = [count for count in counts if count not in namespace]
    namespace[f"shape_{name}"] = fixed
    if not latent:
        return _Node(name, f"g_{name} / ({rate})", namespace)
    return _Node(name, f"gamma(shape_{name} + ({' + '.join(latent)})) / ({rate})", namespace)


def _thin(produced: str, seen, mean, eps, rng: np.random.Generator):
    """seen + Pois(mean * (1 - eps)), as a float: a produced count given its seen part.

    The unseen counts are independent of the seen ones.  The arguments are
    numbers in a Gibbs sweep, and arrays of recorded draws in a readout.
    """
    unseen = mean * (1.0 - eps)
    # past _POISSON_LAM_MAX (about 9.22e18) NumPy draws no Poisson variate: its counts would leave int64
    peak = np.max(seen + unseen) if isinstance(unseen, np.ndarray) else seen + unseen
    if not peak <= _POISSON_LAM_MAX:
        raise ValueError(f"{produced}: the produced count's mean reads {peak:.3g}, past the int64 range")
    return seen + rng.poisson(unseen) * 1.0


def _signal_share(seen, background, i: int):
    """seen / (seen + background): the signal share of channel i's seen means, numbers or arrays as in _thin."""
    try:
        return seen / (seen + background)
    except ZeroDivisionError:
        refusal = f"s{i}: both seen means of channel {i} underflow to 0, so its split is undefined"
        raise ValueError(refusal) from None


def _leg(
    produced: str, eps: str, eff: _Efficiency, seen: str, mean: str, t: float,
    namespace: dict, initial: dict, readouts: dict,
):
    """One Poisson leg of exposure t seen at efficiency eff, as (count, exposure, nodes).

    Its rate's Gamma conditional adds the count to its shape and the exposure,
    times the rate's factor, to its rate.  seen, the leg's seen count, and
    mean, rate * t, are expressions that read the state and the recorded
    draws alike.  At a fixed eps the seen counts are Pois(rate * eps * t):
    the leg gives them over eps * t and adds no node.  At a Beta eps the leg
    gives its latent produced count over t, redrawn by a thinning node
    (_thin), and a Beta node redraws eps ~ Beta(a + seen, b + produced - seen);
    eps and the latent count enter the initial state.  The leg registers
    readouts of its produced count, thinned from the recorded draws, and of a
    fixed eps, a constant column.
    """
    initial[eps] = eff.initial()
    # the produced count's readout is also its thinning node at a Beta eps
    readouts[produced] = f"_thin({produced!r}, {seen}, {mean}, {eps}, rng)"
    if not eff.is_stochastic:
        readouts[eps] = f"np.full(r2.size, {eps})"
        return seen, eff.fixed * t, ()
    # the produced count starts near its posterior: about seen / eps, never below seen
    k = eval(_compile_source(seen, "<seen>", "eval"), namespace, initial)
    initial[produced] = max(k, round(k / eff.initial()))
    namespace[f"a_{eps}"], namespace[f"b_{eps}"] = eff.a, eff.b
    redraw_eps = f"beta(a_{eps} + ({seen}), b_{eps} + {produced} - ({seen}))"
    return produced, t, (_Node(produced, readouts[produced], namespace), _Node(eps, redraw_eps, namespace))


def _split_node(i: int, x: int, mean: str, eps_s: str, eps_b: str, namespace: dict) -> _Node:
    """s_i | rest: how many of the x_i seen counts are signal.

    The seen signal and background counts are independent Poisson variates
    with means lambda_S*epsS and lambda_B*epsB = rb_i*T_i*epsB, so given their
    sum x the split is s ~ Binom(x, lambda_S*epsS / (lambda_S*epsS + lambda_B*epsB)),
    whatever was produced unseen.  The thinning nodes of the channel's Beta
    legs follow it, and with it draw (s_i, nS_i, nB_i) as one block.  mean
    is lambda_S, and eps_s and eps_b name the efficiencies in the state.  Its
    law, _signal_share, refuses a state that has no split, as _thin does.
    """
    if not x:  # nothing to split, and both means may have underflowed to 0
        return _Node(f"s{i}", "0", namespace)
    share = f"_signal_share({mean} * {eps_s}, rb{i} * t{i} * {eps_b}, {i})"
    return _Node(f"s{i}", f"binomial(x{i}, {share})", namespace)


# the iid drawer gives way to Gibbs sweeps where fewer than this share of its proposals is accepted
_MIN_ACCEPTANCE = 0.5
# the most points in one batch of proposals, or in one split table (a larger one leaves Gibbs sweeps)
_MAX_POINTS = 2**20


def _log_predictive(alpha: float, beta: float, exposure: float, x: int) -> np.ndarray:
    """log P(k), up to a constant, for k = 0..x: the count of a leg whose rate is Gamma(alpha, beta).

    That is NB(k; alpha, p) ∝ Gamma(alpha + k) / k! * p^k with
    p = exposure / (beta + exposure), summed from the ratio of consecutive
    terms, (alpha + k) / (k + 1) * p.
    """
    k = np.arange(x)
    return np.concatenate(([0.0], np.cumsum(np.log((alpha + k) / (k + 1.0)) - np.log1p(beta / exposure))))


def _iid_drawer(spec: ModelSpec):
    """Exact iid draws of a B-family posterior under an exponential rho prior, or None.

    Integrating rho ~ Gamma(1, beta_rho) out leaves the factor
    (1 + beta_rho / (eps1 r2 T1))^-(s1 + 1) <= 1 times laws with closed forms,
    and s_i = x_i outside B_EFF_BKG:
      1. in B_EFF_BKG, with the background rates integrated out too, the
         splits are independent: s1 ∝ NB(x1 - s1; alpha_b1, q1) and
         s2 ∝ NB(s2; alpha2 - 1, p2) * NB(x2 - s2; alpha_b2, q2), with
         q_i = epsB_i T_i / (beta_b_i + epsB_i T_i) and p2 = eps2 T2 / (beta2 + eps2 T2);
      2. a Beta(a, b) eps1 (epsS1) is Beta(a - 1, b);
      3. r2 ~ Gamma(alpha2 - 1 + s2, beta2 + eps2 T2);
      4. the tuple is accepted with probability equal to the factor, else
         redrawn whole; then
      5. rho ~ Gamma(1 + s1, beta_rho + eps1 r2 T1) and
      6. rb_i ~ Gamma(alpha_b_i + x_i - s_i, beta_b_i + epsB_i T_i).
    The laws exist where every other efficiency is fixed, a > 1 (the rule
    that ModelSpec enforces under a flat rho prior) and
    alpha2 - 1 + (x2 in B and B_EFF, 0 in B_EFF_BKG) > 0.  The proposals run
    in batches, the first of max(n, 64) and the later ones sized by the
    acceptance rate so far.  Where fewer than _MIN_ACCEPTANCE of the proposals so
    far are accepted, draw returns None, so it never makes more than
    2 * (n + _MAX_POINTS) proposals.
    """
    prho, pr2 = spec.priors["rho"], spec.priors["r2"]
    (eff1, eff2), bkg = spec._signal, spec.variant == "B_EFF_BKG"
    data = (spec.data1, spec.data2)
    if (
        prho.alpha != 1.0
        or pr2.alpha - 1.0 + (0 if bkg else spec.data2.x) <= 0
        or eff2.is_stochastic
        or any(eff.is_stochastic for eff in spec._background)
        or (eff1.is_stochastic and eff1.a <= 1.0)
        or (bkg and max(d.x for d in data) >= _MAX_POINTS)
    ):
        return None
    t1, exposure2, eps_key = spec.data1.T, eff2.fixed * spec.data2.T, "epsS1" if bkg else "eps1"
    # (x_i, prior, exposure) of each background leg, and the cumulative weights of each split
    backgrounds = [
        (d.x, spec.priors[f"rb{i}"], eff.fixed * d.T) for i, d, eff in zip((1, 2), data, spec._background)
    ] if bkg else []
    cdfs = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, (x, prior_b, exposure_b) in enumerate(backgrounds, start=1):
            log_w = _log_predictive(prior_b.alpha, prior_b.beta, exposure_b, x)[::-1]
            if i == 2:
                log_w += _log_predictive(pr2.alpha - 1.0, pr2.beta, exposure2, x)
            cdfs.append(np.cumsum(np.exp(log_w - log_w.max())))
    if not all(np.isfinite(cdf[-1]) for cdf in cdfs):  # every weight underflowed
        return None

    def propose(rng: np.random.Generator, m: int) -> dict:
        """The accepted ones of m proposals (steps 1-4)."""
        # s is the number of cumulative weights below the point, 0..x
        proposal = {
            f"s{i}": np.searchsorted(cdf[:-1], rng.random(m) * cdf[-1], side="right").astype(float)
            for i, cdf in enumerate(cdfs, start=1)
        }
        if eff1.is_stochastic:
            proposal[eps_key] = rng.beta(eff1.a - 1.0, eff1.b, m)
        proposal["r2"] = rng.standard_gamma(pr2.alpha - 1.0 + proposal.get("s2", spec.data2.x), m) / (
            pr2.beta + exposure2
        )
        # an exposure that underflowed to 0 is rejected, and one past the float range accepted
        with np.errstate(divide="ignore", over="ignore"):
            log_factor = -(proposal.get("s1", spec.data1.x) + 1.0) * np.log1p(
                prho.beta / (proposal.get(eps_key, eff1.fixed) * proposal["r2"] * t1)
            )
        keep = rng.random(m) < np.exp(log_factor)
        return {key: value[keep] for key, value in proposal.items()}

    def draw(rng: np.random.Generator, n: int):
        batches, proposed, accepted = [], 0, 0
        while accepted < n:
            m = max(n, 64) if not proposed else math.ceil(1.2 * (n - accepted) * proposed / accepted) + 16
            m = min(m, _MAX_POINTS)
            batches.append(propose(rng, m))
            proposed, accepted = proposed + m, accepted + batches[-1]["r2"].size
            if accepted < _MIN_ACCEPTANCE * proposed:
                return None
        draws = {key: np.concatenate([batch[key] for batch in batches])[:n] for key in batches[0]}
        s1 = draws.get("s1", spec.data1.x)
        with np.errstate(over="ignore"):  # past the float range the exposure reads inf, and rho 0
            exposure1 = draws.get(eps_key, eff1.fixed) * draws["r2"] * t1
        draws["rho"] = rng.standard_gamma(1.0 + s1, n) / (prho.beta + exposure1)
        for i, (x, prior_b, exposure_b) in enumerate(backgrounds, start=1):
            shape = prior_b.alpha + x - draws[f"s{i}"]
            draws[f"rb{i}"] = rng.standard_gamma(shape) / (prior_b.beta + exposure_b)
        return draws, {"rho": accepted / proposed}

    return draw


def build_model(spec: ModelSpec) -> Model:
    """Assemble nodes, initial state, the compiled sweep and, where one exists, the iid drawer."""
    priors = spec.priors
    if spec.variant == "A":
        # the rates are independent a posteriori, each its prior's conjugate update: every draw is kept
        posteriors = {"r1": update_rate(priors["r1"], spec.data1), "r2": update_rate(priors["r2"], spec.data2)}

        def draw(rng: np.random.Generator, n: int):
            draws = {name: rng.standard_gamma(p.alpha, n) / p.beta for name, p in posteriors.items()}
            return draws, {"r1": 1.0, "r2": 1.0}

        # what the drawer does not draw: rho and each rate's expected count lambda_i
        namespace = {"t1": spec.data1.T, "t2": spec.data2.T}
        exprs = {"rho": "r1 / r2", "lambda1": "r1 * t1", "lambda2": "r2 * t2"}
        return Model(spec, (), {}, draw, {name: _Node(name, e, namespace).update for name, e in exprs.items()})

    x1, t1 = spec.data1.x, spec.data1.T
    x2, t2 = spec.data2.x, spec.data2.T
    # the constants that the node expressions name; the expressions hold no number
    namespace = {"x1": x1, "t1": t1, "x2": x2, "t2": t2, "np": np, "array": array,
                 "_thin": _thin, "_signal_share": _signal_share}
    # what no node draws: r1, each signal leg's mean lambda_i, and then what each leg registers
    readouts = {"r1": "rho * r2", "lambda1": "rho * r2 * t1", "lambda2": "r2 * t2"}
    # r2 and rho start near their posterior: the counts over efficiency-scaled times
    eps1, eps2 = (eff.initial() for eff in spec._signal)
    r2_start = (x2 / eps2 + 1.0) / t2
    initial: dict[str, float] = {"r2": r2_start, "rho": ((x1 / eps1 + 1.0) / t1) / r2_start}

    # B and B_EFF see each channel's signal leg whole; B_EFF_BKG splits what it sees
    signal, channel_nodes = {}, []
    for i, x, t in ((1, x1, t1), (2, x2, t2)):
        eff_s, mean, legs = spec._signal[i - 1], readouts[f"lambda{i}"], (namespace, initial, readouts)
        if spec.variant != "B_EFF_BKG":
            signal[i] = _leg(f"n{i}", f"eps{i}", eff_s, f"x{i}", mean, t, *legs)
            channel_nodes += signal[i][2]
            continue
        prior_b, rb, s_key = priors[f"rb{i}"], f"rb{i}", f"s{i}"
        initial[rb] = prior_b.alpha / prior_b.beta
        initial[s_key] = x
        signal[i] = _leg(f"nS{i}", f"epsS{i}", eff_s, s_key, mean, t, *legs)
        count_b, exposure_b, nodes_b = _leg(
            f"nB{i}", f"epsB{i}", spec._background[i - 1], f"x{i} - {s_key}", f"{rb} * t{i}", t, *legs
        )
        namespace[f"rate_{rb}"] = prior_b.beta + exposure_b
        channel_nodes.append(_gamma_node(rb, prior_b.alpha, (count_b,), f"rate_{rb}", namespace))
        channel_nodes.append(_split_node(i, x, mean, f"epsS{i}", f"epsB{i}", namespace))
        channel_nodes += signal[i][2] + nodes_b
    # rho | r2 ~ Gamma(a_rho + n1, b_rho + r2*e1) and r2 | rho ~ Gamma(a_2 + n1 + n2,
    # b_2 + rho*e1 + e2), with the count n_i and exposure e_i of each signal leg
    (n1, e1, _), (n2, e2, _) = signal[1], signal[2]
    prho, pr2 = priors["rho"], priors["r2"]
    namespace.update(e1=e1, e2=e2, beta_rho=prho.beta, beta_r2=pr2.beta)
    nodes = [
        _gamma_node("rho", prho.alpha, (n1,), "beta_rho + r2 * e1", namespace),
        _gamma_node("r2", pr2.alpha, (n1, n2), "beta_r2 + rho * e1 + e2", namespace),
        *channel_nodes,
    ]
    # a chain records the monitored nodes and the nodes that a monitored readout names
    names, recorded = [node.name for node in nodes], set(spec.monitor)
    for name in recorded - set(names):
        recorded.update(_compile_source(readouts[name], "<node>", "eval").co_names)
    sweep = _compile_sweep(nodes, namespace, initial, [name for name in names if name in recorded])
    readouts = {name: _Node(name, expr, namespace).update for name, expr in readouts.items()}
    return Model(spec, tuple(nodes), initial, _iid_drawer(spec), readouts, sweep)


def _compile_sweep(nodes: list[_Node], namespace: dict, variables: Mapping, recorded: list[str]):
    """sweep(state, rng, burn_in, n_iter): every sweep of a chain in one function.

    The function keeps the state in local variables, redraws each node by one
    assignment of its expression, and returns the recorded variables of the
    last n_iter sweeps.  A node whose expression reads g_<name> is batched:
    those variates are drawn first, in node order, one array per node, and
    each sweep takes the next of each.  The source is compiled into
    namespace, whose constants are its globals, and holds fixed identifiers
    only: the names of variables, constants and the Generator's methods.
    """
    batched = [node.name for node in nodes
               if f"g_{node.name}" in _compile_source(node.expr, "<node>", "eval").co_names]
    body = [f"{node.name} = {node.expr}" for node in nodes]

    def loop(count: str, record: list[str]) -> list[str]:
        targets = ", ".join(["_"] + [f"g_{name}" for name in batched])
        sources = ", ".join([f"range({count})"] + [f"batch_{name}" for name in batched])
        header = f"for {targets} in zip({sources}):" if batched else f"for _ in range({count}):"
        return [header, *(f"    {line}" for line in body + record)]

    lines = [
        f"{', '.join(_RNG_METHODS)} = {', '.join(f'rng.{name}' for name in _RNG_METHODS.values())}",
        *(f"batch_{name} = iter(memoryview(gamma(shape_{name}, burn_in + n_iter)))" for name in batched),
        *(f"{name} = state[{name!r}]" for name in variables),
        *loop("burn_in", []),
        *(f"out_{name} = array('d')" for name in recorded),
        *loop("n_iter", [f"out_{name}.append({name})" for name in recorded]),
        "return {" + ", ".join(f"{name!r}: out_{name}" for name in recorded) + "}",
    ]
    source = "def sweep(state, rng, burn_in, n_iter):\n" + "".join(f"    {line}\n" for line in lines)
    exec(_compile_source(source, "<rateratio.mcmc sweep>", "exec"), namespace)
    return namespace["sweep"]


def run_chain(model: Model, n_iter: int, burn_in: int | None = None, seed=None) -> Chain:
    """Run one chain: n_iter iid draws where the model has a drawer, else exact Gibbs sweeps.

    Model A, and the B family under an exponential rho prior with closed-form
    laws (see _iid_drawer), are drawn iid: burn_in is reported but nothing
    is discarded, and acceptance["rho"] is the measured acceptance rate of
    the rejection step.  Otherwise burn_in sweeps are discarded, then n_iter
    recorded.  A sweep redraws each node in turn from its full conditional,
    so every update is accepted and nothing is tuned.  burn_in defaults to
    max(1000, n_iter // 100), far longer than the reference scripts' 100
    updates, so that latent counts forget their start.  A monitored variable
    that reads inf or nan, such as rho = r1 / r2 where r2 underflowed to 0,
    is refused with its name and the first such iteration.
    """
    n_iter = _size("n_iter", n_iter)
    burn_in = max(1000, n_iter // 100) if burn_in is None else _size("burn_in", burn_in, least=0)
    rng = np.random.default_rng(seed)
    acceptance = {node.name: 1.0 for node in model.nodes}
    drawn = model.draw(rng, n_iter) if model.draw else None
    if drawn is not None:
        draws, measured = drawn
        acceptance.update(measured)
    else:
        if model.draw:
            logger.info("iid proposals accepted too rarely: running Gibbs sweeps")
        recorded = model.sweep(model.init_state(), rng, burn_in, n_iter)
        draws = {name: np.frombuffer(values) for name, values in recorded.items()}
    with np.errstate(all="ignore"):  # a readout past the float range is refused below, not warned of
        monitored = {name: _readout(name, draws, model, rng) for name in model.spec.monitor}
    for name, values in monitored.items():
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            raise ValueError(f"{name} reads {values[first]} at iteration {first + 1}: the chain left the float range")
    logger.info(
        "chain finished: variant=%s n_iter=%d burn_in=%d sampler=%s",
        model.spec.variant, n_iter, burn_in, "gibbs" if drawn is None else "iid",
    )
    return Chain(monitored=monitored, n_iter=n_iter, burn_in=burn_in, seed=seed, acceptance=acceptance)


def _readout(name: str, draws: Mapping[str, np.ndarray], model: Model, rng: np.random.Generator) -> np.ndarray:
    """The draws of a monitored variable: its recorded draws, else its Model.readouts entry over them."""
    if name in draws:
        return draws[name]
    return model.readouts[name]({**model.initial, **draws}, rng)


def _batch_se(centred: np.ndarray, e: int) -> float:
    """Batch-means SE from 20 batches of the draws that _unit_scaled gave as (centred, _, e); NaN below 20 draws."""
    n_batches = 20
    batch_len = centred.size // n_batches
    if not batch_len:
        return float("nan")
    means = centred[: batch_len * n_batches].reshape(n_batches, batch_len).mean(axis=1)
    return float(np.ldexp(_sample_sd(means), e)) / math.sqrt(n_batches)


def summarize_chain(chain: Chain) -> ChainSummary:
    """Mean, sd, naive SE, batch-means SE and quantiles per monitored variable."""
    if not chain.monitored or any(v.size == 0 for v in chain.monitored.values()):
        raise ValueError("chain is empty")
    variables = {}
    for name, draws in chain.monitored.items():
        n = draws.size
        centred, ref, e = _unit_scaled(draws)  # once, for the mean, the sd and the batch means
        sd = float(np.ldexp(centred.std(ddof=1), e)) if n > 1 else 0.0
        qs = np.quantile(draws, [level / 100.0 for level in QUANTILE_LEVELS])
        variables[name] = VariableSummary(
            mean=float(np.ldexp(ref + centred.mean(), e)),
            sd=sd,
            naive_se=sd / math.sqrt(n),
            batch_se=_batch_se(centred, e),
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
    columns = {name: memoryview(np.ascontiguousarray(draws, dtype=float)) for name, draws in chain.monitored.items()}
    _write_csv(fileobj, {"iteration": range(1, chain.n_iter + 1), **columns})
