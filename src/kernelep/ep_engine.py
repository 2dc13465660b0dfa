"""Factor-graph expectation propagation with pluggable message sources.

The engine keeps one message per directed factor-to-variable edge and sweeps
factors sequentially in id order. Each factor's source consumes the current
incoming context (cavity per neighbor) and proposes new outgoing messages,
which are damped in natural parameters. Improper proposals are skipped and
counted rather than applied.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, EpSourceError, KernelEpError, integer, real
from .expfam import (
    BetaDist,
    Gaussian1D,
    divide,
    from_natural,
    to_natural,
)
from .factors import MIN_IMPORTANCE, IncomingTuple, oracle_to_x
from .operator import (
    MessageOperator,
    QueryOracle,
    UncertaintyPolicy,
    absorb,
    outgoing_message,
    decide,
    predict_q,  # not called here; perfbench/run.py traces this module's binding
    warm_beta_cache,  # not called here; perfbench/run.py traces this module's binding
)
from .regress import _CHUNK, predictive_variance

__all__ = [
    "Variable",
    "Factor",
    "FactorGraph",
    "DampingConfig",
    "OracleSource",
    "OperatorSource",
    "ActiveSource",
    "default_sources",
    "EpResult",
    "run_ep",
    "demo_graph",
]

GAUSSIAN = "gaussian"
BETA = "beta"

# kind -> (families of its neighbors in order, parameters it needs)
FACTOR_KINDS = {
    "gaussian_prior": ((GAUSSIAN,), ("mean", "variance")),
    "logistic": ((GAUSSIAN, BETA), ()),
    "linear_gaussian": ((GAUSSIAN, GAUSSIAN), ("a", "b", "noise_variance")),
}

# independent oracle draws an OracleSource tries before its message fails
ORACLE_RETRIES = 3

@dataclass(frozen=True)
class Variable:
    id: str
    family: str  # "gaussian" or "beta"


@dataclass(frozen=True)
class Factor:
    """One factor node.

    kind "gaussian_prior": neighbors (x,), params {"mean", "variance"}.
    kind "logistic": neighbors (x, z), no params; z = logistic(x).
    kind "linear_gaussian": neighbors (parent, child),
        params {"a", "b", "noise_variance"}; child = a*parent + b + noise.
    """

    id: str
    kind: str
    neighbors: tuple
    params: Mapping = field(default_factory=dict)


def _check_params(f: Factor, keys) -> None:
    """Require the factor's parameters named by keys, each a finite number (a
    missing one reads as None), with positive variances and a != 0."""
    at = f"{f.kind} {f.id!r}"
    values = {key: real(f"{at} parameter {key!r}", f.params.get(key)) for key in keys}
    for key in ("variance", "noise_variance"):
        if values.get(key, 1.0) <= 0.0:
            raise DomainError(f"{at} needs positive {key}")
    if values.get("a") == 0.0:
        raise DomainError(f"{at} needs a != 0")


@dataclass(frozen=True)
class FactorGraph:
    """Variables, factors and fixed Beta observations, validated and compiled.

    Construction also compiles what every sweep reads: `families` (variable
    id -> family), `schedule` (the factors sorted by id, the sweep order),
    `adjacency` (variable id -> the factors that list it, in graph order,
    which is the order cavities add messages in) and `observed` (variable id
    -> the observation's natural parameters).  dataclasses.replace builds a
    new graph, so it recompiles.
    """

    variables: tuple
    factors: tuple
    observations: Mapping = field(default_factory=dict)
    families: dict = field(init=False, repr=False, compare=False)
    schedule: tuple = field(init=False, repr=False, compare=False)
    adjacency: dict = field(init=False, repr=False, compare=False)
    observed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "observations", dict(self.observations))
        fam = {}
        for v in self.variables:
            if v.id in fam:
                raise DomainError(f"duplicate variable id {v.id!r}")
            if v.family not in (GAUSSIAN, BETA):
                raise DomainError(f"unknown family {v.family!r} for {v.id!r}")
            fam[v.id] = v.family
        adjacency = {vid: [] for vid in fam}
        seen = set()
        for f in self.factors:
            if f.id in seen:
                raise DomainError(f"duplicate factor id {f.id!r}")
            seen.add(f.id)
            for vid in f.neighbors:
                if vid not in fam:
                    raise DomainError(
                        f"factor {f.id!r} references unknown variable {vid!r}"
                    )
            if f.kind not in FACTOR_KINDS:
                raise DomainError(f"unknown factor kind {f.kind!r}")
            families, keys = FACTOR_KINDS[f.kind]
            if tuple(fam[vid] for vid in f.neighbors) != families:
                raise DomainError(f"{f.kind} {f.id!r} needs neighbors {families}")
            if len(set(f.neighbors)) != len(f.neighbors):
                raise DomainError(f"{f.kind} {f.id!r} names a variable twice")
            _check_params(f, keys)
            for vid in f.neighbors:
                adjacency[vid].append(f)
        for vid, obs in self.observations.items():
            if fam.get(vid) != BETA:
                raise DomainError(f"observation attached to non-beta {vid!r}")
            for shape in ("alpha", "beta"):
                real(f"observation {vid!r} {shape}", getattr(obs, shape))
            if obs.improper:
                raise DomainError(f"observation for {vid!r} must be proper")
        compiled = {
            "families": fam,
            "schedule": tuple(sorted(self.factors, key=lambda f: f.id)),
            "adjacency": {vid: tuple(fs) for vid, fs in adjacency.items()},
            "observed": {vid: to_natural(obs) for vid, obs in self.observations.items()},
        }
        for name, value in compiled.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class EpState:
    """Messages per directed (factor_id, variable_id) edge plus sweep stats.

    Each message is held as its natural parameters, a length-2 array, which
    is the form cavities and marginals add.
    """

    messages: dict
    iteration: int = 0
    max_delta: float = math.inf
    skipped: int = 0


@dataclass(frozen=True)
class DampingConfig:
    delta: float = 0.5
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < real("delta", self.delta) <= 1.0:
            raise DomainError("delta must be in (0, 1]")
        integer("max_iters", self.max_iters, 1)
        if not real("tol", self.tol) > 0.0:
            raise DomainError("tol must be positive")


def init_state(graph: FactorGraph) -> EpState:
    """All factor-to-variable messages start uniform (natural parameters 0)."""
    messages = {(f.id, vid): np.zeros(2) for f in graph.factors for vid in f.neighbors}
    return EpState(messages=messages)


def _natural_sum(graph: FactorGraph, state: EpState, variable_id: str, skip=None):
    """Natural-parameter sum of the observation and the messages into a variable.

    The message from factor `skip`, if given, is left out.
    """
    if variable_id not in graph.families:
        raise DomainError(f"unknown variable {variable_id!r}")
    eta = np.zeros(2)
    obs = graph.observed.get(variable_id)
    if obs is not None:
        eta += obs
    for f in graph.adjacency[variable_id]:
        if f.id != skip:
            eta += state.messages[(f.id, variable_id)]
    return from_natural(graph.families[variable_id], eta)


def cavity(graph: FactorGraph, state: EpState, factor_id: str, variable_id: str):
    """Product of every other message into the variable, in natural parameters.

    Observations attached to the variable participate as fixed messages. The
    result may be improper; callers decide how to react.
    """
    if (factor_id, variable_id) not in state.messages:
        raise DomainError(f"no edge ({factor_id!r}, {variable_id!r})")
    return _natural_sum(graph, state, variable_id, skip=factor_id)


def marginal(graph: FactorGraph, state: EpState, variable_id: str):
    """Product of all incoming messages (and any observation)."""
    return _natural_sum(graph, state, variable_id)


# ---------------------------------------------------------------------------
# Message sources


class PriorSource:
    """Constant message: the prior itself."""

    kind = "prior"

    def __call__(self, factor, incoming, rng):
        g = Gaussian1D(float(factor.params["mean"]), float(factor.params["variance"]))
        return {factor.neighbors[0]: g}


class LinearGaussianSource:
    """Exact Gaussian conditioning through child = a*parent + b + noise."""

    kind = "linear_gaussian"

    def __call__(self, factor, incoming, rng):
        parent, child = factor.neighbors
        a = float(factor.params["a"])
        b = float(factor.params["b"])
        v = float(factor.params["noise_variance"])
        out = {}
        mp = incoming[parent]
        if not mp.improper:
            out[child] = Gaussian1D(a * mp.mean + b, a * a * mp.variance + v)
        mc = incoming[child]
        if not mc.improper:
            out[parent] = Gaussian1D((mc.mean - b) / a, (mc.variance + v) / (a * a))
        return out


def _logistic_cavities(factor, incoming):
    """A logistic factor's x id and its cavities on x and z, or None when
    either cavity is improper: the source then proposes nothing."""
    x_id, z_id = factor.neighbors
    m_x, m_z = incoming[x_id], incoming[z_id]
    if m_x.improper or m_z.improper:
        return None
    return x_id, m_x, m_z


class OracleSource:
    """Importance-sampling projection of the logistic tilted distribution."""

    kind = "oracle"

    def __init__(self, n_importance: int = 10_000):
        self.n_importance = integer("n_importance", n_importance, MIN_IMPORTANCE)

    def tilted(self, inc: IncomingTuple, rng) -> Gaussian1D:
        """The projected tilted q on x, from the first of ORACLE_RETRIES
        independent sub-streams of rng whose draw does not fail."""
        last = None
        for sub in rng.spawn(ORACLE_RETRIES):
            try:
                return oracle_to_x(inc, self.n_importance, sub)[0]
            except KernelEpError as exc:
                last = exc
        raise last

    def __call__(self, factor, incoming, rng):
        cavities = _logistic_cavities(factor, incoming)
        if cavities is None:
            return {}
        x_id, m_x, m_z = cavities
        return {x_id: divide(self.tilted(IncomingTuple(m_x, m_z), rng), m_x)}


class OperatorSource:
    """Learned message operator, no sampling at inference time."""

    kind = "operator"

    def __init__(self, op: MessageOperator):
        self.op = op

    def __call__(self, factor, incoming, rng):
        cavities = _logistic_cavities(factor, incoming)
        if cavities is None:
            return {}
        x_id, m_x, m_z = cavities
        return {x_id: outgoing_message(self.op, m_x, m_z)[0]}


@dataclass(frozen=True)
class QueryEvent:
    """One gating decision worth recording: an oracle query or a forced
    fallback to the prediction after the budget ran out."""

    action: str  # "query" or "fallback"
    factor_id: str
    variable_id: str
    iteration: int
    variance: float
    tau: float


class ActiveSource:
    """Operator gated by predictive variance, falling back to the oracle.

    Oracle answers are absorbed into the operator online; run_ep reports
    each run's queries.  `log` records every query and every budget-exhausted
    fallback at its visit number per factor (skipped visits count), the sweep
    number in the source's first run: a source is not told where a run
    starts, so `queries`, `log` and visits span its lifetime.

    The gate has two phases.  While budget remains, each message's variance
    is computed as it arrives and decides between prediction and query.
    Once the budget is spent the model is fixed and every prediction is
    used, so the message is OperatorSource's, and a variance only decides
    whether it is logged as a fallback: the feature vectors wait in a queue
    and are scored together, one predictive_variance chunk (regress._CHUNK)
    at a time and whenever `log` is read, and the fallbacks are logged in
    visit order.  One pass of matrix products over the model's triangular
    factor serves a whole chunk, where a single message costs a full pass
    of its own, and a demo graph's queue (about 84 messages) is scored
    once, when its log is read.

    A query asks `oracle`, an OracleSource, so its message is the one
    OracleSource sends for the same visit, bit for bit.  Its answer is
    absorbed at decide's features, so a query featurizes once and reuses
    the gate's product with the model's triangular factor (see absorb).
    """

    kind = "active"

    def __init__(self, op: MessageOperator, policy: UncertaintyPolicy, n_importance: int = 10_000):
        self.op = op
        self.oracle = OracleSource(n_importance)
        self.tau, self.budget = policy.tau, policy.budget
        self.queries = 0
        self._log: list[QueryEvent] = []
        self._pending: list = []  # (factor_id, variable_id, visit, phi) awaiting a variance
        self._visits: dict = {}

    @property
    def log(self) -> list[QueryEvent]:
        self._score_pending()
        return self._log

    def _score_pending(self):
        if not self._pending:
            return
        Phi = np.column_stack([p[3] for p in self._pending])
        variances = predictive_variance(self.op.model, Phi)
        for (factor_id, variable_id, visit, _), variance in zip(self._pending, variances):
            if variance > self.tau:
                # over threshold but out of budget: the prediction was used anyway
                self._log.append(
                    QueryEvent("fallback", factor_id, variable_id, visit, float(variance), self.tau)
                )
        self._pending.clear()

    def __call__(self, factor, incoming, rng):
        visit = self._visits[factor.id] = self._visits.get(factor.id, 0) + 1
        cavities = _logistic_cavities(factor, incoming)
        if cavities is None:
            return {}
        x_id, m_x, m_z = cavities
        if self.budget == 0:
            # OperatorSource's message; its variance waits for a batch
            message, phi = outgoing_message(self.op, m_x, m_z)
            self._pending.append((factor.id, x_id, visit, phi))
            if len(self._pending) == _CHUNK:
                self._score_pending()
            return {x_id: message}
        action = decide(self.op, self.tau, m_x, m_z)
        if isinstance(action, QueryOracle):
            q = self.oracle.tilted(IncomingTuple(m_x, m_z), rng)
            self.op = absorb(self.op, action.phi, q)
            self.queries += 1
            self.budget -= 1
            self._log.append(QueryEvent("query", factor.id, x_id, visit, action.variance, self.tau))
            return {x_id: divide(q, m_x)}
        # action.q is predict_q for these cavities, computed from decide's features
        return {x_id: divide(action.q, m_x)}


def default_sources(logistic_source=None) -> dict:
    """Source per factor kind; logistic defaults to the sampling oracle."""
    return {
        "gaussian_prior": PriorSource(),
        "linear_gaussian": LinearGaussianSource(),
        "logistic": logistic_source if logistic_source is not None else OracleSource(),
    }


# ---------------------------------------------------------------------------
# Sweeps


def _damped(family: str, old: np.ndarray, candidate, delta: float):
    """The message a step of size delta from natural parameters `old` towards
    `candidate` reaches, as a distribution of `family`."""
    return from_natural(family, (1.0 - delta) * old + delta * to_natural(candidate))


def _factor_seeds(graph: FactorGraph, rng) -> dict:
    """One reusable seed sequence per factor, in schedule order.

    Reusing the same sequence every sweep gives each stochastic source common
    random numbers across sweeps, so the sweep map becomes a deterministic
    function of the messages and EP can actually meet a convergence tolerance
    instead of rattling inside a sampling-noise ball.
    """
    children = rng.bit_generator.seed_seq.spawn(len(graph.schedule))
    return {f.id: s for f, s in zip(graph.schedule, children)}


def ep_sweep(
    state: EpState,
    graph: FactorGraph,
    sources: Mapping,
    damping: DampingConfig,
    factor_seeds=None,
    timings=None,
) -> EpState:
    """One sequential pass over factors in id order.

    Updates are applied immediately, so later factors in the same sweep see
    them. Improper candidates, and damped results that are improper, are
    skipped and counted. A message is stored as the natural parameters of
    its damped distribution, so a stored message and the distribution a
    source was shown agree bit for bit. Source exceptions are re-raised with
    the offending edge attached.
    """
    if factor_seeds is None:
        factor_seeds = _factor_seeds(graph, np.random.default_rng(0))
    messages = dict(state.messages)
    max_delta = 0.0
    skipped = state.skipped
    live = EpState(messages=messages, iteration=state.iteration, skipped=skipped)
    for factor in graph.schedule:
        source = sources[factor.kind]
        incoming = {
            vid: cavity(graph, live, factor.id, vid) for vid in factor.neighbors
        }
        base = factor_seeds[factor.id]
        # fresh spawn counter each sweep, so sources that spawn sub-streams
        # still see the exact same draws on every visit to this factor
        child_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=base.entropy, spawn_key=base.spawn_key)
        )
        t0 = time.perf_counter()
        try:
            proposals = source(factor, incoming, child_rng)
        except KernelEpError as exc:
            raise EpSourceError(
                f"source for factor {factor.id!r} failed: {exc}",
                factor_id=factor.id,
                variable_id=factor.neighbors[0],
            ) from exc
        dt = time.perf_counter() - t0
        if timings is not None:
            kind = getattr(source, "kind", factor.kind)
            # a call's time is split evenly over the messages it proposed
            count = max(len(proposals), 1)
            timings.setdefault(kind, []).extend([dt / count] * count)
        for vid, candidate in proposals.items():
            if vid not in factor.neighbors:
                raise EpSourceError(
                    f"source for {factor.id!r} proposed message to non-neighbor",
                    factor_id=factor.id,
                    variable_id=vid,
                )
            old = messages[(factor.id, vid)]
            if candidate.improper:
                skipped += 1
                continue
            new = _damped(graph.families[vid], old, candidate, damping.delta)
            if new.improper:
                skipped += 1
                continue
            eta = to_natural(new)
            max_delta = max(max_delta, float(np.max(np.abs(eta - old))))
            messages[(factor.id, vid)] = eta
    return EpState(
        messages=messages,
        iteration=state.iteration + 1,
        max_delta=max_delta,
        skipped=skipped,
    )


@dataclass(frozen=True)
class EpResult:
    marginals: dict
    state: EpState
    converged: bool
    iterations: int
    skipped: int
    queries: int
    message_seconds: dict  # source kind -> per-message seconds, in call order


def run_ep(
    graph: FactorGraph,
    sources: Mapping | None = None,
    damping: DampingConfig | None = None,
    rng=None,
) -> EpResult:
    """Sweep to convergence (max_delta < tol) or max_iters.

    Non-convergence is reported through the converged flag, not an exception.
    """
    if sources is None:
        sources = default_sources()
    if damping is None:
        damping = DampingConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    state = init_state(graph)
    unique = {id(s): s for s in sources.values()}.values()
    queries_before = sum(getattr(s, "queries", 0) for s in unique)
    seeds = _factor_seeds(graph, rng)
    timings: dict = {}
    converged = False
    for _ in range(damping.max_iters):
        state = ep_sweep(state, graph, sources, damping, seeds, timings=timings)
        if state.max_delta < damping.tol:
            converged = True
            break
    marginals = {v.id: marginal(graph, state, v.id) for v in graph.variables}
    return EpResult(
        marginals=marginals,
        state=state,
        converged=converged,
        iterations=state.iteration,
        skipped=state.skipped,
        queries=sum(getattr(s, "queries", 0) for s in unique) - queries_before,
        message_seconds={k: tuple(v) for k, v in timings.items()},
    )


def demo_graph(
    observations=((5.0, 2.0), (4.0, 3.0), (2.0, 5.0)),
    prior_mean: float = 0.0,
    prior_variance: float = 2.0,
) -> FactorGraph:
    """One latent x with a Gaussian prior and one logistic factor per Beta
    pseudo-observation."""
    variables = [Variable("x", GAUSSIAN)]
    factors = [
        Factor(
            "f0_prior",
            "gaussian_prior",
            ("x",),
            {"mean": prior_mean, "variance": prior_variance},
        )
    ]
    obs = {}
    for i, (a, b) in enumerate(observations, start=1):
        zid = f"z{i}"
        variables.append(Variable(zid, BETA))
        factors.append(Factor(f"f{i}_logistic", "logistic", ("x", zid)))
        at = f"observation {zid!r}"
        obs[zid] = BetaDist(real(f"{at} alpha", a), real(f"{at} beta", b))
    return FactorGraph(tuple(variables), tuple(factors), obs)


def logistic_regression_graph(n: int, seed: int, noise: float = 1.0) -> FactorGraph:
    """Bayesian logistic regression: w ~ N(0, 4), x_i = a_i w + N(0, noise),
    logistic(x_i, z_i) with y_i's Bernoulli likelihood as the observation
    Beta(1 + y_i, 2 - y_i) on z_i; a_i ~ N(0, 1), y_i ~ Bernoulli(sigmoid(1.5 a_i))."""
    n, noise = integer("n", n, 0), real("noise", noise)
    rng = np.random.default_rng(integer("seed", seed, 0))
    a = rng.normal(size=n)
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-1.5 * a))).astype(int)
    variables = [Variable("w", GAUSSIAN)]
    factors = [Factor("prior", "gaussian_prior", ("w",), {"mean": 0.0, "variance": 4.0})]
    observations = {}
    for i in range(n):
        x, z = f"x{i}", f"z{i}"
        variables += [Variable(x, GAUSSIAN), Variable(z, BETA)]
        params = {"a": float(a[i]), "b": 0.0, "noise_variance": noise}
        factors += [Factor(f"lin{i}", "linear_gaussian", ("w", x), params),
                    Factor(f"log{i}", "logistic", (x, z))]
        observations[z] = BetaDist(1.0 + y[i], 2.0 - y[i])
    return FactorGraph(tuple(variables), tuple(factors), observations)
