import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from kernelep.ep_engine import (
    ActiveSource,
    DampingConfig,
    EpResult,
    Factor,
    FactorGraph,
    LinearGaussianSource,
    OperatorSource,
    OracleSource,
    PriorSource,
    Variable,
    cavity,
    default_sources,
    demo_graph,
    ep_sweep,
    init_state,
    logistic_regression_graph,
    marginal,
    run_ep,
)
from kernelep.errors import DegenerateSampleError, DomainError, EpSourceError
from kernelep.expfam import (
    BetaDist,
    Gaussian1D,
    divide,
    from_natural,
    kl_divergence,
    multiply,
    to_natural,
)
from kernelep.factors import IncomingPrior, IncomingTuple, gen_training_set
from kernelep import ep_engine, operator, regress
from kernelep.operator import (
    MessageOperator,
    QueryOracle,
    UncertaintyPolicy,
    UsePrediction,
    predict_q,
    train_operator,
)
from kernelep.regress import RidgeModel, update_online


def chain_graph():
    """Three-variable linear-Gaussian chain with per-variable priors."""
    variables = (
        Variable("x1", "gaussian"),
        Variable("x2", "gaussian"),
        Variable("x3", "gaussian"),
    )
    factors = (
        Factor("p1", "gaussian_prior", ("x1",), {"mean": 0.0, "variance": 1.0}),
        Factor("p2", "gaussian_prior", ("x2",), {"mean": -0.2, "variance": 2.0}),
        Factor("p3", "gaussian_prior", ("x3",), {"mean": 1.5, "variance": 0.4}),
        Factor(
            "q12",
            "linear_gaussian",
            ("x1", "x2"),
            {"a": 0.8, "b": 0.5, "noise_variance": 0.3},
        ),
        Factor(
            "q23",
            "linear_gaussian",
            ("x2", "x3"),
            {"a": -0.6, "b": 0.1, "noise_variance": 0.5},
        ),
    )
    return FactorGraph(variables, factors)


def chain_exact_marginals():
    """Dense-precision solve of the same chain, one marginal per variable."""
    J = np.zeros((3, 3))
    h = np.zeros(3)
    for i, (mu, var) in enumerate([(0.0, 1.0), (-0.2, 2.0), (1.5, 0.4)]):
        J[i, i] += 1.0 / var
        h[i] += mu / var
    for p, c, a, b, v in [(0, 1, 0.8, 0.5, 0.3), (1, 2, -0.6, 0.1, 0.5)]:
        J[c, c] += 1.0 / v
        J[p, p] += a * a / v
        J[p, c] -= a / v
        J[c, p] -= a / v
        h[c] += b / v
        h[p] -= a * b / v
    cov = np.linalg.inv(J)
    mean = cov @ h
    return [Gaussian1D(float(mean[i]), float(cov[i, i])) for i in range(3)]


@pytest.fixture(scope="module")
def demo_operator():
    pairs = gen_training_set(IncomingPrior(), 400, 4000, np.random.default_rng(881))
    op, _, tau = train_operator(pairs, 80, np.random.default_rng(882))
    return op, tau


# ---------------------------------------------------------------------------
# Graph and state construction


def test_graph_validation():
    with pytest.raises(DomainError):
        FactorGraph(
            (Variable("x", "gaussian"),),
            (Factor("f", "gaussian_prior", ("nope",), {"mean": 0, "variance": 1}),),
        )
    with pytest.raises(DomainError):
        FactorGraph(
            (Variable("x", "gaussian"), Variable("z", "beta")),
            (Factor("f", "logistic", ("z", "x")),),
        )
    with pytest.raises(DomainError):
        FactorGraph(
            (Variable("x", "gaussian"), Variable("y", "gaussian")),
            (
                Factor(
                    "f",
                    "linear_gaussian",
                    ("x", "y"),
                    {"a": 0.0, "b": 0.0, "noise_variance": 1.0},
                ),
            ),
        )
    with pytest.raises(DomainError):
        FactorGraph(
            (Variable("x", "gaussian"),),
            (Factor("f", "mystery", ("x",)),),
        )
    with pytest.raises(DomainError):
        FactorGraph(
            (Variable("x", "gaussian"),),
            (Factor("f", "gaussian_prior", ("x",), {"mean": 0, "variance": 1}),),
            {"x": BetaDist(2.0, 2.0)},
        )


def test_graph_refuses_a_factor_naming_one_variable_twice():
    # both proposals would land on the one edge (x, x), the second overwriting
    # the first, and EP would converge to a wrong answer without a warning
    with pytest.raises(DomainError, match="twice"):
        FactorGraph(
            (Variable("x", "gaussian"),),
            (
                Factor("p", "gaussian_prior", ("x",), {"mean": 0.0, "variance": 1.0}),
                Factor(
                    "f",
                    "linear_gaussian",
                    ("x", "x"),
                    {"a": 0.5, "b": 1.0, "noise_variance": 0.1},
                ),
            ),
        )


VALID_PARAMS = {
    "gaussian_prior": {"mean": 0.3, "variance": 1.0},
    "linear_gaussian": {"a": 0.8, "b": 0.5, "noise_variance": 0.3},
}


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, params in VALID_PARAMS.items() for key in params]
)
@pytest.mark.parametrize("value", ["missing", math.nan, math.inf])
def test_graph_requires_each_parameter_finite(kind, key, value):
    params = dict(VALID_PARAMS[kind])
    if value == "missing":
        del params[key]
    else:
        params[key] = value
    neighbors = ("x",) if kind == "gaussian_prior" else ("x", "y")
    variables = (Variable("x", "gaussian"), Variable("y", "gaussian"))
    FactorGraph(variables, (Factor("f", kind, neighbors, VALID_PARAMS[kind]),))
    with pytest.raises(DomainError, match=repr(key)):
        FactorGraph(variables, (Factor("f", kind, neighbors, params),))


def test_graph_compiles_schedule_and_adjacency():
    chain = chain_graph()
    graph = dataclasses.replace(chain, factors=chain.factors[::-1])
    # sweeps visit factors by id; cavities add messages in graph order
    assert [f.id for f in graph.schedule] == ["p1", "p2", "p3", "q12", "q23"]
    assert [f.id for f in graph.adjacency["x2"]] == ["q23", "q12", "p2"]
    assert graph.families == {"x1": "gaussian", "x2": "gaussian", "x3": "gaussian"}
    trimmed = dataclasses.replace(graph, factors=graph.factors[1:])
    assert [f.id for f in trimmed.schedule] == ["p1", "p2", "p3", "q12"]
    assert [f.id for f in trimmed.adjacency["x2"]] == ["q12", "p2"]
    assert [f.id for f in trimmed.adjacency["x3"]] == ["p3"]
    assert [f.id for f in graph.adjacency["x3"]] == ["q23", "p3"]
    demo = demo_graph()
    np.testing.assert_array_equal(demo.observed["z1"], [4.0, 1.0])
    swapped = dataclasses.replace(demo, observations={"z1": BetaDist(2.0, 3.0)})
    assert set(swapped.observed) == {"z1"}
    np.testing.assert_array_equal(swapped.observed["z1"], [1.0, 2.0])


def test_init_state_uniform():
    state = init_state(demo_graph())
    assert len(state.messages) == 1 + 3 * 2  # prior edge + (x, z) per logistic
    for msg in state.messages.values():
        np.testing.assert_array_equal(msg, np.zeros(2))


def test_cavity_single_factor_is_uniform():
    graph = FactorGraph(
        (Variable("x", "gaussian"),),
        (Factor("p", "gaussian_prior", ("x",), {"mean": 0.3, "variance": 1.0}),),
    )
    state = init_state(graph)
    cav = cavity(graph, state, "p", "x")
    np.testing.assert_array_equal(to_natural(cav), np.zeros(2))


def test_cavity_adds_precision():
    graph = FactorGraph(
        (Variable("x", "gaussian"),),
        (
            Factor("p1", "gaussian_prior", ("x",), {"mean": 0.0, "variance": 1.0}),
            Factor("p2", "gaussian_prior", ("x",), {"mean": 0.0, "variance": 1.0}),
            Factor("p3", "gaussian_prior", ("x",), {"mean": 0.0, "variance": 1.0}),
        ),
    )
    state = init_state(graph)
    state.messages[("p1", "x")] = to_natural(Gaussian1D(0.0, 1.0))
    state.messages[("p2", "x")] = to_natural(Gaussian1D(0.0, 1.0))
    cav = cavity(graph, state, "p3", "x")
    assert cav.variance == pytest.approx(0.5)
    assert cav.mean == pytest.approx(0.0)


def test_cavity_unknown_edge():
    graph = demo_graph()
    state = init_state(graph)
    with pytest.raises(DomainError):
        cavity(graph, state, "f0_prior", "z1")


@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3),
            st.floats(0.2, 5.0),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_marginal_equals_cavity_times_message(msgs):
    variables = (Variable("x", "gaussian"),)
    factors = tuple(
        Factor(f"p{i}", "gaussian_prior", ("x",), {"mean": m, "variance": v})
        for i, (m, v) in enumerate(msgs)
    )
    graph = FactorGraph(variables, factors)
    state = init_state(graph)
    for i, (m, v) in enumerate(msgs):
        state.messages[(f"p{i}", "x")] = to_natural(Gaussian1D(m, v))
    marg = marginal(graph, state, "x")
    for f in factors:
        message = from_natural("gaussian", state.messages[(f.id, "x")])
        recon = multiply(cavity(graph, state, f.id, "x"), message)
        np.testing.assert_allclose(
            to_natural(recon), to_natural(marg), rtol=0, atol=1e-12
        )


# ---------------------------------------------------------------------------
# Sweeps and convergence


def test_prior_only_graph_marginal_is_prior():
    graph = FactorGraph(
        (Variable("x", "gaussian"),),
        (Factor("p", "gaussian_prior", ("x",), {"mean": -1.3, "variance": 0.7}),),
    )
    result = run_ep(graph, damping=DampingConfig(delta=1.0, tol=1e-12))
    assert result.converged
    got = result.marginals["x"]
    assert got.mean == pytest.approx(-1.3, abs=1e-12)
    assert got.variance == pytest.approx(0.7, rel=1e-12)


def test_delta_one_is_undamped():
    graph = chain_graph()
    sources = default_sources()
    state = init_state(graph)
    stepped = ep_sweep(state, graph, sources, DampingConfig(delta=1.0))
    # after one undamped sweep the prior edges hold the priors themselves
    prior_msg = from_natural("gaussian", stepped.messages[("p1", "x1")])
    assert prior_msg.mean == pytest.approx(0.0)
    assert prior_msg.variance == pytest.approx(1.0)
    # and the forward chain message is the exact conditional push-through
    fwd = from_natural("gaussian", stepped.messages[("q12", "x2")])
    assert fwd.mean == pytest.approx(0.8 * 0.0 + 0.5)
    assert fwd.variance == pytest.approx(0.8**2 * 1.0 + 0.3)


def test_half_damping_moves_halfway():
    graph = FactorGraph(
        (Variable("x", "gaussian"),),
        (Factor("p", "gaussian_prior", ("x",), {"mean": 2.0, "variance": 4.0}),),
    )
    state = init_state(graph)
    stepped = ep_sweep(state, graph, default_sources(), DampingConfig(delta=0.5))
    eta_target = to_natural(Gaussian1D(2.0, 4.0))
    np.testing.assert_allclose(stepped.messages[("p", "x")], 0.5 * eta_target, atol=1e-15)


def test_fixed_point_stays_fixed():
    graph = chain_graph()
    damping = DampingConfig(delta=1.0, tol=1e-12, max_iters=100)
    result = run_ep(graph, damping=damping)
    assert result.converged
    again = ep_sweep(result.state, graph, default_sources(), damping)
    assert again.max_delta <= damping.tol


def test_chain_matches_dense_solve():
    graph = chain_graph()
    result = run_ep(graph, damping=DampingConfig(delta=1.0, tol=1e-13, max_iters=100))
    assert result.converged
    for vid, exact in zip(("x1", "x2", "x3"), chain_exact_marginals()):
        got = to_natural(result.marginals[vid])
        want = to_natural(exact)
        assert np.max(np.abs(got - want)) <= 1e-10, vid


def test_chain_damped_reaches_same_fixed_point():
    graph = chain_graph()
    undamped = run_ep(graph, damping=DampingConfig(delta=1.0, tol=1e-13, max_iters=200))
    damped = run_ep(graph, damping=DampingConfig(delta=0.5, tol=1e-13, max_iters=200))
    assert damped.converged
    for vid in ("x1", "x2", "x3"):
        np.testing.assert_allclose(
            to_natural(damped.marginals[vid]),
            to_natural(undamped.marginals[vid]),
            atol=1e-10,
        )


def test_non_convergence_is_reported():
    graph = chain_graph()
    result = run_ep(graph, damping=DampingConfig(delta=0.5, tol=1e-13, max_iters=2))
    assert not result.converged
    assert result.iterations == 2


def test_run_ep_deterministic():
    graph = demo_graph()
    a = run_ep(graph, rng=np.random.default_rng(5))
    b = run_ep(graph, rng=np.random.default_rng(5))
    assert a.iterations == b.iterations
    for vid in a.marginals:
        np.testing.assert_array_equal(
            to_natural(a.marginals[vid]), to_natural(b.marginals[vid])
        )


# float.hex of every marginal's (mean, variance) or (alpha, beta) for
# logistic_regression_graph(10, 0) under default_sources() and
# default_rng(7), recorded from the engine that held its messages as
# (mean, variance) and converted them on every cavity; exact bits are only
# comparable on one numpy build and CPU
LOGISTIC_REGRESSION_HEX = {
    "w": ("0x1.def77043bc2c9p+0", "0x1.3ca90f093f8cap+0"),
    "x0": ("-0x1.b4e939dbfc554p-3", "0x1.b1c49187a6482p-1"),
    "x1": ("0x1.d14c3268e4ecfp-3", "0x1.af9776c5754a0p-1"),
    "x2": ("0x1.29299880123f4p-1", "0x1.35e76cee1a2e9p+0"),
    "x3": ("0x1.24ee7833e055dp-1", "0x1.a89bfbea83ffcp-1"),
    "x4": ("-0x1.4667bafc192dcp+0", "0x1.2249f85be6610p+0"),
    "x5": ("0x1.fa61ed171e4fdp-1", "0x1.eb8e4a01b5065p-1"),
    "x6": ("0x1.49a9d2f1d6652p+1", "0x1.5a8d5702650f7p+1"),
    "x7": ("0x1.f401fdd028fc9p+0", "0x1.c4b014ad9505dp+0"),
    "x8": ("-0x1.891b5560ce6e2p+0", "0x1.5498584529cf5p+0"),
    "x9": ("-0x1.4160babc52191p+1", "0x1.4ae4a64f8eb42p+1"),
    "z0": ("0x1.0000000000000p+0", "0x1.0000000000000p+1"),
    "z1": ("0x1.0000000000000p+1", "0x1.0000000000000p+0"),
    "z2": ("0x1.0000000000000p+0", "0x1.0000000000000p+1"),
    "z3": ("0x1.0000000000000p+1", "0x1.0000000000000p+0"),
    "z4": ("0x1.0000000000000p+0", "0x1.0000000000000p+1"),
    "z5": ("0x1.0000000000000p+1", "0x1.0000000000000p+0"),
    "z6": ("0x1.0000000000000p+1", "0x1.0000000000000p+0"),
    "z7": ("0x1.0000000000000p+1", "0x1.0000000000000p+0"),
    "z8": ("0x1.0000000000000p+0", "0x1.0000000000000p+1"),
    "z9": ("0x1.0000000000000p+0", "0x1.0000000000000p+1"),
}


def test_logistic_regression_marginals_keep_their_bits():
    result = run_ep(logistic_regression_graph(10, 0), rng=np.random.default_rng(7))
    assert (result.converged, result.iterations, result.skipped) == (True, 40, 0)
    got = {}
    for vid, m in result.marginals.items():
        pair = (m.alpha, m.beta) if isinstance(m, BetaDist) else (m.mean, m.variance)
        got[vid] = tuple(float(v).hex() for v in pair)
    assert got == LOGISTIC_REGRESSION_HEX


def test_logistic_regression_graph_noise_is_each_linear_factors_variance():
    base, quiet = logistic_regression_graph(5, 3), logistic_regression_graph(5, 3, noise=0.01)
    for f, g in zip(base.factors, quiet.factors):
        if f.kind == "linear_gaussian":
            assert (f.params["noise_variance"], g.params["noise_variance"]) == (1.0, 0.01)
            assert f.params["a"] == g.params["a"]
        else:
            assert f == g
    assert base.observations == quiet.observations


# ---------------------------------------------------------------------------
# Skip policy and error surfacing


class ImproperSource:
    kind = "broken"

    def __call__(self, factor, incoming, rng):
        return {factor.neighbors[0]: Gaussian1D(0.0, -1.0)}


class RaisingSource:
    kind = "raising"

    def __call__(self, factor, incoming, rng):
        raise DomainError("synthetic failure")


def test_improper_candidates_are_skipped():
    graph = FactorGraph(
        (Variable("x", "gaussian"),),
        (Factor("p", "gaussian_prior", ("x",), {"mean": 0.0, "variance": 1.0}),),
    )
    state = init_state(graph)
    stepped = ep_sweep(
        state, graph, {"gaussian_prior": ImproperSource()}, DampingConfig()
    )
    assert stepped.skipped == 1
    np.testing.assert_array_equal(stepped.messages[("p", "x")], np.zeros(2))


def test_source_failure_carries_edge_identity():
    graph = FactorGraph(
        (Variable("x", "gaussian"),),
        (Factor("p", "gaussian_prior", ("x",), {"mean": 0.0, "variance": 1.0}),),
    )
    with pytest.raises(EpSourceError) as err:
        ep_sweep(
            init_state(graph), graph, {"gaussian_prior": RaisingSource()}, DampingConfig()
        )
    assert err.value.factor_id == "p"


@given(
    st.floats(-3, 3),
    st.floats(0.1, 5),
    st.floats(-3, 3),
    st.floats(0.1, 5),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_damping_keeps_proper_messages_proper(m1, v1, m2, v2, delta):
    from kernelep.ep_engine import _damped

    out = _damped("gaussian", to_natural(Gaussian1D(m1, v1)), Gaussian1D(m2, v2), delta)
    assert not out.improper
    assert out.variance > 0


# ---------------------------------------------------------------------------
# Demo graph, oracle and operator sources


def test_demo_oracle_ep_matches_quadrature_posterior():
    # The sampling source sees common random numbers on every visit to a
    # factor, so the sweep map is deterministic and the tolerance is
    # reachable despite the stochastic oracle.
    want = Gaussian1D(
        helpers.DEMO_POSTERIOR["Ex"], helpers.DEMO_POSTERIOR["Var"]
    )
    kls = []
    for seed in range(10):
        result = run_ep(demo_graph(), rng=np.random.default_rng(1000 + seed))
        assert result.converged
        kls.append(kl_divergence(want, result.marginals["x"]))
    assert float(np.mean(kls)) <= 1e-2


def test_demo_marginal_consistency_after_run():
    result = run_ep(demo_graph(), rng=np.random.default_rng(77))
    graph = demo_graph()
    state = result.state
    marg = to_natural(result.marginals["x"])
    for f in graph.adjacency["x"]:
        recon = multiply(
            cavity(graph, state, f.id, "x"),
            from_natural("gaussian", state.messages[(f.id, "x")]),
        )
        np.testing.assert_allclose(to_natural(recon), marg, atol=1e-12)


def test_demo_operator_ep_runs_and_is_proper(demo_operator):
    op, _ = demo_operator
    oracle = run_ep(demo_graph(), rng=np.random.default_rng(11))
    sources = default_sources(OperatorSource(op))
    result = run_ep(demo_graph(), sources=sources, rng=np.random.default_rng(11))
    assert result.converged
    got = result.marginals["x"]
    assert not got.improper
    # sanity: same basin as the sampling-oracle run
    assert kl_divergence(oracle.marginals["x"], got) <= 5.0


def test_operator_source_is_sampling_free(demo_operator):
    op, _ = demo_operator
    sources = default_sources(OperatorSource(op))
    a = run_ep(demo_graph(), sources=sources, rng=np.random.default_rng(1))
    sources = default_sources(OperatorSource(op))
    b = run_ep(demo_graph(), sources=sources, rng=np.random.default_rng(2))
    for vid in a.marginals:
        np.testing.assert_array_equal(
            to_natural(a.marginals[vid]), to_natural(b.marginals[vid])
        )


def test_active_source_respects_budget(demo_operator):
    op, tau = demo_operator
    # force queries by using a tau far below any realistic variance
    src = ActiveSource(op, UncertaintyPolicy(tau=1e-30, budget=2), n_importance=2000)
    result = run_ep(
        demo_graph(),
        sources=default_sources(src),
        rng=np.random.default_rng(21),
    )
    assert result.queries == 2
    assert src.budget == 0
    # the log keeps the two queries first, then budget-exhausted fallbacks
    assert [e.action for e in src.log[:2]] == ["query", "query"]
    assert all(e.action == "fallback" for e in src.log[2:])
    assert len(src.log) == 3 * result.iterations
    assert all(e.tau == 1e-30 and e.variance > 0 for e in src.log)
    per_factor = {}
    for e in src.log:
        per_factor.setdefault(e.factor_id, []).append(e.iteration)
    for visits in per_factor.values():
        assert visits == sorted(visits)


def test_active_source_absorbs_queries(demo_operator, monkeypatch):
    op, tau = demo_operator
    # the benchmark counts oracle calls through this binding
    oracle_calls = []
    real_oracle = ep_engine.oracle_to_x

    def counting_oracle(inc, n, rng):
        oracle_calls.append(inc)
        return real_oracle(inc, n, rng)

    monkeypatch.setattr(ep_engine, "oracle_to_x", counting_oracle)
    src = ActiveSource(op, UncertaintyPolicy(tau=1e-30, budget=3), n_importance=2000)
    run_ep(demo_graph(), sources=default_sources(src), rng=np.random.default_rng(23))
    assert src.queries == 3 and len(oracle_calls) == 3
    assert src.op is not op
    assert src.op.model.n_train == op.model.n_train + 3


def test_active_source_featurizes_once_per_gated_message(demo_operator, monkeypatch):
    op, tau = demo_operator
    featurized, decisions = [], []
    real_featurize, real_decide = operator.featurize, ep_engine.decide

    def counting_featurize(o, inc):
        featurized.append(inc)
        return real_featurize(o, inc)

    def recording_decide(o, policy, inc):
        decisions.append((o, inc, real_decide(o, policy, inc)))
        return decisions[-1][2]

    monkeypatch.setattr(operator, "featurize", counting_featurize)
    monkeypatch.setattr(ep_engine, "decide", recording_decide)
    src = ActiveSource(op, UncertaintyPolicy(tau=0.2 * tau, budget=3), n_importance=2000)
    proposals = []

    def recording(factor, incoming, rng):
        gated = len(decisions)
        out = src(factor, incoming, rng)
        if len(decisions) > gated:
            proposals.append((decisions[-1], out[factor.neighbors[0]]))
        return out

    recording.prepare = src.prepare
    graph = demo_graph()
    run_ep(graph, sources=default_sources(recording), rng=np.random.default_rng(25))
    # neither the warm-up nor absorb featurizes: a query reuses decide's phi
    assert len(featurized) == len(decisions)
    assert src.queries > 0 and len(proposals) == len(decisions) > src.queries
    used = [(d, msg) for d, msg in proposals if isinstance(d[2], UsePrediction)]
    assert len(used) == len(decisions) - src.queries
    for (o, inc, _), msg in used:
        expected = divide(predict_q(o, inc), inc.m_x)
        np.testing.assert_array_equal(to_natural(msg), to_natural(expected))


SIX_OBSERVATIONS = ((5.0, 2.0), (4.0, 3.0), (2.0, 5.0), (1.5, 6.0), (7.0, 3.0), (3.0, 3.0))


def test_active_source_query_makes_one_inverse_pass(demo_operator, monkeypatch):
    op, _ = demo_operator
    passes, absorbed, per_query, queried = [], [], [], []
    real_apply, real_absorb = regress._apply_factor, ep_engine.absorb
    real_decide = ep_engine.decide

    def recording_decide(o, policy, inc):
        action = real_decide(o, policy, inc)
        if isinstance(action, QueryOracle):
            queried.append((inc, action.phi))
        return action

    def counting_apply(model, phi):
        passes.append(model)
        return real_apply(model, phi)

    def recording_absorb(o, phi, q):
        absorbed.append((o, phi, q, real_absorb(o, phi, q)))
        return absorbed[-1][3]

    monkeypatch.setattr(regress, "_apply_factor", counting_apply)
    monkeypatch.setattr(ep_engine, "absorb", recording_absorb)
    monkeypatch.setattr(ep_engine, "decide", recording_decide)
    # a tau below any variance: the first three gated messages query
    src = ActiveSource(op, UncertaintyPolicy(tau=1e-30, budget=3), n_importance=2000)

    def recording(factor, incoming, rng):
        before, queries = len(passes), src.queries
        out = src(factor, incoming, rng)
        if src.queries > queries:
            per_query.append(len(passes) - before)
        return out

    recording.prepare = src.prepare
    run_ep(demo_graph(), sources=default_sources(recording), rng=np.random.default_rng(27))
    # decide's variance is the only forward pass: absorb reuses its M phi
    assert per_query == [1, 1, 1] and len(absorbed) == 3
    for (o, phi, q, got), (inc, gated) in zip(absorbed, queried, strict=True):
        # absorb folds the answer in at the features the query was gated on
        assert phi is gated
        np.testing.assert_array_equal(phi, operator.featurize(o, inc))
        m = o.model
        memo_less = RidgeModel(m.W, m.lam, m.M, m.noise_scale, m.n_train, m.C)
        expected = update_online(memo_less, phi, np.array([q.mean, math.log(q.variance)]))
        for name in ("W", "M", "C"):
            assert getattr(got.model, name).tobytes() == getattr(expected, name).tobytes()


def test_deferred_fallback_log_equals_eager_scoring(demo_operator, monkeypatch):
    op, tau = demo_operator
    # a batch narrower than the default, so this run's queue fills it twice
    monkeypatch.setattr(ep_engine, "SCORE_BATCH", 64)
    decisions, batches = [], []
    real_decide, real_batch = ep_engine.decide, ep_engine.batch_variance

    def recording_decide(o, policy, inc):
        decisions.append((o, policy.budget, inc, real_decide(o, policy, inc)))
        return decisions[-1][3]

    def recording_batch(o, Phi):
        assert len(src._pending) == Phi.shape[1] <= ep_engine.SCORE_BATCH
        batches.append(Phi.shape[1])
        return real_batch(o, Phi)

    def gate_variance(model, phi):
        # a single vector per message while budget lasts, afterwards batches only
        assert (np.ndim(phi) == 1) == (src.budget > 0)
        return real_variance(model, phi)

    real_variance = operator.predictive_variance
    monkeypatch.setattr(ep_engine, "decide", recording_decide)
    monkeypatch.setattr(ep_engine, "batch_variance", recording_batch)
    monkeypatch.setattr(operator, "predictive_variance", gate_variance)
    src = ActiveSource(op, UncertaintyPolicy(tau=tau, budget=3), n_importance=2000)
    visits, expected = {}, []

    def recording(factor, incoming, rng):
        gated = len(decisions)
        out = src(factor, incoming, rng)
        assert len(src._pending) < ep_engine.SCORE_BATCH
        if len(decisions) > gated:
            visits[factor.id] = visits.get(factor.id, 0) + 1
            o, budget, inc, action = decisions[-1]
            if action.variance is None:
                assert budget == 0
                variance = real_variance(o.model, operator.featurize(o, inc))
            else:
                variance = action.variance
            if variance > tau:
                kind = "query" if budget else "fallback"
                key = (kind, factor.id, factor.neighbors[0], visits[factor.id])
                expected.append((*key, variance))
        return out

    recording.prepare = src.prepare
    run_ep(
        demo_graph(observations=SIX_OBSERVATIONS),
        sources=default_sources(recording),
        rng=np.random.default_rng(31),
    )
    deferred = sum(d[3].variance is None for d in decisions)
    assert src.queries == 3 and deferred > 2 * ep_engine.SCORE_BATCH
    assert batches[:2] == [ep_engine.SCORE_BATCH] * 2 and sum(batches) < deferred
    log = src.log  # reading the log scores what is still queued
    assert sum(batches) == deferred and not src._pending
    assert 3 < len(log) < len(decisions)  # tau picks out some fallbacks, not all
    got = [(e.action, e.factor_id, e.variable_id, e.iteration) for e in log]
    assert got == [e[:4] for e in expected]
    for event, (kind, *_, variance) in zip(log, expected):
        assert event.tau == tau
        if kind == "query":
            assert event.variance == variance
        else:
            assert event.variance == pytest.approx(variance, rel=1e-9, abs=0.0)


def test_logistic_sources_skip_improper_cavities(demo_operator):
    op, _ = demo_operator
    factor = Factor("f1", "logistic", ("x", "z"))
    proper = {"x": Gaussian1D(0.3, 1.5), "z": BetaDist(3.0, 2.0)}
    improper = [
        {"x": Gaussian1D.uniform(), "z": BetaDist(3.0, 2.0)},
        {"x": Gaussian1D(0.3, -1.5), "z": BetaDist(3.0, 2.0)},
        {"x": Gaussian1D(0.3, 1.5), "z": BetaDist(-1.0, 2.0)},
    ]
    # a tau below any variance: every proper cavity that reaches the gate queries
    active = ActiveSource(op, UncertaintyPolicy(tau=1e-30, budget=2), n_importance=2000)
    for source in (OracleSource(2000), OperatorSource(op), active):
        for incoming in improper:
            assert source(factor, incoming, np.random.default_rng(0)) == {}
        assert active.log == [] and active.budget == 2 and active.op is op
        assert set(source(factor, proper, np.random.default_rng(0))) == {"x"}
    assert active.queries == 1 and active.budget == 1
    # skipped visits count, so a query's iteration is still the visit number
    assert [e.iteration for e in active.log] == [len(improper) + 1]


LOGISTIC = Factor("f1", "logistic", ("x", "z"))
PROPER = {"x": Gaussian1D(0.3, 1.5), "z": BetaDist(3.0, 2.0)}


def test_active_source_query_is_the_oracle_source_message(demo_operator):
    # a query draws on OracleSource's sub-streams: for the same factor,
    # cavities and rng the two send the same message, bit for bit
    op, _ = demo_operator
    active = ActiveSource(op, UncertaintyPolicy(tau=1e-30, budget=1), n_importance=2000)
    got = active(LOGISTIC, PROPER, np.random.default_rng(5))["x"]
    want = OracleSource(2000)(LOGISTIC, PROPER, np.random.default_rng(5))["x"]
    assert active.queries == 1
    assert to_natural(got).tobytes() == to_natural(want).tobytes()


def test_active_source_query_retries_a_degenerate_draw(demo_operator, monkeypatch):
    op, _ = demo_operator
    draws = []
    real_oracle = ep_engine.oracle_to_x

    def first_degenerates(inc, n, rng):
        draws.append(inc)
        if len(draws) == 1:
            raise DegenerateSampleError("synthetic degenerate draw", ess=1.0)
        return real_oracle(inc, n, rng)

    monkeypatch.setattr(ep_engine, "oracle_to_x", first_degenerates)
    active = ActiveSource(op, UncertaintyPolicy(tau=1e-30, budget=1), n_importance=2000)
    got = active(LOGISTIC, PROPER, np.random.default_rng(5))["x"]
    assert len(draws) == 2 and active.queries == 1
    # the answer comes from the second of the oracle's sub-streams
    inc = IncomingTuple(PROPER["x"], PROPER["z"])
    q, _ = real_oracle(inc, 2000, np.random.default_rng(5).spawn(2)[1])
    assert to_natural(got).tobytes() == to_natural(divide(q, inc.m_x)).tobytes()


def test_logistic_sources_refuse_too_few_importance_draws(demo_operator):
    op, _ = demo_operator
    with pytest.raises(DomainError, match="n_importance"):
        OracleSource(99)
    with pytest.raises(DomainError, match="n_importance"):
        ActiveSource(op, UncertaintyPolicy(tau=1.0, budget=1), n_importance=50)


def test_prepare_warms_the_betas_ep_looks_up(demo_operator, monkeypatch):
    # a cavity returns an observation through its natural parameters, and
    # for a shape below 1 that is another float: the warm-up keys on it
    op, _ = demo_operator
    graph = demo_graph(((5.0, 2.0), (0.3, 2.0)))
    assert from_natural("beta", graph.observed["z2"]).alpha != 0.3
    source = OperatorSource(MessageOperator(op.spec, op.model))  # empty memos
    source.prepare(graph)
    calls = []
    real_cf = operator.beta_cf

    def counting_cf(*args):
        calls.append(args)
        return real_cf(*args)

    monkeypatch.setattr(operator, "beta_cf", counting_cf)
    run_ep(graph, default_sources(source), rng=np.random.default_rng(0))
    assert calls == []


def test_timings_recorded_by_source_kind():
    result = run_ep(demo_graph(), rng=np.random.default_rng(3))
    assert set(result.message_seconds) == {"prior", "oracle"}
    per_message = result.message_seconds["oracle"]
    assert len(per_message) == 3 * result.iterations
    assert all(t > 0 for t in per_message) and math.fsum(per_message) > 0
