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
from kernelep.errors import DegenerateSampleError, DomainError, EpSourceError, PredictionError
from kernelep.expfam import (
    BetaDist,
    Gaussian1D,
    divide,
    from_natural,
    kl_divergence,
    multiply,
    to_natural,
)
from kernelep.factors import IncomingPrior, IncomingTuple, gen_training_set, sample_incoming
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
    demo = demo_graph()
    for alpha in ("5", True, math.inf):
        with pytest.raises(DomainError, match="'z1' alpha"):
            FactorGraph(demo.variables, demo.factors, {"z1": BetaDist(alpha, 2.0)})
        # the builders hold their inputs to the same rule, where float() would coerce
        with pytest.raises(DomainError, match="'z1' alpha"):
            demo_graph(observations=((alpha, 2.0),))
    for n, seed, noise, name in (
        (2.5, 0, 1.0, "n"), (True, 0, 1.0, "n"), (3, "0", 1.0, "seed"), (3, -1, 1.0, "seed"),
        (3, 0, "1", "noise"), (3, 0, True, "noise"),
    ):
        with pytest.raises(DomainError, match=name):
            logistic_regression_graph(n, seed, noise)


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
@pytest.mark.parametrize("value", ["missing", math.nan, math.inf, "abc", None, "1.5", True])
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


@pytest.mark.parametrize(
    "key, value",
    [pytest.param("max_iters", v, id=str(v)) for v in (2.5, 3.0, True, "3", None)]
    + [("delta", "x"), ("delta", True), ("tol", None), ("tol", math.inf)],
)
def test_damping_refuses_a_non_integer_max_iters(key, value):
    # and a delta or tol that is not a finite number
    with pytest.raises(DomainError, match=key):
        DampingConfig(**{key: value})
    assert DampingConfig(max_iters=np.int64(3)).max_iters == 3
    assert DampingConfig(delta=np.float64(0.25), tol=1).delta == 0.25


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
# default_rng(7), recorded with the oracle's log weights leaving out the
# Beta normalizer (which moved no value by more than 11 ulps); exact bits are
# only comparable on one numpy build and CPU
LOGISTIC_REGRESSION_HEX = {
    "w": ("0x1.def77043bc2c9p+0", "0x1.3ca90f093f8cap+0"),
    "x0": ("-0x1.b4e939dbfc55bp-3", "0x1.b1c49187a6487p-1"),
    "x1": ("0x1.d14c3268e4ed2p-3", "0x1.af9776c5754a0p-1"),
    "x2": ("0x1.29299880123f1p-1", "0x1.35e76cee1a2eap+0"),
    "x3": ("0x1.24ee7833e055bp-1", "0x1.a89bfbea83ffbp-1"),
    "x4": ("-0x1.4667bafc192dcp+0", "0x1.2249f85be6611p+0"),
    "x5": ("0x1.fa61ed171e4fdp-1", "0x1.eb8e4a01b5065p-1"),
    "x6": ("0x1.49a9d2f1d6654p+1", "0x1.5a8d5702650ecp+1"),
    "x7": ("0x1.f401fdd028fcep+0", "0x1.c4b014ad95058p+0"),
    "x8": ("-0x1.891b5560ce6e1p+0", "0x1.5498584529cf5p+0"),
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


def test_a_reused_active_source_reports_each_runs_own_queries(demo_operator):
    op, _ = demo_operator
    src = ActiveSource(op, UncertaintyPolicy(tau=1e-30, budget=4), n_importance=2000)
    first = run_ep(demo_graph(), sources=default_sources(src), rng=np.random.default_rng(23))
    # the budget is spent, so the second run makes no query
    second = run_ep(demo_graph(), sources=default_sources(src), rng=np.random.default_rng(23))
    assert (first.queries, second.queries, src.queries) == (4, 0, 4)


def test_active_source_featurizes_once_per_gated_message(demo_operator, monkeypatch):
    op, tau = demo_operator
    featurized, visits = [], []
    real_featurize = operator.featurize

    def counting_featurize(o, m_x, m_z):
        featurized.append((m_x, m_z))
        return real_featurize(o, m_x, m_z)

    monkeypatch.setattr(operator, "featurize", counting_featurize)
    src = ActiveSource(op, UncertaintyPolicy(tau=0.2 * tau, budget=3), n_importance=2000)

    def recording(factor, incoming, rng):
        o, queries = src.op, src.queries
        out = src(factor, incoming, rng)
        x_id, z_id = factor.neighbors
        inc = IncomingTuple(incoming[x_id], incoming[z_id])
        visits.append((o, inc, src.queries > queries, out.get(x_id)))
        return out

    graph = demo_graph()
    run_ep(graph, sources=default_sources(recording), rng=np.random.default_rng(25))
    # absorb does not featurize: a query reuses decide's phi,
    # and a message after the budget is spent featurizes once, without decide
    sent = [v for v in visits if v[3] is not None]
    assert len(featurized) == len(sent)
    assert 0 < src.queries < len(sent) and src.budget == 0
    used = [(o, inc, msg) for o, inc, queried, msg in sent if not queried]
    assert len(used) == len(sent) - src.queries
    for o, inc, msg in used:
        expected = divide(predict_q(o, inc), inc.m_x)
        np.testing.assert_array_equal(to_natural(msg), to_natural(expected))


SIX_OBSERVATIONS = ((5.0, 2.0), (4.0, 3.0), (2.0, 5.0), (1.5, 6.0), (7.0, 3.0), (3.0, 3.0))


def test_active_source_query_makes_one_inverse_pass(demo_operator, monkeypatch):
    op, _ = demo_operator
    passes, absorbed, per_query, queried = [], [], [], []
    real_apply, real_absorb = regress._apply_factor, ep_engine.absorb
    real_decide = ep_engine.decide

    def recording_decide(o, tau, m_x, m_z):
        action = real_decide(o, tau, m_x, m_z)
        if isinstance(action, QueryOracle):
            queried.append((IncomingTuple(m_x, m_z), action.phi))
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

    run_ep(demo_graph(), sources=default_sources(recording), rng=np.random.default_rng(27))
    # decide's variance is the only forward pass: absorb reuses its M phi
    assert per_query == [1, 1, 1] and len(absorbed) == 3
    for (o, phi, q, got), (inc, gated) in zip(absorbed, queried, strict=True):
        # absorb folds the answer in at the features the query was gated on
        assert phi is gated
        np.testing.assert_array_equal(phi, operator.featurize(o, inc.m_x, inc.m_z))
        m = o.model
        memo_less = RidgeModel(m.W, m.lam, m.M, m.noise_scale, m.n_train, m.C)
        expected = update_online(memo_less, phi, np.array([q.mean, math.log(q.variance)]))
        for name in ("W", "M", "C"):
            assert getattr(got.model, name).tobytes() == getattr(expected, name).tobytes()


def _deferred_messages(op, policy, graph, seed) -> int:
    """Messages an ActiveSource sends after its budget is spent, in one run."""
    src = ActiveSource(op, policy, n_importance=2000)
    deferred = 0

    def counting(factor, incoming, rng):
        nonlocal deferred
        spent = src.budget == 0
        out = src(factor, incoming, rng)
        deferred += spent and bool(out)
        return out

    run_ep(graph, sources=default_sources(counting), rng=np.random.default_rng(seed))
    return deferred


def test_deferred_fallback_log_equals_eager_scoring(demo_operator, monkeypatch):
    op, tau = demo_operator
    # a batch sized from this run's own deferred messages, n = 2 * batch + 1
    # or + 2, so the queue fills it twice and leaves a remainder however
    # soon the operator converges
    policy = UncertaintyPolicy(tau=tau, budget=3)
    planned = _deferred_messages(op, policy, demo_graph(observations=SIX_OBSERVATIONS), 31)
    assert planned >= 7
    monkeypatch.setattr(ep_engine, "_CHUNK", (planned - 1) // 2)
    decisions, batches = [], []
    real_decide = ep_engine.decide

    def recording_decide(o, tau, m_x, m_z):
        decisions.append(real_decide(o, tau, m_x, m_z))
        return decisions[-1]

    def recording_batch(model, Phi):
        assert len(src._pending) == Phi.shape[1] <= ep_engine._CHUNK
        batches.append(Phi.shape[1])
        return gate_variance(model, Phi)

    def gate_variance(model, phi):
        # a single vector per message while budget lasts, afterwards batches only
        assert (np.ndim(phi) == 1) == (src.budget > 0)
        return real_variance(model, phi)

    real_variance = operator.predictive_variance
    monkeypatch.setattr(ep_engine, "decide", recording_decide)
    monkeypatch.setattr(ep_engine, "predictive_variance", recording_batch)
    monkeypatch.setattr(operator, "predictive_variance", gate_variance)
    src = ActiveSource(op, policy, n_importance=2000)
    visits, expected, sent = {}, [], []

    def recording(factor, incoming, rng):
        gated, budget, o = len(decisions), src.budget, src.op
        out = src(factor, incoming, rng)
        assert len(src._pending) < ep_engine._CHUNK
        visits[factor.id] = visits.get(factor.id, 0) + 1
        x_id, z_id = factor.neighbors
        if out:
            sent.append(budget)
            # decide gates while budget lasts and is skipped afterwards
            assert len(decisions) == gated + (budget > 0)
            if budget:
                variance = decisions[-1].variance
            else:
                phi = operator.featurize(o, incoming[x_id], incoming[z_id])
                variance = real_variance(o.model, phi)
            if variance > tau:
                kind = "query" if budget else "fallback"
                expected.append((kind, factor.id, x_id, visits[factor.id], variance))
        return out

    run_ep(
        demo_graph(observations=SIX_OBSERVATIONS),
        sources=default_sources(recording),
        rng=np.random.default_rng(31),
    )
    deferred = sent.count(0)
    assert src.queries == 3 and deferred > 2 * ep_engine._CHUNK
    assert batches[:2] == [ep_engine._CHUNK] * 2 and sum(batches) < deferred
    log = src.log  # reading the log scores what is still queued
    assert sum(batches) == deferred and not src._pending
    assert 3 < len(log) < len(sent)  # tau picks out some fallbacks, not all
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


def _marginals_hex(result):
    return {
        vid: tuple(float(v).hex() for v in to_natural(m)) for vid, m in result.marginals.items()
    }


@pytest.mark.parametrize(
    "graph", [demo_graph, lambda: logistic_regression_graph(10, 0)], ids=["demo", "logistic10"]
)
def test_active_source_without_budget_sends_the_operator_sources_messages(demo_operator, graph):
    # no budget: every message is the operator's prediction, and a tau
    # below any variance logs each one as a fallback
    op, _ = demo_operator
    want = run_ep(graph(), default_sources(OperatorSource(op)), rng=np.random.default_rng(31))
    active = ActiveSource(op, UncertaintyPolicy(tau=1e-30, budget=0), n_importance=2000)
    got = run_ep(graph(), default_sources(active), rng=np.random.default_rng(31))
    assert _marginals_hex(got) == _marginals_hex(want)
    assert (got.iterations, got.skipped) == (want.iterations, want.skipped)
    assert got.queries == 0 and active.op is op
    assert active.log and {e.action for e in active.log} == {"fallback"}


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


def test_operator_messages_are_the_composed_prediction_bit_for_bit(demo_operator):
    # the sources' message path leaves out the IncomingTuple, the natural-
    # parameter arrays and the repeated checks, but no arithmetic step
    op, _ = demo_operator
    fresh = MessageOperator(op.spec, op.model)  # its own, cold Beta memo
    sources = (
        OperatorSource(fresh),
        ActiveSource(fresh, UncertaintyPolicy(tau=1.0, budget=0), n_importance=2000),
    )
    rng = np.random.default_rng(61)
    pool = [sample_incoming(IncomingPrior(), rng).m_z for _ in range(8)]
    for i in range(600):
        inc = sample_incoming(IncomingPrior(alpha_range=(0.5, 10.0)), rng)
        if i % 2:  # half the Betas repeat, so the memo hits as well as misses
            inc = IncomingTuple(inc.m_x, pool[i % len(pool)])
        expected = to_natural(divide(predict_q(op, inc), inc.m_x)).tobytes()
        for source in sources:
            got = source(LOGISTIC, {"x": inc.m_x, "z": inc.m_z}, np.random.default_rng(0))
            assert to_natural(got["x"]).tobytes() == expected
    assert len(fresh._beta_cache) > len(pool)


def test_overflowing_prediction_fails_naming_the_factor(demo_operator, monkeypatch):
    op, _ = demo_operator
    # a finite log-variance whose exp overflows
    monkeypatch.setattr(operator, "predict", lambda model, phi: np.array([0.0, 800.0]))
    for source in (
        OperatorSource(op),
        ActiveSource(op, UncertaintyPolicy(tau=1.0, budget=0), n_importance=2000),
        ActiveSource(op, UncertaintyPolicy(tau=1e30, budget=1), n_importance=2000),
    ):
        with pytest.raises(EpSourceError) as err:
            run_ep(demo_graph(), sources=default_sources(source), rng=np.random.default_rng(3))
        assert (err.value.factor_id, err.value.variable_id) == ("f1_logistic", "x")
        assert isinstance(err.value.__cause__, PredictionError)


def test_logistic_sources_refuse_too_few_importance_draws(demo_operator):
    op, _ = demo_operator
    for n in (99, 150.7, "200", True):
        with pytest.raises(DomainError, match="n_importance"):
            OracleSource(n)
    assert OracleSource(np.int64(200)).n_importance == 200
    with pytest.raises(DomainError, match="n_importance"):
        ActiveSource(op, UncertaintyPolicy(tau=1.0, budget=1), n_importance=50)


def test_beta_memo_fills_once_per_observation(demo_operator, monkeypatch):
    # featurize is the memo's one fill path: from a cold memo each observation
    # costs one Beta CF over all sweeps, also a shape below 1, which a cavity
    # returns through its natural parameters as another float
    op, _ = demo_operator
    graph = demo_graph(((5.0, 2.0), (0.3, 2.0)))
    assert from_natural("beta", graph.observed["z2"]).alpha != 0.3
    calls = []
    real_cf = operator.beta_cf

    def counting_cf(frequencies, betas, phases):
        calls.extend((b.alpha, b.beta) for b in betas)
        return real_cf(frequencies, betas, phases)

    monkeypatch.setattr(operator, "beta_cf", counting_cf)
    source = OperatorSource(MessageOperator(op.spec, op.model))  # empty memos
    result = run_ep(graph, default_sources(source), rng=np.random.default_rng(0))
    assert result.iterations > 1
    assert sorted(calls) == sorted(
        (b.alpha, b.beta) for b in (from_natural("beta", eta) for eta in graph.observed.values())
    )


def test_timings_recorded_by_source_kind():
    result = run_ep(demo_graph(), rng=np.random.default_rng(3))
    assert set(result.message_seconds) == {"prior", "oracle"}
    per_message = result.message_seconds["oracle"]
    assert len(per_message) == 3 * result.iterations
    assert all(t > 0 for t in per_message) and math.fsum(per_message) > 0
