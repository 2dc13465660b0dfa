import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import packed_factor
from kernelep import kernels, operator, regress
from kernelep.errors import DomainError, PredictionError
from kernelep.expfam import (
    BetaDist,
    Gaussian1D,
    divide,
    kl_divergence,
    multiply,
    to_natural,
)
from kernelep.factors import (
    IncomingPrior,
    IncomingTuple,
    TrainingPair,
    gen_training_set,
    sample_incoming,
)
from kernelep.kernels import (
    PointFeatures,
    TwoStageSpec,
    draw_rff,
    embedding_features,
    joint_features_batch,
)
from kernelep.operator import (
    PROJECTION_DIM,
    MessageOperator,
    QueryOracle,
    UncertaintyPolicy,
    UsePrediction,
    absorb,
    decide,
    default_tau,
    featurize,
    featurize_batch,
    outgoing_message,
    predict_q,
    train_operator,
    _q_from_output,
)
from kernelep.regress import RidgeModel, fit, predictive_variance, update_online


def flat_beta_pairs(n, seed):
    """Training pairs in the Beta(1,1) regime, where targets are analytic."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        mean = float(rng.uniform(-5, 5))
        var = float(math.exp(rng.uniform(math.log(0.1), math.log(10))))
        inc = IncomingTuple(Gaussian1D(mean, var), BetaDist(1.0, 1.0))
        pairs.append(TrainingPair(inc, np.array([mean, math.log(var)]), 1000.0, 1000))
    return pairs


@pytest.fixture(scope="module")
def flat_op():
    # n well above the feature count, so predictive variances are calibrated
    op, _, _ = train_operator(flat_beta_pairs(300, seed=31), 100, np.random.default_rng(32))
    return op


@pytest.fixture(scope="module")
def trained():
    pairs = gen_training_set(
        IncomingPrior(), 300, 4000, np.random.default_rng(101)
    )
    op, report, tau = train_operator(pairs, 60, np.random.default_rng(202))
    return pairs, op, report, tau


def test_featurize_deterministic(trained):
    _, op, _, _ = trained
    inc = IncomingTuple(Gaussian1D(0.5, 1.0), BetaDist(3.0, 4.0))
    first = featurize(op, inc.m_x, inc.m_z)
    second = featurize(op, inc.m_x, inc.m_z)  # second call hits the Beta cache
    np.testing.assert_array_equal(first, second)
    fresh = MessageOperator(op.spec, op.model)
    np.testing.assert_array_equal(featurize(fresh, inc.m_x, inc.m_z), first)
    assert first.shape == (op.model.num_features,)


def test_beta_memo_is_capped_and_recomputes_evicted_rows(trained):
    _, op, _, _ = trained
    op = MessageOperator(op.spec, op.model)
    rng = np.random.default_rng(48)
    incs = [
        IncomingTuple(Gaussian1D(0.3, 1.5), BetaDist(*rng.uniform(1.0, 10.0, size=2)))
        for _ in range(operator.BETA_MEMO_CAP + 20)
    ]
    first = featurize(op, incs[0].m_x, incs[0].m_z)
    for inc in incs[1:]:
        featurize(op, inc.m_x, inc.m_z)
    assert len(op._beta_cache) == operator.BETA_MEMO_CAP
    # the oldest rows went first, and an evicted row comes back with the same bits
    assert (incs[0].m_z.alpha, incs[0].m_z.beta) not in op._beta_cache
    assert (incs[-1].m_z.alpha, incs[-1].m_z.beta) in op._beta_cache
    np.testing.assert_array_equal(featurize(op, incs[0].m_x, incs[0].m_z), first)
    assert len(op._beta_cache) == operator.BETA_MEMO_CAP


def test_phase_memo_keeps_no_order_past_the_box_betas(trained, monkeypatch):
    # a Beta(7e3, 7e3) cavity escalates past order 256, the highest the
    # prior box's Betas reach; its higher orders' phase matrices are built
    # for the call alone, and the features keep a fresh operator's bits
    _, op, _, _ = trained
    op = MessageOperator(op.spec, op.model)
    m_x = Gaussian1D(0.3, 1.2)
    orders = []
    unit_gl = kernels._unit_gl

    def recording(order):
        orders.append(order)
        return unit_gl(order)

    monkeypatch.setattr(kernels, "_unit_gl", recording)
    got = [featurize(op, m_x, BetaDist(*ab)) for ab in ((2.0, 3.0), (7e3, 7e3), (10.0, 1.0))]
    assert max(orders) > kernels.PHASE_MEMO_ORDER
    assert op._phases and max(op._phases) <= kernels.PHASE_MEMO_ORDER
    for ab, features in zip(((2.0, 3.0), (7e3, 7e3), (10.0, 1.0)), got):
        fresh = MessageOperator(op.spec, op.model)
        assert featurize(fresh, m_x, BetaDist(*ab)).tobytes() == features.tobytes()


def test_featurize_rejects_improper(trained):
    _, op, _, _ = trained
    with pytest.raises(DomainError):
        featurize(op, Gaussian1D(0.0, -1.0), BetaDist(2.0, 2.0))
    with pytest.raises(DomainError):
        featurize(op, Gaussian1D(0.0, 1.0), BetaDist(-1.0, 2.0))
    assert (-1.0, 2.0) not in op._beta_cache
    with pytest.raises(DomainError):
        operator.warm_beta_cache(op, [BetaDist(-1.0, 2.0)])


def test_featurize_joint_matches_kernels_module(trained):
    _, op, _, _ = trained
    inc = IncomingTuple(Gaussian1D(-0.7, 2.0), BetaDist(500.0, 500.0))
    emb = joint_features_batch(op.spec.inner, [inc])[0]
    np.testing.assert_array_equal(
        featurize(op, inc.m_x, inc.m_z), embedding_features(op.spec, emb)
    )


def test_featurize_batch_matches_single(trained):
    _, op, _, _ = trained
    tuples = [
        IncomingTuple(Gaussian1D(0.1, 1.0), BetaDist(2.0, 3.0)),
        IncomingTuple(Gaussian1D(-1.0, 0.4), BetaDist(5.0, 1.5)),
    ]
    batch = featurize_batch(op, tuples)
    for i, t in enumerate(tuples):
        np.testing.assert_allclose(batch[:, i], featurize(op, t.m_x, t.m_z), atol=1e-12)


def test_featurize_batch_rejects_empty(trained):
    _, op, _, _ = trained
    with pytest.raises(DomainError, match="empty"):
        featurize_batch(op, [])


def test_mean_output_memorizes_at_tiny_ridge():
    # At lam=1e-8 the fit reproduces the mean row of its own training targets.
    # The log-variance row is NOT expected to interpolate: the embedding
    # features carry only a weak signal about the incoming variance, so the
    # effective rank of the gram is far below n regardless of lam.
    pairs = flat_beta_pairs(50, seed=35)
    spec = draw_rff(2, 200, (2.0, 0.2), np.random.default_rng(36))
    Phi = joint_features_batch(spec, [p.input for p in pairs]).T
    Y = np.array([p.target for p in pairs]).T
    fitted = fit(Phi, Y, 1e-8).W @ Phi
    assert np.max(np.abs(fitted[0] - Y[0])) <= 1e-2


def test_flat_beta_regime_predicts_incoming(flat_op):
    # With a flat Beta factor the projected tilted equals the incoming
    # Gaussian.  The operator recovers its location sharply; the scale is
    # recovered only coarsely (see the note in the memorization test), so the
    # KL bound is loose while the mean bound is tight.
    rng = np.random.default_rng(37)
    kls = []
    for _ in range(20):
        g = Gaussian1D(float(rng.uniform(-4, 4)), float(rng.uniform(0.2, 8.0)))
        inc = IncomingTuple(g, BetaDist(1.0, 1.0))
        q = predict_q(flat_op, inc)
        assert abs(q.mean - g.mean) <= 0.1
        kls.append(kl_divergence(g, q))
    assert float(np.median(kls)) <= 1.0


def test_flat_beta_outgoing_stays_bounded(flat_op):
    # The quotient message in the flat regime is weak but not exactly
    # uniform; what must hold is that it never blows up and that multiplying
    # it back into the incoming Gaussian restores the predicted location.
    for mean, var in [(0.8, 1.7), (-2.0, 0.5), (3.0, 4.0), (0.0, 1.0)]:
        inc = IncomingTuple(Gaussian1D(mean, var), BetaDist(1.0, 1.0))
        out = outgoing_message(flat_op, inc.m_x, inc.m_z)[0]
        eta = to_natural(out)
        assert np.all(np.isfinite(eta))
        assert np.max(np.abs(eta)) <= 3.0
        back = multiply(out, inc.m_x)
        assert abs(back.mean - mean) <= 0.1


def test_outgoing_division_round_trip(trained):
    _, op, _, _ = trained
    inc = IncomingTuple(Gaussian1D(0.4, 1.1), BetaDist(4.0, 2.0))
    out, _ = outgoing_message(op, inc.m_x, inc.m_z)
    q = predict_q(op, inc)
    recovered = multiply(out, inc.m_x)
    np.testing.assert_allclose(to_natural(recovered), to_natural(q), atol=1e-12)


def tiny_spec(num_features, seed):
    rng = np.random.default_rng(seed)
    inner = draw_rff(2, 8, (1.0, 0.25), rng)
    return TwoStageSpec(inner, np.zeros(8), np.eye(8)[:, :3], draw_rff(3, num_features, 1.0, rng))


def test_prediction_errors_surface():
    spec = tiny_spec(16, seed=38)
    nan_model = RidgeModel(np.full((2, 16), np.nan), 1.0, packed_factor(np.eye(16)), 1.0, 1)
    op = MessageOperator(spec, nan_model)
    inc = IncomingTuple(Gaussian1D(0.0, 1.0), BetaDist(2.0, 2.0))
    with pytest.raises(PredictionError):
        predict_q(op, inc)
    huge_model = RidgeModel(np.full((2, 16), 1e9), 1.0, packed_factor(np.eye(16)), 1.0, 1)
    with pytest.raises(PredictionError):
        predict_q(MessageOperator(spec, huge_model), inc)


def test_output_variance_always_positive(trained):
    pairs, op, _, _ = trained
    for p in pairs[:25]:
        q = predict_q(op, p.input)
        assert q.variance > 0
        assert not q.improper


def test_output_transform_gives_gaussian():
    g = _q_from_output(np.array([0.5, math.log(2.0)]))
    assert g == Gaussian1D(0.5, 2.0)


def test_output_transform_refuses_log_variances_past_the_float_range():
    # exp overflows past log V = 709.78 and underflows to 0 below -745
    for log_var in (800.0, -800.0, math.inf, math.nan):
        with pytest.raises(PredictionError):
            _q_from_output(np.array([0.0, log_var]))
    assert _q_from_output(np.array([0.0, 709.0])).variance == math.exp(709.0)


def test_decide_threshold_limits(trained):
    _, op, _, _ = trained
    inc = IncomingTuple(Gaussian1D(2.0, 3.0), BetaDist(6.0, 2.0))
    always_use = decide(op, 1e30, inc.m_x, inc.m_z)
    assert isinstance(always_use, UsePrediction)
    assert always_use.q.variance > 0
    always_query = decide(op, 1e-30, inc.m_x, inc.m_z)
    assert isinstance(always_query, QueryOracle)
    # with no gate the message is outgoing_message's, the prediction however
    # large its variance
    message, phi = outgoing_message(op, inc.m_x, inc.m_z)
    assert message == divide(predict_q(op, inc), inc.m_x)
    np.testing.assert_array_equal(phi, featurize(op, inc.m_x, inc.m_z))


def test_absorb_flips_decision(trained):
    _, op, _, _ = trained
    inc = IncomingTuple(Gaussian1D(4.5, 6.0), BetaDist(1.2, 8.0))
    phi = featurize(op, inc.m_x, inc.m_z)
    v_before = predictive_variance(op.model, phi)
    updated = absorb(op, phi, Gaussian1D(0.3, math.exp(-0.5)))
    v_after = predictive_variance(updated.model, phi)
    assert v_after < v_before
    tau = (v_after + v_before) / 2.0
    assert isinstance(decide(op, tau, inc.m_x, inc.m_z), QueryOracle)
    assert isinstance(decide(updated, tau, inc.m_x, inc.m_z), UsePrediction)


def test_decide_and_absorb_call_the_module_bindings(trained, monkeypatch):
    # the benchmark times predictive_variance and update_online through
    # these bindings, so the gate and the absorb must reach them
    _, op, _, _ = trained
    calls = {"predictive_variance": 0, "update_online": 0}

    def counting(name):
        inner = getattr(operator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(operator, name, counting(name))
    inc = IncomingTuple(Gaussian1D(1.5, 2.0), BetaDist(3.0, 5.0))
    action = decide(op, 1e-30, inc.m_x, inc.m_z)
    assert calls == {"predictive_variance": 1, "update_online": 0}
    # the query carries the features it was gated on, for absorb
    assert isinstance(action, QueryOracle)
    np.testing.assert_array_equal(action.phi, featurize(op, inc.m_x, inc.m_z))
    absorb(op, action.phi, Gaussian1D(0.2, math.exp(-0.4)))
    assert calls == {"predictive_variance": 1, "update_online": 1}


def test_absorb_diminishing_correction(trained):
    _, op, _, _ = trained
    inc = IncomingTuple(Gaussian1D(-3.0, 0.5), BetaDist(7.0, 1.5))
    target = np.array([-2.5, -1.0])
    q = Gaussian1D(target[0], math.exp(target[1]))
    phi = featurize(op, inc.m_x, inc.m_z)
    once = absorb(op, phi, q)
    twice = absorb(once, phi, q)
    first_step = np.linalg.norm(once.model.W - op.model.W)
    second_step = np.linalg.norm(twice.model.W - once.model.W)
    assert second_step < first_step
    # prediction moved toward the oracle answer
    before = op.model.W @ phi
    after = once.model.W @ phi
    assert np.sum((after - target) ** 2) < np.sum((before - target) ** 2)


def test_query_rate_at_default_tau(trained):
    pairs, op, _, tau = trained
    rng = np.random.default_rng(39)
    fresh = [sample_incoming(IncomingPrior(), rng) for _ in range(200)]
    queries = sum(
        isinstance(decide(op, tau, inc.m_x, inc.m_z), QueryOracle) for inc in fresh
    )
    assert 0 < queries / len(fresh) <= 0.25


def test_train_operator_reports(trained):
    pairs, op, report, tau = trained
    assert report.chosen_params in report.grid
    assert report.fold_errors.shape == (len(report.grid), 5)
    assert np.all(np.isfinite(report.fold_errors))
    assert tau > 0
    phi = featurize_batch(op, [p.input for p in pairs])
    assert phi.shape == (op.model.num_features, len(pairs))
    # training features are the inference path's, bit for bit
    assert default_tau(op.model, phi) == tau
    refit = fit(phi, np.array([p.target for p in pairs]).T, report.chosen_params[1])
    np.testing.assert_array_equal(refit.W, op.model.W)
    np.testing.assert_array_equal(refit.M, op.model.M)


def test_a_batch_scores_its_chunks_bits_and_tau_is_its_percentile():
    # D = 600 puts the factor in two column blocks; N = 2 * _CHUNK + 77
    # leaves a partial last chunk.  Three online updates give the model a
    # carry, so each chunk passes both products
    rng = np.random.default_rng(49)
    D, chunk = 600, regress._CHUNK
    N = 2 * chunk + 77
    lazy = PointFeatures(draw_rff(16, D, 4.0, rng), rng.normal(size=(N, 16)))
    Phi = np.asarray(lazy)
    model = fit(Phi, rng.normal(size=(2, N)), 1e-3)
    for phi in rng.normal(size=(3, D)):
        model = update_online(model, phi / math.sqrt(D), rng.normal(size=2))
    chunks = [predictive_variance(model, Phi[:, j : j + chunk]) for j in range(0, N, chunk)]
    assert [len(v) for v in chunks] == [chunk, chunk, 77]
    expected = np.concatenate(chunks)
    for batch in (Phi, lazy):
        assert predictive_variance(model, batch).tobytes() == expected.tobytes()
        assert default_tau(model, batch) == float(np.percentile(expected, 90.0))


def test_default_tau_and_variances_of_a_lazy_matrix_are_its_arrays():
    # D = 600 features of N = 3000 points in 16 dimensions: the whole matrix
    # is 14.4 MB.  Both read 128-column chunks, each with its (M X)^T,
    # about 1.5 MB with temporaries: under a quarter of the whole matrix
    # for tau and under half of it for predictive_variance.  Either bound
    # refuses a build of the whole matrix
    rng = np.random.default_rng(50)
    D, N = 600, 3000
    points = rng.normal(size=(N, 16))
    lazy = PointFeatures(draw_rff(16, D, 4.0, rng), points)
    model = fit(lazy, np.stack([np.sin(points[:, 0]), points[:, 1]]), 1e-3)
    whole = predictive_variance(model, np.asarray(lazy))
    peaks = []
    for score in (default_tau, predictive_variance):
        tracemalloc.start()
        try:
            got = score(model, lazy)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if score is default_tau:
            assert got == float(np.percentile(whole, 90.0))
        else:
            assert got.tobytes() == whole.tobytes()
    assert peaks[0] < 8 * D * N / 4 and peaks[1] < 8 * D * N / 2


def test_train_operator_holds_one_multipliers_features():
    # tracemalloc sees numpy's buffers.  Nine more multipliers may add their
    # specs and n x k projections to the peak, but not a D x n feature
    # matrix each
    pairs = flat_beta_pairs(400, seed=46)
    width = 800

    def peak(multipliers):
        tracemalloc.start()
        try:
            train_operator(pairs, width, np.random.default_rng(47), multipliers, (1e-4, 1e-2))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # ten first, so any cache the first run fills counts against the margin
    ten = peak(np.geomspace(0.25, 4.0, 10))
    one = peak([1.0])
    assert ten - one < 2 * width * len(pairs) * 8


# Runs train_operator's feature phase in a fresh process and stops it at
# cross_validate's entry.  A 64-pair phase first fills the quadrature nodes
# and BLAS buffers; then the process reports VmRSS before and at the entry of
# a phase on argv[1] flat-Beta pairs at width argv[2], with the bytes that
# tracemalloc sees live at the entry and tracemalloc's own bytes.
_RESIDENT_PROBE = """
import json, math, sys, tracemalloc
import numpy as np
from kernelep import operator
from kernelep.expfam import BetaDist, Gaussian1D
from kernelep.factors import IncomingTuple, TrainingPair

def rss():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024

class AtCrossValidation(Exception):
    pass

def stop(*args, **kwargs):
    raise AtCrossValidation(
        rss(), tracemalloc.get_traced_memory()[0], tracemalloc.get_tracemalloc_memory()
    )

def flat_pairs(n, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        mean, var = rng.uniform(-5, 5), math.exp(rng.uniform(math.log(0.1), math.log(10)))
        inc = IncomingTuple(Gaussian1D(mean, var), BetaDist(1.0, 1.0))
        pairs.append(TrainingPair(inc, np.array([mean, math.log(var)]), 1000.0, 1000))
    return pairs

def feature_phase(pairs, width):
    try:
        operator.train_operator(pairs, width, np.random.default_rng(52))
    except AtCrossValidation as probe:
        return probe.args
    raise AssertionError("train_operator never reached cross_validate")

operator.cross_validate = stop
n, width = int(sys.argv[1]), int(sys.argv[2])
feature_phase(flat_pairs(64, 53), width)
pairs = flat_pairs(n, 54)
tracemalloc.start()
before = rss()
at_entry, live, tracer = feature_phase(pairs, width)
print(json.dumps({"before": before, "at_entry": at_entry, "live": live, "tracer": tracer}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_feature_phase_returns_its_transients_before_cross_validation():
    # what stays resident when cross-validation starts is what is live: the
    # rise in VmRSS over the phase may exceed the live bytes tracemalloc
    # counts, and its own, by one (n, inner width) complex array at most.
    # Heap blocks freed after glibc raised its mmap threshold would stay
    # resident beyond that; the feature phase maps its large transients
    n, width = 1000, 1000
    inner = min(width, operator.INNER_WIDTH_CAP)
    env = dict(os.environ, PYTHONPATH=str(Path(operator.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _RESIDENT_PROBE, str(n), str(width)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout.splitlines()[-1])
    rise = probe["at_entry"] - probe["before"]
    assert rise <= probe["live"] + probe["tracer"] + n * inner * 16, probe


def test_train_operator_reads_lazy_features_as_their_arrays(monkeypatch):
    # cross-validation, the refit and tau read each multiplier's lazy
    # PointFeatures as they read its materialized array: 640 features
    # against 300 cases keeps cross-validation on the dual route
    pairs = flat_beta_pairs(300, seed=48)
    lazy = train_operator(pairs, 640, np.random.default_rng(49))
    monkeypatch.setattr(
        operator, "PointFeatures", lambda spec, points: np.asarray(PointFeatures(spec, points))
    )
    dense = train_operator(pairs, 640, np.random.default_rng(49))
    (op_l, report_l, tau_l), (op_d, report_d, tau_d) = lazy, dense
    assert report_l.fold_errors.tobytes() == report_d.fold_errors.tobytes()
    assert report_l.chosen == report_d.chosen and tau_l == tau_d
    for name in ("W", "M"):
        assert getattr(op_l.model, name).tobytes() == getattr(op_d.model, name).tobytes()
    assert op_l.model.noise_scale == op_d.model.noise_scale


def test_train_operator_deterministic():
    pairs = flat_beta_pairs(30, seed=40)
    op1, rep1, tau1 = train_operator(pairs, 40, np.random.default_rng(41))
    op2, rep2, tau2 = train_operator(pairs, 40, np.random.default_rng(41))
    np.testing.assert_array_equal(op1.model.W, op2.model.W)
    np.testing.assert_array_equal(op1.spec.inner.frequencies, op2.spec.inner.frequencies)
    assert rep1.chosen == rep2.chosen
    assert tau1 == tau2


def test_operator_validation():
    model = RidgeModel(np.zeros((2, 8)), 1.0, packed_factor(np.eye(8)), 1.0, 1)
    for plain in (draw_rff(1, 8, 1.0, np.random.default_rng(42)),
                  draw_rff(2, 8, (1.0, 0.25), np.random.default_rng(43))):
        with pytest.raises(DomainError, match="needs a TwoStageSpec, not a RffSpec"):
            MessageOperator(plain, model)
    spec = tiny_spec(8, seed=44)
    assert MessageOperator(spec, model).spec is spec
    with pytest.raises(DomainError, match="feature count"):
        MessageOperator(tiny_spec(9, seed=44), model)
    for rows in (1, 3):
        other = RidgeModel(np.zeros((rows, 8)), 1.0, packed_factor(np.eye(8)), 1.0, 1)
        with pytest.raises(DomainError, match=f"{rows} outputs"):
            MessageOperator(spec, other)
    with pytest.raises(DomainError):
        UncertaintyPolicy(tau=0.0, budget=1)
    for tau in ("abc", True, math.inf):
        with pytest.raises(DomainError, match="tau must be a finite number"):
            UncertaintyPolicy(tau=tau, budget=1)
    with pytest.raises(DomainError):
        UncertaintyPolicy(tau=1.0, budget=-1)
    for budget in (2.5, 3.0, True, "3", None):
        with pytest.raises(DomainError, match="budget must be an integer"):
            UncertaintyPolicy(tau=1.0, budget=budget)
    assert UncertaintyPolicy(tau=1.0, budget=np.int64(3)).budget == 3


def test_joint_training_builds_two_stage_spec(trained):
    pairs, op, _, _ = trained
    spec = op.spec
    assert isinstance(spec, TwoStageSpec)
    # outer width is the requested width; the inner one is capped at it
    assert spec.num_features == op.model.num_features == 60
    assert spec.inner.num_features == 60
    assert spec.projection.shape == (60, PROJECTION_DIM)
    np.testing.assert_allclose(
        spec.projection.T @ spec.projection, np.eye(PROJECTION_DIM), atol=1e-10
    )


def test_joint_training_sizes_projection_by_case_count():
    # 12 centred cases span at most 11 directions
    pairs = flat_beta_pairs(12, seed=44)
    op, _, _ = train_operator(pairs, 700, np.random.default_rng(45), [1.0], [1e-4], folds=3)
    assert op.spec.inner.num_features == 500
    assert op.spec.projection.shape == (500, 11)
    assert op.model.num_features == 700
