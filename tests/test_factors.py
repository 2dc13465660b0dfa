import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.special import expit

import helpers
from kernelep import factors
from kernelep.errors import DegenerateSampleError, DomainError, GenerationError
from kernelep.expfam import BetaDist, Gaussian1D
from kernelep.factors import (
    IncomingPrior,
    IncomingTuple,
    ess_floor,
    gen_training_set,
    oracle_to_x,
    sample_incoming,
    tilted_sample,
)


def point_prior(mean, log_var, alpha, beta):
    return IncomingPrior(
        mean_range=(mean, mean),
        log_variance_range=(log_var, log_var),
        alpha_range=(alpha, alpha),
        beta_range=(beta, beta),
    )


def test_quadrature_oracle_matches_frozen_values():
    """Recomputing the reference moments reproduces the frozen constants."""
    got = helpers.tilted_moments_quad(0.0, 1.0, 5.0, 2.0)
    for key, val in helpers.TILTED_N01_BETA52.items():
        assert got[key] == pytest.approx(val, rel=1e-12), key
    got = helpers.tilted_moments_quad(1.0, 1.0, 2.0, 2.0)
    for key, val in helpers.TILTED_N11_BETA22.items():
        assert got[key] == pytest.approx(val, rel=1e-12), key


def test_oracle_to_x_flat_beta_recovers_incoming():
    # Beta(1,1) contributes a constant density, so the tilted law is m_x itself
    inc = IncomingTuple(Gaussian1D(0.7, 1.3), BetaDist(1.0, 1.0))
    q, ess = oracle_to_x(inc, 100_000, np.random.default_rng(11))
    assert q.mean == pytest.approx(0.7, abs=0.02)
    assert q.variance == pytest.approx(1.3, rel=0.05)
    assert 0 < ess <= 100_000


def test_oracle_to_x_symmetric_case_centered():
    inc = IncomingTuple(Gaussian1D(0.0, 4.0), BetaDist(3.0, 3.0))
    q, _ = oracle_to_x(inc, 100_000, np.random.default_rng(3))
    assert q.mean == pytest.approx(0.0, abs=0.03)


def test_oracle_to_x_matches_quadrature_within_3se():
    inc = IncomingTuple(Gaussian1D(0.0, 1.0), BetaDist(5.0, 2.0))
    rng = np.random.default_rng(42)
    x, w, _ = tilted_sample(inc, 100_000, rng)
    ref = helpers.TILTED_N01_BETA52
    se_mean = helpers.self_normalized_se(x, w)
    se_second = helpers.self_normalized_se(x * x, w)
    assert abs(w @ x - ref["Ex"]) <= 3.0 * se_mean
    assert abs(w @ (x * x) - ref["Ex2"]) <= 3.0 * se_second


def test_tilted_logistic_moments_match_quadrature_within_3se():
    inc = IncomingTuple(Gaussian1D(1.0, 1.0), BetaDist(2.0, 2.0))
    rng = np.random.default_rng(42)
    x, w, _ = tilted_sample(inc, 100_000, rng)
    z = expit(x)
    ref = helpers.TILTED_N11_BETA22
    assert abs(w @ z - ref["Ez"]) <= 3.0 * helpers.self_normalized_se(z, w)
    assert abs(w @ (z * z) - ref["Ez2"]) <= 3.0 * helpers.self_normalized_se(z * z, w)


def test_degenerate_sample_raises_with_ess_attached():
    # incoming Gaussian far in the Beta's disfavored tail collapses the weights
    inc = IncomingTuple(Gaussian1D(-15.0, 1.0), BetaDist(200.0, 1.0))
    with pytest.raises(DegenerateSampleError) as exc_info:
        tilted_sample(inc, 1000, np.random.default_rng(0))
    assert exc_info.value.ess < ess_floor(1000)


def test_tilted_sample_validates_inputs():
    good = IncomingTuple(Gaussian1D(0.0, 1.0), BetaDist(2.0, 2.0))
    with pytest.raises(DomainError):
        tilted_sample(good, 50, np.random.default_rng(0))
    bad = IncomingTuple(Gaussian1D(0.0, -1.0), BetaDist(2.0, 2.0))
    with pytest.raises(DomainError):
        tilted_sample(bad, 1000, np.random.default_rng(0))


def test_equal_weights_give_full_ess(monkeypatch):
    # with no proposal widening the flat-Beta case has exactly equal weights
    monkeypatch.setattr("kernelep.factors.PROPOSAL_WIDEN", 1.0)
    inc = IncomingTuple(Gaussian1D(0.3, 2.0), BetaDist(1.0, 1.0))
    _, w, ess = tilted_sample(inc, 5000, np.random.default_rng(1))
    assert ess == pytest.approx(5000.0, rel=1e-9)
    np.testing.assert_allclose(w, np.full(5000, 1.0 / 5000))


@pytest.mark.parametrize("widen", [1.5, 3.0])
def test_proposal_widening_invariance(widen, monkeypatch):
    """Self-normalized IS is proposal-consistent: estimates agree across
    widening constants within combined Monte-Carlo error."""
    rng = np.random.default_rng(2024)
    prior = IncomingPrior()
    for _ in range(20):
        inc = sample_incoming(prior, rng)
        monkeypatch.setattr("kernelep.factors.PROPOSAL_WIDEN", 2.0)
        try:
            x_a, w_a, _ = tilted_sample(inc, 20_000, np.random.default_rng(77))
        except DegenerateSampleError:
            continue
        monkeypatch.setattr("kernelep.factors.PROPOSAL_WIDEN", widen)
        try:
            x_b, w_b, _ = tilted_sample(inc, 20_000, np.random.default_rng(78))
        except DegenerateSampleError:
            continue
        se = math.hypot(
            helpers.self_normalized_se(x_a, w_a), helpers.self_normalized_se(x_b, w_b)
        )
        assert abs(w_a @ x_a - w_b @ x_b) <= 3.0 * se


def test_logsumexp_has_scipys_bits():
    rng = np.random.default_rng(5)
    cases = [
        np.array([0.3]),
        np.array([1.0, 3.0, 3.0, -2.0]),  # repeated maxima
        np.full(7, -4.25),
        np.array([2.0, -np.inf, 2.0, 1.5]),
        np.array([-np.inf, -np.inf]),
        np.array([np.inf, 1.0]),
        np.array([700.0, 710.0, 710.0, 0.0]),
    ]
    # enough draws that some would tell a plain log(sum(exp(a - max))) + max
    # apart from SciPy's result
    for size, scale in [(10, 1.0), (1000, 30.0), (10_000, 3.0), (10_000, 300.0)] * 10:
        a = rng.normal(size=size) * scale
        cases += [a, np.round(a)]  # rounding repeats the maximum
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in cases:
            want = special.logsumexp(a)
            got = factors._logsumexp(a)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), a


def test_tilted_sample_matches_scipy_reference():
    # leaving the Beta normalizer out of the log weights moves weights and
    # ESS by rounding only
    rng = np.random.default_rng(19)
    for _ in range(200):
        inc = sample_incoming(IncomingPrior(alpha_range=(0.5, 20.0)), rng)
        seed = int(rng.integers(2**32))
        try:
            x, w, ess = tilted_sample(inc, 2000, np.random.default_rng(seed))
        except DegenerateSampleError:
            continue
        want = helpers.scipy_tilted_sample(
            inc, 2000, np.random.default_rng(seed), factors.PROPOSAL_WIDEN
        )
        assert x.tobytes() == want[0].tobytes()
        np.testing.assert_allclose(w, want[1], rtol=1e-13, atol=0.0)
        assert ess == pytest.approx(want[2], rel=1e-13, abs=0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_ess_never_exceeds_n(seed):
    rng = np.random.default_rng(seed)
    inc = sample_incoming(IncomingPrior(), rng)
    try:
        _, _, ess = tilted_sample(inc, 500, rng)
    except DegenerateSampleError as err:
        ess = err.ess
    assert 0 < ess <= 500 * (1 + 1e-12)


def test_sample_incoming_point_prior():
    prior = point_prior(1.5, math.log(0.5), 3.0, 7.0)
    inc = sample_incoming(prior, np.random.default_rng(0))
    assert inc.m_x == Gaussian1D(1.5, 0.5)
    assert inc.m_z == BetaDist(3.0, 7.0)


def test_sample_incoming_support():
    prior = IncomingPrior()
    rng = np.random.default_rng(9)
    draws = [sample_incoming(prior, rng) for _ in range(10_000)]
    means = np.array([d.m_x.mean for d in draws])
    log_vars = np.log([d.m_x.variance for d in draws])
    alphas = np.array([d.m_z.alpha for d in draws])
    betas = np.array([d.m_z.beta for d in draws])
    assert means.min() >= -5 and means.max() <= 5
    assert log_vars.min() >= math.log(0.1) - 1e-12
    assert log_vars.max() <= math.log(10.0) + 1e-12
    assert alphas.min() >= 1 and alphas.max() <= 10
    assert betas.min() >= 1 and betas.max() <= 10


def test_prior_validation():
    with pytest.raises(DomainError):
        IncomingPrior(mean_range=(2.0, -2.0))
    with pytest.raises(DomainError):
        IncomingPrior(alpha_range=(0.0, 5.0))
    with pytest.raises(DomainError, match="mean_range"):
        IncomingPrior(mean_range=("a", 1))
    with pytest.raises(DomainError, match="alpha_range"):
        IncomingPrior(alpha_range=(True, 2))
    with pytest.raises(DomainError, match="log_variance_range"):
        IncomingPrior(log_variance_range=(0.0, math.inf))


def test_gen_training_set_flat_beta_target():
    prior = point_prior(0.3, math.log(1.5), 1.0, 1.0)
    pairs = gen_training_set(prior, 1, 50_000, np.random.default_rng(4))
    assert len(pairs) == 1
    target = pairs[0].target
    assert target[0] == pytest.approx(0.3, abs=0.03)
    assert target[1] == pytest.approx(math.log(1.5), abs=0.05)
    assert 0 < pairs[0].ess <= pairs[0].n_samples


def test_gen_training_set_deterministic_across_jobs():
    prior = IncomingPrior()
    a = gen_training_set(prior, 24, 2000, np.random.default_rng(123))
    b = gen_training_set(prior, 24, 2000, np.random.default_rng(123))
    c = gen_training_set(prior, 24, 2000, np.random.default_rng(123), n_jobs=4)
    for u, v in zip(a, b):
        assert u.input == v.input
        np.testing.assert_array_equal(u.target, v.target)
        assert u.ess == v.ess
    for u, v in zip(a, c):
        assert u.input == v.input
        np.testing.assert_array_equal(u.target, v.target)
        assert u.ess == v.ess


@pytest.mark.parametrize("cpus, workers", [(4, [4]), (64, [5]), (1, []), (None, [])])
def test_gen_training_set_bounds_its_worker_threads(monkeypatch, cpus, workers):
    # a pool that records its size and maps serially: no thread starts
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(factors, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(factors.os, "cpu_count", lambda: cpus)
    prior = IncomingPrior()
    wide = gen_training_set(prior, 5, 500, np.random.default_rng(8), n_jobs=10**6)
    assert recorded == workers
    serial = gen_training_set(prior, 5, 500, np.random.default_rng(8), n_jobs=1)
    assert recorded == workers
    for u, v in zip(wide, serial, strict=True):
        assert u.input == v.input
        np.testing.assert_array_equal(u.target, v.target)
        assert u.ess == v.ess and u.n_samples == v.n_samples


def test_gen_training_set_budget_error():
    # a prior pinned to a degenerate corner can never pass the ESS floor
    prior = IncomingPrior(
        mean_range=(-15.0, -15.0),
        log_variance_range=(0.0, 0.0),
        alpha_range=(200.0, 200.0),
        beta_range=(1.0, 1.0),
    )
    with pytest.raises(GenerationError):
        gen_training_set(prior, 2, 1000, np.random.default_rng(0))


def test_gen_training_set_validates_size():
    with pytest.raises(DomainError):
        gen_training_set(IncomingPrior(), 0, 1000, np.random.default_rng(0))
    for N, n_jobs in ((2.5, 1), (2, 0), (2, 1.5)):
        with pytest.raises(DomainError):
            gen_training_set(IncomingPrior(), N, 1000, np.random.default_rng(0), n_jobs=n_jobs)
