import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import sample
from kernelep.errors import DegenerateMomentsError, DomainError
from kernelep.expfam import (
    BetaDist,
    Gaussian1D,
    divide,
    from_natural,
    kl_divergence,
    log_partition,
    mean_sufficient_stats,
    multiply,
    project_to_gaussian,
    to_natural,
)

gaussians = st.builds(
    Gaussian1D,
    mean=st.floats(-5, 5),
    variance=st.floats(math.log(0.1), math.log(10)).map(math.exp),
)
betas = st.builds(
    BetaDist,
    alpha=st.floats(0.3, 20),
    beta=st.floats(0.3, 20),
)


def test_natural_params_known_gaussian():
    d = from_natural("gaussian", [2.0, -1.0])
    assert d == Gaussian1D(1.0, 0.5)
    np.testing.assert_allclose(to_natural(d), [2.0, -1.0])


def test_standard_normal_log_partition_is_zero():
    # base measure 1/sqrt(2 pi) puts A(N(0,1)) exactly at zero
    assert log_partition(to_natural(Gaussian1D(0.0, 1.0)), "gaussian") == 0.0


def test_beta22_log_partition():
    assert log_partition(to_natural(BetaDist(2.0, 2.0)), "beta") == pytest.approx(
        math.log(1.0 / 6.0), rel=1e-12
    )


def test_kl_gaussian_closed_form():
    assert kl_divergence(Gaussian1D(1.0, 1.0), Gaussian1D(0.0, 1.0)) == pytest.approx(
        0.5, rel=1e-12
    )


def test_kl_rejects_family_mismatch():
    with pytest.raises(DomainError):
        kl_divergence(Gaussian1D(0.0, 1.0), BetaDist(1.0, 1.0))


def test_project_known_moments():
    d = project_to_gaussian([0.5, 0.3])
    assert d.mean == pytest.approx(0.5)
    assert d.variance == pytest.approx(0.05)


def test_project_degenerate_moments_raises():
    with pytest.raises(DegenerateMomentsError):
        project_to_gaussian([1.0, 1.0])
    with pytest.raises(DegenerateMomentsError):
        project_to_gaussian([2.0, 1.0])


def test_divide_gaussian():
    out = divide(Gaussian1D(0.0, 1.0), Gaussian1D(0.0, 2.0))
    assert isinstance(out, Gaussian1D)
    assert out.variance == pytest.approx(2.0)
    assert not out.improper


def test_divide_can_go_improper_without_raising():
    out = divide(Gaussian1D(0.0, 2.0), Gaussian1D(0.0, 1.0))
    assert out.improper
    assert out.variance < 0

    bout = divide(BetaDist(1.5, 1.5), BetaDist(3.0, 1.0))
    assert bout.improper


def test_divide_by_self_gives_uniform():
    out = divide(Gaussian1D(1.3, 0.7), Gaussian1D(1.3, 0.7))
    assert out == Gaussian1D.uniform()
    assert out.improper


def test_uniform_is_multiplicative_identity():
    d = Gaussian1D(-2.0, 3.5)
    out = multiply(d, Gaussian1D.uniform())
    assert out.mean == pytest.approx(d.mean)
    assert out.variance == pytest.approx(d.variance)


def test_zero_precision_nonzero_tilt_is_flagged():
    d = from_natural("gaussian", [1.0, 0.0])
    assert d.improper
    assert d.mean == math.inf


def test_from_natural_rejects_bad_beta():
    with pytest.raises(DomainError):
        from_natural("beta", [-1.5, 2.0])


def test_beta_uniform_log_pdf_is_zero():
    z = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(BetaDist(1.0, 1.0).log_pdf(z), np.zeros(3), atol=1e-15)


def test_sample_is_deterministic_and_validates():
    d = Gaussian1D(0.5, 2.0)
    a = sample(d, 5, np.random.default_rng(7))
    b = sample(d, 5, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(DomainError):
        sample(d, 0, np.random.default_rng(0))
    with pytest.raises(DomainError):
        sample(Gaussian1D(0.0, -1.0), 3, np.random.default_rng(0))


@given(gaussians)
def test_gaussian_natural_round_trip(d):
    back = from_natural("gaussian", to_natural(d))
    assert back.mean == pytest.approx(d.mean, rel=1e-12, abs=1e-12)
    assert back.variance == pytest.approx(d.variance, rel=1e-12)


@given(betas)
def test_beta_natural_round_trip(d):
    back = from_natural("beta", to_natural(d))
    assert back.alpha == pytest.approx(d.alpha, rel=1e-12)
    assert back.beta == pytest.approx(d.beta, rel=1e-12)


@given(gaussians, gaussians)
def test_gaussian_kl_nonnegative_and_zero_on_self(p, q):
    assert kl_divergence(p, q) >= 0.0
    assert kl_divergence(p, p) == 0.0


@given(betas, betas)
def test_beta_kl_nonnegative(p, q):
    assert kl_divergence(p, q) >= 0.0


@given(gaussians, gaussians)
def test_multiply_divide_inverts(a, b):
    back = divide(multiply(a, b), b)
    assert back.mean == pytest.approx(a.mean, rel=1e-9, abs=1e-9)
    assert back.variance == pytest.approx(a.variance, rel=1e-9)


@given(betas, betas)
def test_beta_multiply_adds_pseudocounts(a, b):
    out = multiply(a, b)
    assert out.alpha == pytest.approx(a.alpha + b.alpha - 1.0, rel=1e-12)
    assert out.beta == pytest.approx(a.beta + b.beta - 1.0, rel=1e-12)


@given(gaussians)
def test_gaussian_log_partition_gradient_matches_suffstats(d):
    """Central finite differences of A(eta) recover E[u(x)]."""
    eta = to_natural(d)
    stats = mean_sufficient_stats(d)
    h = 1e-6
    for i in range(2):
        step = np.zeros(2)
        step[i] = h * max(1.0, abs(eta[i]))
        grad = (
            log_partition(eta + step, "gaussian")
            - log_partition(eta - step, "gaussian")
        ) / (2.0 * step[i])
        assert grad == pytest.approx(stats[i], rel=2e-4, abs=2e-5)


@given(betas)
def test_beta_log_partition_gradient_matches_suffstats(d):
    eta = to_natural(d)
    stats = mean_sufficient_stats(d)
    h = 1e-6
    for i in range(2):
        step = np.zeros(2)
        step[i] = h * max(1.0, abs(eta[i]))
        grad = (
            log_partition(eta + step, "beta") - log_partition(eta - step, "beta")
        ) / (2.0 * step[i])
        assert grad == pytest.approx(stats[i], rel=2e-4, abs=2e-5)


def test_projection_maximizes_expected_log_density():
    """The moment-matched Gaussian beats every grid competitor in KL.

    KL(target || N(mu, s2)) differs from -E_target[log N(mu, s2)] by a
    constant, and that expectation depends on the target only through its
    first two moments, so optimality can be checked analytically for a
    two-component mixture target.
    """
    # mixture 0.3 N(-1, 0.5) + 0.7 N(2, 1.5)
    w = np.array([0.3, 0.7])
    mu = np.array([-1.0, 2.0])
    var = np.array([0.5, 1.5])
    m1 = float(w @ mu)
    m2 = float(w @ (var + mu**2))
    best = project_to_gaussian([m1, m2])

    def neg_cross_entropy(mean, variance):
        return -0.5 * math.log(2.0 * math.pi * variance) - (
            m2 - 2.0 * mean * m1 + mean**2
        ) / (2.0 * variance)

    best_obj = neg_cross_entropy(best.mean, best.variance)
    for mean in np.linspace(m1 - 2.0, m1 + 2.0, 41):
        for variance in np.geomspace(0.05, 20.0, 41):
            assert neg_cross_entropy(float(mean), float(variance)) <= best_obj + 1e-12
