"""EP on Bayesian logistic regression against its exact posterior.

logistic_regression_graph(n, seed, noise) has one latent weight w, so the
exact posterior is a 1-D integral (helpers.logistic_regression_posterior).
The helper is checked first against the prior and a brute-force 2-D grid;
then EP's marginal on w, with the sampling oracle and with the acceptance
model's operator at each logistic factor, is scored by
KL(moment-matched exact posterior || EP marginal).  The bounds are twice the
readings taken when this workload was first measured: oracle EP reached
3e-5 to 4e-4 and the operator 5.5e-2 to 1.2e-1 at noise 1.0.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from helpers import composite_gl, log_beta_of_sigmoid, logistic_regression_posterior
from kernelep.cli import load_model
from kernelep.ep_engine import (
    OperatorSource,
    OracleSource,
    default_sources,
    logistic_regression_graph,
    run_ep,
)
from kernelep.expfam import kl_divergence

ORACLE_KL_BOUND = 8e-4
OPERATOR_KL_BOUND = 0.24


def test_posterior_without_observations_is_the_prior():
    got = logistic_regression_posterior(logistic_regression_graph(0, 0))
    assert got.mean == pytest.approx(0.0, abs=1e-12)
    assert got.variance == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("noise", [1.0, 0.01])
def test_posterior_of_one_observation_matches_a_2d_grid(seed, noise):
    # w and x_0 both on a grid: no Gauss-Hermite step, no integrating out
    graph = logistic_regression_graph(1, seed, noise)
    a = graph.factors[1].params["a"]
    obs = graph.observations["z0"]
    w, w_weights = composite_gl(-20.0, 20.0, 1000)
    reach = 20.0 * abs(a) + 10.0 * math.sqrt(noise)
    x, x_weights = composite_gl(-reach, reach, 1500)
    log_joint = (
        -0.5 * w[:, None] ** 2 / 4.0
        - 0.5 * (x[None, :] - a * w[:, None]) ** 2 / noise
        + log_beta_of_sigmoid(x, obs.alpha, obs.beta)[None, :]
        + np.log(w_weights)[:, None]
        + np.log(x_weights)[None, :]
    )
    log_w = logsumexp(log_joint, axis=1)
    probs = np.exp(log_w - logsumexp(log_w))
    mean = probs @ w
    variance = probs @ (w - mean) ** 2
    got = logistic_regression_posterior(graph)
    assert got.mean == pytest.approx(mean, rel=1e-8, abs=1e-10)
    assert got.variance == pytest.approx(variance, rel=1e-8)


def _kl_to_truth(graph, source, seed):
    result = run_ep(graph, default_sources(source), rng=np.random.default_rng(seed))
    return kl_divergence(logistic_regression_posterior(graph), result.marginals["w"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_ep_matches_the_exact_posterior(seed):
    graph = logistic_regression_graph(10, seed, noise=1.0)
    assert _kl_to_truth(graph, OracleSource(), seed) <= ORACLE_KL_BOUND


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operator_ep_stays_near_the_exact_posterior(pipeline, seed):
    op = load_model(pipeline.data["model"]).op
    graph = logistic_regression_graph(10, seed, noise=1.0)
    assert _kl_to_truth(graph, OperatorSource(op), seed) <= OPERATOR_KL_BOUND
