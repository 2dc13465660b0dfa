"""Logistic factor: importance-sampling oracle and training-set generation.

The factor deterministically maps a latent real x to z = logistic(x), with a
Gaussian message on the x side and a Beta message on the z side.  The tilted
distribution r(x) is proportional to m_x(x) * BetaPdf(logistic(x); a, b); its
projected moments serve as ground truth both inside the inference loop and as
regression targets.

The importance proposal is m_x with its variance inflated by
``PROPOSAL_WIDEN`` (the tilted density is absolutely continuous with respect
to m_x; inflation guards the tails).  Draws whose effective sample size falls
below ``ess_floor(n)`` are rejected.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, GenerationError, integer, real
from .expfam import BetaDist, Gaussian1D, project_to_gaussian

__all__ = [
    "IncomingTuple",
    "TrainingPair",
    "regression_target",
    "IncomingPrior",
    "PROPOSAL_WIDEN",
    "MIN_IMPORTANCE",
    "ess_floor",
    "tilted_sample",
    "oracle_to_x",
    "sample_incoming",
    "gen_training_set",
]

logger = logging.getLogger(__name__)

# variance inflation of the proposal relative to the incoming Gaussian
PROPOSAL_WIDEN = 2.0

MIN_IMPORTANCE = 100


def ess_floor(n: int) -> float:
    return max(50.0, 0.02 * n)


@dataclass(frozen=True)
class IncomingTuple:
    """Incoming messages at the factor: Gaussian from X, Beta from Z."""

    m_x: Gaussian1D
    m_z: BetaDist

    @property
    def proper(self) -> bool:
        return not (self.m_x.improper or self.m_z.improper)


@dataclass(frozen=True)
class TrainingPair:
    """One supervised example: incoming tuple -> the regression_target of
    its projected tilted Gaussian."""

    input: IncomingTuple
    target: np.ndarray
    ess: float
    n_samples: int


def regression_target(q: Gaussian1D) -> np.ndarray:
    """(E[x], log Var[x]) of a projected tilted Gaussian, the form regressed on."""
    return np.array([q.mean, math.log(q.variance)])


@dataclass(frozen=True)
class IncomingPrior:
    """Box prior over incoming-message parameters, sampled uniformly."""

    mean_range: tuple[float, float] = (-5.0, 5.0)
    log_variance_range: tuple[float, float] = (math.log(0.1), math.log(10.0))
    alpha_range: tuple[float, float] = (1.0, 10.0)
    beta_range: tuple[float, float] = (1.0, 10.0)

    def __post_init__(self):
        for name in ("mean_range", "log_variance_range", "alpha_range", "beta_range"):
            lo, hi = (real(name, end) for end in getattr(self, name))
            if not lo <= hi:
                raise DomainError(f"{name} must be a nonempty interval, got {(lo, hi)}")
        if self.alpha_range[0] <= 0.0 or self.beta_range[0] <= 0.0:
            raise DomainError("alpha/beta ranges must be positive")


def _tilted_log_weight(x: np.ndarray, inc: IncomingTuple, proposal: Gaussian1D) -> np.ndarray:
    # log r(x) - log proposal(x) up to a constant; log sigma(x) = -softplus(-x)
    # via logaddexp.  The Beta's normalizer log B(a, b) is left out: it
    # cancels in the self-normalized weights and in the ESS.
    a, b = inc.m_z.alpha, inc.m_z.beta
    log_beta_part = -(a - 1.0) * np.logaddexp(0.0, -x) - (b - 1.0) * np.logaddexp(0.0, x)
    return inc.m_x.log_pdf(x) + log_beta_part - proposal.log_pdf(x)


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-D float array, by scipy.special.logsumexp's
    algorithm and so with its bits: the maxima are taken out of the sum, so
    the result is log1p(s) + log(m) + max for m maxima and s the sum of the
    other terms' exp(a - max) over m.  A non-finite maximum falls back to the
    direct formula, as SciPy's does."""
    top = a.max()
    if not math.isfinite(top):
        with np.errstate(divide="ignore"):
            return np.log(np.sum(np.exp(a)))
    at_top = a == top
    terms = np.exp(a - top)
    terms[at_top] = 0.0
    m = float(np.count_nonzero(at_top))
    s = np.sum(terms)
    if s != 0.0:
        s = s / m
    return np.log1p(s) + np.log(m) + top


def tilted_sample(
    inc: IncomingTuple, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """Draw a self-normalized importance sample of the tilted distribution.

    Returns (x draws, normalized weights, ess).  Raises
    DegenerateSampleError when the effective sample size is below the floor;
    the caller decides whether to resample.
    """
    if not inc.proper:
        raise DomainError("incoming messages must be proper")
    integer("importance sample size", n, MIN_IMPORTANCE)
    proposal = Gaussian1D(inc.m_x.mean, PROPOSAL_WIDEN * inc.m_x.variance)
    x = rng.normal(proposal.mean, math.sqrt(proposal.variance), size=n)
    logw = _tilted_log_weight(x, inc, proposal)
    log_total = _logsumexp(logw)
    ess = float(np.exp(2.0 * log_total - _logsumexp(2.0 * logw)))
    if ess < ess_floor(n):
        raise DegenerateSampleError(
            f"effective sample size {ess:.1f} below floor {ess_floor(n):.1f}", ess=ess
        )
    w = np.exp(logw - log_total)
    return x, w, ess


def oracle_to_x(
    inc: IncomingTuple, n: int, rng: np.random.Generator
) -> tuple[Gaussian1D, float]:
    """Projected tilted marginal on the X side, by importance sampling."""
    x, w, ess = tilted_sample(inc, n, rng)
    return project_to_gaussian([w @ x, w @ (x * x)]), ess


def sample_incoming(prior: IncomingPrior, rng: np.random.Generator) -> IncomingTuple:
    """One uniform draw from the box prior (mean, log-variance, alpha, beta)."""
    mean = rng.uniform(*prior.mean_range)
    log_var = rng.uniform(*prior.log_variance_range)
    alpha = rng.uniform(*prior.alpha_range)
    beta = rng.uniform(*prior.beta_range)
    return IncomingTuple(Gaussian1D(mean, math.exp(log_var)), BetaDist(alpha, beta))


def _gen_case(
    prior: IncomingPrior, n_importance: int, case_rng: np.random.Generator, budget: int
) -> tuple[TrainingPair, int]:
    """Generate one pair, resampling degenerate draws. Returns (pair, attempts)."""
    for attempt in range(1, budget + 1):
        inc = sample_incoming(prior, case_rng)
        try:
            q, ess = oracle_to_x(inc, n_importance, case_rng)
        except DegenerateSampleError:
            continue
        return TrainingPair(inc, regression_target(q), ess, n_importance), attempt
    raise GenerationError(f"no acceptable draw within {budget} attempts for one case")


def gen_training_set(
    prior: IncomingPrior,
    N: int,
    n_importance: int,
    rng: np.random.Generator,
    *,
    n_jobs: int = 1,
) -> list[TrainingPair]:
    """Generate exactly N training pairs that passed the ESS floor.

    Each case runs on its own child generator spawned from `rng`, so the
    result is bit-identical for any `n_jobs`.  At most min(n_jobs, N, CPU
    count) worker threads run, and none when that is 1.  The total attempt
    budget is 10N; exceeding it raises GenerationError.
    """
    integer("training set size", N, 1)
    integer("n_jobs", n_jobs, 1)
    budget = 10 * N
    streams = rng.spawn(N)

    def run(i: int) -> tuple[TrainingPair, int]:
        return _gen_case(prior, n_importance, streams[i], budget)

    workers = min(n_jobs, N, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(N)))
    else:
        results = [run(i) for i in range(N)]

    attempts = sum(a for _, a in results)
    if attempts > budget:
        raise GenerationError(
            f"resample budget exhausted: {attempts} attempts > {budget} allowed"
        )
    resampled = attempts - N
    if resampled:
        logger.info("training set: %d pairs, %d degenerate draws resampled", N, resampled)
    return [pair for pair, _ in results]
