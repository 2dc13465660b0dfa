"""Learned message operator: feature pipeline, ridge model, output transform.

An operator maps the incoming messages at the logistic factor, a Gaussian on
x and a Beta on z, to the projected tilted Gaussian q on x, and so to the
outgoing message to x.  Predictions come out in (E, log V) form and are
inverted through exp, so a finite prediction always yields a proper
distribution.  The operator is policy-free about improper downstream
messages and about when to trust itself: `decide` merely compares predictive
variance against a threshold, and the inference engine owns the oracle
budget.

The operator's features are those of a TwoStageSpec (a Gaussian kernel on
projected joint embeddings), computed by the same formula that
kernels.joint_features_batch uses for training.  Incoming Beta
observations repeat across an EP run, so the Beta side of the inner joint
embedding is memoized per (alpha, beta); the Gaussian side is closed form
and recomputed on every call, as are the projection and outer features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, PredictionError
from .expfam import Gaussian1D, divide
from .factors import IncomingTuple, TrainingPair, regression_target
from .kernels import (
    TwoStageSpec,
    _beta_side,
    beta_cf,
    draw_rff,
    embedding_features,
    gaussian_cf,
    joint_features_batch,
    median_distance,
    median_heuristic,
    principal_projection,
    rescale,
    rff_point,
)
from .regress import (
    CvReport,
    RidgeModel,
    cross_validate,
    default_grid,
    fit,
    predict,
    predictive_variance,
    update_online,
)

__all__ = [
    "MessageOperator",
    "UncertaintyPolicy",
    "UsePrediction",
    "QueryOracle",
    "featurize",
    "featurize_batch",
    "predict_q",
    "outgoing_message",
    "decide",
    "batch_variance",
    "absorb",
    "default_tau",
    "train_operator",
]

# Two-stage sizing (see train_operator).
INNER_WIDTH_CAP = 500
PROJECTION_DIM = 16


@dataclass(frozen=True, eq=False)
class MessageOperator:
    """Immutable trained operator for the logistic factor's message to x.

    spec is the TwoStageSpec train_operator builds; anything else raises
    DomainError.  The output transform is fixed as (E, log V).  _beta_cache
    memoizes the Beta factor of the inner embedding per Beta parameters, and
    _phases the Beta quadrature's phase matrices per order (beta_cf's memo
    for the inner frequencies); neither ever affects results, only latency.
    """

    spec: TwoStageSpec
    model: RidgeModel
    _beta_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _phases: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.spec, TwoStageSpec):
            raise DomainError(f"operator needs a TwoStageSpec, not a {type(self.spec).__name__}")
        if self.spec.num_features != self.model.num_features:
            raise DomainError("spec feature count does not match model")
        if self.model.W.shape[0] != 2:
            raise DomainError(
                f"model has {self.model.W.shape[0]} outputs; the operator predicts (E, log V)"
            )


@dataclass(frozen=True)
class UncertaintyPolicy:
    """Threshold + budget governing oracle fallback during inference."""

    tau: float
    budget: int

    def __post_init__(self):
        if not self.tau > 0.0:
            raise DomainError(f"tau must be positive, got {self.tau}")
        if self.budget < 0:
            raise DomainError(f"budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class UsePrediction:
    """Use the prediction q.  variance is None when the budget was spent;
    phi, the features, lets the caller score it later, batched with others."""

    q: Gaussian1D
    variance: float | None
    phi: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class QueryOracle:
    """Ask the oracle; absorb folds its answer in at phi, the features."""

    variance: float
    phi: np.ndarray = field(repr=False, compare=False)


def _beta_row(op: MessageOperator, beta) -> np.ndarray:
    """The Beta factor of op's inner embedding for one Beta, memoized.  A miss
    goes through this module's beta_cf: a density and a mat-vec per quadrature
    order, plus the phase matrices the first time any Beta meets op."""
    key = (beta.alpha, beta.beta)
    row = op._beta_cache.get(key)
    if row is None:
        inner = op.spec.inner
        row = _beta_side(inner, beta_cf(inner.frequencies[:, 1], [beta], op._phases)[0])
        op._beta_cache[key] = row
    return row


def featurize(op: MessageOperator, inc: IncomingTuple) -> np.ndarray:
    """Feature vector of an incoming tuple: embedding_features(op.spec, e), bit
    for bit, where e is joint_features_batch(op.spec.inner, [inc])[0]."""
    if not inc.proper:
        raise DomainError("cannot featurize improper incoming messages")
    row = _beta_row(op, inc.m_z)
    emb = (row * gaussian_cf(op.spec.inner.frequencies[:, 0], inc.m_x)).real
    return embedding_features(op.spec, emb)


def warm_beta_cache(op: MessageOperator, betas) -> None:
    """Fill the Beta memo for Betas known up front, such as an EP run's
    observations, so that steady-state message latency stays flat."""
    for b in betas:
        if b.improper:
            raise DomainError(f"cannot warm the cache for improper {b}")
        _beta_row(op, b)


def featurize_batch(op: MessageOperator, tuples) -> np.ndarray:
    """Feature matrix (D x N) for a list of tuples (training layout)."""
    return embedding_features(op.spec, joint_features_batch(op.spec.inner, tuples)).T


def _q_from_output(y: np.ndarray) -> Gaussian1D:
    if not np.all(np.isfinite(y)):
        raise PredictionError(f"non-finite operator prediction {y}")
    q = Gaussian1D(float(y[0]), math.exp(float(y[1])))
    if q.improper:
        raise PredictionError(f"prediction maps to improper Gaussian {q}")
    return q


def predict_q(op: MessageOperator, inc: IncomingTuple) -> Gaussian1D:
    """Predicted projected-tilted distribution on x."""
    return _q_from_output(predict(op.model, featurize(op, inc)))


def outgoing_message(op: MessageOperator, inc: IncomingTuple) -> Gaussian1D:
    """q divided by the incoming message on x; may be improper-flagged."""
    return divide(predict_q(op, inc), inc.m_x)


def decide(
    op: MessageOperator, policy: UncertaintyPolicy, inc: IncomingTuple
) -> UsePrediction | QueryOracle:
    """Trust the prediction unless its variance exceeds tau and budget remains.

    With no budget left the variance could change nothing, so it is not
    computed (UsePrediction.variance is None).  A non-finite phi still
    fails, as a non-finite prediction.
    """
    phi = featurize(op, inc)
    variance = None
    if policy.budget > 0:
        variance = predictive_variance(op.model, phi)
        if variance > policy.tau:
            return QueryOracle(variance, phi)
    return UsePrediction(_q_from_output(predict(op.model, phi)), variance, phi)


def batch_variance(op: MessageOperator, Phi: np.ndarray) -> np.ndarray:
    """Predictive variances of the columns of a (D, M) feature batch, from
    matrix products with the model's triangular factor (see
    predictive_variance)."""
    return predictive_variance(op.model, Phi)


def absorb(op: MessageOperator, phi: np.ndarray, q: Gaussian1D) -> MessageOperator:
    """Fold the oracle's projected q at features phi into the model by
    update_online.  With decide's QueryOracle.phi, the update reuses the
    M phi that decide's variance left in the model's memo, and its one pass
    over the triangle is the transposed mat-vec that moves W."""
    model = update_online(op.model, phi, regression_target(q))
    # replace() carries both memos over: features are model-independent
    return replace(op, model=model)


def default_tau(model: RidgeModel, Phi: np.ndarray) -> float:
    """Calibrated threshold: 90th percentile of training predictive variances,
    scored as one batch (matrix products with the factor, not a mat-vec per
    column)."""
    return float(np.percentile(predictive_variance(model, Phi), 90.0))


def train_operator(
    pairs: list[TrainingPair],
    num_features: int,
    rng: np.random.Generator,
    grid=None,
    folds: int = 5,
) -> tuple[MessageOperator, CvReport, float]:
    """Full training pipeline on generated pairs.

    The operator regresses on a two-stage feature map (TwoStageSpec), and
    num_features is the width of its outer layer, the one the ridge model
    sees.  Per bandwidth multiplier m of the grid:

    - inner: joint embeddings under the median-heuristic bandwidths times m,
      at width min(num_features, INNER_WIDTH_CAP).  Over the prior box the
      embeddings have an effective rank of a few dozen, which 500 features
      resolve; a wider draw costs Beta quadrature and per-message time
      without sharpening the projection.  One frozen frequency draw is
      rescaled to each m.
    - projection: centre the training embeddings and keep their top
      min(PROJECTION_DIM, inner width, n - 1) principal directions; n - 1 is
      the rank of n centred points.  On the default prior box 16 directions
      hold over 95% of the embeddings' variance for multipliers from 0.5 up
      (86% at 0.25), and every direction costs num_features multiply-adds
      per message.
    - outer: random Fourier features of a Gaussian kernel on the projected
      embeddings, sigma = their median pairwise distance.  One frequency draw
      at unit bandwidth is rescaled to each multiplier's sigma.

    The projection and sigma use the training inputs only, never targets, so
    K-fold cross-validation on the pairs chooses just m and lambda, and the
    final model refits on all of them.  Only each multiplier's spec and its
    n x k projected embeddings are kept: its D x n features are rebuilt from
    them when cross-validation reaches it and freed before the next
    multiplier's, and the chosen multiplier's once more for the refit, so
    one feature matrix is alive at a time.  Returns the operator, the CV
    report, and the calibrated tau.
    """
    if grid is None:
        grid = default_grid()
    tuples = [p.input for p in pairs]
    Y = np.array([p.target for p in pairs]).T
    gamma_x, gamma_z = median_heuristic(tuples)

    inner_width = min(num_features, INNER_WIDTH_CAP)
    k = min(PROJECTION_DIM, inner_width, len(tuples) - 1)
    base = draw_rff(2, inner_width, (gamma_x, gamma_z), rng)
    base_outer = draw_rff(k, num_features, 1.0, rng)
    specs, projected = {}, {}
    for m in sorted({m for m, _ in grid}):
        inner = rescale(base, m)
        emb = joint_features_batch(inner, tuples)
        center, projection = principal_projection(emb, k)
        # the projection embedding_features applies, so features built from
        # it equal featurize_batch's output
        projected[m] = (emb - center) @ projection
        outer = rescale(base_outer, median_distance(projected[m]))
        specs[m] = TwoStageSpec(inner, center, projection, outer)

    def features(m):
        return rff_point(specs[m].outer, projected[m]).T

    cv_rng = rng.spawn(1)[0]
    report = cross_validate(features, Y, grid=grid, folds=folds, rng=cv_rng)
    mult, lam = report.chosen_params
    Phi = features(mult)
    model = fit(Phi, Y, lam)
    tau = default_tau(model, Phi)
    return MessageOperator(specs[mult], model), report, tau
