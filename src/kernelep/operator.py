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
kernels.joint_features and the training batch use.  Incoming Beta
observations repeat across an EP run, so the Beta side of the inner joint
embedding is memoized per (alpha, beta); the Gaussian side is closed form
and recomputed on every call, as are the projection and outer features.  A
Beta missing from the memo still reuses the quadrature phase matrices of the
operator's fixed inner frequencies, memoized per order beside it, so it pays
only its density and one matrix product per order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, PredictionError
from .expfam import Gaussian1D, divide
from .factors import IncomingTuple, TrainingPair
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
    """Use the prediction q.  variance is None when the budget was spent:
    the gate then skips it, and phi, the message's feature vector, lets the
    caller score it later, batched with others."""

    q: Gaussian1D
    variance: float | None
    phi: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class QueryOracle:
    variance: float


def featurize(op: MessageOperator, inc: IncomingTuple) -> np.ndarray:
    """Feature vector of an incoming tuple: joint_features(op.spec, inc), bit for bit.

    Only the Beta factor's source differs: the memo, filled on a miss
    through this module's beta_cf.
    """
    if not inc.proper:
        raise DomainError("cannot featurize improper incoming messages")
    inner = op.spec.inner
    key = (inc.m_z.alpha, inc.m_z.beta)
    row = op._beta_cache.get(key)
    if row is None:
        row = _beta_side(inner, beta_cf(inner.frequencies[:, 1], [inc.m_z], op._phases)[0])
        op._beta_cache[key] = row
    emb = (row * gaussian_cf(inner.frequencies[:, 0], inc.m_x)).real
    return embedding_features(op.spec, emb)


def warm_beta_cache(op: MessageOperator, betas) -> None:
    """Precompute the Beta-side feature factors for known Beta messages.

    The quadrature behind a never-seen (alpha, beta) pair costs a density
    and a mat-vec per quadrature order, plus the phase matrices the first
    time any Beta meets these frequencies; everything afterwards is a
    dictionary hit. Callers that know their observation set up front (an EP
    run over a fixed graph) warm the cache once so steady-state message
    latency stays flat.
    """
    probe = Gaussian1D(0.0, 1.0)
    for b in betas:
        featurize(op, IncomingTuple(probe, b))


def featurize_batch(op: MessageOperator, tuples) -> np.ndarray:
    """Feature matrix (D x N) for a list of tuples (training layout)."""
    return joint_features_batch(op.spec, tuples).T


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
            return QueryOracle(variance)
    return UsePrediction(_q_from_output(predict(op.model, phi)), variance, phi)


def batch_variance(op: MessageOperator, Phi: np.ndarray) -> np.ndarray:
    """Predictive variances of the columns of a (D, M) feature batch, in one
    pass over the inverse Gram (the variances decide skips once the budget
    is spent)."""
    return predictive_variance(op.model, Phi)


def absorb(op: MessageOperator, inc: IncomingTuple, oracle_result) -> MessageOperator:
    """Fold one oracle answer (E, log V) into the model by update_online."""
    target = np.asarray(oracle_result, dtype=float)
    if target.shape != (op.model.W.shape[0],):
        raise DomainError(f"oracle result has shape {target.shape}")
    model = update_online(op.model, featurize(op, inc), target)
    # replace() carries both memos over: features are model-independent
    return replace(op, model=model)


def default_tau(model: RidgeModel, Phi: np.ndarray) -> float:
    """Calibrated threshold: 90th percentile of training predictive variances."""
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
    final model refits on all of them.  Returns the operator, the CV report,
    and the calibrated tau.
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
    specs, feats = {}, {}
    for m in sorted({m for m, _ in grid}):
        inner = rescale(base, m)
        emb = joint_features_batch(inner, tuples)
        center, projection = principal_projection(emb, k)
        projected = (emb - center) @ projection
        outer = rescale(base_outer, median_distance(projected))
        specs[m] = TwoStageSpec(inner, center, projection, outer)
        # the map featurize_batch applies, so training features equal its output
        feats[m] = embedding_features(specs[m], emb).T

    cv_rng = rng.spawn(1)[0]
    report = cross_validate(feats, Y, grid=grid, folds=folds, rng=cv_rng)
    mult, lam = report.chosen_params
    model = fit(feats[mult], Y, lam)
    op = MessageOperator(specs[mult], model)
    tau = default_tau(model, feats[mult])
    return op, report, tau
