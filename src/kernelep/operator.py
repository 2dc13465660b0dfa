"""Learned message operator: feature pipeline, ridge model, output transform.

An operator maps the incoming messages at the logistic factor, a Gaussian on
x and a Beta on z, to the projected tilted Gaussian q on x, and so to the
outgoing message to x.  Predictions come out in (E, log V) form and are
inverted through exp, so a finite prediction always yields a proper
distribution.  The operator is policy-free about improper downstream
messages and about when to trust itself: `decide` merely compares predictive
variance against a threshold, and the inference engine's ActiveSource owns
the oracle budget.

The operator's features are those of a TwoStageSpec (a Gaussian kernel on
projected joint embeddings), computed by the same formula that
kernels.joint_features_batch uses for training.  Incoming Beta
observations repeat across an EP run, so the Beta side of the inner joint
embedding is memoized per (alpha, beta); the Gaussian side is closed form
and recomputed on every call, as are the projection and outer features.

An EP source calls `outgoing_message` with the two cavities as they are:
one message costs featurize, predict, the (E, log V) inversion and a
division on floats, and no IncomingTuple or natural-parameter array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, PredictionError, integer, real
from .expfam import BetaDist, Gaussian1D, divide
from .factors import IncomingTuple, TrainingPair, regression_target
from .kernels import (
    PointFeatures,
    TwoStageSpec,
    _beta_side,
    _project,
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
    DEFAULT_LAMBDAS,
    DEFAULT_MULTIPLIERS,
    CvReport,
    RidgeModel,
    cross_validate,
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
    "absorb",
    "default_tau",
    "train_operator",
]

# Two-stage sizing (see train_operator).
INNER_WIDTH_CAP = 500
PROJECTION_DIM = 16
# Beta rows an operator's memo keeps (see MessageOperator).
BETA_MEMO_CAP = 256


@dataclass(frozen=True, eq=False)
class MessageOperator:
    """Immutable trained operator for the logistic factor's message to x.

    spec is the TwoStageSpec train_operator builds; anything else raises
    DomainError.  The output transform is fixed as (E, log V).  _beta_cache
    memoizes the Beta factor of the inner embedding per Beta parameters, and
    _phases the Beta quadrature's phase matrices per order (beta_cf's memo
    for the inner frequencies); neither ever affects results, only latency.
    _beta_cache fills on first use, in featurize, and keeps the newest
    BETA_MEMO_CAP rows.  An EP run meets only its observations' Betas, so it
    pays one cold Beta CF per observation the operator has not met before
    and hits from then on, and a stream of fresh Betas (eval, a long
    active-run) holds at most 2 MB of rows at an inner width of 500.
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
        if not real("tau", self.tau) > 0.0:
            raise DomainError(f"tau must be positive, got {self.tau}")
        integer("budget", self.budget, 0)


@dataclass(frozen=True)
class UsePrediction:
    """Use the prediction q, whose predictive variance is within tau."""

    q: Gaussian1D
    variance: float


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
        if len(op._beta_cache) >= BETA_MEMO_CAP:
            del op._beta_cache[next(iter(op._beta_cache))]  # the oldest row
        op._beta_cache[key] = row
    return row


def featurize(op: MessageOperator, m_x: Gaussian1D, m_z: BetaDist) -> np.ndarray:
    """Feature vector of the incoming messages m_x on x and m_z on z:
    embedding_features(op.spec, e), bit for bit, where e is
    joint_features_batch(op.spec.inner, [IncomingTuple(m_x, m_z)])[0].

    An improper message raises DomainError: m_x in gaussian_cf, m_z in
    beta_cf, as the Beta memo holds rows of proper Betas only.
    """
    cf = gaussian_cf(op.spec.inner, m_x)
    emb = np.multiply(_beta_row(op, m_z), cf, out=cf).real
    return embedding_features(op.spec, emb)


def warm_beta_cache(op: MessageOperator, betas) -> None:
    """Fill the Beta memo for Betas known up front, such as the pool a stream
    of EP runs draws its observations from, so that no message pays a cold
    Beta CF."""
    for b in betas:
        if b.improper:
            raise DomainError(f"cannot warm the cache for improper {b}")
        _beta_row(op, b)


def featurize_batch(op: MessageOperator, tuples) -> np.ndarray:
    """Feature matrix (D x N) for a list of tuples (training layout)."""
    return embedding_features(op.spec, joint_features_batch(op.spec.inner, tuples)).T


def _q_from_output(y: np.ndarray) -> Gaussian1D:
    """The Gaussian of a prediction y = (E, log V).  PredictionError when y is
    not finite, or exp(log V) overflows or underflows to an improper
    variance."""
    mean, log_var = float(y[0]), float(y[1])
    if not (math.isfinite(mean) and math.isfinite(log_var)):
        raise PredictionError(f"non-finite operator prediction {y}")
    try:
        variance = math.exp(log_var)
    except OverflowError:
        variance = math.inf
    if not 0.0 < variance < math.inf:
        raise PredictionError(
            f"prediction (mean {mean}, log variance {log_var}) maps to an improper Gaussian"
        )
    return Gaussian1D(mean, variance)


def predict_q(op: MessageOperator, inc: IncomingTuple) -> Gaussian1D:
    """Predicted projected-tilted distribution on x."""
    return _q_from_output(predict(op.model, featurize(op, inc.m_x, inc.m_z)))


def outgoing_message(
    op: MessageOperator, m_x: Gaussian1D, m_z: BetaDist
) -> tuple[Gaussian1D, np.ndarray]:
    """The message to x for cavities m_x and m_z, and the features phi it was
    predicted from.  The message is divide(predict_q(op, inc), m_x) for
    inc = IncomingTuple(m_x, m_z), bit for bit, and may be improper-flagged."""
    phi = featurize(op, m_x, m_z)
    return divide(_q_from_output(predict(op.model, phi)), m_x), phi


def decide(
    op: MessageOperator, tau: float, m_x: Gaussian1D, m_z: BetaDist
) -> UsePrediction | QueryOracle:
    """Trust the prediction for cavities m_x and m_z unless its variance
    exceeds tau.  A non-finite phi fails, as a non-finite prediction."""
    phi = featurize(op, m_x, m_z)
    variance = predictive_variance(op.model, phi)
    if variance > tau:
        return QueryOracle(variance, phi)
    return UsePrediction(_q_from_output(predict(op.model, phi)), variance)


def absorb(op: MessageOperator, phi: np.ndarray, q: Gaussian1D) -> MessageOperator:
    """Fold the oracle's projected q at features phi into the model by
    update_online.  With decide's QueryOracle.phi, the update reuses the
    M phi that decide's variance left in the model's memo, and its one pass
    over the triangle is the transposed mat-vec that moves W."""
    model = update_online(op.model, phi, regression_target(q))
    # replace() carries both memos over: features are model-independent
    return replace(op, model=model)


def default_tau(model: RidgeModel, Phi: np.ndarray) -> float:
    """Calibrated threshold: 90th percentile of training predictive variances.

    Phi is a D x N array or a lazy feature matrix (kernels.PointFeatures);
    predictive_variance reads either in the same column chunks, so both
    give the same bits.
    """
    return float(np.percentile(predictive_variance(model, Phi), 90.0))


def train_operator(
    pairs: list[TrainingPair],
    num_features: int,
    rng: np.random.Generator,
    multipliers=DEFAULT_MULTIPLIERS,
    lambdas=DEFAULT_LAMBDAS,
    folds: int = 5,
) -> tuple[MessageOperator, CvReport, float]:
    """Full training pipeline on generated pairs.

    The operator regresses on a two-stage feature map (TwoStageSpec), and
    num_features is the width of its outer layer, the one the ridge model
    sees.  Per bandwidth multiplier m:

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
    K-fold cross-validation on the pairs chooses just (m, lambda) from the
    product of the two axes, and the final model refits on all of them.
    Only each multiplier's spec and its n x k projected embeddings are kept,
    not its n x D_in embedding.  Its D x n features are a lazy
    PointFeatures matrix over them, which cross-validation, the refit and
    tau read a block at a time, so no whole feature matrix is alive on
    either cross-validation route.
    Returns the operator, the CV report, and the calibrated tau.
    """
    tuples = [p.input for p in pairs]
    Y = np.array([p.target for p in pairs]).T
    gamma_x, gamma_z = median_heuristic(tuples)

    inner_width = min(num_features, INNER_WIDTH_CAP)
    k = min(PROJECTION_DIM, inner_width, len(tuples) - 1)
    base = draw_rff(2, inner_width, (gamma_x, gamma_z), rng)
    base_outer = draw_rff(k, num_features, 1.0, rng)
    specs, projected = {}, {}
    for m in multipliers:
        inner = rescale(base, m)
        center, projection, centred = principal_projection(joint_features_batch(inner, tuples), k)
        projected[m] = _project(None, projection, centred)
        del centred  # so no n x D_in embedding outlives its projection
        outer = rescale(base_outer, median_distance(projected[m]))
        specs[m] = TwoStageSpec(inner, center, projection, outer)

    def features(m):
        return PointFeatures(specs[m].outer, projected[m])

    cv_rng = rng.spawn(1)[0]
    report = cross_validate(features, Y, multipliers, lambdas, folds, cv_rng)
    mult, lam = report.chosen_params
    Phi = features(mult)
    model = fit(Phi, Y, lam)
    tau = default_tau(model, Phi)
    return MessageOperator(specs[mult], model), report, tau
