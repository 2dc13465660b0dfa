"""Ridge regression on feature vectors: primal form, low-rank online
updates, predictive variance, and cross-validation.

Layout convention: feature matrices are D x N (one case per column), targets
are D_y x N.  The primal weights W = Y Phi^T (Phi Phi^T + lambda I)^{-1} are
a D_y x D matrix applied to feature vectors by plain multiplication; all
outputs share the single inverse Gram A_inv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from .errors import DomainError

__all__ = [
    "RidgeModel",
    "CvReport",
    "DEFAULT_MULTIPLIERS",
    "DEFAULT_LAMBDAS",
    "default_grid",
    "fit",
    "predict",
    "predictive_variance",
    "update_online",
    "cross_validate",
]

DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_LAMBDAS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 100.0)

# escalating diagonal jitter for nearly singular normal equations
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)

# rows of absorbed updates a model carries before update_online folds them
# into a new base inverse (see RidgeModel).  Every carried row adds to each
# predictive variance, and a fold is one rank-k product over D x D.  At the
# acceptance width D = 2000 the carry adds at most ~7% to a variance's base
# mat-vec, and a fold costs a few tens of ms once per 32 updates.
FOLD_RANK = 32


def default_grid() -> list[tuple[float, float]]:
    return [(m, lam) for m in DEFAULT_MULTIPLIERS for lam in DEFAULT_LAMBDAS]


@dataclass(frozen=True, eq=False)
class RidgeModel:
    """Fitted primal ridge regressor.

    noise_scale is the mean squared training residual at fit time (floored
    at a tiny positive value) and is kept frozen by online updates so the
    predictive variance is monotone under new evidence.

    The inverse Gram is held in two parts, A_inv = A0 - V^T V.  A0 is a
    fixed D x D base: the inverse from fit or load_model, or the last fold.
    It is read-only and shared by every model updated from it.  V is a
    k x D factor with one row u / sqrt(d) per pair absorbed since, where
    u = A_inv phi and d = 1 + phi^T u at the time of the update (k = 0 when
    omitted).  An update appends a row to a fresh copy of V, so it costs
    mat-vecs in D, and a model updated twice gives two independent models.
    When V reaches FOLD_RANK rows, update_online folds it into a new base.

    A0 and the A_inv property are exactly symmetric, bit for bit: fit
    stores (X + X^T) / 2, load_model restores the saved bytes, and V^T V is
    exactly symmetric too (numpy evaluates it as a symmetric rank-k product
    and mirrors one triangle), so A0 - V^T V subtracts equal numbers from
    equal numbers at (i, j) and (j, i).

    _memo keeps (phi's bytes, A_inv phi) for the last single vector whose
    predictive variance this model computed.  update_online reuses that u
    when handed a phi with the same bytes, so an oracle query gated by the
    variance pays one pass over A0, not two.  It never changes a result,
    only latency.
    """

    W: np.ndarray
    lam: float
    A0: np.ndarray
    noise_scale: float
    n_train: int
    V: np.ndarray | None = None
    _memo: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.W.ndim != 2:
            raise DomainError(f"weights must be 2-D, got shape {self.W.shape}")
        D = self.W.shape[1]
        if self.V is None:
            object.__setattr__(self, "V", np.empty((0, D)))
        if self.A0.shape != (D, D) or self.V.ndim != 2 or self.V.shape[1] != D:
            raise DomainError(
                f"inverse Gram {self.A0.shape} and factor {self.V.shape} do not match "
                f"weights {self.W.shape}"
            )
        self.W.setflags(write=False)
        self.A0.setflags(write=False)
        self.V.setflags(write=False)

    @property
    def num_features(self) -> int:
        return self.W.shape[1]

    @property
    def A_inv(self) -> np.ndarray:
        """The inverse Gram A0 - V^T V: A0 itself when V is empty, else a
        fresh D x D array."""
        return _fold(self.A0, self.V)


def _fold(A0: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A0 - V^T V as a read-only, exactly symmetric array (A0 when V is empty)."""
    if not len(V):
        return A0
    A = V.T @ V
    np.subtract(A0, A, out=A)
    A.setflags(write=False)
    return A


@dataclass(frozen=True)
class CvReport:
    grid: tuple[tuple[float, float], ...]
    fold_errors: np.ndarray
    chosen: int

    @property
    def chosen_params(self) -> tuple[float, float]:
        return self.grid[self.chosen]


def fit(Phi: np.ndarray, Y: np.ndarray, lam: float) -> RidgeModel:
    """Primal ridge fit W = Y Phi^T (Phi Phi^T + lambda I)^{-1}.

    The Gram is exactly symmetric (numpy forms Phi Phi^T as a rank-k update
    and mirrors one triangle), so its transpose is the same matrix in
    Fortran order: LAPACK factors it in place, and solves into an identity
    it overwrites, so no D x D copy is made.  When the factorization fails,
    escalating diagonal jitter is added to a fresh Gram.
    """
    Phi = np.asarray(Phi, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Phi.ndim != 2 or Y.shape[1] != Phi.shape[1] or Phi.shape[1] < 1:
        raise DomainError(f"incompatible shapes Phi {Phi.shape}, Y {Y.shape}")
    if not (np.all(np.isfinite(Phi)) and np.all(np.isfinite(Y))):
        raise DomainError("non-finite training inputs")
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    D, N = Phi.shape
    diagonal = np.diag_indices(D)
    for jitter in _JITTERS:
        gram = Phi @ Phi.T
        gram[diagonal] += lam
        if jitter:
            gram[diagonal] += jitter
        try:
            factor = cho_factor(gram.T, lower=True, overwrite_a=True)
            break
        except LinAlgError:
            continue
    else:
        raise DomainError("normal equations singular to working precision")
    del gram
    # the identity is symmetric too, so its transpose is Fortran-ordered
    X = cho_solve(factor, np.eye(D).T, overwrite_b=True)
    del factor
    A_inv = X + X.T
    del X
    A_inv /= 2.0
    W = Y @ Phi.T @ A_inv
    residual = Y - W @ Phi
    noise_scale = max(float(np.mean(residual**2)), np.finfo(float).tiny)
    return RidgeModel(W, float(lam), A_inv, noise_scale, N)


def _check_phi(model: RidgeModel, phi, batch: bool) -> np.ndarray:
    """phi as floats: a (D,) vector, or where batch allows, a nonempty (D, M) batch."""
    phi = np.asarray(phi, dtype=float)
    if not (phi.ndim == 1 or batch and phi.ndim == 2 and phi.shape[1] > 0):
        allowed = "a (D,) vector or a nonempty (D, M) batch" if batch else "a (D,) vector"
        raise DomainError(f"features must be {allowed}, got shape {phi.shape}")
    if phi.shape[0] != model.num_features:
        raise DomainError(
            f"feature vector has length {phi.shape[0]}, model expects {model.num_features}"
        )
    return phi


def _check_finite(name: str, x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError(f"non-finite {name}")


def _apply_inverse(model: RidgeModel, phi: np.ndarray) -> np.ndarray:
    """u = A_inv phi = A0 phi - V^T (V phi), without forming A_inv."""
    u = model.A0 @ phi
    if len(model.V):
        u -= model.V.T @ (model.V @ phi)
    return u


def predict(model: RidgeModel, phi) -> np.ndarray:
    """y = W phi for a single (D,) vector or a nonempty (D, M) batch."""
    return model.W @ _check_phi(model, phi, batch=True)


def predictive_variance(model: RidgeModel, phi) -> float | np.ndarray:
    """GP-style variance noise_scale * phi^T A_inv phi, clipped at 0.

    phi is a single (D,) vector, giving a float, or a (D, M) batch, giving
    the M column variances from one pass over A0 (a matrix product instead
    of M mat-vecs).  A batch column's variance equals that column scored
    alone up to summation order.  A single vector's u = A_inv phi is kept
    in the model's memo for update_online.  A non-finite phi raises
    DomainError: its variance would be nan, which a threshold test reads as
    certain.
    """
    phi = _check_phi(model, phi, batch=True)
    _check_finite("feature vector", phi)
    if phi.ndim == 1:
        u = _apply_inverse(model, phi)
        u.setflags(write=False)
        object.__setattr__(model, "_memo", (phi.tobytes(), u))
        return max(float(model.noise_scale * (phi @ u)), 0.0)
    # the batch as rows: rows A_inv is (A_inv phi)^T, A_inv being exactly
    # symmetric, and OpenBLAS forms this (M, D) product with A0 faster than
    # the (D, M) one
    rows = phi.T
    U = rows @ model.A0
    if len(model.V):
        U -= (rows @ model.V.T) @ model.V
    variances = model.noise_scale * np.sum(U * rows, axis=1)
    return np.maximum(variances, 0.0)


def update_online(model: RidgeModel, phi_new, y_new) -> RidgeModel:
    """Rank-1 (Sherman-Morrison) update; equals a batch refit on the grown set.

    With u = A_inv phi and d = 1 + phi^T u, W gains (y - W phi) u^T / d and
    the returned model carries one more row u / sqrt(d) of V over the same
    base A0 (see RidgeModel), so no D x D array is touched unless V reaches
    FOLD_RANK rows and is folded.  When predictive_variance last scored a
    phi with the same bytes on this model, its u is reused (the same bits a
    fresh product gives), so the update costs no pass over A0 of its own.
    noise_scale stays frozen; n_train counts the new pair.  Non-finite
    inputs raise DomainError.
    """
    phi = _check_phi(model, phi_new, batch=False)
    y = np.atleast_1d(np.asarray(y_new, dtype=float))
    if y.shape != (model.W.shape[0],):
        raise DomainError(f"target has shape {y.shape}, model outputs {model.W.shape[0]}")
    _check_finite("feature vector", phi)
    _check_finite("target", y)
    memo = model._memo
    if memo is not None and memo[0] == phi.tobytes():
        u = memo[1]
    else:
        u = _apply_inverse(model, phi)
    denom = 1.0 + float(phi @ u)
    if denom <= 0.0:
        raise DomainError(f"rank-1 update breakdown: denominator {denom} <= 0")
    W = model.W + np.outer((y - model.W @ phi) / denom, u)
    V = np.vstack([model.V, u / math.sqrt(denom)])
    A0 = model.A0
    if len(V) >= FOLD_RANK:
        A0, V = _fold(A0, V), None
    return RidgeModel(W, model.lam, A0, model.noise_scale, model.n_train + 1, V)


def cross_validate(
    features: Callable[[float], np.ndarray],
    Y: np.ndarray,
    grid=None,
    folds: int = 5,
    rng: np.random.Generator | None = None,
) -> CvReport:
    """K-fold grid search over (bandwidth multiplier, lambda) pairs.

    `features(m)` gives multiplier m of the grid its D x N feature matrix
    (same case order).  It is called once per multiplier, in increasing
    order, when the search reaches it, so a caller that builds fresh
    matrices holds one at a time.
    Fold assignment is a seeded permutation, so the report is deterministic
    per rng state.  Ties in mean error prefer the larger lambda, then the
    larger multiplier.

    Each multiplier costs one eigendecomposition, of the full-data Gram
    G = Phi Phi^T = P diag(e) P^T (D x D, so no N x N matrix appears), and
    every lambda of the grid reuses it.  With C = Phi^T P and
    w = 1 / (e + lambda), the full-data hat matrix is H = C diag(w) C^T.  A
    fold's held-out residuals follow from the full-data fit by the
    leave-group-out identity: refitting without fold g leaves residuals
    (Y_g - Yhat_g)(I - H_gg)^{-1}.  So a lambda costs only the |g| x |g|
    blocks H_gg and their solves.  No jitter is added: e is clipped at 0 and
    lambda > 0 keeps every w finite.
    """
    if grid is None:
        grid = default_grid()
    grid = [(float(m), float(lam)) for m, lam in grid]
    if not grid:
        raise DomainError("empty cross-validation grid")
    for _, lam in grid:
        if lam <= 0:
            raise DomainError(f"lambda must be positive, got {lam}")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    N = Y.shape[1]
    if N < folds:
        raise DomainError(f"need at least {folds} cases for {folds}-fold CV, got {N}")
    if rng is None:
        rng = np.random.default_rng(0)

    order = rng.permutation(N)
    fold_of = np.empty(N, dtype=int)
    fold_of[order] = np.arange(N) % folds
    # cases sorted by fold, so every fold is a contiguous block of columns
    by_fold = np.argsort(fold_of, kind="stable")
    bounds = np.searchsorted(fold_of[by_fold], np.arange(folds + 1))
    Y_sorted = Y[:, by_fold]

    errors = {}
    for mult in sorted({m for m, _ in grid}):
        lams = sorted({lam for m, lam in grid if m == mult})
        fold_errors = _fold_errors(features, mult, by_fold, Y_sorted, lams, bounds)
        for lam, fold_mse in zip(lams, fold_errors):
            errors[(mult, lam)] = fold_mse

    fold_errors = np.array([errors[point] for point in grid])
    means = fold_errors.mean(axis=1)
    best = means.min()
    chosen = max(
        (i for i in range(len(grid)) if means[i] == best),
        key=lambda i: (grid[i][1], grid[i][0]),
    )
    return CvReport(tuple(grid), fold_errors, chosen)


def _fold_errors(build, mult, by_fold, Y, lams, bounds) -> list[list[float]]:
    """Held-out mean squared errors per lambda and fold for multiplier mult,
    whose features build(mult) gives; by_fold orders their columns so that
    fold k is the block bounds[k]:bounds[k + 1] (as Y already is).

    The feature matrix, its fold-sorted copy, G, P and C live only in this
    call, and the unsorted matrix goes as soon as the sorted copy exists,
    so each multiplier's arrays are freed before the next multiplier's are
    formed.
    """
    Phi = np.asarray(build(mult), dtype=float)
    if Phi.ndim != 2 or Phi.shape[1] != len(by_fold):
        raise DomainError(
            f"feature matrix for multiplier {mult} has shape {Phi.shape}, "
            f"expected {len(by_fold)} cases"
        )
    Phi = Phi[:, by_fold]
    # G is exactly symmetric (numpy forms Phi Phi^T as a rank-k update and
    # mirrors one triangle), so G^T is G in Fortran order: LAPACK overwrites
    # it in place instead of eigh copying it first
    G = Phi @ Phi.T
    e, P = eigh(G.T, overwrite_a=True, driver="evd")
    del G
    np.maximum(e, 0.0, out=e)
    C = Phi.T @ P
    del Phi, P
    YC = Y @ C
    out = []
    for lam in lams:
        w = 1.0 / (e + lam)
        residual = Y - (YC * w) @ C.T
        root_w = np.sqrt(w)
        fold_mse = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            # H_gg = B B^T, which numpy forms as a symmetric rank-k product
            B = C[lo:hi] * root_w
            held_out = np.linalg.solve(np.eye(hi - lo) - B @ B.T, residual[:, lo:hi].T)
            fold_mse.append(float(np.mean(held_out**2)))
        out.append(fold_mse)
    return out
