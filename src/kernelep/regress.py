"""Ridge regression on feature vectors: primal form, dual-form validation,
rank-1 online updates, predictive variance, and cross-validation.

Layout convention: feature matrices are D x N (one case per column), targets
are D_y x N.  The primal weights W = Y Phi^T (Phi Phi^T + lambda I)^{-1} are
a D_y x D matrix applied to feature vectors by plain multiplication; all
outputs share the single inverse Gram A_inv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .errors import DomainError

__all__ = [
    "RidgeModel",
    "DualRidgeModel",
    "CvReport",
    "DEFAULT_MULTIPLIERS",
    "DEFAULT_LAMBDAS",
    "default_grid",
    "fit",
    "fit_dual",
    "predict",
    "predictive_variance",
    "update_online",
    "cross_validate",
]

DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_LAMBDAS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 100.0)

# escalating diagonal jitter for nearly singular normal equations
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)


def default_grid() -> list[tuple[float, float]]:
    return [(m, lam) for m in DEFAULT_MULTIPLIERS for lam in DEFAULT_LAMBDAS]


@dataclass(frozen=True, eq=False)
class RidgeModel:
    """Fitted primal ridge regressor.

    noise_scale is the mean squared training residual at fit time (floored
    at a tiny positive value) and is kept frozen by online updates so the
    predictive variance is monotone under new evidence.

    A_inv is exactly symmetric, bit for bit: fit stores (X + X^T) / 2,
    load_model restores the saved bytes, and update_online subtracts
    outer(u, u) / denom, which is exactly symmetric because u_i u_j == u_j u_i
    in IEEE arithmetic.  So update_online needs no re-symmetrization.
    """

    W: np.ndarray
    lam: float
    A_inv: np.ndarray
    noise_scale: float
    n_train: int

    def __post_init__(self):
        self.W.setflags(write=False)
        self.A_inv.setflags(write=False)

    @property
    def num_features(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True, eq=False)
class DualRidgeModel:
    """Dual-form ridge regressor A = Y (K + lambda I)^{-1} over stored inputs."""

    coeffs: np.ndarray
    X: np.ndarray
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lam: float

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[:, None] if single else x
        out = self.coeffs @ self.kernel(self.X, pts)
        return out[:, 0] if single else out


@dataclass(frozen=True)
class CvReport:
    grid: tuple[tuple[float, float], ...]
    fold_errors: np.ndarray
    chosen: int

    @property
    def chosen_params(self) -> tuple[float, float]:
        return self.grid[self.chosen]


def _spd_factor(mat: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of a symmetric positive definite matrix,
    escalating diagonal jitter on failure (cho_factor's (c, lower) pair)."""
    for jitter in _JITTERS:
        try:
            return cho_factor(
                mat if jitter == 0.0 else mat + jitter * np.eye(mat.shape[0]),
                lower=True,
            )
        except LinAlgError:
            continue
    raise DomainError("normal equations singular to working precision")


def _spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite system, escalating jitter on failure."""
    return cho_solve(_spd_factor(mat), rhs)


def fit(Phi: np.ndarray, Y: np.ndarray, lam: float) -> RidgeModel:
    """Primal ridge fit W = Y Phi^T (Phi Phi^T + lambda I)^{-1}."""
    Phi = np.asarray(Phi, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Phi.ndim != 2 or Y.shape[1] != Phi.shape[1] or Phi.shape[1] < 1:
        raise DomainError(f"incompatible shapes Phi {Phi.shape}, Y {Y.shape}")
    if not (np.all(np.isfinite(Phi)) and np.all(np.isfinite(Y))):
        raise DomainError("non-finite training inputs")
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    D, N = Phi.shape
    gram = Phi @ Phi.T
    gram[np.diag_indices_from(gram)] += lam
    A_inv = _spd_solve(gram, np.eye(D))
    A_inv = (A_inv + A_inv.T) / 2.0
    W = Y @ Phi.T @ A_inv
    residual = Y - W @ Phi
    noise_scale = max(float(np.mean(residual**2)), np.finfo(float).tiny)
    return RidgeModel(W, float(lam), A_inv, noise_scale, N)


def fit_dual(
    X: np.ndarray,
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    Y: np.ndarray,
    lam: float,
) -> DualRidgeModel:
    """Dual ridge fit over raw inputs X (D x N) with an explicit kernel."""
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.ndim != 2 or Y.shape[1] != X.shape[1]:
        raise DomainError(f"incompatible shapes X {X.shape}, Y {Y.shape}")
    K = kernel(X, X)
    K = (K + K.T) / 2.0
    shifted = K + lam * np.eye(K.shape[0])
    try:
        factor = cho_factor(shifted, lower=True)
    except LinAlgError:
        raise DomainError("K + lambda*I singular to working precision") from None
    coeffs = cho_solve(factor, Y.T).T
    return DualRidgeModel(coeffs, X.copy(), kernel, float(lam))


def _check_phi(model: RidgeModel, phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] != model.num_features:
        raise DomainError(
            f"feature vector has length {phi.shape[0]}, model expects {model.num_features}"
        )
    return phi


def predict(model: RidgeModel, phi) -> np.ndarray:
    """y = W phi for a single (D,) vector or a (D, M) batch."""
    return model.W @ _check_phi(model, phi)


def predictive_variance(model: RidgeModel, phi) -> float:
    """GP-style scalar variance noise_scale * phi^T A_inv phi."""
    phi = _check_phi(model, phi)
    if phi.ndim != 1:
        raise DomainError("predictive_variance takes a single feature vector")
    return max(float(model.noise_scale * (phi @ model.A_inv @ phi)), 0.0)


def update_online(model: RidgeModel, phi_new, y_new) -> RidgeModel:
    """Rank-1 Sherman-Morrison update; equals a batch refit on the grown set.

    noise_scale stays frozen (see RidgeModel); n_train counts the new pair.
    The new A_inv is built in one fresh D x D array, updated in place; it
    stays exactly symmetric (see RidgeModel).
    """
    phi = _check_phi(model, phi_new)
    y = np.atleast_1d(np.asarray(y_new, dtype=float))
    if y.shape != (model.W.shape[0],):
        raise DomainError(f"target has shape {y.shape}, model outputs {model.W.shape[0]}")
    u = model.A_inv @ phi
    denom = 1.0 + float(phi @ u)
    if denom <= 0.0:
        raise DomainError(f"rank-1 update breakdown: denominator {denom} <= 0")
    A_inv = np.outer(u, u)
    A_inv /= denom
    np.subtract(model.A_inv, A_inv, out=A_inv)
    W = model.W + np.outer((y - model.W @ phi) / denom, u)
    return RidgeModel(W, model.lam, A_inv, model.noise_scale, model.n_train + 1)


def cross_validate(
    features: Mapping[float, np.ndarray],
    Y: np.ndarray,
    grid=None,
    folds: int = 5,
    rng: np.random.Generator | None = None,
) -> CvReport:
    """K-fold grid search over (bandwidth multiplier, lambda) pairs.

    `features` maps each multiplier in the grid to its D x N feature matrix
    (same case order).  Fold assignment is a seeded permutation, so the
    report is deterministic per rng state.  Ties in mean error prefer the
    larger lambda, then the larger multiplier.

    Each grid point costs one Cholesky factorization, of the full-data
    G = Phi Phi^T + lambda I (D x D, so no N x N matrix appears).  A fold's
    held-out residuals follow from the full-data fit by the leave-group-out
    identity: with G = L L^T, B = L^{-1} Phi and the hat matrix H = B^T B,
    refitting without fold g leaves residuals (Y_g - Yhat_g)(I - H_gg)^{-1},
    a |g| x |g| solve per fold.
    """
    if grid is None:
        grid = default_grid()
    grid = [(float(m), float(lam)) for m, lam in grid]
    if not grid:
        raise DomainError("empty cross-validation grid")
    for mult, lam in grid:
        if mult not in features:
            raise DomainError(f"no feature matrix supplied for multiplier {mult}")
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

    mults = sorted({m for m, _ in grid})
    lams_by_mult = {m: sorted({lam for mm, lam in grid if mm == m}) for m in mults}
    errors = {}
    for mult in mults:
        Phi = np.asarray(features[mult], dtype=float)
        if Phi.shape[1] != N:
            raise DomainError(
                f"feature matrix for multiplier {mult} has {Phi.shape[1]} cases, expected {N}"
            )
        Phi = Phi[:, by_fold]
        gram = Phi @ Phi.T
        for lam in lams_by_mult[mult]:
            shifted = gram.copy()
            shifted[np.diag_indices_from(shifted)] += lam
            L, _ = _spd_factor(shifted)
            B = solve_triangular(L, Phi, lower=True, check_finite=False)
            residual = Y_sorted - (Y_sorted @ B.T) @ B
            for k in range(folds):
                lo, hi = bounds[k], bounds[k + 1]
                B_k = B[:, lo:hi]
                held_out = np.linalg.solve(np.eye(hi - lo) - B_k.T @ B_k, residual[:, lo:hi].T)
                errors[(mult, lam, k)] = float(np.mean(held_out**2))

    fold_errors = np.array(
        [[errors[(m, lam, k)] for k in range(folds)] for m, lam in grid]
    )
    means = fold_errors.mean(axis=1)
    best = means.min()
    chosen = max(
        (i for i in range(len(grid)) if means[i] == best),
        key=lambda i: (grid[i][1], grid[i][0]),
    )
    return CvReport(tuple(grid), fold_errors, chosen)
