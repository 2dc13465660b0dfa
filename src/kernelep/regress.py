"""Ridge regression on feature vectors: primal form, low-rank online
updates, predictive variance, and cross-validation.

Layout convention: feature matrices are D x N (one case per column), targets
are D_y x N.  The primal weights W = Y Phi^T (Phi Phi^T + lambda I)^{-1} are
a D_y x D matrix applied to feature vectors by plain multiplication.  The
inverse Gram is never formed: with L the lower Cholesky factor of
Phi Phi^T + lambda I, a model keeps the lower-triangular M = L^{-1}, so that
(Phi Phi^T + lambda I)^{-1} = M^T M and a predictive variance is a sum of
squares, ||M phi||^2 (Rasmussen & Williams, Gaussian Processes for Machine
Learning, 2006, Algorithm 2.1).  M is held as column blocks of its triangle
(see _BLOCK), and products with it are BLAS calls on the blocks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from .errors import DomainError

__all__ = [
    "RidgeModel",
    "CvReport",
    "DEFAULT_MULTIPLIERS",
    "DEFAULT_LAMBDAS",
    "default_grid",
    "factor_columns",
    "factor_size",
    "fit",
    "folded_factor",
    "predict",
    "predictive_variance",
    "update_online",
    "cross_validate",
]

DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_LAMBDAS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 100.0)

# escalating diagonal jitter for nearly singular normal equations
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)

# rows of the first carry buffer; each full buffer is copied into one of
# twice the rows, up to the D // 2 rows at which the carry folds
_CARRY_ROWS = 16

# elements per step of the in-place reversal in _fold
_REVERSE_CHUNK = 1 << 16

# width of the column blocks that hold M.  Block b, for b0 = b * _BLOCK and
# w = min(_BLOCK, D - b0), is the Fortran-ordered (D - b0) x w panel
# M[b0:, b0:b0 + w], and the blocks lie one after another in one flat
# buffer, so a model holds the triangle plus the zeros above the diagonal
# inside each block: 2,500,864 doubles at D = 2000 against 4,000,000 for the
# square.  M phi and M^T w are one gemv per block, and M X for a batch X
# and a fold one gemm per block.  OpenBLAS's threaded dtrmv and dtrmm would
# read the triangle alone, but on a 2-CPU host at D = 2000 they made the
# numpy calls that followed them several times slower, and the benchmark's
# EP body about 1.5x slower, where blocks of 512 keep it level with a gemv
# over a D x D inverse
_BLOCK = 512


def factor_size(D: int) -> int:
    """Length of the flat buffer that holds a D x D triangle's column blocks."""
    return sum((D - j) * min(_BLOCK, D - j) for j in range(0, D, _BLOCK))


def _panels(M: np.ndarray, D: int) -> tuple[np.ndarray, ...]:
    """The column blocks of the flat buffer M as F-ordered views (see _BLOCK)."""
    panels, offset = [], 0
    for j in range(0, D, _BLOCK):
        size = (D - j) * min(_BLOCK, D - j)
        panels.append(M[offset : offset + size].reshape((D - j, -1), order="F"))
        offset += size
    return tuple(panels)


def factor_columns(M: np.ndarray, D: int) -> list[np.ndarray]:
    """The triangle's columns M[j:, j], j < D, as contiguous views into the
    flat buffer M: what a model file stores, and where a loader reads it."""
    return [panel[c:, c] for panel in _panels(M, D) for c in range(panel.shape[1])]


def _pack(square: np.ndarray) -> np.ndarray:
    """A fresh flat buffer of the lower-triangular square's column blocks."""
    D = len(square)
    M = np.empty(factor_size(D))
    for j, panel in zip(range(0, D, _BLOCK), _panels(M, D)):
        panel[...] = square[j:, j : j + _BLOCK]
    return M


def default_grid() -> list[tuple[float, float]]:
    return [(m, lam) for m in DEFAULT_MULTIPLIERS for lam in DEFAULT_LAMBDAS]


@dataclass(eq=False)
class _CarryRows:
    """A buffer of carried rows shared by the models updated along one line:
    rows[:used] are taken, and the model whose C is rows[:used] may append
    in place."""

    rows: np.ndarray
    used: int
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def claim(self, k: int) -> bool:
        """Take row k for an update of the model whose C is rows[:k]: false
        when another update took it first or the buffer is full."""
        with self.lock:
            if self.used != k or k == len(self.rows):
                return False
            self.used = k + 1
            return True


@dataclass(frozen=True, eq=False)
class RidgeModel:
    """Fitted primal ridge regressor.

    noise_scale is the mean squared training residual at fit time (floored
    at a tiny positive value) and is kept frozen by online updates so the
    predictive variance is monotone under new evidence.

    The inverse Gram is held as A_inv = M^T (I - C^T C) M.  M is a D x D
    lower-triangular factor: L^{-1} for the Cholesky factor L of the Gram
    from fit, the triangle read by load_model, or the last fold.  The model
    holds it as one flat buffer of factor_size(D) doubles, its column blocks
    (see _BLOCK) with exact zeros above the diagonal, and never as a D x D
    square; _blocks are views of them, which every product with M
    multiplies by.  M is read-only and shared by every model updated from
    it.  C is a k x D carry with one row w / sqrt(d) per pair absorbed
    since, in the coordinates z = M phi: w is (I - C^T C) z and
    d = 1 + z^T w at the time of the update (k = 0 when omitted).  So a
    predictive variance is noise_scale * (||M phi||^2 - ||C M phi||^2).  An
    update appends its row to a buffer of rows that grows by doubling
    (_carry), in place when no other update has appended to it since, so
    it costs mat-vecs in D; a model updated twice gives two independent
    models, whose rows past their common ones never share memory.  When C
    reaches D // 2 rows, the point where its k D multiply-adds per variance
    match the triangle's D^2 / 2, update_online folds it into a new
    triangle; save_model folds whatever is carried.

    _memo keeps (phi's bytes, M phi, C M phi) for the last single vector
    whose predictive variance this model computed.  update_online reuses
    them when handed a phi with the same bytes, so an oracle query gated by
    the variance makes one product with M before its update, not two.  It
    never changes a result, only latency.
    """

    W: np.ndarray
    lam: float
    M: np.ndarray
    noise_scale: float
    n_train: int
    C: np.ndarray | None = None
    _blocks: tuple = field(default=(), init=False, repr=False)
    _carry: _CarryRows | None = field(default=None, init=False, repr=False)
    _memo: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.W.ndim != 2:
            raise DomainError(f"weights must be 2-D, got shape {self.W.shape}")
        D = self.W.shape[1]
        if self.C is None:
            object.__setattr__(self, "C", np.empty((0, D)))
        if self.M.shape != (factor_size(D),) or self.C.ndim != 2 or self.C.shape[1] != D:
            raise DomainError(
                f"triangular factor {self.M.shape} and carry {self.C.shape} do not match "
                f"weights {self.W.shape}"
            )
        self.W.setflags(write=False)
        self.M.setflags(write=False)
        self.C.setflags(write=False)
        object.__setattr__(self, "_blocks", _panels(self.M, D))

    @property
    def num_features(self) -> int:
        return self.W.shape[1]


def _reverse_in_place(flat: np.ndarray) -> None:
    """Reverse a 1-D array in place through a small buffer."""
    n = flat.size
    for lo in range(0, n // 2, _REVERSE_CHUNK):
        hi = min(lo + _REVERSE_CHUNK, n // 2)
        front = flat[lo:hi].copy()
        flat[lo:hi] = flat[n - hi : n - lo][::-1]
        flat[n - hi : n - lo] = front[::-1]


def _fold(panels: tuple, C: np.ndarray) -> np.ndarray:
    """Fresh column blocks of a lower-triangular M' with
    M'^T M' = M^T (I - C^T C) M, for M the blocks `panels`.

    M' = T M for the lower-triangular T with T^T T = I - C^T C.  With J the
    reversal of coordinates, J (I - C^T C) J = U^T U for the upper Cholesky
    factor U, and T = J U J.  The array X holds J (I - C^T C) J, formed from
    C's reversed columns; LAPACK factors it in place as U, zeroing the rest.
    U's F-order bytes read backwards are T's, so reversing the buffer gives
    T in F order.  Both factors are lower-triangular, so block b of M' is
    T[b0:, b0:] M_b, one gemm per block into the new buffer.  Apart from
    C's reversed copy, X and the new blocks are the only arrays allocated.
    """
    reversed_C = np.ascontiguousarray(C[:, ::-1])
    X = reversed_C.T @ reversed_C
    del reversed_C
    np.negative(X, out=X)
    X[np.diag_indices(len(X))] += 1.0
    # X is exactly symmetric (numpy forms it as a symmetric rank-k product
    # and mirrors one triangle), so X^T is the same matrix in Fortran order,
    # which LAPACK and BLAS overwrite in place
    _, info = dpotrf(X.T, lower=0, clean=1, overwrite_a=1)
    if info:
        raise DomainError("carried updates lost positive definiteness; cannot fold")
    _reverse_in_place(X.reshape(-1))
    D = len(X)
    out = np.empty(factor_size(D))
    # as transposes, so that every operand and the output are C-ordered
    # for numpy's BLAS path: new_b^T = M_b^T T[b0:, b0:]^T, and T^T = X
    for j, panel, new in zip(range(0, D, _BLOCK), panels, _panels(out, D)):
        np.matmul(panel.T, X[j:, j:], out=new.T)
    out.setflags(write=False)
    return out


def folded_factor(model: RidgeModel) -> np.ndarray:
    """The model's inverse Gram as one lower-triangular factor: M itself when
    nothing is carried, else a fresh fold of the carry into it; either as
    the flat buffer of its column blocks."""
    return _fold(model._blocks, model.C) if len(model.C) else model.M


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
    Fortran order: LAPACK factors it in place as L L^T and zeroes the
    upper triangle, W comes from two triangular solves with L, and L is
    inverted in place and copied into the column blocks of the model's M.
    So the Gram's array is the only D x D array made, and the model does
    not keep it.  When the factorization fails, escalating diagonal jitter
    is added to a fresh Gram.
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
        L, info = dpotrf(gram.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            break
    else:
        raise DomainError("normal equations singular to working precision")
    del gram
    W_t, _ = dpotrs(L, Phi @ Y.T, lower=1, overwrite_b=1)
    W = W_t.T
    # L's diagonal is positive, so the inversion cannot fail
    L_inv, _ = dtrtri(L, lower=1, overwrite_c=1)
    M = _pack(L_inv)
    del L, L_inv
    residual = Y - W @ Phi
    noise_scale = max(float(np.mean(residual**2)), np.finfo(float).tiny)
    return RidgeModel(W, float(lam), M, noise_scale, N)


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


def _lower_product(panels: tuple, X: np.ndarray) -> np.ndarray:
    """M X for the column blocks of M and a (D,) vector or (D, n) batch X:
    block b adds M_b X[b] to the rows from b0 on."""
    z = np.zeros(X.shape)
    for j, panel in zip(range(0, len(X), _BLOCK), panels):
        z[j:] += panel @ X[j : j + _BLOCK]
    return z


def _lower_transposed_product(panels: tuple, w: np.ndarray) -> np.ndarray:
    """M^T w for the column blocks of M: entry block b is M_b^T w[b0:]."""
    u = np.empty(len(w))
    for j, panel in zip(range(0, len(w), _BLOCK), panels):
        u[j : j + _BLOCK] = panel.T @ w[j:]
    return u


def _apply_factor(model: RidgeModel, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, C z) for z = M phi: one pass over the triangle, one product with the carry."""
    z = _lower_product(model._blocks, phi)
    return z, model.C @ z


def predict(model: RidgeModel, phi) -> np.ndarray:
    """y = W phi for a single (D,) vector or a nonempty (D, M) batch."""
    return model.W @ _check_phi(model, phi, batch=True)


def predictive_variance(model: RidgeModel, phi) -> float | np.ndarray:
    """GP-style variance noise_scale * phi^T A_inv phi, clipped at 0.

    With z = M phi it is noise_scale * (||z||^2 - ||C z||^2) (see
    RidgeModel), a sum of squares where nothing is carried.  phi is a
    single (D,) vector, giving a float, or a (D, M) batch, giving the M
    column variances.  A batch is scored _BLOCK columns at a time, each
    chunk one pass over the triangle (matrix products instead of mat-vecs)
    reduced to its column sums of squares, so it holds about two D x _BLOCK
    arrays however wide it is.  Either way each entry of z is a sum of dot
    products with a row of M's blocks, so a batch column's variance equals
    that column scored alone to rounding, not up to a cancelling sum.  A
    single vector's z and C z are kept in the model's memo for
    update_online.  A non-finite phi raises DomainError: its variance would
    be nan, which a threshold test reads as certain.
    """
    phi = _check_phi(model, phi, batch=True)
    _check_finite("feature vector", phi)
    if phi.ndim == 1:
        z, Cz = _apply_factor(model, phi)
        z.setflags(write=False)
        Cz.setflags(write=False)
        object.__setattr__(model, "_memo", (phi.tobytes(), z, Cz))
        return max(float(model.noise_scale * (z @ z - Cz @ Cz)), 0.0)
    squares = np.empty(phi.shape[1])
    for j in range(0, len(squares), _BLOCK):
        Z, CZ = _apply_factor(model, phi[:, j : j + _BLOCK])
        squares[j : j + _BLOCK] = np.einsum("ij,ij->j", Z, Z) - np.einsum("ij,ij->j", CZ, CZ)
    return np.maximum(model.noise_scale * squares, 0.0)


def update_online(model: RidgeModel, phi_new, y_new) -> RidgeModel:
    """Rank-1 (Sherman-Morrison) update; equals a batch refit on the grown set.

    With z = M phi, w = (I - C^T C) z and d = 1 + z^T w, the inverse Gram
    loses u u^T / d for u = A_inv phi = M^T w, so W gains
    (y - W phi) u^T / d, and the returned model carries one more row
    w / sqrt(d) of C over the same M (see RidgeModel).  The row goes into
    this model's carry buffer in place when this model holds its last
    written row and the buffer has room, else into a fresh buffer of twice
    the rows (see _CARRY_ROWS), so C is not copied on every update.  No
    D x D array is touched unless C reaches D // 2 rows and is folded.  When
    predictive_variance last scored a phi with the same bytes on this
    model, its z and C z are reused (the same bits fresh products give), so
    the update's one pass over M is the transposed product that forms u.
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
        z, Cz = memo[1], memo[2]
    else:
        z, Cz = _apply_factor(model, phi)
    w = z - model.C.T @ Cz
    denom = 1.0 + float(z @ w)
    if denom <= 0.0:
        raise DomainError(f"rank-1 update breakdown: denominator {denom} <= 0")
    u = _lower_transposed_product(model._blocks, w)
    W = model.W + np.outer((y - model.W @ phi) / denom, u)
    k, carry = len(model.C), model._carry
    if carry is None or not carry.claim(k):
        capacity = max(k + 1, min(max(2 * k, _CARRY_ROWS), model.num_features // 2))
        rows = np.empty((capacity, model.num_features))
        rows[:k] = model.C
        carry = _CarryRows(rows, k + 1)
    np.divide(w, np.sqrt(denom), out=carry.rows[k])
    M, C = model.M, carry.rows[: k + 1]
    if len(C) >= model.num_features // 2:
        M, C, carry = _fold(model._blocks, C), None, None
    updated = RidgeModel(W, model.lam, M, model.noise_scale, model.n_train + 1, C)
    object.__setattr__(updated, "_carry", carry)
    return updated


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
