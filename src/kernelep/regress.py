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
(see _BLOCK), and products with it are BLAS calls on the blocks.  LAPACK
(scipy.linalg) is imported only inside the functions that factor (fit,
_fold and cross-validation's two routes), so inference never loads it.

Training reads its features a block at a time.  A feature matrix is an
array, or a lazy matrix such as kernels.PointFeatures that builds the block
Phi[rows, cols] when indexed; both go through the same code, and an
array's column blocks are views of it.  fit and cross-validation's eigen
route sum the Gram Phi Phi^T and Phi Y^T over blocks of _CASES cases into
one D x D buffer (_gram_sums), the dual route sums K = Phi^T Phi over
blocks of _FEATURES features, the eigen route then reads one fold's cases
at a time, and predictive_variance scores a batch _CHUNK cases at a time,
so none of them holds Phi itself.

Cross-validation scores every fold from the full-data fit.  With no more
cases than features it factors the N x N dual Gram Phi^T Phi + lambda I
once per lambda and scores every fold from that Cholesky factor, never
from an inverse; with more cases, or at a lambda too small for the dual
Gram to resolve, it eigendecomposes Phi Phi^T once per bandwidth
multiplier (see cross_validate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .buffers import _transient
from .errors import DomainError, integer, real
from .kernels import _serial_matmul

__all__ = [
    "RidgeModel",
    "CvReport",
    "DEFAULT_MULTIPLIERS",
    "DEFAULT_LAMBDAS",
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

# elements per step of the in-place reversal in _fold
_REVERSE_CHUNK = 1 << 16

# training reads a feature matrix in blocks: fit and cross-validation's
# eigen route _CASES columns (cases) at a time, the dual route _FEATURES
# rows (features); either is 4 MB at 2000 features or cases
_CASES = 256
_FEATURES = 256

# columns of a batch that predictive_variance scores per pass over M, in
# every batch, an array or a lazy matrix, so tau, EP's queued fallbacks and
# any other caller get the same bits for the same columns.  A chunk and its
# (M X)^T are 2 MB each at 2000 features, together one of fit's blocks
_CHUNK = 128

# cross-validation's dual route scores a lambda only from this multiple of
# trace(K) up.  Cholesky's backward error on K + lambda I is about
# eps * trace(K), which perturbs the directions K nearly annihilates by that
# much relative to lambda: on rank-3 features (D = 30, N = 20, trace 1408)
# the dual fold errors sat 0.06 to 0.17 eps trace(K) / lambda off per-fold
# SVD refits (2.2e-6 at lambda = 1e-8, 0.48 at 1e-13), where the eigen route
# stays within 1e-13.  The drift is the factorization's, not the fold
# scoring's.  At the floor that is at most 4e-5; the acceptance Grams
# (trace about 2000) put lambda = 1e-8 five times above it
_DUAL_FLOOR = 1e-12

# cross-validation's dual route solves a run of consecutive folds together,
# on one copy of at most _RUN of the factor's columns (see _run_errors), so
# leave-one-out at N = 2000 makes 16 triangular solves per lambda with 128
# right-hand sides, not 2000 with one; the copy is 2 MB at 2000 cases.  A
# fold wider than _RUN is solved in place
_RUN = 128

# width of the column blocks that hold M.  Block b, for b0 = b * _BLOCK and
# w = min(_BLOCK, D - b0), is the Fortran-ordered (D - b0) x w panel
# M[b0:, b0:b0 + w], and the blocks lie one after another in one flat
# buffer, so a model holds the triangle plus the zeros above the diagonal
# inside each block: 2,500,864 doubles at D = 2000 against 4,000,000 for the
# square.  M phi and M^T w are one gemv per block, and a fold and a batch
# X one gemm per block.  A batch's gemms form (M X)^T = X^T M^T, with
# n x (D - b0) outputs where M X has (D - b0) x n: at D = 2000 on 2 CPUs
# that scored 256 columns in 21 ms against 34 ms, and a process's first
# such batch left 3.2 MB more resident memory against 8.1 MB.  OpenBLAS's
# threaded dtrmv and dtrmm would read the triangle alone, but on a 2-CPU
# host at D = 2000 they made the numpy calls that followed them several
# times slower, and the benchmark's EP body about 1.5x slower, where blocks
# of 512 keep it level with a gemv over a D x D inverse
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


def _pack_in_place(flat: np.ndarray, D: int) -> None:
    """Move a D x D lower-triangular factor, held in Fortran order in the
    first D * D entries of flat with exact zeros above the diagonal, into
    the column blocks that fill flat's first factor_size(D) entries.

    Column j of block b (b0 = b * _BLOCK) goes to the block's slot for
    M[b0:, j], which starts no later than the square's M[b0:, j] and ends
    no later than the square's column j + 1 starts, so each move reads a
    column that no earlier move wrote; the zeros it carries from rows b0 to
    j - 1 are the block's zeros above the diagonal.  Block 0 is already in
    place.
    """
    offset = D * min(_BLOCK, D)
    for b0 in range(_BLOCK, D, _BLOCK):
        height = D - b0
        for j in range(b0, min(b0 + _BLOCK, D)):
            flat[offset : offset + height] = flat[j * D + b0 : (j + 1) * D]
            offset += height


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
    predictive variance is noise_scale * (||M phi||^2 - ||C M phi||^2).  C
    is the model's own read-only array: an update builds a fresh one with
    one more row, mapped on its own from 1 MiB up (buffers._transient), so
    a stream that drops each model for its update holds only its live
    carry.  When C reaches D // 2 rows, the point where its k D
    multiply-adds per variance match the triangle's D^2 / 2, update_online
    folds it into a new triangle; save_model folds whatever is carried.

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
    C's reversed copy, X and the new blocks are the only arrays allocated,
    all _transient: the copy's and X's pages go back when the fold returns,
    and the new blocks' when the last model holding them is freed, so a
    stream's next fold does not leave them resident in the heap.
    """
    from scipy.linalg.lapack import dpotrf

    k, D = C.shape
    reversed_C = _transient((k, D))
    reversed_C[...] = C[:, ::-1]
    X = np.matmul(reversed_C.T, reversed_C, out=_transient((D, D)))
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
    out = _transient((factor_size(D),))
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


def _source(Phi):
    """Phi as a feature matrix: a lazy one, which builds its blocks when
    indexed, as it is; anything else as a float array."""
    if isinstance(Phi, np.ndarray) or not hasattr(Phi, "shape"):
        return np.asarray(Phi, dtype=float)
    return Phi


def _block(Phi, rows, cols) -> np.ndarray:
    """Phi[rows, cols]: a view of an array for slices, a copy for an index
    array, a fresh Fortran-ordered build from a lazy matrix.  A non-finite
    entry raises DomainError.  BLAS reads a Fortran-ordered block in place;
    SciPy's wrappers copy any other block into that order first."""
    block = Phi[rows, cols]
    _check_finite("features", block)
    return block


def _gram_sums(Phi, Y: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Phi Y^T, after summing the Gram Phi Phi^T into the lower triangle of
    gram.T, the D x D array gram in Fortran order, which BLAS and LAPACK
    overwrite in place.  Each block B of _CASES cases adds B B^T (BLAS
    dsyrk, in place) and B Y_B^T, so the Gram and one block are the
    largest arrays alive; a block's entries are checked finite as it comes.
    gram.T's strict upper triangle is never written.  B Y_B^T, 2 x 256 x D
    multiply-adds for the operator's two targets, is formed in row slices
    that OpenBLAS keeps on the calling thread (kernels._serial_matmul), with
    the bits of one product: whole, it would wake NumPy's OpenBLAS pool
    between two SciPy dsyrk calls."""
    from scipy.linalg.blas import dsyrk

    PY = np.zeros((Phi.shape[0], len(Y)))
    BY = np.empty_like(PY)
    for j in range(0, Phi.shape[1], _CASES):
        cases = slice(j, j + _CASES)
        B = _block(Phi, slice(None), cases)
        dsyrk(1.0, B, beta=float(j > 0), c=gram.T, lower=1, overwrite_c=1)
        PY += _serial_matmul(B, Y[:, cases].T, BY)
        del B  # before the next block is built
    return PY


def fit(Phi, Y: np.ndarray, lam: float) -> RidgeModel:
    """Primal ridge fit W = Y Phi^T (Phi Phi^T + lambda I)^{-1}.

    Phi is an array or a lazy feature matrix (see the module docstring),
    read _CASES columns at a time: the Gram and Phi Y^T are summed block by
    block into the Gram's one D x D array (_gram_sums), so that array and
    one block are the largest alive while it forms.  LAPACK factors the
    Gram in place as L L^T and zeroes the upper triangle, W
    comes from two triangular solves with L, and L is inverted in place.
    Its columns then move forward, within the same buffer, into the column
    blocks of the model's M (_pack_in_place), and the buffer shrinks to
    them.  So the Gram's array is the only D x D array made, and the model
    keeps only its first factor_size(D) doubles.  The training residual,
    whose mean square is the model's noise scale, comes from a second pass
    over the blocks.  When the factorization fails, escalating diagonal
    jitter is added to a Gram summed afresh, and the model records
    lambda + jitter, the lambda it solved.
    """
    Phi = _source(Phi)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if len(Phi.shape) != 2 or Y.shape[1] != Phi.shape[1] or Phi.shape[1] < 1:
        raise DomainError(f"incompatible shapes Phi {Phi.shape}, Y {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise DomainError("non-finite training inputs")
    if not real("lambda", lam) > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

    D, N = Phi.shape
    diagonal = np.diag_indices(D)
    # LAPACK's factor and inverse are gram's own buffer (see _gram_sums)
    gram = np.empty((D, D))
    for jitter in _JITTERS:
        PY = _gram_sums(Phi, Y, gram)
        gram[diagonal] += lam
        if jitter:
            gram[diagonal] += jitter
        L, info = dpotrf(gram.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            break
    else:
        raise DomainError("normal equations singular to working precision")
    W_t, _ = dpotrs(L, PY, lower=1, overwrite_b=1)
    W = W_t.T
    # L's diagonal is positive, so the inversion cannot fail
    dtrtri(L, lower=1, overwrite_c=1)
    del L
    _pack_in_place(gram.reshape(-1), D)
    # no view of gram is left, so it shrinks in place to the blocks; under
    # a tracer (sys.settrace, cProfile) the frame's locals dict holds a
    # second reference, resize refuses, and the blocks are copied instead
    try:
        gram.resize(factor_size(D))
    except ValueError:
        gram = gram.reshape(-1)[: factor_size(D)].copy()
    residual = np.empty_like(Y)
    for j in range(0, N, _CASES):
        cases = slice(j, j + _CASES)
        residual[:, cases] = Y[:, cases] - W @ _block(Phi, slice(None), cases)
    noise_scale = max(float(np.mean(residual**2)), np.finfo(float).tiny)
    return RidgeModel(W, float(lam + jitter), gram, noise_scale, N)


def _check_phi(model: RidgeModel, phi, batch: bool):
    """phi as floats: a (D,) vector, or where batch allows, a nonempty (D, M) batch (_source)."""
    phi = _source(phi) if batch else np.asarray(phi, dtype=float)
    ndim = len(phi.shape)
    if not (ndim == 1 or batch and ndim == 2 and phi.shape[1] > 0):
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


def _lower_rows(panels: tuple, XT: np.ndarray) -> np.ndarray:
    """(M X)^T = X^T M^T for the column blocks of M and the transpose XT of
    a (D, n) batch X: block 0 writes every column, and each later block b
    adds X[b]^T M_b^T to the columns from b0 on, so each gemm makes n
    contiguous rows of D - b0 entries.  The result is _transient: a full
    chunk's is mapped from 1,024 features, a single vector's is not.  Each
    later block's product stays a NumPy temporary: it has the same size in
    every chunk, so the heap block one chunk frees serves the next; mapped,
    its fresh pages beside the live result raised the benchmark's
    active_cold peak RSS by 0.75 MB."""
    n, D = XT.shape
    ZT = np.matmul(XT[:, :_BLOCK], panels[0].T, out=_transient((n, D)))
    for j, panel in zip(range(_BLOCK, D, _BLOCK), panels[1:]):
        ZT[:, j:] += XT[:, j : j + _BLOCK] @ panel.T
    return ZT


def _lower_transposed_product(panels: tuple, w: np.ndarray) -> np.ndarray:
    """M^T w for the column blocks of M: entry block b is M_b^T w[b0:]."""
    u = np.empty(len(w))
    for j, panel in zip(range(0, len(w), _BLOCK), panels):
        u[j : j + _BLOCK] = panel.T @ w[j:]
    return u


def _apply_factor(model: RidgeModel, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, C z) for z = M phi: one pass over the triangle, one product with the carry."""
    z = _lower_rows(model._blocks, phi[None, :])[0]
    return z, model.C @ z


def predict(model: RidgeModel, phi) -> np.ndarray:
    """y = W phi for a single (D,) vector or a nonempty (D, M) batch."""
    return model.W @ _check_phi(model, phi, batch=True)


def predictive_variance(model: RidgeModel, phi) -> float | np.ndarray:
    """GP-style variance noise_scale * phi^T A_inv phi, clipped at 0.

    With z = M phi it is noise_scale * (||z||^2 - ||C z||^2) (see
    RidgeModel), a sum of squares where nothing is carried.  phi is a
    single (D,) vector, giving a float, or a (D, M) batch, giving the M
    column variances.  A batch, an array or a lazy feature matrix, is read
    _CHUNK columns at a time (_block): each chunk's transpose makes one pass
    over the triangle as products Z^T = X^T M^T (_lower_rows), and Z^T and
    Z^T C^T are reduced to their row sums of squares, so a chunk and its
    Z^T are the largest arrays alive.  Z^T and Z^T C^T are _transient, so
    from 1 MiB up (Z^T of a full chunk from 1,024 features) they are mapped
    and give their pages back before the next chunk.  Either way each entry
    of z is a sum of dot products with a row of M's blocks, so a batch
    column's variance equals that column scored alone to rounding, not up
    to a cancelling sum.  A single vector's z and C z are kept in the
    model's memo for update_online.  A non-finite phi raises DomainError:
    its variance would be nan, which a threshold test reads as certain.
    """
    phi = _check_phi(model, phi, batch=True)
    if len(phi.shape) == 1:
        _check_finite("feature vector", phi)
        z, Cz = _apply_factor(model, phi)
        z.setflags(write=False)
        Cz.setflags(write=False)
        object.__setattr__(model, "_memo", (phi.tobytes(), z, Cz))
        return max(float(model.noise_scale * (z @ z - Cz @ Cz)), 0.0)
    squares = np.empty(phi.shape[1])
    for j in range(0, len(squares), _CHUNK):
        ZT = _lower_rows(model._blocks, _block(phi, slice(None), slice(j, j + _CHUNK)).T)
        CZT = np.matmul(ZT, model.C.T, out=_transient((len(ZT), len(model.C))))
        squares[j : j + _CHUNK] = np.einsum("ij,ij->i", ZT, ZT) - np.einsum("ij,ij->i", CZT, CZT)
        del ZT, CZT  # before the next chunk is built
    return np.maximum(model.noise_scale * squares, 0.0)


def update_online(model: RidgeModel, phi_new, y_new) -> RidgeModel:
    """Rank-1 (Sherman-Morrison) update; equals a batch refit on the grown set.

    With z = M phi, w = (I - C^T C) z and d = 1 + z^T w, the inverse Gram
    loses u u^T / d for u = A_inv phi = M^T w, so W gains
    (y - W phi) u^T / d, and the returned model carries one more row
    w / sqrt(d) of C over the same M (see RidgeModel), in a fresh copy of
    the carry, concatenated into a _transient array (mapped from 1 MiB
    up).  No D x D array is touched unless C reaches D // 2 rows and is
    folded.  When predictive_variance last scored a phi with the same
    bytes on this model, its z and C z are reused (the same bits fresh
    products give), so the update's one pass over M is the transposed
    product that forms u.  noise_scale stays frozen; n_train counts the new
    pair.  Non-finite inputs raise DomainError.
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
    row = (w / np.sqrt(denom))[None]
    M, C = model.M, np.concatenate([model.C, row], out=_transient((len(model.C) + 1, len(w))))
    if len(C) >= model.num_features // 2:
        M, C = _fold(model._blocks, C), None
    return RidgeModel(W, model.lam, M, model.noise_scale, model.n_train + 1, C)


def cross_validate(
    features: Callable[[float], np.ndarray],
    Y: np.ndarray,
    multipliers,
    lambdas,
    folds: int = 5,
    rng: np.random.Generator | None = None,
) -> CvReport:
    """K-fold grid search over the product of bandwidth multipliers and lambdas.

    `features(m)` gives multiplier m its D x N feature matrix (same case
    order), an array or a lazy matrix (see the module docstring).  It is
    called once per entry of `multipliers`, in the order given, on either
    route, so a caller that builds fresh matrices holds one at a time.  The
    report's grid is the product in that order, multiplier-major.  Fold
    assignment is a seeded permutation, so the report is deterministic per
    rng state.  Ties in mean error prefer the larger lambda, then the larger
    multiplier, then the earlier point.  A non-finite target, or a
    non-finite feature in a block as it is built, raises DomainError.

    Every fold's held-out residuals follow from the full-data fit instead
    of a refit per fold, by one of two routes (see _fold_errors):

    - Dual route, when N <= D.  Each lambda factors K + lambda I = L L^T,
      for the N x N dual Gram K = Phi^T Phi, by Cholesky.  With
      A = (K + lambda I)^{-1}, I - H = lambda A, so fold g's held-out
      residuals are A_gg^{-1} (A Y^T)_g (An, Liu & Venkatesh, Pattern
      Recognition 40, 2007).  A_gg^{-1} is read from L, with one
      triangular solve against the factor of the cases after fold g, and
      A itself is never formed (see _run_errors).  No eigendecomposition is
      made and nothing cancels.  K is summed over blocks of _FEATURES
      features with their cases in fold order, and one N x N array holds K
      and every lambda's factor (see _dual_rows).
    - Eigen route, when N > D, and for a lambda below
      _DUAL_FLOOR * trace(K) or whose dual factorization fails.  One
      eigendecomposition of the D x D Gram G = Phi Phi^T = P diag(e) P^T
      serves every lambda: with C = Phi^T P and w = 1 / (e + lambda), the
      hat matrix is H = C diag(w) C^T, and refitting without fold g leaves
      residuals (Y_g - Yhat_g)(I - H_gg)^{-1}.  e is clipped at 0.  G is
      summed from blocks of cases as fit sums it, and each fold's rows of C
      are formed from that fold's features alone (see _eigen_rows).

    No jitter is added on either route.  A row depends only on its
    multiplier's features and its own lambda, so the order of either axis
    moves no bit of it.
    """
    if not len(multipliers) or not len(lambdas):
        raise DomainError("empty cross-validation grid")
    if not all(real("lambdas", lam) > 0 for lam in lambdas):
        raise DomainError(f"lambdas must be positive, got {lambdas}")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    N = Y.shape[1]
    if N < integer("folds", folds, 2):
        raise DomainError(f"need at least {folds} cases for {folds}-fold CV, got {N}")
    if not np.all(np.isfinite(Y)):
        raise DomainError("non-finite training inputs")
    if rng is None:
        rng = np.random.default_rng(0)

    order = rng.permutation(N)
    fold_of = np.empty(N, dtype=int)
    fold_of[order] = np.arange(N) % folds
    # cases sorted by fold, so every fold is a contiguous block of columns
    by_fold = np.argsort(fold_of, kind="stable")
    bounds = np.searchsorted(fold_of[by_fold], np.arange(folds + 1))

    rows = []
    for mult in multipliers:
        rows += _fold_errors(features, mult, Y, by_fold, lambdas, bounds)
    grid = tuple((m, lam) for m in multipliers for lam in lambdas)
    fold_errors = np.array(rows)
    means = fold_errors.mean(axis=1)
    best = means.min()
    chosen = max(
        (i for i in range(len(grid)) if means[i] == best),
        key=lambda i: (grid[i][1], grid[i][0]),
    )
    return CvReport(grid, fold_errors, chosen)


def _fold_errors(build, mult, Y, by_fold, lams, bounds) -> list[list[float]]:
    """Held-out mean squared errors per lambda and fold for multiplier mult,
    whose features build(mult) gives, built once; fold k is the cases
    by_fold[bounds[k]:bounds[k + 1]].

    With N <= D the dual Gram K is summed from the features' row blocks.  A
    lambda below _DUAL_FLOOR * trace(K), or one where K + lambda I does not
    factor, takes its row from the eigen route after K is freed.  With N > D
    the eigen route scores every lambda.  Either way each multiplier's
    arrays are freed before the next multiplier's are formed.
    """
    Phi = _source(build(mult))
    if len(Phi.shape) != 2 or Phi.shape[1] != len(by_fold):
        raise DomainError(
            f"feature matrix for multiplier {mult} has shape {Phi.shape}, "
            f"expected {len(by_fold)} cases"
        )
    rows = [None] * len(lams)
    if Phi.shape[1] <= Phi.shape[0]:
        gram = _dual_gram(Phi, by_fold)
        rows = _dual_rows(gram, Y[:, by_fold], lams, bounds)
        del gram
    rest = [lam for lam, row in zip(lams, rows) if row is None]
    if rest:
        eigen = iter(_eigen_rows(Phi, Y, by_fold, rest, bounds))
        rows = [next(eigen) if row is None else row for row in rows]
    return rows


def _dual_gram(Phi, by_fold) -> np.ndarray:
    """K = Phi^T Phi with its cases in by_fold's order, as the upper
    triangle of the Fortran-ordered N x N square in the first N * N entries
    of a fresh flat buffer of N * N + N doubles; the square's strict lower
    triangle and the N spare doubles are unset (see _columns).  Each block
    of _FEATURES rows, its columns in fold order, adds its B^T B in place
    (BLAS dsyrk), so K and one block are the largest arrays alive.  A lazy
    matrix builds each block in slices that OpenBLAS runs on the calling
    thread (kernels._serial_matmul): built whole, a 256 x 2000 block at 16
    inputs woke NumPy's OpenBLAS pool, whose idle worker spun beside the
    cosine and the dsyrk that followed: on a 2-CPU host the loop took
    1.5-1.6 s of a seed-42 train whole and 0.87-0.94 s in slices."""
    from scipy.linalg.blas import dsyrk

    N = len(by_fold)
    flat = np.empty(N * N + N)
    K = _columns(flat, N, 0, 0, N)
    for i in range(0, Phi.shape[0], _FEATURES):
        B = _block(Phi, slice(i, i + _FEATURES), by_fold)
        dsyrk(1.0, B, beta=float(i > 0), c=K, trans=1, lower=0, overwrite_c=1)
        del B  # before the next block is built
    return flat


def _columns(flat: np.ndarray, N: int, i: int, j: int, n: int) -> np.ndarray:
    """Rows i to N - 1 of columns j to j + n - 1 of the Fortran-ordered
    N x N square in flat, as the first N - i rows of an F-contiguous N x n
    view with leading dimension N; each of its columns runs on into the top
    of the square's next column.  LAPACK and BLAS read and write only the
    rows a call gives them the count of, so they take the view in place.
    The view ends (j + n) N + i doubles into flat, at most N past the
    square for j + n <= N and i <= N, which _dual_gram's spare doubles
    hold."""
    start = j * N + i
    return flat[start : start + N * n].reshape((N, n), order="F")


def _mirror_upper(K: np.ndarray) -> None:
    """Copy the strict upper triangle of the Fortran-ordered square K onto
    its strict lower triangle, one panel of _FEATURES columns at a time:
    below a panel's diagonal block, a transposed copy of the rows beside
    it; inside the block, its own upper entries."""
    N = len(K)
    for j in range(0, N, _FEATURES):
        k = min(j + _FEATURES, N)
        K[k:, j:k] = K[j:k, k:].T
        square = K[j:k, j:k]
        below = np.tril_indices(k - j, -1)
        square[below] = square.T[below]


def _runs(bounds) -> list:
    """The fold bounds split into runs of consecutive folds, each as its own
    bounds: a fold joins the run before it while the run stays within _RUN
    cases, and a wider fold is a run of its own."""
    runs, first = [], 0
    for last in range(1, len(bounds) - 1):
        if bounds[last + 1] - bounds[first] > _RUN:
            runs.append(bounds[first : last + 1])
            first = last
    runs.append(bounds[first:])
    return runs


def _block_diagonal(square: np.ndarray, edges) -> None:
    """Zero the lower triangle of square outside the diagonal blocks that
    the run's fold bounds edges (from 0) mark."""
    for lo, hi in zip(edges[:-2], edges[1:-1]):
        square[hi:, lo:hi] = 0.0


def _dual_rows(flat, Y, lams, bounds) -> list[list[float] | None]:
    """Fold errors per lambda from the N x N dual Gram K in flat (see
    _dual_gram and cross_validate), or None for a lambda below
    _DUAL_FLOOR * trace(K) or where K + lambda I does not factor.

    K holds the Gram in its upper triangle, which nothing below writes, and
    its diagonal is kept apart.  Each lambda refills the lower triangle from
    the upper (_mirror_upper) and puts the diagonal plus lambda on it;
    LAPACK factors K + lambda I = L L^T in the lower triangle and solves for
    A Y^T, A = (K + lambda I)^{-1}.  The fold blocks of A follow from L
    (_run_errors), so A itself is never formed.  With uplo 'L' every call
    reads only the lower triangle, and each writes only the lower triangle
    or an array of its own, so K's square is the only N x N array.  Every
    BLAS and LAPACK call here is SciPy's: a threaded NumPy product between
    them wakes NumPy's OpenBLAS pool, whose idle worker spins beside the
    next SciPy call and slows it several times over: on a 2-CPU host each
    multiplier's first dpotrf took 96-104 ms after _dual_gram's blocks were
    built by threaded products, and 45-47 ms, as the later ones take, after
    serial slices.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    N = Y.shape[1]
    K = _columns(flat, N, 0, 0, N)
    gram_diagonal = K.diagonal().copy()
    diagonal = np.diag_indices(N)
    floor = _DUAL_FLOOR * gram_diagonal.sum()
    runs = _runs(bounds)
    rows = []
    for lam in lams:
        if lam < floor:
            rows.append(None)
            continue
        _mirror_upper(K)
        K[diagonal] = gram_diagonal + lam
        _, info = dpotrf(K, lower=1, clean=0, overwrite_a=1)
        if info:
            rows.append(None)
            continue
        AY, _ = dpotrs(K, Y.T, lower=1)
        rows.append([mse for edges in runs for mse in _run_errors(flat, N, AY, edges)])
    return rows


def _run_errors(flat, N, AY, edges) -> list[float]:
    """Held-out mean squared errors of the folds whose bounds are edges, a
    run of _runs, from the Cholesky factor L of K + lambda I in the lower
    triangle of flat's square and AY = A Y^T.

    For fold g, with R the cases after it, A_gg = L_gg^{-T} S_g L_gg^{-1}
    for S_g = I + Z_g^T Z_g and Z_g = L_RR^{-1} L_Rg, so the held-out
    residuals A_gg^{-1} (A Y^T)_g are L_gg S_g^{-1} L_gg^T (A Y^T)_g, and
    S_g >= I always factors.  A run of one fold solves for Z_g in place of
    L_Rg (LAPACK dtrtrs on _columns views), which nothing later reads, since
    the runs go in order and each reads only the columns from its own on.
    A run of several folds copies its columns from its first case down, with
    each fold's entries above its last case zeroed; one solve with the
    trailing factor from that case then leaves each fold's Z_g below its
    last case and zeros above, so the run's folds make one BLAS-3 solve
    whatever their width.  Afterwards the run's square block of L and
    S = I + Z^T Z, summed by SciPy's dsyrk over _FEATURES rows at a time,
    are cut to their fold blocks (_block_diagonal), and every fold of the
    run is scored by one triangular product, one Cholesky solve and another
    triangular product on the run's own columns.
    """
    from scipy.linalg.blas import dsyrk, dtrmm
    from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

    lo, hi = int(edges[0]), int(edges[-1])
    edges = [int(e) - lo for e in edges]
    if len(edges) == 2:
        Z = _columns(flat, N, hi, lo, hi - lo)
        if hi < N:
            dtrtrs(_columns(flat, N, hi, hi, N - hi), Z, lower=1, overwrite_b=1)
        Z = Z[: N - hi]
    else:
        Z = _columns(flat, N, lo, lo, hi - lo)[: N - lo].copy(order="F")
        for a, b in zip(edges[:-1], edges[1:]):
            Z[:b, a:b] = 0.0
        dtrtrs(_columns(flat, N, lo, lo, N - lo), Z, lower=1, overwrite_b=1)
    factor = _columns(flat, N, lo, lo, hi - lo)
    _block_diagonal(factor[: hi - lo], edges)
    S = np.eye(hi - lo, order="F")
    for r in range(0, len(Z), _FEATURES):
        dsyrk(1.0, Z[r : r + _FEATURES], beta=1.0, c=S, trans=1, lower=1, overwrite_c=1)
    del Z
    _block_diagonal(S, edges)
    # S >= I, so its factorization cannot fail
    dpotrf(S, lower=1, clean=0, overwrite_a=1)
    held_out = dtrmm(1.0, factor, AY[lo:hi], lower=1, trans_a=1)
    held_out, _ = dpotrs(S, held_out, lower=1, overwrite_b=1)
    held_out = dtrmm(1.0, factor, held_out, lower=1, overwrite_b=1)
    return [float(np.mean(held_out[a:b] ** 2)) for a, b in zip(edges[:-1], edges[1:])]


def _eigen_rows(Phi, Y, by_fold, lams, bounds) -> list[list[float]]:
    """Fold errors per lambda by the leave-group-out identity on the hat
    matrix H = C diag(1 / (e + lambda)) C^T (see cross_validate).

    G = Phi Phi^T and Phi Y^T are summed from blocks of cases (_gram_sums),
    eigh overwrites G with its eigenvectors P, and Y C = (Phi Y^T)^T P.
    Each fold g then builds its features Phi_g, forms its rows
    C_g = Phi_g^T P and scores every lambda on them, so G, P and one
    fold's Phi_g and C_g are the largest arrays alive.
    """
    from scipy.linalg import eigh

    D = Phi.shape[0]
    G = np.empty((D, D))
    PY = _gram_sums(Phi, Y, G)
    # G.T's upper triangle is never written, so eigh must not check it for
    # finite entries; every block was checked as it came
    e, P = eigh(G.T, overwrite_a=True, check_finite=False, driver="evd")
    del G
    np.maximum(e, 0.0, out=e)
    YC = PY.T @ P
    weights = [1.0 / (e + lam) for lam in lams]
    errors = np.empty((len(lams), len(bounds) - 1))
    for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        cases = by_fold[lo:hi]
        C = _block(Phi, slice(None), cases).T @ P
        for i, w in enumerate(weights):
            residual = Y[:, cases] - (YC * w) @ C.T
            # H_gg = B B^T, which numpy forms as a symmetric rank-k product
            B = C * np.sqrt(w)
            held_out = np.linalg.solve(np.eye(hi - lo) - B @ B.T, residual.T)
            errors[i, g] = np.mean(held_out**2)
        del C, B  # before the next fold's are built
    return errors.tolist()
