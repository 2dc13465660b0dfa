"""Random Fourier features on points and on distributions.

A drawn ``RffSpec`` fixes frequencies and phases once; everything downstream
is a pure function of it.  Point features approximate the Gaussian kernel
exp(-||x-x'||^2 / (2 gamma^2)).  Distribution features are expectations of
the point features: closed form for Gaussians, Gauss-Legendre quadrature on
(0, 1) for Betas (under an endpoint-flattening substitution so fractional
shape parameters keep their accuracy), and a characteristic-function product
for the joint (x, z) embedding of an incoming tuple (the two messages are
independent, so the joint characteristic function factorizes).

The joint embedding has one formula, Re(_beta_side * gaussian_cf), and
``joint_features_batch`` and the operator's ``featurize`` both evaluate it;
they differ only in where the Beta factor comes from.  Point features have
one cosine layer, ``_point_features``, which ``rff_point``, the outer stage
(``embedding_features``, after ``_project``) and the lazy blocks of a
``PointFeatures`` matrix all evaluate.  ``beta_cf`` is the one quadrature of
Beta characteristic functions, for any number of Betas sharing a frequency
vector.  Its phase matrix e^{i w z} depends only on the frequencies and the
order, so a caller whose frequencies are fixed (the operator) passes a memo
of them per order; a Beta never seen before then costs its density and a
matrix product.  A batch of Betas (training's) is worked _BETA_ROWS
Betas at a time into one result per order, so its working set beside its
two latest orders is one block, with the bits of one product over the batch.

Training's feature phase frees its large transients before
cross-validation allocates its Gram (K or G): the pair distances, each
order's Beta rows, the inner embeddings and their centred copy come from
``buffers._transient``, which maps each one of a megabyte or more on its
own, so its pages go back when it is freed.

A joint embedding e(P) is linear in the distribution P, and so is any
regression on it.  A ``TwoStageSpec`` puts a Gaussian kernel on top,
k(P, Q) = exp(-||V^T (e(P) - e(Q))||^2 / (2 sigma^2)): the inner 2-dim
``RffSpec`` gives e, a centre and an orthonormal projection V onto the top
principal directions of training embeddings reduce it to a few coordinates,
and an outer point ``RffSpec`` of bandwidth sigma featurizes those.  A
Gaussian kernel on embeddings is universal on distributions (Christmann &
Steinwart, NIPS 2010), which the linear one is not.  ``joint_features_batch``
takes the inner 2-dim ``RffSpec`` and gives the inner embeddings;
``embedding_features`` maps them to the outer features.

Bandwidths are medians of pairwise distances: ``median_heuristic`` gives
the inner spec's, ``median_distance`` the outer sigma.  Both take their
distances from ``_pairwise_distances``, NumPy code with SciPy's ``pdist``
bits, so this module imports nothing from SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .buffers import _transient
from .errors import DomainError, QuadratureError, integer, real
from .expfam import Gaussian1D, betaln

__all__ = [
    "RffSpec",
    "TwoStageSpec",
    "draw_rff",
    "rescale",
    "median_heuristic",
    "PointFeatures",
    "gaussian_cf",
    "beta_cf",
    "joint_features_batch",
    "principal_projection",
    "median_distance",
    "embedding_features",
]

QUAD_ORDER = 64
QUAD_ORDER_CAP = 4096
QUAD_TOL = 1e-8
# how far from 1 a rule may integrate a density (see _until_converged)
MASS_TOL = 1e-3
# highest order whose phase matrix beta_cf keeps in a caller's memo: the
# highest order Betas of the default prior box reach.  A sharper Beta's
# higher orders are built for its call alone; kept, the orders 512 to 4096
# one Beta(7e3, 7e3) reaches would hold 62 MiB for the operator's life at
# an inner width of 500, beside 3.4 MiB for orders 64 to 256
PHASE_MEMO_ORDER = 256
# c of _unit_gl's endpoint-flattening substitution
_FLATTEN = 3.0
# rows of one block of _pairwise_distances
_PAIR_ROWS = 64
# Betas of one block of a batched beta_cf
_BETA_ROWS = 256


@dataclass(frozen=True, eq=False)
class RffSpec:
    """Immutable random-feature draw.

    frequencies: (num_features, input_dim), drawn N(0, 1/gamma_k^2) per dim.
    phases: (num_features,) in [0, 2pi).
    bandwidth: (input_dim,) positive reals (gamma, input units).
    first_axis: the frequencies on the first input coordinate, contiguous,
        and their squares, which gaussian_cf reads (derived, read-only).
    """

    frequencies: np.ndarray
    phases: np.ndarray
    bandwidth: np.ndarray
    first_axis: tuple = field(init=False, repr=False)

    def __post_init__(self):
        shape = self.frequencies.shape
        if len(shape) != 2 or self.phases.shape != shape[:1] or self.bandwidth.shape != shape[1:]:
            raise DomainError(
                f"frequencies {shape}, phases {self.phases.shape} and "
                f"bandwidth {self.bandwidth.shape} do not fit together"
            )
        omega = np.ascontiguousarray(self.frequencies[:, 0])
        object.__setattr__(self, "first_axis", (omega, np.square(omega)))
        for arr in (self.frequencies, self.phases, self.bandwidth, *self.first_axis):
            arr.setflags(write=False)

    @property
    def num_features(self) -> int:
        return self.frequencies.shape[0]

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[1]


@dataclass(frozen=True, eq=False)
class TwoStageSpec:
    """Random features of a Gaussian kernel on projected joint embeddings.

    inner: 2-dim RffSpec whose expected features are the embedding e (D_in,).
    center: (D_in,) mean training embedding.
    projection: (D_in, k) orthonormal columns, the top principal directions
        of the centred training embeddings.
    outer: k-dim RffSpec applied to projection^T (e - center); its bandwidth
        is the kernel's sigma and its width is the regression's width.
    """

    inner: RffSpec
    center: np.ndarray
    projection: np.ndarray
    outer: RffSpec

    def __post_init__(self):
        if self.inner.input_dim != 2:
            raise DomainError("two-stage spec needs a 2-dim inner RffSpec")
        d_in = self.inner.num_features
        if self.center.shape != (d_in,) or self.projection.shape != (d_in, self.outer.input_dim):
            raise DomainError(
                f"centre {self.center.shape} / projection {self.projection.shape} do not "
                f"match inner width {d_in} and outer input dim {self.outer.input_dim}"
            )
        self.center.setflags(write=False)
        self.projection.setflags(write=False)

    @property
    def num_features(self) -> int:
        return self.outer.num_features


def _positive(name: str, value, size: int) -> np.ndarray:
    """A positive number or one per coordinate, as a (size,) array; each entry
    passes errors.real first, as NumPy would read True or "1" as 1.0."""
    entries = value if isinstance(value, (tuple, list, np.ndarray)) else [value]
    values = np.array([real(name, v) for v in entries])
    if not np.all(values > 0.0):
        raise DomainError(f"{name} must be positive, got {value!r}")
    return np.broadcast_to(values, (size,)).copy()


def draw_rff(input_dim: int, num_features: int, bandwidth, rng: np.random.Generator) -> RffSpec:
    """Draw a feature spec; deterministic given the generator state.

    Frequencies are drawn first, then phases.
    """
    integer("input_dim", input_dim, 1)
    integer("num_features", num_features, 1)
    gamma = _positive("bandwidth", bandwidth, input_dim)
    freqs = rng.normal(0.0, 1.0, size=(num_features, input_dim)) / gamma
    phases = rng.uniform(0.0, 2.0 * math.pi, size=num_features)
    return RffSpec(freqs, phases, gamma)


def rescale(spec: RffSpec, multiplier) -> RffSpec:
    """Same draw at bandwidth gamma * multiplier, without redrawing.

    Frequencies scale by 1/multiplier per dimension, so the rescaled spec is
    exactly what draw_rff would have produced from the same normal variates.
    """
    mult = _positive("bandwidth multiplier", multiplier, spec.input_dim)
    return RffSpec(spec.frequencies / mult, spec.phases.copy(), spec.bandwidth * mult)


def median_heuristic(tuples) -> tuple[float, float]:
    """Per-coordinate bandwidths from pairwise distances of message means.

    The x coordinate uses the incoming Gaussian means, the z coordinate the
    incoming Beta means; each median is over _pairwise_distances of the
    means as a vector, the absolute differences.  Degenerate collections
    (all means equal) fall back to the coordinate's mean standard deviation,
    floored at 1e-3.
    """
    if len(tuples) < 2:
        raise DomainError("median heuristic needs at least two tuples")

    def one_side(values, spreads):
        med = float(np.median(_pairwise_distances(values), overwrite_input=True))
        if med <= 0.0:
            med = float(np.mean(spreads))
        return max(med, 1e-3)

    mx = np.array([t.m_x.mean for t in tuples])
    sx = np.array([math.sqrt(t.m_x.variance) for t in tuples])
    mz = np.array([t.m_z.mean for t in tuples])
    sz = np.array([math.sqrt(t.m_z.variance) for t in tuples])
    return one_side(mx, sx), one_side(mz, sz)


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Distances of every pair i < j of n points, in the order (0, 1), (0, 2),
    ..., (1, 2), ...: SciPy's pdist values, bit for bit.

    (n,) points give |x_i - x_j|, pdist's "cityblock" on one coordinate,
    which holds differences too small to square.  (n, k) points give the
    Euclidean distance, as pdist does: the squared differences summed one
    coordinate at a time from the first, then the root.  Rows go
    _PAIR_ROWS at a time against every later point, through two work arrays
    reused by every block, so training loads no SciPy for its medians.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    cols = [pts] if pts.ndim == 1 else np.ascontiguousarray(pts.T)
    out = _transient((n * (n - 1) // 2,))
    work = _transient((2, min(_PAIR_ROWS, n) * max(n - 1, 0)))
    start = 0
    for i0 in range(0, n - 1, _PAIR_ROWS):
        rows, width = min(_PAIR_ROWS, n - 1 - i0), n - 1 - i0
        # acc[r, c] is the pair (i0 + r, i0 + 1 + c), a pair for c >= r
        acc, diff = (w[: rows * width].reshape(rows, width) for w in work)
        np.subtract(cols[0][i0 : i0 + rows, None], cols[0][None, i0 + 1 :], out=acc)
        if pts.ndim == 1:
            np.abs(acc, out=acc)
        else:
            np.square(acc, out=acc)
            for col in cols[1:]:
                np.subtract(col[i0 : i0 + rows, None], col[None, i0 + 1 :], out=diff)
                acc += np.square(diff, out=diff)
            np.sqrt(acc, out=acc)
        for r in range(rows):
            out[start : start + width - r] = acc[r, r:]
            start += width - r
    return out


def _feature_scale(d: int) -> float:
    return math.sqrt(2.0 / d)


def rff_point(spec: RffSpec, x) -> np.ndarray:
    """Point features sqrt(2/d) cos(w.x + b); (dim,) -> (d,), (n, dim) -> (n, d).

    _point_features after checking that the points fit the spec.
    """
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.ndim > 2 or pts.shape[-1] != spec.input_dim:
        raise DomainError(
            f"points of shape {pts.shape} do not fit input dimension {spec.input_dim}"
        )
    return _point_features(spec, pts)


def _point_features(spec: RffSpec, pts: np.ndarray, rows=slice(None)) -> np.ndarray:
    """sqrt(2/d) cos(pts w^T + b) at the features `rows` picks, unchecked;
    in place, as the operator's outer features run it once per message."""
    out = pts @ spec.frequencies[rows].T
    out += spec.phases[rows]
    np.cos(out, out=out)
    out *= _feature_scale(spec.num_features)
    return out


class PointFeatures:
    """rff_point(spec, points).T as a lazy (D, N) matrix: row j is feature j,
    column i is point i, and nothing is built until indexed.

    ``matrix[rows, cols]``, for rows and cols each a slice or an integer
    index array, builds that block alone, a fresh Fortran-ordered array:
    _point_features of the points cols picks (a gathered copy for an index
    array, so a permutation gives the fold-permuted columns) at the
    features rows picks, transposed.  Its entries are rff_point's bits
    wherever BLAS rounds a block's product as it rounds them in the whole
    one: it did for blocks of 128 and 256 points or features and permuted
    points at 16 inputs and D = 512, 600 and 2000, and for 512 points at
    D = 2000; not at D = 300, and a block of one point (a matrix-vector
    product) can differ in the last bit too.
    """

    def __init__(self, spec: RffSpec, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != spec.input_dim:
            raise DomainError(
                f"points of shape {pts.shape} do not fit input dimension {spec.input_dim}"
            )
        self.spec, self.points = spec, pts
        self.shape = (spec.num_features, len(pts))

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        return _point_features(self.spec, self.points[cols], rows).T

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The whole matrix, rff_point's own output."""
        if copy is False:
            raise ValueError("a lazy feature matrix has no array to view")
        out = _point_features(self.spec, self.points).T
        return out if dtype is None else out.astype(dtype, copy=False)


def gaussian_cf(spec: RffSpec, g: Gaussian1D) -> np.ndarray:
    """Characteristic function E[e^{i w x}] of a proper Gaussian at the
    spec's frequencies w on its first input coordinate."""
    if g.improper:
        raise DomainError("characteristic function of an improper Gaussian")
    omega, omega_sq = spec.first_axis
    # real exp + cos/sin is ~2x cheaper than one complex exp and this sits on
    # the per-message hot path; products land in place, without temporaries
    amp = np.multiply(-0.5 * g.variance, omega_sq)
    np.exp(amp, out=amp)
    phase = omega * g.mean
    out = np.empty(phase.shape, dtype=complex)
    re, im = out.real, out.imag
    np.cos(phase, out=re)
    re *= amp
    np.sin(phase, out=im)
    im *= amp
    return out


@lru_cache(maxsize=16)
def _unit_gl(order: int):
    """Gauss-Legendre rule on (0, 1) after a double-exponential substitution.

    z(u) = sigmoid(pi sinh(c u)), c = _FLATTEN, maps (-1, 1) onto (0, 1) with all
    derivatives vanishing at the endpoints, so the rule converges
    superalgebraically even for the endpoint-singular densities z^(a-1)
    with fractional a that plain Gauss-Legendre handles only slowly.
    Returns (z, log z, log(1-z), transformed weights); the log columns stay
    finite where z itself rounds to 0 or 1.
    """
    u, v = np.polynomial.legendre.leggauss(order)
    t = 0.5 * math.pi * np.sinh(_FLATTEN * u)
    log_z = -np.logaddexp(0.0, -2.0 * t)
    log_1mz = -np.logaddexp(0.0, 2.0 * t)
    # dz/du = c*pi*cosh(c u)*z*(1-z)
    log_jac = (
        math.log(_FLATTEN * math.pi) + np.log(np.cosh(_FLATTEN * u)) + log_z + log_1mz
    )
    out = (np.exp(log_z), log_z, log_1mz, v * np.exp(log_jac))
    for arr in out:
        arr.setflags(write=False)
    return out


def _until_converged(at_order, label: str):
    """Evaluate at_order(order) from QUAD_ORDER up, doubling the order.

    at_order gives (result, the rule's integrals of its densities).  Returns
    the first result that agrees with its predecessor to QUAD_TOL, at an
    order whose integrals are within MASS_TOL of 1, so a density the nodes
    miss is not taken for converged as 0 and 0 agree.  Mass below the
    smallest node, z ~ 2e-14, is lost at every order: 1.9e-7 of Beta(0.5,
    0.5), 1.0e-4 of Beta(0.3, 2), 4.3% of Beta(0.1, 1).  Escalation past
    QUAD_ORDER_CAP raises QuadratureError naming `label`.
    """
    prev, masses = at_order(QUAD_ORDER)
    order = 2 * QUAD_ORDER
    while order <= QUAD_ORDER_CAP:
        cur, masses = at_order(order)
        if np.max(np.abs(masses - 1.0)) <= MASS_TOL and _largest_change(cur, prev) <= QUAD_TOL:
            return cur
        prev, order = cur, 2 * order
    lost = f"mass off 1 by {np.max(np.abs(masses - 1.0)):.3g}"
    raise QuadratureError(f"{label} did not converge by order {QUAD_ORDER_CAP}; {lost}")


def _largest_change(cur, prev) -> float:
    """max |cur - prev| of two results, floats or batches of rows; a batch
    _BETA_ROWS rows at a time, so no difference array of its size is built
    (the maximum is exact in any order, and a nan in any block wins)."""
    cur, prev = np.atleast_2d(cur, prev)
    return np.max([np.max(np.abs(cur[rows] - prev[rows])) for rows in _row_blocks(len(cur))])


def _row_blocks(n: int):
    return [slice(i, i + _BETA_ROWS) for i in range(0, n, _BETA_ROWS)]


def beta_cf(omega: np.ndarray, betas, phases: dict | None = None) -> np.ndarray:
    """Characteristic functions E[e^{i w z}] of Betas sharing w; (n, len(w)).

    Quadrature starts at order 64 and doubles until successive orders agree
    to 1e-8 in every entry of the batch (for one Beta, everywhere on w) and
    every density integrates to 1 within MASS_TOL (_until_converged);
    escalation past order 4096 raises QuadratureError.  Each order is one
    matrix product of the weighted densities with the phase matrix
    e^{i w z}, _BETA_ROWS Betas at a time into one _transient result, so a
    batch's working set beside its two latest orders is one block.
    `phases` memoizes those matrices (order -> read-only matrix) up to
    PHASE_MEMO_ORDER for a caller that always passes this same w; None, or
    a higher order, builds them afresh.  An entry costs 16 * len(w) * order
    bytes.
    """
    if not betas:
        raise DomainError("characteristic function of an empty list of Betas")
    if any(b.improper for b in betas):
        raise DomainError("characteristic function of an improper Beta")
    alphas = np.array([[b.alpha] for b in betas])
    bbetas = np.array([[b.beta] for b in betas])
    log_norm = betaln(alphas, bbetas)
    if phases is None:
        phases = {}

    def at_order(order):
        z, log_z, log_1mz, w = _unit_gl(order)
        phase = phases.get(order)
        if phase is None:
            phase = np.exp(1j * np.outer(omega, z))
            phase.setflags(write=False)
            if order <= PHASE_MEMO_ORDER:
                phases[order] = phase
        out, masses = _transient((len(alphas), len(omega)), complex), np.empty(len(alphas))
        for rows in _row_blocks(len(alphas)):
            weighted = w * np.exp(
                (alphas[rows] - 1.0) * log_z + (bbetas[rows] - 1.0) * log_1mz - log_norm[rows]
            )
            np.matmul(weighted, phase.T, out=out[rows])
            masses[rows] = weighted.sum(axis=1)
        return out, masses

    label = (
        f"Beta({alphas[0, 0]}, {bbetas[0, 0]}) quadrature"
        if len(alphas) == 1
        else f"quadrature of {len(alphas)} Betas"
    )
    return _until_converged(at_order, label)


def _beta_side(inner: RffSpec, cf_z: np.ndarray) -> np.ndarray:
    """Beta factor sqrt(2/d) e^{i b_j} cf_z(w_j2) of the inner joint embedding.

    Written over cf_z, fresh beta_cf rows on the inner spec's second
    frequency column, and returned.  The embedding is Re(_beta_side * cf_x)
    with cf_x the gaussian_cf rows on the first column: entry j is
    sqrt(2/d) Re(e^{i b_j} cf_x(w_j1) cf_z(w_j2)), the expected point
    feature of the independent pair (x, z).  The factor depends on the Beta
    alone, which is why the operator memoizes it.
    """
    scale = _feature_scale(inner.num_features) * np.exp(1j * inner.phases)
    return np.multiply(scale, cf_z, out=cf_z)


def joint_features_batch(spec: RffSpec, tuples) -> np.ndarray:
    """Inner joint embeddings of incoming tuples under a 2-dim spec; (n, d).

    The Betas share one quadrature, converged on the batch maximum, so a row
    can differ from the same tuple's row in another batch within the
    quadrature tolerance.
    """
    if not isinstance(spec, RffSpec) or spec.input_dim != 2:
        raise DomainError("joint_features_batch needs a 2-dim RffSpec")
    rows = _beta_side(spec, beta_cf(spec.frequencies[:, 1], [t.m_z for t in tuples]))
    # in place, row by row: (n, D) complex temporaries would raise training's
    # peak memory
    for row, t in zip(rows, tuples):
        np.multiply(row, gaussian_cf(spec, t.m_x), out=row)
    out = _transient(rows.shape)
    np.copyto(out, rows.real)
    return out


def principal_projection(
    embeddings: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centre and top-k principal directions of (n, D) embeddings, and the
    centred copy e - center they come from.

    Returns (center (D,), projection (D, k), centred (n, D)): orthonormal
    columns in order of decreasing variance, each signed so its
    largest-magnitude entry is positive, a deterministic function of the
    embeddings; centred is a _transient array, which _project takes with
    center None, so training centres its embeddings once.
    """
    emb = np.asarray(embeddings, dtype=float)
    if emb.ndim != 2 or not 1 <= k <= emb.shape[1]:
        raise DomainError(f"cannot take {k} principal directions of shape {emb.shape}")
    center = emb.mean(axis=0)
    centred = np.subtract(emb, center, out=_transient(emb.shape))
    _, vecs = np.linalg.eigh(centred.T @ centred)
    top = vecs[:, ::-1][:, :k]
    lead = top[np.argmax(np.abs(top), axis=0), np.arange(k)]
    return center, np.ascontiguousarray(top * np.where(lead < 0.0, -1.0, 1.0)), centred


def median_distance(points: np.ndarray) -> float:
    """Median pairwise Euclidean distance of (n, k) points, the outer sigma.

    The distances are _pairwise_distances', pdist's bits.  Falls back to
    the largest distance when over half the pairs coincide, and to 1.0 when
    every point is the same (any sigma then gives the same constant
    features).
    """
    dist = _pairwise_distances(points)
    if dist.size == 0:
        raise DomainError("median distance needs at least two points")
    # the median partitions dist in place; the maximum does not need its order
    med = float(np.median(dist, overwrite_input=True))
    if med > 0.0:
        return med
    top = float(dist.max())
    return top if top > 0.0 else 1.0


def _project(center: np.ndarray | None, projection: np.ndarray, embeddings) -> np.ndarray:
    """projection^T (e - center) of inner embeddings, (D_in,) -> (k,) or (n, D_in) -> (n, k),
    for training's embeddings and embedding_features' alike.  center None
    says the embeddings are centred already (principal_projection's copy)."""
    emb = np.asarray(embeddings, dtype=float)
    if center is not None:
        emb = np.subtract(emb, center, out=_transient(emb.shape))
    return emb @ projection


def embedding_features(spec: TwoStageSpec, embeddings) -> np.ndarray:
    """Outer features of inner embeddings: (D_in,) -> (D,), (n, D_in) -> (n, D).

    rff_point of the projected embeddings, whose width the spec fixes.
    """
    projected = _project(spec.center, spec.projection, embeddings)
    return _point_features(spec.outer, projected)
