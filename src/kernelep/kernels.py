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
one formula too, ``rff_point``, which the outer stage applies to projected
embeddings.  ``beta_cf`` is the one quadrature of Beta characteristic
functions, for any number of Betas sharing a frequency vector.  Its phase
matrix e^{i w z} depends only on the frequencies and the order, so a caller
whose frequencies are fixed (the operator) passes a memo of them per order;
a Beta never seen before then costs its density and a matrix product.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betaln

from .errors import DomainError, QuadratureError
from .expfam import Gaussian1D

__all__ = [
    "RffSpec",
    "TwoStageSpec",
    "draw_rff",
    "rescale",
    "median_heuristic",
    "rff_point",
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
# c of _unit_gl's endpoint-flattening substitution
_FLATTEN = 3.0


@dataclass(frozen=True, eq=False)
class RffSpec:
    """Immutable random-feature draw.

    frequencies: (num_features, input_dim), drawn N(0, 1/gamma_k^2) per dim.
    phases: (num_features,) in [0, 2pi).
    bandwidth: (input_dim,) positive reals (gamma, input units).
    """

    frequencies: np.ndarray
    phases: np.ndarray
    bandwidth: np.ndarray

    def __post_init__(self):
        shape = self.frequencies.shape
        if len(shape) != 2 or self.phases.shape != shape[:1] or self.bandwidth.shape != shape[1:]:
            raise DomainError(
                f"frequencies {shape}, phases {self.phases.shape} and "
                f"bandwidth {self.bandwidth.shape} do not fit together"
            )
        self.frequencies.setflags(write=False)
        self.phases.setflags(write=False)
        self.bandwidth.setflags(write=False)

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


def draw_rff(input_dim: int, num_features: int, bandwidth, rng: np.random.Generator) -> RffSpec:
    """Draw a feature spec; deterministic given the generator state.

    Frequencies are drawn first, then phases.
    """
    if num_features < 1 or input_dim < 1:
        raise DomainError("num_features and input_dim must be >= 1")
    gamma = np.broadcast_to(np.asarray(bandwidth, dtype=float), (input_dim,)).copy()
    if not np.all(gamma > 0.0) or not np.all(np.isfinite(gamma)):
        raise DomainError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    freqs = rng.normal(0.0, 1.0, size=(num_features, input_dim)) / gamma
    phases = rng.uniform(0.0, 2.0 * math.pi, size=num_features)
    return RffSpec(freqs, phases, gamma)


def rescale(spec: RffSpec, multiplier) -> RffSpec:
    """Same draw at bandwidth gamma * multiplier, without redrawing.

    Frequencies scale by 1/multiplier per dimension, so the rescaled spec is
    exactly what draw_rff would have produced from the same normal variates.
    """
    mult = np.broadcast_to(np.asarray(multiplier, dtype=float), (spec.input_dim,))
    if not np.all(mult > 0.0):
        raise DomainError(f"bandwidth multiplier must be positive, got {multiplier!r}")
    return RffSpec(spec.frequencies / mult, spec.phases.copy(), spec.bandwidth * mult)


def median_heuristic(tuples) -> tuple[float, float]:
    """Per-coordinate bandwidths from pairwise distances of message means.

    The x coordinate uses the incoming Gaussian means, the z coordinate the
    incoming Beta means.  Degenerate collections (all means equal) fall back
    to the coordinate's mean standard deviation, floored at 1e-3.
    """
    if len(tuples) < 2:
        raise DomainError("median heuristic needs at least two tuples")
    # imported here, by the training path alone, so inference never loads
    # scipy.spatial
    from scipy.spatial.distance import pdist

    def one_side(values, spreads):
        med = float(np.median(pdist(values[:, None], "cityblock")))
        if med <= 0.0:
            med = float(np.mean(spreads))
        return max(med, 1e-3)

    mx = np.array([t.m_x.mean for t in tuples])
    sx = np.array([math.sqrt(t.m_x.variance) for t in tuples])
    mz = np.array([t.m_z.mean for t in tuples])
    sz = np.array([math.sqrt(t.m_z.variance) for t in tuples])
    return one_side(mx, sx), one_side(mz, sz)


def _feature_scale(d: int) -> float:
    return math.sqrt(2.0 / d)


def rff_point(spec: RffSpec, x) -> np.ndarray:
    """Point features sqrt(2/d) cos(w.x + b); (dim,) -> (d,), (n, dim) -> (n, d).

    Written with in-place updates because the operator's outer features
    run it once per message.
    """
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.ndim > 2 or pts.shape[-1] != spec.input_dim:
        raise DomainError(
            f"points of shape {pts.shape} do not fit input dimension {spec.input_dim}"
        )
    out = pts @ spec.frequencies.T
    out += spec.phases
    np.cos(out, out=out)
    out *= _feature_scale(spec.num_features)
    return out


def gaussian_cf(omega: np.ndarray, g: Gaussian1D) -> np.ndarray:
    """Characteristic function E[e^{i w x}] of a proper Gaussian."""
    if g.improper:
        raise DomainError("characteristic function of an improper Gaussian")
    # real exp + cos/sin is ~2x cheaper than one complex exp and this sits on
    # the per-message hot path; products land in place, without temporaries
    amp = np.exp((-0.5 * g.variance) * np.square(omega))
    phase = omega * g.mean
    out = np.empty(np.shape(phase), dtype=complex)
    np.multiply(amp, np.cos(phase), out=out.real)
    np.multiply(amp, np.sin(phase), out=out.imag)
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

    Returns the first result that agrees with its predecessor to QUAD_TOL
    everywhere; escalation past QUAD_ORDER_CAP raises QuadratureError naming
    `label`.
    """
    prev = at_order(QUAD_ORDER)
    order = 2 * QUAD_ORDER
    while order <= QUAD_ORDER_CAP:
        cur = at_order(order)
        if np.max(np.abs(cur - prev)) <= QUAD_TOL:
            return cur
        prev, order = cur, 2 * order
    raise QuadratureError(f"{label} did not converge by order {QUAD_ORDER_CAP}")


def beta_cf(omega: np.ndarray, betas, phases: dict | None = None) -> np.ndarray:
    """Characteristic functions E[e^{i w z}] of Betas sharing w; (n, len(w)).

    Quadrature starts at order 64 and doubles until successive orders agree
    to 1e-8 in every entry of the batch (for one Beta, everywhere on w);
    escalation past order 4096 raises QuadratureError.  Each order is one
    matrix product of the weighted densities with the phase matrix
    e^{i w z}.  `phases` memoizes those matrices (order -> read-only
    matrix) for a caller that always passes this same w; None builds them
    afresh.  An entry costs 16 * len(w) * order bytes.
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
        dens = np.exp((alphas - 1.0) * log_z + (bbetas - 1.0) * log_1mz - log_norm)
        if order not in phases:
            phases[order] = np.exp(1j * np.outer(omega, z))
            phases[order].setflags(write=False)
        return (w * dens) @ phases[order].T

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
        np.multiply(row, gaussian_cf(spec.frequencies[:, 0], t.m_x), out=row)
    return rows.real.copy()


def principal_projection(embeddings: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Centre and top-k principal directions of (n, D) embeddings.

    Returns (center (D,), projection (D, k)) with orthonormal columns in
    order of decreasing variance, each signed so its largest-magnitude entry
    is positive; the result is a deterministic function of the embeddings.
    """
    emb = np.asarray(embeddings, dtype=float)
    if emb.ndim != 2 or not 1 <= k <= emb.shape[1]:
        raise DomainError(f"cannot take {k} principal directions of shape {emb.shape}")
    center = emb.mean(axis=0)
    centred = emb - center
    _, vecs = np.linalg.eigh(centred.T @ centred)
    top = vecs[:, ::-1][:, :k]
    lead = top[np.argmax(np.abs(top), axis=0), np.arange(k)]
    return center, np.ascontiguousarray(top * np.where(lead < 0.0, -1.0, 1.0))


def median_distance(points: np.ndarray) -> float:
    """Median pairwise Euclidean distance of (n, k) points, the outer sigma.

    Falls back to the largest distance when over half the pairs coincide,
    and to 1.0 when every point is the same (any sigma then gives the same
    constant features).
    """
    from scipy.spatial.distance import pdist

    dist = pdist(np.asarray(points, dtype=float))
    if dist.size == 0:
        raise DomainError("median distance needs at least two points")
    med = float(np.median(dist))
    if med > 0.0:
        return med
    top = float(dist.max())
    return top if top > 0.0 else 1.0


def embedding_features(spec: TwoStageSpec, embeddings) -> np.ndarray:
    """Outer features of inner embeddings: (D_in,) -> (D,), (n, D_in) -> (n, D).

    rff_point of the projected embeddings.
    """
    projected = (np.asarray(embeddings, dtype=float) - spec.center) @ spec.projection
    return rff_point(spec.outer, projected)
