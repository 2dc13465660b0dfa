"""Shared test oracles: deterministic quadrature and frozen reference values.

The importance-sampling and feature-map code under test is checked against a
composite Gauss-Legendre oracle that was written first and frozen here; see
test_factors.test_quadrature_oracle_matches_frozen_values for the guard that
recomputes the constants.

The references of the feature and ridge criteria live here too: per-side
expected features, exact expected kernels between incoming messages, a
dual-form ridge regressor, a ridge model's factor assembled as one dense
square, and the exact posterior of a logistic-regression graph.  The
package itself runs none of them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import betaln, expit, logsumexp

from kernelep import expfam, kernels
from kernelep.errors import DomainError, QuadratureError
from kernelep.expfam import BetaDist, ExpFamDist, Gaussian1D
from kernelep.factors import IncomingTuple
from kernelep.kernels import RffSpec, _feature_scale, _unit_gl, _until_converged, beta_cf
from kernelep.regress import _BLOCK


def composite_gl(lo: float, hi: float, n_total: int, per_panel: int = 50):
    """Composite Gauss-Legendre rule with n_total nodes on [lo, hi].

    Splits the interval into n_total/per_panel equal panels; avoids the
    pathological cost of single-panel rules at high order.
    """
    if n_total % per_panel:
        raise ValueError("n_total must be a multiple of per_panel")
    panels = n_total // per_panel
    base_x, base_w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(lo, hi, panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    nodes = (centers[:, None] + half * base_x[None, :]).ravel()
    weights = np.tile(half * base_w, panels)
    return nodes, weights


def tilted_log_density(x, mean, var, alpha, beta):
    """log of m_x(x) * BetaPdf(sigmoid(x); alpha, beta), unnormalized ok."""
    x = np.asarray(x)
    log_gauss = -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)
    return log_gauss + log_beta_of_sigmoid(x, alpha, beta)


def tilted_moments_quad(mean, var, alpha, beta, n_nodes=10_000):
    """Deterministic tilted moments via Gauss-Legendre on [-12, 12].

    Returns dict with Ex, Ex2, Ez, Ez2 (z = sigmoid(x)), normalized.
    """
    x, w = composite_gl(-12.0, 12.0, n_nodes)
    density = np.exp(tilted_log_density(x, mean, var, alpha, beta))
    mass = w @ density
    z = expit(x)
    return {
        "Ex": float(w @ (density * x) / mass),
        "Ex2": float(w @ (density * x * x) / mass),
        "Ez": float(w @ (density * z) / mass),
        "Ez2": float(w @ (density * z * z) / mass),
    }


def self_normalized_se(values, weights):
    """Delta-method standard error of a self-normalized IS estimate."""
    est = weights @ values
    return math.sqrt(float(weights @ ((values - est) ** 2 * weights)))


def sample(d: ExpFamDist, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n independent samples; deterministic given the generator state."""
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    if d.improper:
        raise DomainError("cannot sample an improper distribution")
    if isinstance(d, Gaussian1D):
        return rng.normal(d.mean, math.sqrt(d.variance), size=n)
    return rng.beta(d.alpha, d.beta, size=n)


# Frozen outputs of tilted_moments_quad, computed before the library existed
# (composite GL, 10^4 nodes, [-12, 12]); machine-precision converged.
TILTED_N01_BETA52 = {
    "Ex": 0.7187653458866361,
    "Ex2": 1.0137527920868428,
    "Ez": 0.6562469308226728,
    "Ez2": 0.45149548930357053,
}
TILTED_N11_BETA22 = {
    "Ex": 0.7042799208115517,
    "Ex2": 1.2126821494820108,
    "Ez": 0.6478600395942242,
    "Ez2": 0.44854709090404227,
}

# posterior moments of the three-factor demo graph: prior N(0, 2) with
# logistic observations Beta(5,2), Beta(4,3), Beta(2,5)
DEMO_POSTERIOR = {
    "Ex": 0.12400503282310994,
    "Ex2": 0.2639295404764608,
    "Var": 0.2485522923110002,
}


# ---------------------------------------------------------------------------
# Expected features and exact kernels of incoming messages


def expected_feature_gaussian(spec: RffSpec, g: Gaussian1D) -> np.ndarray:
    """Closed-form expected features sqrt(2/d) cos(w mu + b) e^{-w^2 s^2/2}."""
    if spec.input_dim != 1:
        raise DomainError("expected_feature_gaussian needs a 1-dim spec")
    if g.improper:
        raise DomainError("expected features of an improper Gaussian")
    w = spec.frequencies[:, 0]
    return _feature_scale(spec.num_features) * np.cos(w * g.mean + spec.phases) * np.exp(
        -0.5 * w**2 * g.variance
    )


def expected_feature_beta(spec: RffSpec, b: BetaDist) -> np.ndarray:
    """Expected features sqrt(2/d) E[cos(w z + b)] via adaptive quadrature."""
    if spec.input_dim != 1:
        raise DomainError("expected_feature_beta needs a 1-dim spec")
    w = spec.frequencies[:, 0]
    cf = beta_cf(w, [b])[0]
    return _feature_scale(spec.num_features) * (np.exp(1j * spec.phases) * cf).real


def exact_gauss_kernel(g1: Gaussian1D, g2: Gaussian1D, gamma: float) -> float:
    """Closed-form expected Gaussian kernel between two Gaussian messages."""
    if g1.improper or g2.improper:
        raise DomainError("exact kernel of an improper Gaussian")
    s = gamma**2 + g1.variance + g2.variance
    return float(gamma / math.sqrt(s) * math.exp(-((g1.mean - g2.mean) ** 2) / (2.0 * s)))


def scipy_tilted_sample(inc: IncomingTuple, n: int, rng: np.random.Generator, widen: float):
    """factors.tilted_sample as it was written on scipy.special: the log
    weights keep the Beta normalizer, and every log-sum-exp is SciPy's.
    Returns (x draws, normalized weights, ess) from the same draws."""
    proposal = Gaussian1D(inc.m_x.mean, widen * inc.m_x.variance)
    x = rng.normal(proposal.mean, math.sqrt(proposal.variance), size=n)
    a, b = inc.m_z.alpha, inc.m_z.beta
    log_beta_part = (
        -(a - 1.0) * np.logaddexp(0.0, -x) - (b - 1.0) * np.logaddexp(0.0, x) - betaln(a, b)
    )
    logw = inc.m_x.log_pdf(x) + log_beta_part - proposal.log_pdf(x)
    ess = float(np.exp(2.0 * logsumexp(logw) - logsumexp(2.0 * logw)))
    return x, np.exp(logw - logsumexp(logw)), ess


def exact_beta_kernel(b1: BetaDist, b2: BetaDist, gamma: float) -> float:
    """Expected Gaussian kernel between two Beta messages, by 2-D quadrature."""
    if b1.improper or b2.improper:
        raise DomainError("exact kernel of an improper Beta")

    def at_order(order):
        z, log_z, log_1mz, w = _unit_gl(order)

        def weighted_pdf(b):
            return w * np.exp(
                (b.alpha - 1.0) * log_z
                + (b.beta - 1.0) * log_1mz
                - betaln(b.alpha, b.beta)
            )

        kmat = np.exp(-((z[:, None] - z[None, :]) ** 2) / (2.0 * gamma**2))
        p1, p2 = weighted_pdf(b1), weighted_pdf(b2)
        return float(p1 @ kmat @ p2), np.array([p1.sum(), p2.sum()])

    return _until_converged(at_order, "Beta kernel quadrature")


def whole_batch_beta_cf(omega: np.ndarray, betas) -> tuple[np.ndarray, int]:
    """kernels.beta_cf as it was written before it blocked its Betas: each
    order weights every density and multiplies them by the phase matrix in
    one product, and successive orders are compared through one difference
    array of the batch's size.  Returns (rows, the order accepted)."""
    alphas = np.array([[b.alpha] for b in betas])
    bbetas = np.array([[b.beta] for b in betas])
    log_norm = expfam.betaln(alphas, bbetas)
    prev, order = None, kernels.QUAD_ORDER
    while order <= kernels.QUAD_ORDER_CAP:
        z, log_z, log_1mz, w = _unit_gl(order)
        weighted = w * np.exp((alphas - 1.0) * log_z + (bbetas - 1.0) * log_1mz - log_norm)
        cur = weighted @ np.exp(1j * np.outer(omega, z)).T
        masses = weighted.sum(axis=1)
        if (
            prev is not None
            and np.max(np.abs(masses - 1.0)) <= kernels.MASS_TOL
            and np.max(np.abs(cur - prev)) <= kernels.QUAD_TOL
        ):
            return cur, order
        prev, order = cur, 2 * order
    raise QuadratureError(f"quadrature of {len(betas)} Betas did not converge")


def exact_kernel(a: IncomingTuple, b: IncomingTuple, gamma) -> float:
    """Deterministic oracle for the distribution kernels.

    The expected product kernel and the joint-embedding kernel coincide on
    this factor family: each tuple's joint law is a product of its
    independent messages, so both factor into (Gaussian side) * (Beta side).
    """
    gamma_x, gamma_z = (float(gamma[0]), float(gamma[1])) if np.ndim(gamma) else (
        float(gamma),
        float(gamma),
    )
    return exact_gauss_kernel(a.m_x, b.m_x, gamma_x) * exact_beta_kernel(
        a.m_z, b.m_z, gamma_z
    )


# ---------------------------------------------------------------------------
# Dual-form ridge regression, the reference for the primal fit


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


def inverse_gram(model) -> np.ndarray:
    """A ridge model's inverse Gram M^T (I - C^T C) M as one explicit,
    exactly symmetric D x D matrix: the reference the ridge tests compare
    against, which the package itself never forms."""
    M = dense_factor(model.M, model.num_features)
    CM = model.C @ M
    A = M.T @ M - CM.T @ CM
    return (A + A.T) / 2.0


def _block_extents(D: int):
    """(b0, w, offset) of each column block of a D x D factor's flat buffer."""
    offset = 0
    for b0 in range(0, D, _BLOCK):
        w = min(_BLOCK, D - b0)
        yield b0, w, offset
        offset += (D - b0) * w


def dense_factor(M: np.ndarray, D: int) -> np.ndarray:
    """The D x D lower-triangular factor whose column blocks the flat buffer
    M holds, assembled as one square.  Block b is the Fortran-ordered
    (D - b0) x w panel M[b0:, b0:b0 + w], so its w columns lie one after
    another; written from that definition alone, as the reference the
    package's block products are checked against."""
    square = np.zeros((D, D))
    end = 0
    for b0, w, offset in _block_extents(D):
        end = offset + (D - b0) * w
        square[b0:, b0 : b0 + w] = M[offset:end].reshape(w, D - b0).T
    assert end == M.size, "buffer length does not match D"
    return square


def packed_factor(square: np.ndarray) -> np.ndarray:
    """The flat column-block buffer of a lower-triangular square: the
    inverse of dense_factor."""
    D = len(square)
    pieces = [square[b0:, b0 : b0 + w].T.ravel() for b0, w, _ in _block_extents(D)]
    return np.concatenate(pieces) if pieces else np.zeros(0)


# ---------------------------------------------------------------------------
# Exact posterior of a logistic-regression graph


def log_beta_of_sigmoid(x, alpha, beta):
    """log BetaPdf(sigmoid(x); alpha, beta), finite for every finite x."""
    return (
        -(alpha - 1.0) * np.logaddexp(0.0, -x)
        - (beta - 1.0) * np.logaddexp(0.0, x)
        - betaln(alpha, beta)
    )


@lru_cache(maxsize=4)
def _hermite(order: int):
    return np.polynomial.hermite.hermgauss(order)


def logistic_regression_posterior(graph, n_nodes=2000, order=96) -> Gaussian1D:
    """Moment-matched exact posterior of w in an ep_engine.logistic_regression_graph.

    The graph is w ~ N(m0, v0) (factor "prior"), x_i = a_i w + b_i + N(0, v_i)
    (factor lin_i) and a logistic factor tying x_i to z_i, whose observation
    Beta(alpha_i, beta_i) makes the factor BetaPdf(sigmoid(x_i)).  Integrating
    x_i out leaves one smooth likelihood per observation,
    E[BetaPdf(sigmoid(x))] under N(a_i w + b_i, v_i), taken by Gauss-Hermite
    at `order` nodes.  The posterior is the prior times these likelihoods on
    a composite Gauss-Legendre grid of n_nodes over the prior's mean +- 10
    standard deviations.  Everything stays in log space, so no likelihood
    underflows to log(0).
    """
    prior = next(f for f in graph.factors if f.kind == "gaussian_prior")
    m0, v0 = float(prior.params["mean"]), float(prior.params["variance"])
    half = 10.0 * math.sqrt(v0)
    w, weights = composite_gl(m0 - half, m0 + half, n_nodes)
    log_post = -0.5 * (w - m0) ** 2 / v0
    links = {f.neighbors[1]: f.params for f in graph.factors if f.kind == "linear_gaussian"}
    t, gh_weights = _hermite(order)
    log_gh = np.log(gh_weights) - 0.5 * math.log(math.pi)
    for f in graph.factors:
        if f.kind != "logistic":
            continue
        x_id, z_id = f.neighbors
        link, obs = links[x_id], graph.observations[z_id]
        mean = float(link["a"]) * w + float(link["b"])
        x = mean[:, None] + math.sqrt(2.0 * float(link["noise_variance"])) * t[None, :]
        log_post = log_post + logsumexp(
            log_gh[None, :] + log_beta_of_sigmoid(x, obs.alpha, obs.beta), axis=1
        )
    log_mass = log_post + np.log(weights)
    probs = np.exp(log_mass - logsumexp(log_mass))
    mean = float(probs @ w)
    return Gaussian1D(mean, float(probs @ (w - mean) ** 2))
