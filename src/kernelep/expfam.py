"""Univariate exponential-family distributions and their message arithmetic.

Two families are supported: a Gaussian with sufficient statistic (x, x^2)
and a Beta with sufficient statistic (log z, log(1-z)).  Messages are plain
immutable values; multiplication and division act on natural parameters, so
division can yield improper results (non-positive precision Gaussians,
non-positive shape Betas).  Improper values are representable and flagged,
never raised: the caller owns the skip/clamp policy.

Conventions
-----------
Gaussian natural parameters: eta = (mu/s2, -1/(2 s2)) against the base
measure h(x) = 1/sqrt(2 pi), so the log-partition is
A(eta) = -eta1^2/(4 eta2) - log(-2 eta2)/2 and A = 0 for the standard normal.
Beta natural parameters: eta = (alpha - 1, beta - 1) against h(z) = 1 on
(0, 1), so A(eta) = log B(alpha, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, digamma

from .errors import DegenerateMomentsError, DomainError

__all__ = [
    "Gaussian1D",
    "BetaDist",
    "ExpFamDist",
    "to_natural",
    "from_natural",
    "log_partition",
    "mean_sufficient_stats",
    "kl_divergence",
    "project_to_gaussian",
    "multiply",
    "divide",
]


@dataclass(frozen=True)
class Gaussian1D:
    """Univariate Gaussian N(mean, variance).

    Improper values (variance <= 0 or infinite) are representable so that
    message division never throws; `improper` flags them.  The uniform
    message (zero precision) is ``Gaussian1D(0.0, inf)``.
    """

    mean: float
    variance: float

    @property
    def improper(self) -> bool:
        return not (0.0 < self.variance < math.inf) or not math.isfinite(self.mean)

    @classmethod
    def uniform(cls) -> "Gaussian1D":
        return cls(0.0, math.inf)

    def log_pdf(self, x):
        """Log density at x (scalar or array). Requires a proper distribution."""
        if self.improper:
            raise DomainError("log_pdf of an improper Gaussian")
        return -0.5 * math.log(2.0 * math.pi * self.variance) - (
            np.asarray(x) - self.mean
        ) ** 2 / (2.0 * self.variance)


@dataclass(frozen=True)
class BetaDist:
    """Beta(alpha, beta) on the open interval (0, 1).

    Direct construction does not validate so that message division can
    represent improper results; `improper` flags alpha <= 0 or beta <= 0.
    """

    alpha: float
    beta: float

    @property
    def improper(self) -> bool:
        return (
            not (self.alpha > 0.0 and self.beta > 0.0)
            or not math.isfinite(self.alpha)
            or not math.isfinite(self.beta)
        )

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        s = self.alpha + self.beta
        return self.alpha * self.beta / (s * s * (s + 1.0))

    def log_pdf(self, z):
        """Log density at z in (0, 1) (scalar or array)."""
        if self.improper:
            raise DomainError("log_pdf of an improper Beta")
        z = np.asarray(z)
        return (
            (self.alpha - 1.0) * np.log(z)
            + (self.beta - 1.0) * np.log1p(-z)
            - betaln(self.alpha, self.beta)
        )


ExpFamDist = Gaussian1D | BetaDist


def family_name(d: ExpFamDist) -> str:
    return "gaussian" if isinstance(d, Gaussian1D) else "beta"


def to_natural(d: ExpFamDist) -> np.ndarray:
    """Natural parameters of a distribution, length-2 array.

    Defined for improper Gaussians too (needed by message arithmetic); the
    zero-precision case maps to eta = (0, 0).
    """
    if isinstance(d, Gaussian1D):
        if math.isinf(d.variance):
            return np.zeros(2)
        # + 0.0 normalizes the -0.0 that 1/inf arithmetic would produce
        return np.array(
            [d.mean / d.variance + 0.0, -1.0 / (2.0 * d.variance) + 0.0]
        )
    return np.array([d.alpha - 1.0, d.beta - 1.0])


def from_natural(family: str, eta) -> ExpFamDist:
    """Distribution from natural parameters.

    Gaussian eta2 >= 0 yields an improper-flagged value rather than raising;
    Beta parameters <= 0 are a domain error.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (2,):
        raise DomainError(f"natural parameter vector must have length 2, got shape {eta.shape}")
    if family == "gaussian":
        precision = -2.0 * eta[1]
        if precision == 0.0:
            if eta[0] == 0.0:
                return Gaussian1D.uniform()
            # pure exponential tilt: not expressible as (mean, variance);
            # flagged improper, direction retained in the sign of the mean
            return Gaussian1D(math.copysign(math.inf, eta[0]), math.inf)
        return Gaussian1D(float(eta[0] / precision), float(1.0 / precision))
    if family == "beta":
        alpha, beta = float(eta[0] + 1.0), float(eta[1] + 1.0)
        if alpha <= 0.0 or beta <= 0.0:
            raise DomainError(f"Beta natural parameters imply alpha={alpha}, beta={beta}")
        return BetaDist(alpha, beta)
    raise DomainError(f"unknown family {family!r}")


def log_partition(eta, family: str) -> float:
    """Log-partition A(eta); see the module docstring for base measures."""
    eta = np.asarray(eta, dtype=float)
    if family == "gaussian":
        if not eta[1] < 0.0:
            raise DomainError("Gaussian log-partition requires eta2 < 0")
        return float(-eta[0] ** 2 / (4.0 * eta[1]) - 0.5 * math.log(-2.0 * eta[1]))
    if family == "beta":
        alpha, beta = eta[0] + 1.0, eta[1] + 1.0
        if alpha <= 0.0 or beta <= 0.0:
            raise DomainError("Beta log-partition requires positive shapes")
        return float(betaln(alpha, beta))
    raise DomainError(f"unknown family {family!r}")


def mean_sufficient_stats(d: ExpFamDist) -> np.ndarray:
    """E[u(x)]: (E[x], E[x^2]) for Gaussians, (E[log z], E[log(1-z)]) for Betas.

    Equals the gradient of the log-partition at the distribution's natural
    parameters.
    """
    if d.improper:
        raise DomainError("mean sufficient statistics of an improper distribution")
    if isinstance(d, Gaussian1D):
        return np.array([d.mean, d.mean**2 + d.variance])
    s = d.alpha + d.beta
    return np.array([digamma(d.alpha) - digamma(s), digamma(d.beta) - digamma(s)])


def kl_divergence(p: ExpFamDist, q: ExpFamDist) -> float:
    """KL(p || q) for two proper distributions of the same family.

    Uses the exponential-family identity
    KL = (eta_p - eta_q) . E_p[u] - A(eta_p) + A(eta_q).
    """
    if type(p) is not type(q):
        raise DomainError("KL divergence requires matching families")
    if p.improper or q.improper:
        raise DomainError("KL divergence requires proper distributions")
    fam = family_name(p)
    eta_p, eta_q = to_natural(p), to_natural(q)
    kl = float(
        (eta_p - eta_q) @ mean_sufficient_stats(p)
        - log_partition(eta_p, fam)
        + log_partition(eta_q, fam)
    )
    return max(kl, 0.0)


def project_to_gaussian(moments) -> Gaussian1D:
    """KL-minimizing Gaussian for a raw moment vector (E[x], E[x^2])."""
    m = np.asarray(moments, dtype=float)
    if m.shape != (2,) or not np.all(np.isfinite(m)):
        raise DomainError(f"moment vector must be two finite reals, got {moments!r}")
    variance = m[1] - m[0] ** 2
    if variance <= 0.0:
        raise DegenerateMomentsError(
            f"moments ({m[0]}, {m[1]}) imply variance {variance} <= 0"
        )
    return Gaussian1D(float(m[0]), float(variance))


def _combine(a: ExpFamDist, b: ExpFamDist, sign: float) -> ExpFamDist:
    if type(a) is not type(b):
        raise DomainError("message arithmetic requires matching families")
    eta = to_natural(a) + sign * to_natural(b)
    if isinstance(a, Gaussian1D):
        return from_natural("gaussian", eta)
    # Beta: construct directly so improper results carry the flag, not a throw
    return BetaDist(float(eta[0] + 1.0), float(eta[1] + 1.0))


def multiply(a: ExpFamDist, b: ExpFamDist) -> ExpFamDist:
    """Product of two messages: natural parameters add."""
    return _combine(a, b, +1.0)


def divide(q: ExpFamDist, cavity: ExpFamDist) -> ExpFamDist:
    """Ratio of two messages: natural parameters subtract; may be improper."""
    return _combine(q, cavity, -1.0)
