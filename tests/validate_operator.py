"""Score trained operators on the validation rule of an operator change.

    PYTHONPATH=src python tests/validate_operator.py MODEL [MODEL ...] > scores.json

A change to the operator is judged by running this script on the models
that each side's own code trains: `kernelep gen-data --seed 42` at the
acceptance configuration, then `kernelep train --seed s` on that dataset
for s in 42-46, five training draws per operator.  For each model it scores:

- `box`: KL(exact || predict_q) over 300 fresh IncomingPrior() draws, which
  criterion 1's eval cases never share.  The exact projection integrates
  the tilted density by Gauss-Legendre over the cavity mean +- 14 standard
  deviations.  Its median and 90th percentile are reported.
- `graphs`: 30 graphs, `logistic_regression_graph(10, seed, noise)` at seeds
  100-104 and `logistic_regression_graph(n, seed, noise)` at n in {10, 30}
  and seeds 300-304, each at noise 1.0 and 0.01, keyed "noise,n,seed".
  Each runs run_ep with OperatorSource on default_rng(seed).  An entry is
  [KL(exact posterior || EP marginal on w), skipped, sweeps, converged,
  outside, outside_x].  `outside` is the share of logistic visits whose
  cavity log-parameters lie outside the model's training box, and
  `outside_x` the share outside it on (mu, log sigma^2), the cavity on x;
  both are null for a model without a box.  A run that fails scores an
  infinite KL.

`median` holds, per graph, the median KL over the models given, and
`box_median` the median over the models of their box medians.  The draw is
fixed: the same models give the same output.  The script is not collected
by pytest.
"""

import json
import math
import sys

import numpy as np

from helpers import composite_gl, logistic_regression_posterior, tilted_log_density
from kernelep.cli import load_model
from kernelep.errors import KernelEpError
from kernelep.ep_engine import (
    OperatorSource,
    _logistic_cavities,
    default_sources,
    logistic_regression_graph,
    run_ep,
)
from kernelep.expfam import Gaussian1D, kl_divergence
from kernelep.factors import IncomingPrior, sample_incoming
from kernelep.operator import predict_q

BOX_DRAWS = 300
NOISES = (1.0, 0.01)
GRAPHS = [(10, seed) for seed in range(100, 105)] + [
    (n, seed) for n in (10, 30) for seed in range(300, 305)
]


def exact_projection(inc) -> Gaussian1D:
    """Moment-matched tilted distribution on x, by quadrature about the cavity."""
    mean, var = inc.m_x.mean, inc.m_x.variance
    half = 14.0 * math.sqrt(var)
    x, w = composite_gl(mean - half, mean + half, 20_000)
    log_d = tilted_log_density(x, mean, var, inc.m_z.alpha, inc.m_z.beta)
    p = w * np.exp(log_d - log_d.max())
    p /= p.sum()
    m = float(p @ x)
    return Gaussian1D(m, float(p @ (x - m) ** 2))


class CountingSource(OperatorSource):
    """OperatorSource that counts its logistic visits outside the model's box."""

    def __init__(self, op):
        super().__init__(op)
        self.box = getattr(op, "box", None)
        self.visits = self.outside = self.outside_x = 0

    def __call__(self, factor, incoming, rng):
        cavities = _logistic_cavities(factor, incoming)
        if cavities is not None and self.box is not None:
            _, m_x, m_z = cavities
            u = np.array([m_x.mean, *np.log([m_x.variance, m_z.alpha, m_z.beta])])
            out = (u < self.box[0]) | (u > self.box[1])
            self.visits += 1
            self.outside += bool(out.any())
            self.outside_x += bool(out[:2].any())
        return super().__call__(factor, incoming, rng)

    def shares(self) -> list:
        if self.box is None:
            return [None, None]
        return [count / max(self.visits, 1) for count in (self.outside, self.outside_x)]


def score(op) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([2026, 7]))
    box = []
    for _ in range(BOX_DRAWS):
        inc = sample_incoming(IncomingPrior(), rng)
        box.append(max(kl_divergence(exact_projection(inc), predict_q(op, inc)), 0.0))
    graphs = {}
    for noise in NOISES:
        for n, seed in GRAPHS:
            graph = logistic_regression_graph(n, seed, noise)
            source = CountingSource(op)
            key = f"{noise},{n},{seed}"
            try:
                res = run_ep(graph, default_sources(source), rng=np.random.default_rng(seed))
            except KernelEpError:
                graphs[key] = [math.inf, None, None, False, *source.shares()]
                continue
            kl = kl_divergence(logistic_regression_posterior(graph), res.marginals["w"])
            graphs[key] = [kl, res.skipped, res.iterations, bool(res.converged), *source.shares()]
    return {
        "box": {"median": float(np.median(box)), "p90": float(np.percentile(box, 90))},
        "graphs": graphs,
    }


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    models = {path: score(load_model(path).op) for path in sys.argv[1:]}
    keys = next(iter(models.values()))["graphs"]
    print(json.dumps({
        "models": models,
        "median": {k: float(np.median([m["graphs"][k][0] for m in models.values()])) for k in keys},
        "box_median": float(np.median([m["box"]["median"] for m in models.values()])),
    }))
