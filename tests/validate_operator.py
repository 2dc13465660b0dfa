"""Score a trained operator on the held-out validation draw of an operator change.

    PYTHONPATH=src python tests/validate_operator.py MODEL > scores.json

A change to the operator is judged by running this script on the model that
each side's own code trains (`kernelep gen-data` and `kernelep train` at
seed 42 and the acceptance configuration) and comparing the two outputs:

- `box`: KL(exact || predict_q) over 300 fresh IncomingPrior() draws, which
  criterion 1's eval cases never share.  The exact projection integrates
  the tilted density by Gauss-Legendre over the cavity mean +- 14 standard
  deviations.  Its median and 90th percentile are reported.
- `graphs`: for `logistic_regression_graph(10, seed, noise)` at seeds
  100-104 (neither test nor training seeds) and noise 1.0 and 0.01, run_ep
  with OperatorSource on default_rng(seed).  Each entry is
  [KL(exact posterior || EP marginal on w), skipped, sweeps, converged].
  A run that fails scores an infinite KL.

The draw is fixed: the same model gives the same output.  The script is
not collected by pytest.
"""

import json
import math
import sys

import numpy as np

from helpers import composite_gl, logistic_regression_posterior, tilted_log_density
from kernelep.cli import load_model
from kernelep.errors import KernelEpError
from kernelep.ep_engine import OperatorSource, default_sources, logistic_regression_graph, run_ep
from kernelep.expfam import Gaussian1D, kl_divergence
from kernelep.factors import IncomingPrior, sample_incoming
from kernelep.operator import predict_q

BOX_DRAWS = 300
GRAPH_SEEDS = range(100, 105)
NOISES = (1.0, 0.01)


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


def score(op) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([2026, 7]))
    box = []
    for _ in range(BOX_DRAWS):
        inc = sample_incoming(IncomingPrior(), rng)
        box.append(max(kl_divergence(exact_projection(inc), predict_q(op, inc)), 0.0))
    graphs = {}
    for noise in NOISES:
        for seed in GRAPH_SEEDS:
            graph = logistic_regression_graph(10, seed, noise)
            try:
                res = run_ep(graph, default_sources(OperatorSource(op)), rng=np.random.default_rng(seed))
            except KernelEpError:
                graphs[f"{noise},{seed}"] = [math.inf, None, None, False]
                continue
            kl = kl_divergence(logistic_regression_posterior(graph), res.marginals["w"])
            graphs[f"{noise},{seed}"] = [kl, res.skipped, res.iterations, bool(res.converged)]
    return {
        "box": {"median": float(np.median(box)), "p90": float(np.percentile(box, 90))},
        "graphs": graphs,
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps(score(load_model(sys.argv[1]).op)))
