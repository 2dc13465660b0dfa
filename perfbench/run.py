"""kernelep benchmark: workloads run through the package's public functions.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 42 --seconds 24 --trace 0

Workloads (perfbench/README.md says why each exists):

  train        gen-data then train at the acceptance configuration; the
               held-out KL statistic is computed afterwards, untimed
  active_cold  a seeded stream of demo graphs with fresh Beta observations,
               solved with ActiveSource (budget 3 per graph); the operator
               each graph returns is carried into the next
  ep_warm      the same graph family with Betas drawn from a pool of 8,
               solved with OperatorSource; runnable by hand, but not in
               BENCHMARK.json (README.md explains the time budget)

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the gated end-to-end metrics; with ``--trace 1`` they are
the per-layer metrics of a traced run.  The line before it is the full run
record: every end-to-end metric the workload defines, with its unit, the
deterministic counts and the output checks.  The exit status is 0 only when
every output check passed.

Work files (the EP operator, per-seed outputs, the cross-run ledger, span
dumps) live under ``.bench_build/perfbench`` in the repository root, keyed
by a hash of the package source, so nothing built by one code version is
reused by another.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Recorder, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("train", "active_cold", "ep_warm")
# the default seed also trains the operator the EP workloads load
DEFAULT_SEED = 42
SETUP_REPEATS = 3
N_IMPORTANCE = 10_000
HELDOUT_CASES = 200
# held-out cases also predicted one at a time, to check the batch path
HELDOUT_PER_CASE_CHECK = 4
REFERENCE_GRAPHS = 24
POOL_SIZE = 8
OBSERVATIONS_PER_GRAPH = 3
QUERY_BUDGET = 3
TAU_SCALE = 0.2
PRIOR_MEAN_RANGE = (-1.5, 1.5)
PRIOR_VARIANCE_RANGE = (1.0, 4.0)
# EP graphs per second of --seconds: fixes the work of a run, so every count
# repeats exactly for one (seed, seconds); set so a run's body lasts about
# --seconds on the reference machine described in README.md
GRAPHS_PER_SECOND = {"ep_warm": 40.0, "active_cold": 2.0}
STREAM_SALT = {"ep_warm": 101, "active_cold": 102}

# gated end-to-end metrics: defined on every workload and steady across seeds
END_TO_END_UNITS = {
    "setup_s": "s",
    "body_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# every end-to-end metric, as the run record reports it per workload
RECORD_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "heldout_kl_median": "nat",
    "graphs_per_s": "1/s",
    "graph_p50_ms": "ms",
    "graph_p90_ms": "ms",
    "msg_p50_ms": "ms",
    "msg_p90_ms": "ms",
    "marginal_kl_median": "nat",
    "converged_frac": "frac",
    "failed_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.save_model_s": "s",
    "cli.load_model_s": "s",
    "cli.model_bytes": "bytes",
    "cli.dataset_io_s": "s",
    "factors.gen_training_set_s": "s",
    "factors.oracle_ms_p50": "ms",
    "factors.oracle_calls": "count",
    "factors.degenerate_draws": "count",
    "kernels.joint_features_batch_s": "s",
    "kernels.beta_cf_calls": "count",
    "kernels.beta_cf_ms_p50": "ms",
    "kernels.gaussian_cf_us_p50": "us",
    "regress.cross_validate_s": "s",
    "regress.fit_s": "s",
    "regress.predictive_variance_calls": "count",
    "regress.predictive_variance_ms_p50": "ms",
    "regress.update_online_calls": "count",
    "regress.update_online_ms_p50": "ms",
    "regress.predict_us_p50": "us",
    "operator.train_operator_self_s": "s",
    "operator.default_tau_s": "s",
    "operator.featurize_calls": "count",
    "operator.beta_cache_hit_ratio": "frac",
    "operator.outgoing_message_ms_p50": "ms",
    "operator.decide_ms_p50": "ms",
    "operator.absorb_ms_p50": "ms",
    "operator.warm_beta_cache_s": "s",
    "operator.gate_queries": "count",
    "ep_engine.sweeps": "count",
    "ep_engine.factor_visits": "count",
    "ep_engine.skipped": "count",
    "ep_engine.self_s": "s",
    "ep_engine.cavity_calls": "count",
    "ep_engine.cavity_us_p50": "us",
    "expfam.calls": "count",
    "expfam.self_s": "s",
    "trace.overhead_frac": "frac",
}

# (module, attribute, span name): wrapped in every run, so the deterministic
# counts are recorded whether or not the run is traced
COUNTED = (
    ("kernelep.operator", "featurize", "operator.featurize"),
    ("kernelep.operator", "beta_cf", "kernels.beta_cf"),
    ("kernelep.operator", "update_online", "regress.update_online"),
    ("kernelep.factors", "oracle_to_x", "factors.oracle_to_x"),
    ("kernelep.ep_engine", "oracle_to_x", "factors.oracle_to_x"),
)

# wrapped in traced runs only
TRACED = (
    ("kernelep.cli", "cmd_gen_data", "cli.cmd_gen_data"),
    ("kernelep.cli", "cmd_train", "cli.cmd_train"),
    ("kernelep.cli", "save_model", "cli.save_model"),
    ("kernelep.cli", "load_model", "cli.load_model"),
    ("kernelep.cli", "save_dataset", "cli.save_dataset"),
    ("kernelep.cli", "load_dataset", "cli.load_dataset"),
    ("kernelep.cli", "gen_training_set", "factors.gen_training_set"),
    ("kernelep.cli", "train_operator", "operator.train_operator"),
    ("kernelep.operator", "joint_features_batch", "kernels.joint_features_batch"),
    ("kernelep.operator", "gaussian_cf", "kernels.gaussian_cf"),
    ("kernelep.operator", "median_heuristic", "kernels.median_heuristic"),
    ("kernelep.operator", "draw_rff", "kernels.draw_rff"),
    ("kernelep.operator", "rescale", "kernels.rescale"),
    ("kernelep.operator", "cross_validate", "regress.cross_validate"),
    ("kernelep.operator", "fit", "regress.fit"),
    ("kernelep.operator", "predict", "regress.predict"),
    ("kernelep.operator", "predictive_variance", "regress.predictive_variance"),
    ("kernelep.operator", "default_tau", "operator.default_tau"),
    ("kernelep.operator", "predict_q", "operator.predict_q"),
    ("kernelep.operator", "warm_beta_cache", "operator.warm_beta_cache"),
    ("kernelep.ep_engine", "warm_beta_cache", "operator.warm_beta_cache"),
    ("kernelep.ep_engine", "predict_q", "operator.predict_q"),
    ("kernelep.ep_engine", "outgoing_message", "operator.outgoing_message"),
    ("kernelep.ep_engine", "decide", "operator.decide"),
    ("kernelep.ep_engine", "absorb", "operator.absorb"),
    ("kernelep.ep_engine", "run_ep", "ep_engine.run_ep"),
    ("kernelep.ep_engine", "ep_sweep", "ep_engine.ep_sweep"),
    ("kernelep.ep_engine", "cavity", "ep_engine.cavity"),
    ("kernelep.ep_engine", "marginal", "ep_engine.marginal"),
)

# modules whose bindings of expfam functions are wrapped in traced runs
EXPFAM_CALLERS = (
    "kernelep.cli",
    "kernelep.factors",
    "kernelep.kernels",
    "kernelep.regress",
    "kernelep.operator",
    "kernelep.ep_engine",
)

LOGISTIC_SOURCE = "ep_engine.source.logistic"
OTHER_SOURCE = "ep_engine.source.other"
PREPARE = "ep_engine.prepare"


# ---------------------------------------------------------------------------
# Small helpers


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1e3 if len(values) else 0.0


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def code_hash(*, with_bench: bool) -> str:
    """Hash of the package source, and optionally of this benchmark's code."""
    digest = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    if with_bench:
        files += [BENCH / "run.py", BENCH / "spans.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class Ledger:
    """Values recorded by earlier runs of the same code, keyed by run identity.

    A later run with the same key must reproduce the value exactly; this is
    how the benchmark checks determinism across runs and between the traced
    and untraced run of one seed.
    """

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def untraced_body(self, workload: str, seed: int, seconds: int):
        """Untraced body time of this seed, else the median over recorded seeds.

        The fallback spares a traced run a second, untraced body, which would
        take a traced ``train`` run past two minutes.
        """
        own = self.data.get(f"{workload}/{seed}/{seconds}/body_s")
        if own is not None:
            return own
        others = [
            v for k, v in self.data.items()
            if k.startswith(f"{workload}/") and k.endswith(f"/{seconds}/body_s")
        ]
        return statistics.median(others) if others else None

    def agrees(self, key: str, value) -> bool:
        value = json.loads(json.dumps(value))
        old = self.data.get(key)
        if old is None:
            self.data[key] = value
            self._save()
            return True
        return old == value

    def put(self, key: str, value) -> None:
        self.data[key] = json.loads(json.dumps(value))
        self._save()

    def _save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def import_seconds(repeats: int) -> float:
    """Median wall time of importing the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import kernelep.cli"], cwd=ROOT, env=env, check=True
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Hooks:
    """Installs recorder wrappers on module bindings and removes them again."""

    def __init__(self, rec, traced: bool):
        self._saved = []
        self.missing = []
        targets = list(COUNTED) + (list(TRACED) if traced else [])
        if traced:
            for modname in EXPFAM_CALLERS:
                module = importlib.import_module(modname)
                for attr, value in sorted(vars(module).items()):
                    if inspect.isfunction(value) and value.__module__ == "kernelep.expfam":
                        targets.append((modname, attr, f"expfam.{attr}"))
        for modname, attr, name in targets:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, rec.wrap(name, fn))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []


class SourceProbe:
    """Thin delegating wrapper around an EP message source.

    Counts every call (factor visits); logistic calls are recorded under
    their own name, which is timed in untraced runs for the message latency.
    Everything else, such as ``kind`` and ``queries``, reads through.
    """

    def __init__(self, source, rec, logistic: bool):
        self._source = source
        self._call = rec.wrap(LOGISTIC_SOURCE if logistic else OTHER_SOURCE, source.__call__)
        if hasattr(source, "prepare"):
            self.prepare = rec.wrap(PREPARE, source.prepare)

    def __call__(self, factor, incoming, rng):
        return self._call(factor, incoming, rng)

    def __getattr__(self, name):
        return getattr(self._source, name)


def probe_sources(sources: dict, rec) -> dict:
    return {kind: SourceProbe(s, rec, kind == "logistic") for kind, s in sources.items()}


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Run:
    """What one execution of a workload body produced."""

    setup_s: float = 0.0
    body_s: float = 0.0
    ok_frac: float = 0.0
    record: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    deterministic: dict = field(default_factory=dict)
    digest: str = ""
    model_bytes: int = 0
    missing_hooks: list = field(default_factory=list)


def _count_delta(rec, before: dict, name: str) -> int:
    return rec.count(name) - before.get(name, 0)


def _snapshot(rec) -> dict:
    return {name: rec.count(name) for name in rec.names}


def _deterministic(rec, before, *, sweeps=0, skipped=0, queries=0, converged=0,
                   units=0, model_bytes=0, kl_median=0.0, degenerate=0) -> dict:
    return {
        "units": units,
        "sweeps": sweeps,
        "factor_visits": _count_delta(rec, before, LOGISTIC_SOURCE)
        + _count_delta(rec, before, OTHER_SOURCE),
        "skipped": skipped,
        "converged": converged,
        "beta_cf_calls": _count_delta(rec, before, "kernels.beta_cf"),
        "featurize_calls": _count_delta(rec, before, "operator.featurize"),
        "oracle_calls": _count_delta(rec, before, "factors.oracle_to_x"),
        "update_online_calls": _count_delta(rec, before, "regress.update_online"),
        "gate_queries": queries,
        "model_bytes": model_bytes,
        "degenerate_draws": degenerate,
        "kl_median": kl_median,
    }


def run_train(seed: int, rec, setups: int, ledger: Ledger, run: Run) -> None:
    import kernelep.cli as cli
    import kernelep.factors as factors
    from kernelep.errors import DegenerateSampleError, KernelEpError
    from kernelep.expfam import Gaussian1D, kl_divergence
    from kernelep.operator import featurize_batch, predict_q
    from kernelep.regress import predict

    work = WORK / "train"
    work.mkdir(parents=True, exist_ok=True)
    dataset, model = work / f"dataset-{seed}.csv", work / f"model-{seed}.json"
    run.setup_s = import_seconds(setups)
    config = cli.make_config(
        {"seed": seed, "n_jobs": 1, "dataset": str(dataset), "model": str(model)}
    )

    before = _snapshot(rec)
    t0 = time.perf_counter()
    cli.cmd_gen_data(config)
    cli.cmd_train(config)
    run.body_s = time.perf_counter() - t0
    rec.enabled = False
    attempts = _count_delta(rec, before, "factors.oracle_to_x")
    degenerate = rec.error_count("factors.oracle_to_x")
    failed_frac = degenerate / attempts if attempts else 0.0
    run.ok_frac = 1.0 - failed_frac
    run.attempted = config.n_train
    run.record = {"setup_s": run.setup_s, "train_s": run.body_s, "failed_frac": failed_frac}

    run.model_bytes = model.stat().st_size
    run.checks["model_sha256_repeats"] = ledger.agrees(
        f"train/{seed}/model_sha256", _sha256_file(model)
    )
    try:
        op = cli.load_model(model).op
    except (KernelEpError, OSError) as exc:
        print(f"load_model refused the trained model: {exc!r}", file=sys.stderr)
        run.checks["load_model_accepts"] = False
        return
    run.checks["load_model_accepts"] = True

    # held-out statistic, drawn the way cmd_eval draws its cases
    prior = config.prior
    cases, oracle_q = [], []
    for seq in np.random.SeedSequence([seed, 2]).spawn(HELDOUT_CASES):
        draw_rng, rng_a, _ = (np.random.default_rng(s) for s in seq.spawn(3))
        inc = factors.sample_incoming(prior, draw_rng)
        try:
            q, _ = factors.oracle_to_x(inc, config.n_importance, rng_a)
        except DegenerateSampleError:
            continue
        cases.append(inc)
        oracle_q.append(q)
    # batch features for speed; predictions are (E, log V) per case
    pred = predict(op.model, featurize_batch(op, cases))
    q_hat = [Gaussian1D(float(m), math.exp(float(lv))) for m, lv in pred.T]
    agree = True
    for k in range(min(HELDOUT_PER_CASE_CHECK, len(cases))):
        single = predict_q(op, cases[k])
        agree &= math.isclose(single.mean, q_hat[k].mean, rel_tol=1e-9, abs_tol=1e-12)
        agree &= math.isclose(single.variance, q_hat[k].variance, rel_tol=1e-9)
    run.checks["heldout_batch_matches_predict_q"] = agree
    kls = [max(kl_divergence(a, b), 0.0) for a, b in zip(oracle_q, q_hat)]
    run.checks["heldout_kl_finite"] = bool(kls) and all(math.isfinite(k) for k in kls)
    kl_median = float(np.median(kls)) if kls else 0.0
    run.record["heldout_kl_median"] = kl_median
    run.deterministic = _deterministic(
        rec, before, units=config.n_train, model_bytes=run.model_bytes,
        kl_median=kl_median, degenerate=degenerate,
    )


def ensure_operator() -> Path:
    """The operator both EP workloads load, trained once per package version.

    The package's own command line trains it in a child process, at the
    acceptance configuration, so none of its memory or time lands in a run.
    """
    target = WORK / f"operator-{code_hash(with_bench=False)}-{DEFAULT_SEED}"
    model = target / "model.json"
    if model.exists():
        return model
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    paths = ["--dataset", str(tmp / "dataset.csv"), "--model", str(tmp / "model.json")]
    t0 = time.perf_counter()
    for command in ("gen-data", "train"):
        subprocess.run(
            [sys.executable, "-m", "kernelep", command, "--seed", str(DEFAULT_SEED),
             "--n-jobs", "1", *paths],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
    os.replace(tmp, target)
    print(f"trained the EP operator in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return model


def make_stream(workload: str, seed: int, n_graphs: int):
    """The Beta pool (ep_warm only) and the graph stream, all from the seed."""
    from kernelep.ep_engine import demo_graph
    from kernelep.factors import IncomingPrior

    rng = np.random.default_rng(np.random.SeedSequence([seed, STREAM_SALT[workload]]))
    box = IncomingPrior()

    def fresh_beta():
        return (float(rng.uniform(*box.alpha_range)), float(rng.uniform(*box.beta_range)))

    pool = [fresh_beta() for _ in range(POOL_SIZE)] if workload == "ep_warm" else []
    graphs = []
    for _ in range(n_graphs):
        mean = float(rng.uniform(*PRIOR_MEAN_RANGE))
        variance = float(rng.uniform(*PRIOR_VARIANCE_RANGE))
        if pool:
            obs = [pool[int(i)] for i in rng.integers(0, POOL_SIZE, OBSERVATIONS_PER_GRAPH)]
        else:
            obs = [fresh_beta() for _ in range(OBSERVATIONS_PER_GRAPH)]
        graphs.append(demo_graph(obs, mean, variance))
    return pool, graphs


def _graph_rng(workload: str, seed: int, g: int):
    return np.random.default_rng(np.random.SeedSequence([seed, STREAM_SALT[workload], g]))


def _params(m) -> tuple:
    return (m.alpha, m.beta) if hasattr(m, "alpha") else (m.mean, m.variance)


def _marginals_ok(res) -> bool:
    return all(
        not m.improper and all(math.isfinite(p) for p in _params(m))
        for m in res.marginals.values()
    )


def _marginal_repr(res) -> str:
    parts = [f"{vid}:{_params(res.marginals[vid])!r}" for vid in sorted(res.marginals)]
    return ";".join(parts) + f"|{res.converged}|{res.iterations}|{res.skipped}|{res.queries}"


def run_ep_stream(workload: str, seed: int, n_graphs: int, rec, setups: int,
                  model_path: Path, run: Run, import_s: float) -> None:
    import kernelep.cli as cli
    import kernelep.ep_engine as ep
    import kernelep.operator as operator
    from kernelep.errors import KernelEpError
    from kernelep.expfam import BetaDist, kl_divergence

    pool, graphs = make_stream(workload, seed, n_graphs)
    pool_betas = [BetaDist(a, b) for a, b in pool]
    perf = time.perf_counter

    setup_times = []
    for _ in range(setups):
        t0 = perf()
        saved = cli.load_model(model_path)
        if pool_betas:
            operator.warm_beta_cache(saved.op, pool_betas)
        setup_times.append(perf() - t0)
    run.setup_s = import_s + statistics.median(setup_times)
    run.model_bytes = model_path.stat().st_size
    op = saved.op
    tau = TAU_SCALE * saved.tau
    damping = ep.DampingConfig()

    results, graph_latencies, queries_logged = [], [], True
    before = _snapshot(rec)
    t_body = perf()
    for g, graph in enumerate(graphs):
        if workload == "ep_warm":
            source = ep.OperatorSource(op)
        else:
            source = ep.ActiveSource(
                op, operator.UncertaintyPolicy(tau=tau, budget=QUERY_BUDGET), N_IMPORTANCE
            )
        probes = probe_sources(ep.default_sources(source), rec)
        t0 = perf()
        try:
            res = ep.run_ep(graph, probes, damping, rng=_graph_rng(workload, seed, g))
        except KernelEpError as exc:
            print(f"graph {g}: {exc!r}", file=sys.stderr)
            results.append(None)
            continue
        graph_latencies.append(perf() - t0)
        results.append(res)
        if workload == "active_cold":
            op = source.op
            queries_logged &= res.queries <= QUERY_BUDGET and res.queries == sum(
                e.action == "query" for e in source.log
            )
    run.body_s = perf() - t_body
    rec.enabled = False
    msg_latencies = rec.durations.get(LOGISTIC_SOURCE, [])

    solved = [r for r in results if r is not None]
    errors = len(results) - len(solved)
    run.checks["every_graph_solved"] = errors == 0
    run.checks["marginals_finite_proper"] = all(_marginals_ok(r) for r in solved)
    if workload == "active_cold":
        run.checks["queries_within_budget_and_logged"] = queries_logged
    digest = hashlib.sha256()
    for r in results:
        digest.update((_marginal_repr(r) if r is not None else "failed").encode() + b"\n")
    run.digest = digest.hexdigest()

    # oracle-EP reference marginals on the first graphs, built untimed
    kls, reference_ok = [], True
    oracle_sources = ep.default_sources(ep.OracleSource(N_IMPORTANCE))
    for g in range(min(REFERENCE_GRAPHS, len(graphs))):
        if results[g] is None:
            continue
        try:
            ref = ep.run_ep(graphs[g], oracle_sources, damping, rng=_graph_rng(workload, seed, g))
        except KernelEpError as exc:
            print(f"reference for graph {g}: {exc!r}", file=sys.stderr)
            reference_ok = False
            continue
        kls.append(max(kl_divergence(ref.marginals["x"], results[g].marginals["x"]), 0.0))
    run.checks["references_solved"] = reference_ok and bool(kls)
    kl_median = float(np.median(kls)) if kls else 0.0

    sweeps = sum(r.iterations for r in solved)
    skipped = sum(r.skipped for r in solved)
    queries = sum(r.queries for r in solved)
    converged = sum(bool(r.converged) for r in solved)
    proposals = _count_delta(rec, before, LOGISTIC_SOURCE)
    run.ok_frac = converged / len(graphs)
    run.attempted, run.failed = len(graphs), errors
    run.record = {
        "setup_s": run.setup_s,
        "graphs_per_s": len(graphs) / run.body_s,
        "graph_p50_ms": _percentile_ms(graph_latencies, 50),
        "graph_p90_ms": _percentile_ms(graph_latencies, 90),
        "msg_p50_ms": _percentile_ms(msg_latencies, 50),
        "msg_p90_ms": _percentile_ms(msg_latencies, 90),
        "marginal_kl_median": kl_median,
        "converged_frac": run.ok_frac,
        "failed_frac": (skipped + errors) / proposals if proposals else 0.0,
    }
    run.deterministic = _deterministic(
        rec, before, units=len(graphs), sweeps=sweeps, skipped=skipped, queries=queries,
        converged=converged, model_bytes=run.model_bytes, kl_median=kl_median,
    )


# ---------------------------------------------------------------------------
# Metrics


def end_to_end_metrics(run: Run) -> tuple[dict, dict]:
    """(gated metrics, every end-to-end metric of the workload), with units."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = {
        "setup_s": run.setup_s,
        "body_s": run.body_s,
        "ok_frac": run.ok_frac,
        "peak_rss_mb": peak_rss_mb,
    }
    named = dict(run.record, peak_rss_mb=peak_rss_mb)
    return (
        {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in gated.items()},
        {k: {"value": v, "unit": RECORD_UNITS[k]} for k, v in named.items()},
    )


def per_layer_metrics(rec, run: Run, overhead_frac: float) -> dict:
    """Per-layer numbers from the traced run's spans (set-up and body)."""

    name_idx, parents, starts, ends = rec.span_arrays()
    durations = ends - starts
    selfs = self_times(parents, starts, ends)
    index = {name: i for i, name in enumerate(rec.names)}

    def mask(name):
        i = index.get(name)
        return np.zeros(len(name_idx), bool) if i is None else name_idx == i

    def total(name):
        return float(durations[mask(name)].sum())

    def p50(name, scale):
        d = durations[mask(name)]
        return float(np.median(d)) * scale if d.size else 0.0

    def has_ancestor(k, target):
        p = parents[k]
        while p >= 0:
            if name_idx[p] == target:
                return True
            p = parents[p]
        return False

    expfam = np.isin(name_idx, [i for n, i in index.items() if n.startswith("expfam.")])
    featurize_calls = rec.count("operator.featurize")
    feat_i = index.get("operator.featurize", -1)
    cold_under_featurize = sum(
        has_ancestor(k, feat_i) for k in np.flatnonzero(mask("kernels.beta_cf")).tolist()
    )
    det = run.deterministic
    values = {
        "cli.save_model_s": total("cli.save_model"),
        "cli.load_model_s": total("cli.load_model"),
        "cli.model_bytes": run.model_bytes,
        "cli.dataset_io_s": total("cli.save_dataset") + total("cli.load_dataset"),
        "factors.gen_training_set_s": total("factors.gen_training_set"),
        "factors.oracle_ms_p50": p50("factors.oracle_to_x", 1e3),
        "factors.oracle_calls": rec.count("factors.oracle_to_x"),
        "factors.degenerate_draws": rec.error_count("factors.oracle_to_x"),
        "kernels.joint_features_batch_s": total("kernels.joint_features_batch"),
        "kernels.beta_cf_calls": rec.count("kernels.beta_cf"),
        "kernels.beta_cf_ms_p50": p50("kernels.beta_cf", 1e3),
        "kernels.gaussian_cf_us_p50": p50("kernels.gaussian_cf", 1e6),
        "regress.cross_validate_s": total("regress.cross_validate"),
        "regress.fit_s": total("regress.fit"),
        "regress.predictive_variance_calls": rec.count("regress.predictive_variance"),
        "regress.predictive_variance_ms_p50": p50("regress.predictive_variance", 1e3),
        "regress.update_online_calls": rec.count("regress.update_online"),
        "regress.update_online_ms_p50": p50("regress.update_online", 1e3),
        "regress.predict_us_p50": p50("regress.predict", 1e6),
        "operator.train_operator_self_s": float(selfs[mask("operator.train_operator")].sum()),
        "operator.default_tau_s": total("operator.default_tau"),
        "operator.featurize_calls": featurize_calls,
        "operator.beta_cache_hit_ratio": (
            1.0 - cold_under_featurize / featurize_calls if featurize_calls else 0.0
        ),
        "operator.outgoing_message_ms_p50": p50("operator.outgoing_message", 1e3),
        "operator.decide_ms_p50": p50("operator.decide", 1e3),
        "operator.absorb_ms_p50": p50("operator.absorb", 1e3),
        "operator.warm_beta_cache_s": total("operator.warm_beta_cache"),
        "operator.gate_queries": det.get("gate_queries", 0),
        "ep_engine.sweeps": rec.count("ep_engine.ep_sweep"),
        "ep_engine.factor_visits": rec.count(LOGISTIC_SOURCE) + rec.count(OTHER_SOURCE),
        "ep_engine.skipped": det.get("skipped", 0),
        "ep_engine.self_s": total("ep_engine.run_ep")
        - total(LOGISTIC_SOURCE) - total(OTHER_SOURCE) - total(PREPARE),
        "ep_engine.cavity_calls": rec.count("ep_engine.cavity"),
        "ep_engine.cavity_us_p50": p50("ep_engine.cavity", 1e6),
        "expfam.calls": int(expfam.sum()),
        "expfam.self_s": float(selfs[expfam].sum()),
        "trace.overhead_frac": overhead_frac,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def save_spans(rec, path: Path) -> None:
    name_idx, parents, starts, ends = rec.span_arrays()
    np.savez_compressed(
        path, names=np.array(rec.names), name=name_idx, parent=parents, start=starts, end=ends
    )


# ---------------------------------------------------------------------------
# Entry point


def execute(workload: str, seed: int, seconds: int, traced: bool, ledger: Ledger,
            import_s: float):
    """One execution of the workload; returns (run, recorder)."""
    timed = () if traced else (LOGISTIC_SOURCE,)
    rec = Recorder(spans=traced, timed=timed)
    run = Run()
    setups = 1 if traced else SETUP_REPEATS
    if workload == "train":
        def body():
            run_train(seed, rec, setups, ledger, run)
    else:
        model_path = ensure_operator()
        n_graphs = max(1, math.ceil(GRAPHS_PER_SECOND[workload] * seconds))

        def body():
            run_ep_stream(workload, seed, n_graphs, rec, setups, model_path, run, import_s)
    hooks = Hooks(rec, traced)
    try:
        body()
    finally:
        hooks.remove()
    run.missing_hooks = hooks.missing
    return run, rec


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kernelep" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kernelep.cli  # noqa: F401  (timed: part of the EP workloads' set-up)

    import_s = time.perf_counter() - t0

    code_dir = WORK / code_hash(with_bench=True)
    code_dir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(code_dir / "ledger.json")
    key = f"{args.workload}/{args.seed}/{args.seconds}"
    traced = bool(args.trace)

    untraced_body = ledger.untraced_body(args.workload, args.seed, args.seconds)
    if traced and untraced_body is None:
        # trace overhead needs an untraced body to compare with
        base, _ = execute(
            args.workload, args.seed, args.seconds, False, ledger, import_s
        )
        untraced_body = base.body_s
        ledger.agrees(f"{key}/deterministic", base.deterministic)
        if base.digest:
            ledger.agrees(f"{key}/digest", base.digest)
    run, rec = execute(
        args.workload, args.seed, args.seconds, traced, ledger, import_s
    )

    run.checks["deterministic_counts_repeat"] = ledger.agrees(
        f"{key}/deterministic", run.deterministic
    )
    if run.digest:
        run.checks["marginal_digest_repeats"] = ledger.agrees(f"{key}/digest", run.digest)
    if traced:
        metrics = per_layer_metrics(rec, run, run.body_s / untraced_body - 1.0)
        named = {}
        save_spans(rec, code_dir / f"spans-{args.workload}-{args.seed}.npz")
    else:
        ledger.put(f"{key}/body_s", run.body_s)
        metrics, named = end_to_end_metrics(run)

    correct = all(run.checks.values())
    failed_checks = sorted(k for k, ok in run.checks.items() if not ok)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "code": code_dir.name,
        "checks": run.checks,
        "deterministic": run.deterministic,
        "missing_hooks": run.missing_hooks,
        "end_to_end": named,
        "metrics": metrics,
    }
    results_dir = code_dir / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(record, sort_keys=True))
    if failed_checks:
        print(f"failed checks: {', '.join(failed_checks)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, run.attempted),
                "failed": run.failed + len(failed_checks),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
