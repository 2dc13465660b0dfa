"""Command-line front end: configuration, file formats, evaluation harness.

Five subcommands drive the full workflow:

  gen-data    draw incoming tuples and importance-sampled targets -> CSV
  train       fit the message operator with cross-validation -> model JSON
  eval        fresh cases, oracle vs operator KL, histogram -> CSV + JSON
  ep-run      EP over a graph with oracle and operator sources -> JSON
  active-run  EP with variance-gated oracle queries -> JSON + updated model

Every command is a pure function of (config file, input files, seed):
outputs are byte-identical across reruns and across worker counts.  To keep
that guarantee, wall-clock numbers never enter a primary output; they land in
a `.timings.json` sidecar next to it.

Formats: datasets are CSV with a fixed header; models, graphs, and reports
are JSON.  Floats are serialized as the shortest decimal that parses back to
the identical double, so files round-trip without loss.  Model files are
compact JSON carrying a format version and a sha256 checksum over the
canonical payload, verified on load.  The payload holds the ridge model
(weights, inverse Gram, lambda, noise scale, tau) and the operator's
TwoStageSpec: `frequencies`, `phases` and `bandwidths` of its inner joint
embedding, and an `outer` section with the embedding centre, the projection,
and the outer frequencies, phases and bandwidth.  `num_features` is the
width the ridge model regresses on.  Scalars and `metadata` are plain
JSON; every array is stored as its raw bytes,
`{"dtype": "<f8", "shape": [...], "data": "<base64>"}` (little-endian
float64, C order), so the checksum covers every scalar and every array's
bytes.  Format version 3 introduced the raw arrays; files of versions 1 and
2 (decimal arrays) and any other version are refused.
Exit codes: 0 success, 1 domain or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DatasetFormatError,
    DegenerateSampleError,
    GraphFormatError,
    KernelEpError,
    ModelFormatError,
)
from .expfam import BetaDist, Gaussian1D, kl_divergence
from .factors import (
    IncomingPrior,
    IncomingTuple,
    TrainingPair,
    gen_training_set,
    oracle_to_x,
    sample_incoming,
)
from .kernels import RffSpec, TwoStageSpec
from .regress import DEFAULT_LAMBDAS, DEFAULT_MULTIPLIERS, RidgeModel
from .operator import MessageOperator, UncertaintyPolicy, predict_q, train_operator
from .ep_engine import (
    ActiveSource,
    DampingConfig,
    Factor,
    FactorGraph,
    OperatorSource,
    OracleSource,
    Variable,
    default_sources,
    run_ep,
)

__all__ = [
    "RunConfig",
    "EvalReport",
    "SavedModel",
    "DATASET_HEADER",
    "EVAL_CASES_HEADER",
    "MODEL_FORMAT_VERSION",
    "make_config",
    "load_config_file",
    "save_dataset",
    "load_dataset",
    "save_model",
    "load_model",
    "save_graph",
    "load_graph",
    "load_eval_report",
    "load_eval_cases",
    "cmd_gen_data",
    "cmd_train",
    "cmd_eval",
    "cmd_ep_run",
    "cmd_active_run",
    "main",
]


# ---------------------------------------------------------------------------
# Configuration

_INT_KEYS = ("seed", "n_train", "n_test", "n_importance", "num_features", "n_jobs", "budget")
_STR_KEYS = ("dataset", "model", "graph", "out", "model_out")
_SCALAR_KEYS = _INT_KEYS + _STR_KEYS + ("tau", "passthrough")
_GROUP_KEYS = ("prior", "cv", "damping")


@dataclass(frozen=True)
class RunConfig:
    """One run's worth of settings; every command reads the subset it needs.

    `out` is the primary output path; when empty each command falls back to
    its natural default (gen-data writes `dataset`, train writes `model`,
    the rest use a fixed name).  `tau` of None means "use the threshold
    stored in the model file".
    """

    seed: int = 0
    n_train: int = 2000
    n_test: int = 200
    n_importance: int = 10_000
    num_features: int = 2000
    n_jobs: int = 1
    prior: IncomingPrior = field(default_factory=IncomingPrior)
    multipliers: tuple = DEFAULT_MULTIPLIERS
    lambdas: tuple = DEFAULT_LAMBDAS
    folds: int = 5
    damping: DampingConfig = field(default_factory=DampingConfig)
    tau: float | None = None
    budget: int = 100
    passthrough: bool = False
    dataset: str = "dataset.csv"
    model: str = "model.json"
    graph: str = "graph.json"
    out: str = ""
    model_out: str = ""

    def __post_init__(self):
        for name in ("n_train", "n_test", "n_importance", "num_features", "n_jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.budget < 0:
            raise ConfigError(f"budget must be >= 0, got {self.budget}")
        if self.tau is not None and not self.tau > 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        for name in ("dataset", "model", "graph"):
            if not getattr(self, name):
                raise ConfigError(f"{name} path must be nonempty")
        if not self.multipliers or not self.lambdas:
            raise ConfigError("cv multipliers and lambdas must be nonempty")


def _pair(value, label: str) -> tuple:
    try:
        lo, hi = value
        return (float(lo), float(hi))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label} must be a [low, high] pair: {exc}") from None


def load_config_file(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def make_config(data: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a config document plus flag overrides.

    `overrides` entries of None mean "flag not given"; everything else wins
    over the document.  Unknown keys are rejected rather than ignored, so a
    typo fails loudly.
    """
    data = dict(data) if data else {}
    prior_d = data.pop("prior", None)
    cv_d = data.pop("cv", None)
    damp_d = data.pop("damping", None)
    unknown = set(data) - set(_SCALAR_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value

    kwargs = {}
    try:
        for key in _INT_KEYS:
            if key in data:
                kwargs[key] = int(data[key])
        for key in _STR_KEYS:
            if key in data:
                kwargs[key] = str(data[key])
        if data.get("tau") is not None:
            kwargs["tau"] = float(data["tau"])
        if "passthrough" in data:
            kwargs["passthrough"] = bool(data["passthrough"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None

    if prior_d is not None:
        base = IncomingPrior()
        unknown = set(prior_d) - {"mean", "log_variance", "alpha", "beta"}
        if unknown:
            raise ConfigError(f"unknown prior keys: {sorted(unknown)}")
        kwargs["prior"] = IncomingPrior(
            mean_range=_pair(prior_d.get("mean", base.mean_range), "prior.mean"),
            log_variance_range=_pair(
                prior_d.get("log_variance", base.log_variance_range), "prior.log_variance"
            ),
            alpha_range=_pair(prior_d.get("alpha", base.alpha_range), "prior.alpha"),
            beta_range=_pair(prior_d.get("beta", base.beta_range), "prior.beta"),
        )
    if cv_d is not None:
        unknown = set(cv_d) - {"multipliers", "lambdas", "folds"}
        if unknown:
            raise ConfigError(f"unknown cv keys: {sorted(unknown)}")
        try:
            if "multipliers" in cv_d:
                kwargs["multipliers"] = tuple(float(m) for m in cv_d["multipliers"])
            if "lambdas" in cv_d:
                kwargs["lambdas"] = tuple(float(v) for v in cv_d["lambdas"])
            if "folds" in cv_d:
                kwargs["folds"] = int(cv_d["folds"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad cv value: {exc}") from None
    if damp_d is not None:
        unknown = set(damp_d) - {"delta", "max_iters", "tol"}
        if unknown:
            raise ConfigError(f"unknown damping keys: {sorted(unknown)}")
        base = DampingConfig()
        try:
            kwargs["damping"] = DampingConfig(
                delta=float(damp_d.get("delta", base.delta)),
                max_iters=int(damp_d.get("max_iters", base.max_iters)),
                tol=float(damp_d.get("tol", base.tol)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad damping value: {exc}") from None
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# Low-level format helpers


def _ffmt(x) -> str:
    """Shortest decimal string that parses back to the identical double."""
    return repr(float(x))


def _log_exact(variance: float) -> float:
    """log(variance) nudged so exp() reproduces the input bit-exactly.

    Stored log-variances are read back through exp; plain log can land one
    ulp away from the float whose exp produced the value.  When no exact
    preimage exists the plain log is kept.
    """
    s = math.log(variance)
    if math.exp(s) == variance:
        return s
    for cand in (math.nextafter(s, math.inf), math.nextafter(s, -math.inf)):
        if math.exp(cand) == variance:
            return cand
    return s


def _derived_path(out: Path, tag: str) -> Path:
    """Sibling path sharing the stem: report.json -> report<tag>."""
    return out.parent / (out.stem + tag)


def _with_parent(path) -> Path:
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str) -> Path:
    path = _with_parent(path)
    path.write_text(text)
    return path


def _write_json(path: Path, obj, *, compact: bool = False) -> Path:
    path = _with_parent(path)
    with open(path, "w") as handle:
        if compact:
            json.dump(obj, handle, separators=(",", ":"))
        else:
            json.dump(obj, handle, indent=2)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# Dataset files

DATASET_HEADER = (
    "case_id,mx_mean,mx_log_variance,mz_alpha,mz_beta,"
    "out_mean,out_log_variance,ess,n_samples"
)


def save_dataset(path, pairs) -> Path:
    lines = [DATASET_HEADER]
    for i, p in enumerate(pairs):
        lines.append(
            ",".join(
                [
                    str(i),
                    _ffmt(p.input.m_x.mean),
                    _ffmt(_log_exact(p.input.m_x.variance)),
                    _ffmt(p.input.m_z.alpha),
                    _ffmt(p.input.m_z.beta),
                    _ffmt(p.target[0]),
                    _ffmt(p.target[1]),
                    _ffmt(p.ess),
                    str(int(p.n_samples)),
                ]
            )
        )
    return _write_text(Path(path), "\n".join(lines) + "\n")


def load_dataset(path) -> list:
    """Parse a dataset CSV back into training pairs.

    Malformed content raises DatasetFormatError carrying the line number.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != DATASET_HEADER:
        raise DatasetFormatError("missing or wrong header", line=1)
    pairs = []
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split(",")
        if len(fields) != 9:
            raise DatasetFormatError(f"expected 9 fields, got {len(fields)}", line=lineno)
        try:
            vals = [float(v) for v in fields[1:8]]
            n_samples = int(fields[8])
            m_x = Gaussian1D(vals[0], math.exp(vals[1]))
        except (ValueError, OverflowError) as exc:
            raise DatasetFormatError(str(exc), line=lineno) from None
        m_z = BetaDist(vals[2], vals[3])
        inc = IncomingTuple(m_x, m_z)
        if not inc.proper:
            raise DatasetFormatError("improper incoming messages", line=lineno)
        pairs.append(TrainingPair(inc, np.array(vals[4:6]), vals[6], n_samples))
    if not pairs:
        raise DatasetFormatError("dataset holds no data rows")
    return pairs


# ---------------------------------------------------------------------------
# Model files

MODEL_FORMAT_VERSION = 3

_ARRAY_KEYS = {"dtype", "shape", "data"}


def _encode_arrays(node):
    """Payload tree with every ndarray replaced by its raw-bytes record:
    little-endian float64, C order, base64 text."""
    if isinstance(node, np.ndarray):
        return {
            "dtype": "<f8",
            "shape": list(node.shape),
            "data": base64.b64encode(np.asarray(node, dtype="<f8").tobytes()).decode("ascii"),
        }
    if isinstance(node, dict):
        return {key: _encode_arrays(value) for key, value in node.items()}
    return node


def _decode_arrays(node):
    """Inverse of _encode_arrays; decoded arrays are read-only views of the bytes."""
    if isinstance(node, dict):
        if set(node) == _ARRAY_KEYS:
            if node["dtype"] != "<f8":
                raise ValueError(f"unsupported array dtype {node['dtype']!r}")
            raw = base64.b64decode(node["data"], validate=True)
            return np.frombuffer(raw, dtype="<f8").reshape(node["shape"])
        return {key: _decode_arrays(value) for key, value in node.items()}
    return node


def _payload_checksum(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class SavedModel:
    """A model file pulled back into memory."""

    op: MessageOperator
    tau: float
    seed: int
    payload: dict


def save_model(path, op: MessageOperator, *, seed: int, tau: float, extra: dict | None = None) -> Path:
    """Write a two-stage operator as a checksummed model file.

    The format stores TwoStageSpec operators only; an operator on a plain
    RffSpec raises ModelFormatError before anything is written.
    """
    spec = op.spec
    if not isinstance(spec, TwoStageSpec):
        raise ModelFormatError(
            f"model files store two-stage operators only, not a {type(spec).__name__} operator"
        )
    payload = {
        "seed": int(seed),
        "tau": float(tau),
        "lambda": float(op.model.lam),
        "num_features": int(op.model.num_features),
        "noise_scale": float(op.model.noise_scale),
        "n_train": int(op.model.n_train),
        "weights": op.model.W,
        "a_inv": op.model.A_inv,
        "bandwidths": spec.inner.bandwidth,
        "frequencies": spec.inner.frequencies,
        "phases": spec.inner.phases,
        "outer": {
            "center": spec.center,
            "projection": spec.projection,
            "frequencies": spec.outer.frequencies,
            "phases": spec.outer.phases,
            "bandwidth": spec.outer.bandwidth,
        },
        "metadata": extra or {},
    }
    payload = _encode_arrays(payload)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "checksum": _payload_checksum(payload),
        "payload": payload,
    }
    return _write_json(Path(path), doc, compact=True)


def load_model(path) -> SavedModel:
    """Load and integrity-check a model file.

    Reloaded operators predict bit-identically to the saved ones: arrays are
    stored as their raw bytes and scalars as exact decimal round-trips.  The
    returned payload holds the arrays decoded back to (read-only) ndarrays.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON (truncated?): {exc}") from None
    if not isinstance(doc, dict) or "payload" not in doc:
        raise ModelFormatError("model file lacks a payload")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version!r}")
    if _payload_checksum(doc["payload"]) != doc.get("checksum"):
        raise ModelFormatError("checksum mismatch: model file corrupted or edited")
    try:
        payload = _decode_arrays(doc["payload"])
        outer = payload["outer"]
        spec = TwoStageSpec(
            RffSpec(
                np.asarray(payload["frequencies"], dtype=float),
                np.asarray(payload["phases"], dtype=float),
                np.asarray(payload["bandwidths"], dtype=float),
            ),
            np.asarray(outer["center"], dtype=float),
            np.asarray(outer["projection"], dtype=float),
            RffSpec(
                np.asarray(outer["frequencies"], dtype=float),
                np.asarray(outer["phases"], dtype=float),
                np.asarray(outer["bandwidth"], dtype=float),
            ),
        )
        model = RidgeModel(
            np.asarray(payload["weights"], dtype=float),
            float(payload["lambda"]),
            np.asarray(payload["a_inv"], dtype=float),
            float(payload["noise_scale"]),
            int(payload["n_train"]),
        )
        op = MessageOperator(spec, model)
        return SavedModel(op, float(payload["tau"]), int(payload["seed"]), payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model payload malformed: {exc}") from None


# ---------------------------------------------------------------------------
# Graph files


def save_graph(path, graph: FactorGraph) -> Path:
    doc = {
        "variables": [{"id": v.id, "family": v.family} for v in graph.variables],
        "factors": [
            {
                "id": f.id,
                "kind": f.kind,
                "neighbors": list(f.neighbors),
                "params": {k: float(v) for k, v in f.params.items()},
            }
            for f in graph.factors
        ],
        "observations": {
            vid: {"alpha": float(obs.alpha), "beta": float(obs.beta)}
            for vid, obs in graph.observations.items()
        },
    }
    return _write_json(Path(path), doc)


def load_graph(path) -> FactorGraph:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"graph file is not valid JSON: {exc}") from None
    try:
        variables = tuple(
            Variable(str(v["id"]), str(v["family"])) for v in doc["variables"]
        )
        factors = tuple(
            Factor(
                str(f["id"]),
                str(f["kind"]),
                tuple(str(n) for n in f["neighbors"]),
                {k: float(v) for k, v in f.get("params", {}).items()},
            )
            for f in doc["factors"]
        )
        observations = {
            str(vid): BetaDist(float(o["alpha"]), float(o["beta"]))
            for vid, o in doc.get("observations", {}).items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad graph structure: {exc}") from None
    return FactorGraph(variables, factors, observations)


# ---------------------------------------------------------------------------
# Shared command plumbing


def _command_rng(seed: int, salt: int) -> np.random.Generator:
    """Independent stream per (seed, command), so commands never share draws."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(salt)]))


def _dist_to_json(d) -> dict:
    if isinstance(d, Gaussian1D):
        return {"family": "gaussian", "mean": d.mean, "variance": d.variance}
    return {"family": "beta", "alpha": d.alpha, "beta": d.beta}


def _mode_json(res) -> dict:
    return {
        "marginals": {
            vid: _dist_to_json(res.marginals[vid]) for vid in sorted(res.marginals)
        },
        "converged": res.converged,
        "status": "converged" if res.converged else "no_convergence",
        "iterations": res.iterations,
        "skipped": res.skipped,
    }


def _timing_json(res, runtime: float) -> dict:
    per = {}
    for kind in sorted(res.timings):
        total, count = res.timings[kind]
        durations = res.message_seconds.get(kind)
        per[kind] = {
            "total_seconds": total,
            "messages": count,
            "per_message_ms": (1000.0 * total / count) if count else None,
            "per_message_ms_p50": 1000.0 * float(np.median(durations)) if durations else None,
        }
    return {"runtime_seconds": runtime, "per_kind": per}


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_data(config: RunConfig) -> Path:
    """Generate the training dataset CSV."""
    out = Path(config.out or config.dataset)
    rng = _command_rng(config.seed, 0)
    pairs = gen_training_set(
        config.prior, config.n_train, config.n_importance, rng, n_jobs=config.n_jobs
    )
    return save_dataset(out, pairs)


def cmd_train(config: RunConfig) -> Path:
    """Fit the operator on a dataset file and persist it."""
    out = Path(config.out or config.model)
    pairs = load_dataset(config.dataset)
    rng = _command_rng(config.seed, 1)
    grid = [(m, lam) for m in config.multipliers for lam in config.lambdas]
    op, report, tau = train_operator(
        pairs, config.num_features, rng, grid=grid, folds=config.folds
    )
    extra = {
        "n_train_cases": len(pairs),
        "folds": config.folds,
        "cv_grid": [list(g) for g in report.grid],
        "cv_fold_errors": report.fold_errors.tolist(),
        "cv_chosen": report.chosen,
        "bandwidth_multiplier": report.chosen_params[0],
    }
    return save_model(out, op, seed=config.seed, tau=tau, extra=extra)


EVAL_CASES_HEADER = (
    "case_id,mx_mean,mx_log_variance,mz_alpha,mz_beta,"
    "oracle_mean,oracle_log_variance,pred_mean,pred_log_variance,"
    "ess,kl,log10_kl,excluded"
)


@dataclass(frozen=True)
class EvalReport:
    """Evaluation result: per-case divergences plus plot-ready histogram."""

    kl: np.ndarray
    log10_kl: np.ndarray
    n_test: int
    n_excluded: int
    summary: dict
    bin_edges: np.ndarray
    counts: np.ndarray
    runtime_seconds: float


def _build_eval_report(kls, n_test: int, n_excluded: int, runtime: float) -> EvalReport:
    kl = np.asarray(kls, dtype=float)
    log10_kl = np.log10(np.maximum(kl, sys.float_info.min))
    if kl.size:
        summary = {
            "min": float(kl.min()),
            "median": float(np.median(kl)),
            "mean": float(kl.mean()),
            "max": float(kl.max()),
        }
        counts, edges = np.histogram(log10_kl, bins=20)
    else:
        summary = {"min": None, "median": None, "mean": None, "max": None}
        counts, edges = np.zeros(20, dtype=int), np.linspace(0.0, 1.0, 21)
    return EvalReport(kl, log10_kl, n_test, n_excluded, summary, edges, counts, runtime)


def cmd_eval(config: RunConfig) -> Path:
    """Score the operator against the sampling oracle on fresh cases.

    Cases whose oracle run degenerates (effective sample size under the
    floor) are flagged in the CSV and excluded from the summary.  With
    `passthrough` enabled the operator column holds a second, independent
    oracle run instead: the resulting divergences measure the Monte-Carlo
    noise floor of the comparison itself.
    """
    out = Path(config.out or "eval_report.json")
    op = load_model(config.model).op
    start = time.perf_counter()
    case_seqs = np.random.SeedSequence([config.seed, 2]).spawn(config.n_test)
    rows = []
    kls = []
    n_excluded = 0
    for i, seq in enumerate(case_seqs):
        draw_rng, rng_a, rng_b = (np.random.default_rng(s) for s in seq.spawn(3))
        inc = sample_incoming(config.prior, draw_rng)
        try:
            q_oracle, ess = oracle_to_x(inc, config.n_importance, rng_a)
            if config.passthrough:
                q_hat, _ = oracle_to_x(inc, config.n_importance, rng_b)
            else:
                q_hat = predict_q(op, inc)
        except DegenerateSampleError as exc:
            n_excluded += 1
            rows.append((i, inc, None, None, exc.ess, None, None))
            continue
        kl = max(kl_divergence(q_oracle, q_hat), 0.0)
        lkl = math.log10(kl) if kl > 0 else math.log10(sys.float_info.min)
        rows.append((i, inc, q_oracle, q_hat, ess, kl, lkl))
        kls.append(kl)
    report = _build_eval_report(kls, config.n_test, n_excluded, time.perf_counter() - start)

    lines = [EVAL_CASES_HEADER]
    for case_id, inc, q_oracle, q_hat, ess, kl, lkl in rows:
        excluded = q_oracle is None
        moment_cols = (
            ["nan"] * 4
            if excluded
            else [
                _ffmt(q_oracle.mean),
                _ffmt(_log_exact(q_oracle.variance)),
                _ffmt(q_hat.mean),
                _ffmt(_log_exact(q_hat.variance)),
            ]
        )
        lines.append(
            ",".join(
                [
                    str(case_id),
                    _ffmt(inc.m_x.mean),
                    _ffmt(_log_exact(inc.m_x.variance)),
                    _ffmt(inc.m_z.alpha),
                    _ffmt(inc.m_z.beta),
                    *moment_cols,
                    _ffmt(ess),
                    "nan" if excluded else _ffmt(kl),
                    "nan" if excluded else _ffmt(lkl),
                    "1" if excluded else "0",
                ]
            )
        )
    _write_text(_derived_path(out, ".cases.csv"), "\n".join(lines) + "\n")
    _write_json(
        out,
        {
            "n_test": report.n_test,
            "n_excluded": report.n_excluded,
            "n_included": report.n_test - report.n_excluded,
            "passthrough": config.passthrough,
            "n_importance": config.n_importance,
            "kl_summary": report.summary,
            "histogram": {
                "log10_kl_bin_edges": report.bin_edges.tolist(),
                "counts": report.counts.tolist(),
            },
        },
    )
    _write_json(
        _derived_path(out, ".timings.json"), {"runtime_seconds": report.runtime_seconds}
    )
    return out


def load_eval_report(path) -> dict:
    return json.loads(Path(path).read_text())


def load_eval_cases(path) -> list:
    """Per-case eval rows as dicts of parsed values."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != EVAL_CASES_HEADER:
        raise DatasetFormatError("missing or wrong header", line=1)
    names = EVAL_CASES_HEADER.split(",")
    out = []
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split(",")
        if len(fields) != len(names):
            raise DatasetFormatError(
                f"expected {len(names)} fields, got {len(fields)}", line=lineno
            )
        try:
            row = {name: float(v) for name, v in zip(names, fields)}
            row["case_id"] = int(fields[0])
            row["excluded"] = bool(int(fields[-1]))
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=lineno) from None
        out.append(row)
    return out


def cmd_ep_run(config: RunConfig) -> Path:
    """Run EP twice over the same graph: sampling oracle, then operator.

    The primary output holds both sets of marginals, their per-variable KL,
    and convergence status.  Per-message wall-clock numbers go to the
    `.timings.json` sidecar: per source kind the mean and the median
    (`per_message_ms_p50`) message time, and the logistic-factor speedup,
    the ratio of the oracle's median to the operator's.
    """
    out = Path(config.out or "ep_run.json")
    loaded = load_model(config.model)
    graph = load_graph(config.graph)

    t0 = time.perf_counter()
    res_oracle = run_ep(
        graph,
        default_sources(OracleSource(config.n_importance)),
        config.damping,
        rng=_command_rng(config.seed, 3),
    )
    t_oracle = time.perf_counter() - t0
    t0 = time.perf_counter()
    res_operator = run_ep(
        graph,
        default_sources(OperatorSource(loaded.op)),
        config.damping,
        rng=_command_rng(config.seed, 3),
    )
    t_operator = time.perf_counter() - t0

    kl = {}
    for vid in sorted(res_oracle.marginals):
        a, b = res_oracle.marginals[vid], res_operator.marginals[vid]
        kl[vid] = kl_divergence(a, b) if not (a.improper or b.improper) else None
    _write_json(
        out,
        {
            "oracle": _mode_json(res_oracle),
            "operator": _mode_json(res_operator),
            "kl_oracle_vs_operator": kl,
        },
    )
    side = {
        "oracle": _timing_json(res_oracle, t_oracle),
        "operator": _timing_json(res_operator, t_operator),
    }
    o = side["oracle"]["per_kind"].get("oracle")
    p = side["operator"]["per_kind"].get("operator")
    # medians, so a burst of load from elsewhere on the host moves neither side
    side["logistic_per_message_speedup"] = (
        o["per_message_ms_p50"] / p["per_message_ms_p50"]
        if o and p and p["per_message_ms_p50"]
        else None
    )
    _write_json(_derived_path(out, ".timings.json"), side)
    return out


def cmd_active_run(config: RunConfig) -> Path:
    """Run EP with the operator gated by predictive variance.

    Messages whose predictive variance exceeds tau trigger an oracle query
    (while budget lasts) whose answer is absorbed into the model online.  The
    updated model lands next to the primary output (or at `model_out`).
    """
    out = Path(config.out or "active_run.json")
    model_out = Path(config.model_out) if config.model_out else _derived_path(out, ".model.json")
    loaded = load_model(config.model)
    graph = load_graph(config.graph)
    tau = config.tau if config.tau is not None else loaded.tau
    source = ActiveSource(
        loaded.op, UncertaintyPolicy(tau=tau, budget=config.budget), config.n_importance
    )
    t0 = time.perf_counter()
    res = run_ep(graph, default_sources(source), config.damping, rng=_command_rng(config.seed, 4))
    runtime = time.perf_counter() - t0

    doc = _mode_json(res)
    doc["tau"] = tau
    doc["budget"] = config.budget
    doc["queries"] = res.queries
    doc["query_log"] = [
        {
            "action": e.action,
            "factor": e.factor_id,
            "variable": e.variable_id,
            "iteration": e.iteration,
            "variance": e.variance,
            "tau": e.tau,
        }
        for e in source.log
    ]
    _write_json(out, doc)
    _write_json(_derived_path(out, ".timings.json"), _timing_json(res, runtime))

    extra = dict(loaded.payload.get("metadata", {}))
    extra["queries_absorbed"] = int(extra.get("queries_absorbed", 0)) + res.queries
    save_model(model_out, source.op, seed=config.seed, tau=tau, extra=extra)
    return out


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its keys")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--out", help="primary output path")
    common.add_argument("--dataset", help="dataset CSV path")
    common.add_argument("--model", help="model JSON path")
    common.add_argument("--graph", help="graph JSON path")
    common.add_argument("--model-out", dest="model_out", help="updated model path (active-run)")
    common.add_argument("--n-train", dest="n_train", type=int)
    common.add_argument("--n-test", dest="n_test", type=int)
    common.add_argument("--n-importance", dest="n_importance", type=int)
    common.add_argument("--num-features", dest="num_features", type=int)
    common.add_argument("--n-jobs", dest="n_jobs", type=int)
    common.add_argument("--tau", type=float)
    common.add_argument("--budget", type=int)
    common.add_argument(
        "--passthrough",
        action="store_const",
        const=True,
        default=None,
        help="eval only: replace the operator with a second oracle run",
    )

    parser = argparse.ArgumentParser(
        prog="kernelep",
        description="Learned message operators for expectation propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
        ("gen-data", cmd_gen_data, "generate the training dataset CSV"),
        ("train", cmd_train, "fit and persist the message operator"),
        ("eval", cmd_eval, "compare operator and oracle on fresh cases"),
        ("ep-run", cmd_ep_run, "run EP with oracle and operator sources"),
        ("active-run", cmd_active_run, "run EP with variance-gated queries"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = load_config_file(args.config) if args.config else {}
        overrides = {key: getattr(args, key) for key in _SCALAR_KEYS}
        config = make_config(data, overrides)
        out = args.func(config)
        print(out)
    except (KernelEpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
