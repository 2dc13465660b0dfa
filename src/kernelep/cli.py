"""Command-line front end: configuration, file formats, evaluation harness.

Five subcommands drive the full workflow:

  gen-data    draw incoming tuples and importance-sampled targets -> CSV
  train       fit the message operator with cross-validation -> model file
  eval        fresh cases, operator KL and the oracle's own floor -> CSV + JSON
  ep-run      EP over a graph with oracle and operator sources -> JSON
  active-run  EP with variance-gated oracle queries -> JSON + updated model

Every command is a pure function of (config file, input files, seed):
outputs are byte-identical across reruns and across worker counts.  To keep
that guarantee, wall-clock numbers never enter a primary output; they land in
a sidecar named after it: run.csv -> run.csv.timings.json.

Configuration: the `_SCALARS` and `_SECTIONS` tables are the one statement of
the config schema.  `make_config` and `build_parser` both read them, and each
scalar key is also the flag `--key-with-dashes`, so a new setting is one
table entry plus its `RunConfig` field.

Files: every output is written to a temporary file beside its target and
renamed over it, so a write that fails part-way leaves the previous file
whole.  A config, dataset, eval-case or graph file that is not UTF-8 (or,
for the JSON ones, not valid JSON) raises that file's format error.  Datasets
and per-case eval rows are CSV with a fixed header, read and written by one
codec; graphs and reports are JSON.  Floats are serialized as the shortest
decimal that parses back to the identical double, so files round-trip
without loss.  A model file (format version 6) is one JSON header line (the
version, a checksum, the five scalars, `shapes` and plain-JSON `metadata`),
space-padded to a multiple of 64 bytes and at most 1 MiB long, then the ten
arrays of `_ARRAYS` as little-endian float64 in C order, each from the next
multiple of 64 bytes on, so every offset follows from the shapes
(`_offsets`, which the writer and the loader share).  The checksum is the
sha256 of the header's canonical JSON without it, then of the data.  The
last array is the model's factor M (regress.RidgeModel), carried updates
folded in, as its packed lower triangle column by column; loading reads it
straight into the model's column blocks, never a D x D array, and every
other array is a read-only view of one buffer.  Earlier versions are
refused and must be retrained.
A command refuses, before any work, to write an output over one of the
files it reads (its config_file argument is the --config file, if any) or
two outputs to one path.
Exit codes: 0 success, 1 domain, I/O or allocation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import secrets
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DatasetFormatError,
    DegenerateSampleError,
    DomainError,
    GraphFormatError,
    KernelEpError,
    ModelFormatError,
    QuadratureError,
    integer,
    real,
)
from .expfam import BetaDist, Gaussian1D, kl_divergence
from .factors import (
    MIN_IMPORTANCE,
    IncomingPrior,
    IncomingTuple,
    TrainingPair,
    gen_training_set,
    oracle_to_x,
    sample_incoming,
)
from .kernels import RffSpec, TwoStageSpec, beta_cf
from .regress import (
    DEFAULT_LAMBDAS,
    DEFAULT_MULTIPLIERS,
    RidgeModel,
    factor_columns,
    factor_size,
    folded_factor,
)
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
    dataset: str = "dataset.csv"
    model: str = "model.json"
    graph: str = "graph.json"
    out: str = ""
    model_out: str = ""

    def __post_init__(self):
        floors = {"n_train": 1, "n_test": 1, "n_importance": MIN_IMPORTANCE, "num_features": 1,
                  "n_jobs": 1, "seed": 0, "folds": 2, "budget": 0}
        try:
            for name, low in floors.items():
                integer(name, getattr(self, name), low)
            if self.tau is not None and not real("tau", self.tau) > 0:
                raise DomainError(f"tau must be positive, got {self.tau}")
            for name in ("multipliers", "lambdas"):
                values = getattr(self, name)
                if not values or not all(real(f"cv {name}", v) > 0 for v in values):
                    raise DomainError(f"cv {name} must be positive and nonempty, got {values}")
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        for name in ("dataset", "model", "graph"):
            if not getattr(self, name):
                raise ConfigError(f"{name} path must be nonempty")


def _int(value):
    """Flag text read by int(); RunConfig and DampingConfig apply errors.integer."""
    return int(value) if isinstance(value, str) else value


def _str(value) -> str:
    """A JSON string: str() would turn null into the path "None"."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _float(value) -> float:
    """Flag text read by float(), anything else by errors.real (float(True) is 1.0)."""
    return float(value) if isinstance(value, str) else real("value", value)


def _optional_float(value) -> float | None:
    return None if value is None else _float(value)


def _pair(value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"expected a [low, high] pair, got {value!r}")
    return (_float(value[0]), _float(value[1]))


def _floats(value) -> tuple:
    """A JSON list of numbers: a string would be read digit by digit."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return tuple(_float(v) for v in value)


# The config schema.  Each scalar key is also the flag --key-with-dashes, and
# its parser reads a JSON value and a flag string alike.
_SCALARS = {
    "seed": (_int, "master seed"),
    "out": (_str, "primary output path"),
    "dataset": (_str, "dataset CSV path"),
    "model": (_str, "model file path"),
    "graph": (_str, "graph JSON path"),
    "model_out": (_str, "updated model path (active-run)"),
    "n_train": (_int, "training cases (gen-data)"),
    "n_test": (_int, "held-out cases (eval)"),
    "n_importance": (_int, "importance samples per oracle call"),
    "num_features": (_int, "random features of the operator (train)"),
    "n_jobs": (_int, "worker threads (gen-data)"),
    "tau": (_optional_float, "query threshold; null keeps the model's (active-run)"),
    "budget": (_int, "oracle query budget (active-run)"),
}

# Nested sections, each mapping its JSON keys to (field, parser).  A section
# with a builder fills the RunConfig field of its own name; "cv" fills
# RunConfig's fields directly.
_SECTIONS = {
    "prior": (IncomingPrior, {
        key: (f"{key}_range", _pair) for key in ("mean", "log_variance", "alpha", "beta")
    }),
    "cv": (None, {
        "multipliers": ("multipliers", _floats),
        "lambdas": ("lambdas", _floats),
        "folds": ("folds", _int),
    }),
    "damping": (DampingConfig, {
        "delta": ("delta", _float),
        "max_iters": ("max_iters", _int),
        "tol": ("tol", _float),
    }),
}


def _parsed(parse, value, label: str):
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {label} value: {exc}") from None


def load_config_file(path) -> dict:
    data = _read_json(path, ConfigError)
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
    sections = {name: data.pop(name) for name in _SECTIONS if name in data}
    data.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    unknown = set(data) - set(_SCALARS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {key: _parsed(_SCALARS[key][0], value, key) for key, value in data.items()}
    for name, doc in sections.items():
        if doc is None:
            continue
        if not isinstance(doc, dict):
            raise ConfigError(f"config section {name} must be a JSON object")
        build, keys = _SECTIONS[name]
        unknown = set(doc) - set(keys)
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        fields = {keys[k][0]: _parsed(keys[k][1], v, f"{name}.{k}") for k, v in doc.items()}
        if build is None:
            kwargs.update(fields)
        else:
            kwargs[name] = _parsed(lambda f: build(**f), fields, name)
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


def _write(path, pieces) -> Path:
    """Write byte pieces to a temporary file beside `path`, then rename it over `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as handle:
            for piece in pieces:
                handle.write(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_json(path, obj) -> Path:
    return _write(path, [json.dumps(obj, indent=2).encode() + b"\n"])


def _timings_path(out: Path) -> Path:
    """The timing sidecar's path, named after the output's whole file name
    (run.csv -> run.csv.timings.json), so no two outputs share one."""
    return out.with_name(out.name + ".timings.json")


def _write_timings(out: Path, obj) -> Path:
    return _write_json(_timings_path(out), obj)


def _read_text(path, error) -> str:
    """A UTF-8 text file; undecodable bytes raise the caller's format error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path, error):
    try:
        return json.loads(_read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# CSV files: training datasets and per-case eval rows

_INCOMING_COLUMNS = "mx_mean,mx_log_variance,mz_alpha,mz_beta"

DATASET_HEADER = (
    f"case_id,{_INCOMING_COLUMNS},"
    "out_mean,out_log_variance,ess,n_samples"
)

EVAL_CASES_HEADER = (
    f"case_id,{_INCOMING_COLUMNS},"
    "oracle_mean,oracle_log_variance,pred_mean,pred_log_variance,"
    "ess,kl,log10_kl,floor_mean,floor_log_variance,floor_kl,excluded"
)


def _gaussian_cols(g: Gaussian1D) -> list:
    return [_ffmt(g.mean), _ffmt(_log_exact(g.variance))]


def _case_cols(case_id: int, inc: IncomingTuple) -> list:
    """The case id and the four incoming-tuple columns every CSV starts with."""
    return [str(case_id), *_gaussian_cols(inc.m_x), _ffmt(inc.m_z.alpha), _ffmt(inc.m_z.beta)]


def _write_csv(path, header: str, rows) -> Path:
    lines = itertools.chain([header], map(",".join, rows))
    return _write(path, (f"{line}\n".encode() for line in lines))


def _read_csv(path, header: str, parse_row) -> list:
    """parse_row(fields) of every data row of a CSV with a fixed header.

    A wrong header, a wrong field count, or a ValueError from parse_row
    raises DatasetFormatError carrying the line number.
    """
    lines = _read_text(path, DatasetFormatError).splitlines()
    if not lines or lines[0] != header:
        raise DatasetFormatError("missing or wrong header", line=1)
    width = header.count(",") + 1
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split(",")
        if len(fields) != width:
            raise DatasetFormatError(f"expected {width} fields, got {len(fields)}", line=lineno)
        try:
            rows.append(parse_row(fields))
        except (ValueError, OverflowError) as exc:
            raise DatasetFormatError(str(exc), line=lineno) from None
    return rows


def save_dataset(path, pairs) -> Path:
    rows = (
        _case_cols(i, p.input)
        + [_ffmt(p.target[0]), _ffmt(p.target[1]), _ffmt(p.ess), str(int(p.n_samples))]
        for i, p in enumerate(pairs)
    )
    return _write_csv(path, DATASET_HEADER, rows)


def _training_pair(fields) -> TrainingPair:
    m_x = Gaussian1D(float(fields[1]), math.exp(float(fields[2])))
    inc = IncomingTuple(m_x, BetaDist(float(fields[3]), float(fields[4])))
    if not inc.proper:
        raise ValueError("improper incoming messages")
    target = np.array([float(fields[5]), float(fields[6])])
    ess, n_samples = float(fields[7]), int(fields[8])
    if not (np.all(np.isfinite(target)) and math.isfinite(ess) and n_samples >= 1):
        raise ValueError("target and ESS must be finite and n_samples at least 1")
    return TrainingPair(inc, target, ess, n_samples)


def load_dataset(path) -> list:
    """Parse a dataset CSV back into training pairs.

    Malformed content raises DatasetFormatError carrying the line number.
    """
    pairs = _read_csv(path, DATASET_HEADER, _training_pair)
    if not pairs:
        raise DatasetFormatError("dataset holds no data rows")
    return pairs


def load_eval_cases(path) -> list:
    """Per-case eval rows as dicts of parsed values."""
    names = EVAL_CASES_HEADER.split(",")

    def parse_row(fields) -> dict:
        row = {name: float(v) for name, v in zip(names, fields)}
        row["case_id"] = int(fields[0])
        row["excluded"] = bool(int(fields[-1]))
        return row

    return _read_csv(path, EVAL_CASES_HEADER, parse_row)


# ---------------------------------------------------------------------------
# Model files

MODEL_FORMAT_VERSION = 6

# the header line's length and every array's offset in the data section are
# multiples of this, so each array starts on a cache line
_ALIGN = 64

# longest header line, the most the loader reads before parsing: a trained
# operator's is about 4 kB, and a version-3 file is one 43 MB line
_HEADER_LIMIT = 1 << 20

# the data section's arrays in file order; the packed triangle comes last
_ARRAYS = (
    "weights", "frequencies", "phases", "bandwidths", "center", "projection",
    "outer_frequencies", "outer_phases", "outer_bandwidth", "triangle",
)


def _offsets(shapes: dict) -> tuple[list[int], int]:
    """Each array's byte offset in the data section, and the section's
    length: every array of `shapes` (name -> list of ints) starts at the
    next multiple of _ALIGN after the one before it ends."""
    offsets, end = [], 0
    for name in _ARRAYS:
        shape = shapes[name]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{name} has shape {shape!r}, not a list of sizes")
        offsets.append(end + -end % _ALIGN)
        end = offsets[-1] + 8 * math.prod(shape)
    return offsets, end


def _data_pieces(arrays, offsets):
    """The data section: each array's pieces at its offset, zeros between."""
    end = 0
    for pieces, offset in zip(arrays, offsets):
        yield bytes(offset - end)
        yield from pieces
        end = offset + sum(piece.nbytes for piece in pieces)


def _header_digest(header: dict):
    """sha256 of the header's canonical JSON, checksum left out, to take the data next."""
    fields = {key: value for key, value in header.items() if key != "checksum"}
    return hashlib.sha256(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode())


def _check_keys(node) -> None:
    """Refuse a dict key that is not a string, which JSON would coerce."""
    if isinstance(node, dict):
        if not all(isinstance(key, str) for key in node):
            raise TypeError(f"model metadata dicts need str keys: {node!r:.80}")
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for item in node:
            _check_keys(item)


@dataclass(frozen=True)
class SavedModel:
    """A model file pulled back into memory."""

    op: MessageOperator
    tau: float
    seed: int
    metadata: dict


def save_model(path, op: MessageOperator, *, seed: int, tau: float, extra: dict | None = None) -> Path:
    """Write an operator (always on a TwoStageSpec) as a checksummed model file.

    `extra` is the header's metadata: plain JSON, with no arrays.  The
    model's carried updates are folded into its triangular factor, and the
    factor's lower triangle is stored alone, as the last array.  The arrays
    are hashed and written straight from their buffers, into a temporary
    file that replaces `path` only once complete.
    """
    spec, model = op.spec, op.model
    D = model.num_features
    arrays = [
        model.W, spec.inner.frequencies, spec.inner.phases, spec.inner.bandwidth,
        spec.center, spec.projection,
        spec.outer.frequencies, spec.outer.phases, spec.outer.bandwidth,
    ]
    shapes = {name: list(a.shape) for name, a in zip(_ARRAYS, arrays)}
    shapes["triangle"] = [D * (D + 1) // 2]
    # every array as little-endian pieces, the triangle column by column:
    # views of the model's blocks on little-endian hosts
    pieces = [[np.ascontiguousarray(a, dtype="<f8")] for a in arrays]
    pieces.append([
        np.ascontiguousarray(column, dtype="<f8")
        for column in factor_columns(folded_factor(model), D)
    ])
    metadata = extra or {}
    _check_keys(metadata)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "checksum": None,
        "seed": int(seed),
        "tau": float(tau),
        "lambda": float(model.lam),
        "noise_scale": float(model.noise_scale),
        "n_train": int(model.n_train),
        "shapes": shapes,
        "metadata": metadata,
    }
    offsets, _ = _offsets(shapes)
    digest = _header_digest(header)
    for piece in _data_pieces(pieces, offsets):
        digest.update(piece)
    header["checksum"] = digest.hexdigest()
    line = json.dumps(header, separators=(",", ":"))
    line += " " * (-(len(line) + 1) % _ALIGN) + "\n"
    if len(line) > _HEADER_LIMIT:
        raise ModelFormatError(f"model header of {len(line)} bytes exceeds {_HEADER_LIMIT}")
    return _write(path, itertools.chain([line.encode("ascii")], _data_pieces(pieces, offsets)))


def _positive(doc: dict, name: str) -> float:
    """The header's scalar `name`: a finite number (errors.real) above 0."""
    value = real(name, doc[name])
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def load_model(path) -> SavedModel:
    """Load and integrity-check a model file.

    Reloaded operators predict bit-identically to the saved ones: arrays are
    stored as their raw bytes and scalars as exact decimal round-trips.  The
    data section before the triangle is read into one buffer, and every
    array but the triangle is a read-only view into it.  The triangle's
    columns are read straight into the column blocks of a zeroed buffer
    (regress.factor_columns), which is the model's M, so the model holds the
    triangle once and no D x D array.  The header's lambda, noise_scale and
    tau must be finite numbers above 0, n_train an integer from 1 and seed
    one from 0 (errors.real and errors.integer); anything else is malformed.
    """
    with open(path, "rb") as handle:
        line = handle.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise ModelFormatError(f"no model header line within {_HEADER_LIMIT} bytes")
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise ModelFormatError(f"model file lacks a JSON header line: {exc}") from None
        if not isinstance(doc, dict):
            raise ModelFormatError("model file header is not a JSON object")
        version = doc.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format version {version!r}")
        try:
            shapes = doc["shapes"]
            offsets, end = _offsets(shapes)
            (count,) = shapes["triangle"]
            D = (math.isqrt(8 * count + 1) - 1) // 2
            if D * (D + 1) // 2 != count:
                raise ValueError(f"{count} values are no triangle")
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"model header malformed: {exc}") from None
        size = os.fstat(handle.fileno()).st_size - len(line)
        if size != end:
            raise ModelFormatError(f"model file malformed: {size} data bytes, shapes give {end}")
        start = offsets[-1]
        raw = np.empty(start + _ALIGN, dtype=np.uint8)
        align = -raw.ctypes.data % _ALIGN
        data = raw[align : align + start]
        digest = _header_digest(doc)
        M = np.zeros(factor_size(D))
        for piece in [data, *factor_columns(M, D)]:
            if handle.readinto(piece) != piece.nbytes:
                raise ModelFormatError("model file changed while it was read")
            digest.update(piece)
    data.setflags(write=False)
    M.setflags(write=False)
    if digest.hexdigest() != doc.get("checksum"):
        raise ModelFormatError("checksum mismatch: model file corrupted or edited")
    try:
        W, frequencies, phases, bandwidths, center, projection, *outer = [
            np.frombuffer(data, "<f8", math.prod(shapes[name]), offset).reshape(shapes[name])
            for name, offset in zip(_ARRAYS[:-1], offsets)
        ]
        spec = TwoStageSpec(
            RffSpec(frequencies, phases, bandwidths), center, projection, RffSpec(*outer)
        )
        lam, noise_scale, tau = (_positive(doc, name) for name in ("lambda", "noise_scale", "tau"))
        model = RidgeModel(W, lam, M, noise_scale, integer("n_train", doc["n_train"], 1))
        metadata = doc["metadata"]
        if not isinstance(metadata, dict):
            raise TypeError(f"metadata is a {type(metadata).__name__}")
        op = MessageOperator(spec, model)
        return SavedModel(op, tau, integer("seed", doc["seed"], 0), metadata)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file malformed: {exc}") from None


# ---------------------------------------------------------------------------
# Graph files

# the Python types json.loads gives each JSON type a graph field may hold
_JSON_TYPES = {"string": str, "list": list, "number": (int, float)}


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


def _graph_field(value, field: str, kind: str = "string"):
    """value when its JSON type is kind: "string", "list", or "number" (read
    as a float); a bool is none of them.  Else GraphFormatError names field."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise GraphFormatError(f"{field} must be a JSON {kind}, got {value!r}")
    return float(value) if kind == "number" else value


def load_graph(path) -> FactorGraph:
    doc = _read_json(path, GraphFormatError)
    try:
        variables = tuple(
            Variable(*(_graph_field(v[k], f"variables[{i}].{k}") for k in ("id", "family")))
            for i, v in enumerate(doc["variables"])
        )
        factors = []
        for i, f in enumerate(doc["factors"]):
            at, params = f"factors[{i}].", f.get("params", {}).items()
            neighbors = _graph_field(f["neighbors"], at + "neighbors", "list")
            factors.append(Factor(
                *(_graph_field(f[k], at + k) for k in ("id", "kind")),
                tuple(_graph_field(n, f"{at}neighbors[{j}]") for j, n in enumerate(neighbors)),
                {k: _graph_field(v, f"{at}params.{k}", "number") for k, v in params},
            ))
        observations = {
            vid: BetaDist(*(
                _graph_field(o[k], f"observations.{vid}.{k}", "number") for k in ("alpha", "beta")
            ))
            for vid, o in doc.get("observations", {}).items()
        }
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        # a section that is not an object or a list, or a missing key
        raise GraphFormatError(f"bad graph structure: {exc}") from None
    return FactorGraph(variables, tuple(factors), observations)


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
    for kind in sorted(res.message_seconds):
        durations = res.message_seconds[kind]
        total, count = math.fsum(durations), len(durations)
        per[kind] = {
            "total_seconds": total,
            "messages": count,
            "per_message_ms": (1000.0 * total / count) if count else None,
            "per_message_ms_p50": 1000.0 * float(np.median(durations)) if durations else None,
        }
    return {"runtime_seconds": runtime, "per_kind": per}


def _inputs(config: RunConfig, config_file, *fields) -> dict:
    """Flag -> path of each file a command reads: the RunConfig fields named,
    and the --config file if there is one."""
    paths = {"--" + name: getattr(config, name) for name in fields}
    if config_file:
        paths["--config"] = config_file
    return paths


def _check_outputs(inputs: dict, outputs: dict, in_place: str = "") -> None:
    """Refuse, before any work, a run that would write an output over one of
    its inputs or two outputs to one file.

    inputs maps flags to the paths a command reads, outputs names the paths
    it writes; paths are compared by os.path.realpath, so a relative
    spelling or a symlink matches the file it names (and a symlink loop,
    which Path.resolve raises on, matches nothing here and fails at its
    write).  The output named in_place may
    replace the --model input: active-run writes its updated model
    atomically, after the model is loaded.
    """
    read = {os.path.realpath(path): flag for flag, path in inputs.items()}
    written = {}
    for name, path in outputs.items():
        key = os.path.realpath(path)
        flag = read.get(key)
        if flag and (name, flag) != (in_place, "--model"):
            raise ConfigError(f"the {name} {path} would replace the {flag} input")
        if key in written:
            raise ConfigError(f"the {written[key]} and the {name} would both be {path}")
        written[key] = name


def _check_prior(prior: IncomingPrior) -> None:
    """Refuse a prior box whose Betas the quadrature cannot integrate, before
    any oracle work: each corner Beta of the alpha x beta box must pass
    beta_cf's order doubling and mass rule, at w = 0, where the
    characteristic function is the density's integral."""
    for a, b in itertools.product(prior.alpha_range, prior.beta_range):
        try:
            beta_cf(np.zeros(1), [BetaDist(a, b)])
        except QuadratureError as exc:
            message = f"prior box corner Beta({a}, {b}) cannot be integrated: {exc}"
            raise ConfigError(message) from None


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_data(config: RunConfig, config_file=None) -> Path:
    """Generate the training dataset CSV; the `.timings.json` sidecar holds
    the sampling's runtime_seconds."""
    out = Path(config.out or config.dataset)
    outputs = {"dataset": out, "timings sidecar": _timings_path(out)}
    _check_outputs(_inputs(config, config_file), outputs)
    _check_prior(config.prior)
    rng = _command_rng(config.seed, 0)
    start = time.perf_counter()
    pairs = gen_training_set(
        config.prior, config.n_train, config.n_importance, rng, n_jobs=config.n_jobs
    )
    runtime = time.perf_counter() - start
    save_dataset(out, pairs)
    _write_timings(out, {"runtime_seconds": runtime})
    return out


def cmd_train(config: RunConfig, config_file=None) -> Path:
    """Fit the operator on a dataset file and persist it; the `.timings.json`
    sidecar holds the fit's runtime_seconds, cross-validation and tau
    included."""
    out = Path(config.out or config.model)
    outputs = {"model": out, "timings sidecar": _timings_path(out)}
    _check_outputs(_inputs(config, config_file, "dataset"), outputs)
    pairs = load_dataset(config.dataset)
    rng = _command_rng(config.seed, 1)
    start = time.perf_counter()
    op, report, tau = train_operator(
        pairs, config.num_features, rng, config.multipliers, config.lambdas, config.folds
    )
    runtime = time.perf_counter() - start
    extra = {
        "n_train_cases": len(pairs),
        "folds": config.folds,
        "cv_grid": [list(g) for g in report.grid],
        "cv_fold_errors": report.fold_errors.tolist(),
        "cv_chosen": report.chosen,
        "bandwidth_multiplier": report.chosen_params[0],
    }
    save_model(out, op, seed=config.seed, tau=tau, extra=extra)
    _write_timings(out, {"runtime_seconds": runtime})
    return out


def _kl_block(kls: list) -> dict:
    """The count, summary and 20-bin log10 histogram of the included cases'
    KLs; with none, the statistics are null and the bins span [0, 1]."""
    x = np.asarray(kls, dtype=float)
    counts, edges = np.histogram(np.log10(np.maximum(x, sys.float_info.min)), bins=20)
    return {
        "n_included": len(kls),
        "kl_summary": {
            stat: float(getattr(np, stat)(x)) if x.size else None
            for stat in ("min", "median", "mean", "max")
        },
        "histogram": {"log10_kl_bin_edges": edges.tolist(), "counts": counts.tolist()},
    }


def cmd_eval(config: RunConfig, config_file=None) -> Path:
    """Score the operator against the sampling oracle on fresh cases.

    Each case draws two independent oracle runs.  The operator and the
    second run are both scored against the first; the second's scores form
    the report's `floor` block, the Monte-Carlo noise floor of the
    comparison.  A case whose first run degenerates (effective sample size
    under the floor) is flagged in the CSV and left out of both blocks; one
    whose second run degenerates is left out of the floor alone.
    """
    out = Path(config.out or "eval_report.json")
    cases = _derived_path(out, ".cases.csv")
    outputs = {"report": out, "case file": cases, "timings sidecar": _timings_path(out)}
    _check_outputs(_inputs(config, config_file, "model"), outputs)
    _check_prior(config.prior)
    op = load_model(config.model).op
    start = time.perf_counter()
    rows, kls, floor_kls = [], [], []
    for i, seq in enumerate(np.random.SeedSequence([config.seed, 2]).spawn(config.n_test)):
        draw_rng, rng_a, rng_b = (np.random.default_rng(s) for s in seq.spawn(3))
        inc = sample_incoming(config.prior, draw_rng)
        try:
            q_oracle, ess = oracle_to_x(inc, config.n_importance, rng_a)
        except DegenerateSampleError as exc:
            rows.append(_case_cols(i, inc) + ["nan"] * 4 + [_ffmt(exc.ess)] + ["nan"] * 5 + ["1"])
            continue
        q_hat = predict_q(op, inc)
        kl = kl_divergence(q_oracle, q_hat)
        lkl = math.log10(kl) if kl > 0 else math.log10(sys.float_info.min)
        kls.append(kl)
        try:
            q_floor, _ = oracle_to_x(inc, config.n_importance, rng_b)
        except DegenerateSampleError:
            floor_cols = ["nan"] * 3
        else:
            floor_kl = kl_divergence(q_oracle, q_floor)
            floor_kls.append(floor_kl)
            floor_cols = _gaussian_cols(q_floor) + [_ffmt(floor_kl)]
        rows.append(
            _case_cols(i, inc) + _gaussian_cols(q_oracle) + _gaussian_cols(q_hat)
            + [_ffmt(ess), _ffmt(kl), _ffmt(lkl)] + floor_cols + ["0"]
        )
    runtime = time.perf_counter() - start

    _write_csv(cases, EVAL_CASES_HEADER, rows)
    _write_json(
        out,
        {
            "n_test": config.n_test,
            "n_excluded": config.n_test - len(kls),
            "n_importance": config.n_importance,
            **_kl_block(kls),
            "floor": _kl_block(floor_kls),
        },
    )
    _write_timings(out, {"runtime_seconds": runtime})
    return out


def cmd_ep_run(config: RunConfig, config_file=None) -> Path:
    """Run EP twice over the same graph: sampling oracle, then operator.

    The primary output holds both sets of marginals, their per-variable KL,
    and convergence status.  Per-message wall-clock numbers go to the
    `.timings.json` sidecar: per source kind the mean and the median
    (`per_message_ms_p50`) message time, and the logistic-factor speedup,
    the ratio of the oracle's median to the operator's.
    """
    out = Path(config.out or "ep_run.json")
    outputs = {"report": out, "timings sidecar": _timings_path(out)}
    _check_outputs(_inputs(config, config_file, "model", "graph"), outputs)
    loaded = load_model(config.model)
    graph = load_graph(config.graph)

    runs, side = {}, {}
    for source in (OracleSource(config.n_importance), OperatorSource(loaded.op)):
        t0 = time.perf_counter()
        rng = _command_rng(config.seed, 3)
        res = run_ep(graph, default_sources(source), config.damping, rng=rng)
        runs[source.kind] = res
        side[source.kind] = _timing_json(res, time.perf_counter() - t0)
    res_oracle, res_operator = runs["oracle"], runs["operator"]

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
    o = side["oracle"]["per_kind"].get("oracle")
    p = side["operator"]["per_kind"].get("operator")
    # medians, so a burst of load from elsewhere on the host moves neither side
    side["logistic_per_message_speedup"] = (
        o["per_message_ms_p50"] / p["per_message_ms_p50"]
        if o and p and p["per_message_ms_p50"]
        else None
    )
    _write_timings(out, side)
    return out


def cmd_active_run(config: RunConfig, config_file=None) -> Path:
    """Run EP with the operator gated by predictive variance.

    Messages whose predictive variance exceeds tau trigger an oracle query
    (while budget lasts) whose answer is absorbed into the model online.  The
    updated model lands next to the primary output (or at `model_out`,
    which may be the --model file itself).
    """
    out = Path(config.out or "active_run.json")
    model_out = Path(config.model_out) if config.model_out else _derived_path(out, ".model.json")
    outputs = {"report": out, "timings sidecar": _timings_path(out), "updated model": model_out}
    _check_outputs(_inputs(config, config_file, "model", "graph"), outputs, "updated model")
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
    _write_timings(out, _timing_json(res, runtime))

    extra = dict(loaded.metadata)
    extra["queries_absorbed"] = int(extra.get("queries_absorbed", 0)) + res.queries
    save_model(model_out, source.op, seed=config.seed, tau=tau, extra=extra)
    return out


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its keys")
    for key, (parse, text) in _SCALARS.items():
        common.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, help=text)

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


def _args_config(args) -> RunConfig:
    """The config file named by --config, overridden by the flags given."""
    data = load_config_file(args.config) if args.config else {}
    return make_config(data, {key: getattr(args, key) for key in _SCALARS})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(_args_config(args), args.config)
        print(out)
    except (KernelEpError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0
