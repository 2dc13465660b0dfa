"""Command-line front end: configuration, file formats, evaluation harness.

Five subcommands drive the full workflow:

  gen-data    draw incoming tuples and importance-sampled targets -> CSV
  train       fit the message operator with cross-validation -> model file
  eval        fresh cases, oracle vs operator KL, histogram -> CSV + JSON
  ep-run      EP over a graph with oracle and operator sources -> JSON
  active-run  EP with variance-gated oracle queries -> JSON + updated model

Every command is a pure function of (config file, input files, seed):
outputs are byte-identical across reruns and across worker counts.  To keep
that guarantee, wall-clock numbers never enter a primary output; they land in
a `.timings.json` sidecar next to it.

Configuration: the `_SCALARS` and `_SECTIONS` tables are the one statement of
the config schema.  `make_config` and `build_parser` both read them, and each
scalar key is also the flag `--key-with-dashes`, so a new setting is one
table entry plus its `RunConfig` field.

Formats: datasets and per-case eval rows are CSV with a fixed header, read
and written by one codec; graphs and reports are JSON.  Floats are
serialized as the shortest decimal that parses back to the identical double,
so files round-trip without loss.  A model file (format version 5) is one
compact JSON header line, space-padded to a multiple of 64 bytes and at
most 1 MiB long, then the raw little-endian float64 C-order bytes of its
arrays, each at a 64-byte aligned offset.  The header holds the version, a
sha256 checksum, the array table ([offset, nbytes] each), `data_bytes`,
and the payload with every
array replaced by {"dtype": "<f8", "shape": [...], "index": k}.  The
checksum covers the canonical JSON of {arrays, data_bytes, payload} and then
the data section: every scalar, metadata value, layout entry and array byte.
The payload holds the ridge model (weights, lambda, noise scale, tau, and
its inverse Gram as `triangle`) and the TwoStageSpec: inner `frequencies`,
`phases` and `bandwidths`, and an `outer` section (embedding centre,
projection, outer frequencies, phases and bandwidth).  `triangle` is the
model's lower-triangular factor M (regress.RidgeModel) with any carried
updates folded in on save, stored as its lower triangle column by column
(LAPACK's packed lower layout, D (D + 1) / 2 values), and it is the last
array of the data section.  Versions 1-3 (arrays as decimal or base64
text) and version 4 (an explicit D x D inverse Gram) are refused.  Saving
writes a temporary file renamed over the target; loading reads the
triangle straight into the model's column blocks (regress.factor_columns),
never a D x D array, and the rest of the data into one buffer, returning
read-only views of it.
Exit codes: 0 success, 1 domain or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
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
    GraphFormatError,
    KernelEpError,
    ModelFormatError,
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
from .kernels import RffSpec, TwoStageSpec
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
        floors = {"n_train": 1, "n_test": 1, "n_importance": MIN_IMPORTANCE, "num_features": 1,
                  "n_jobs": 1, "seed": 0, "folds": 2, "budget": 0}
        for name, low in floors.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.tau is not None and not self.tau > 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        for name in ("dataset", "model", "graph"):
            if not getattr(self, name):
                raise ConfigError(f"{name} path must be nonempty")
        for name in ("multipliers", "lambdas"):
            values = getattr(self, name)
            if not values or not all(math.isfinite(v) and v > 0 for v in values):
                raise ConfigError(f"cv {name} must be finite, positive and nonempty, got {values}")


def _int(value) -> int:
    """A JSON integer or a flag string holding one: int() would truncate 2.7
    and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _str(value) -> str:
    """A JSON string: str() would turn null into the path "None"."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _float(value) -> float:
    """A JSON number or a flag string holding one: float() would read true
    as 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _optional_float(value) -> float | None:
    return None if value is None else _float(value)


def _bool(value) -> bool:
    """JSON true or false only: bool("false") would read as true."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


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
# its parser reads a JSON value and a flag string alike; a boolean key is a
# flag without a value.
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
    "passthrough": (_bool, "eval only: replace the operator with a second oracle run"),
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


def _with_parent(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, obj) -> Path:
    path = _with_parent(path)
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")
    return path


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
    "ess,kl,log10_kl,excluded"
)


def _gaussian_cols(g: Gaussian1D) -> list:
    return [_ffmt(g.mean), _ffmt(_log_exact(g.variance))]


def _case_cols(case_id: int, inc: IncomingTuple) -> list:
    """The case id and the four incoming-tuple columns every CSV starts with."""
    return [str(case_id), *_gaussian_cols(inc.m_x), _ffmt(inc.m_z.alpha), _ffmt(inc.m_z.beta)]


def _write_csv(path, header: str, rows) -> Path:
    path = _with_parent(path)
    path.write_text("\n".join([header, *(",".join(row) for row in rows)]) + "\n")
    return path


def _read_csv(path, header: str, parse_row) -> list:
    """parse_row(fields) of every data row of a CSV with a fixed header.

    A wrong header, a wrong field count, or a ValueError from parse_row
    raises DatasetFormatError carrying the line number.
    """
    lines = Path(path).read_text().splitlines()
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
    return TrainingPair(inc, target, float(fields[7]), int(fields[8]))


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

MODEL_FORMAT_VERSION = 5

# the header line's length and every array's offset in the data section are
# multiples of this, so each array starts on a cache line
_ALIGN = 64

# longest header line, the most the loader reads before parsing: a trained
# operator's is about 1.5 kB, and a version-3 file is one 43 MB line
_HEADER_LIMIT = 1 << 20


def _array_records(node, arrays: list):
    """The payload tree with each ndarray replaced by its record, appending
    the array as little-endian float64 in C order to `arrays`, as a list of
    one piece.  Dict keys must be strings, which JSON would otherwise
    coerce, and no other dict may have a record's keys, which the loader
    would read as an array."""
    if isinstance(node, np.ndarray):
        arrays.append([np.ascontiguousarray(node, dtype="<f8")])
        return {"dtype": "<f8", "shape": list(node.shape), "index": len(arrays) - 1}
    if isinstance(node, dict):
        if set(node) == {"dtype", "shape", "index"} or not all(isinstance(k, str) for k in node):
            raise TypeError(f"model file dicts need str keys and no record's keys: {node!r:.80}")
        return {key: _array_records(value, arrays) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_array_records(item, arrays) for item in node]
    return node


def _data_pieces(arrays, table):
    """The data section: each array's pieces at its offset, zeros between."""
    end = 0
    for pieces, (offset, nbytes) in zip(arrays, table):
        yield bytes(offset - end)
        yield from pieces
        end = offset + nbytes


def _triangle_extent(layout: dict) -> tuple[int, int]:
    """(offset, D) of the payload's `triangle` record, which must be the
    packed lower triangle of a D x D factor and end the data section."""
    record = layout["payload"]["triangle"]
    offset, nbytes = layout["arrays"][record["index"]]
    (count,) = record["shape"]
    D = (math.isqrt(8 * count + 1) - 1) // 2
    if (
        not isinstance(offset, int)
        or set(record) != {"dtype", "shape", "index"}
        or record["dtype"] != "<f8"
        or D * (D + 1) // 2 != count
        or nbytes != 8 * count
        or offset % _ALIGN
        or not 0 <= offset <= offset + nbytes == layout["data_bytes"]
    ):
        raise ValueError(f"triangle record {record} does not end the data section")
    return offset, D


def _layout_digest(layout: dict):
    """sha256 of the canonical JSON of {arrays, data_bytes, payload}, to take the data next."""
    return hashlib.sha256(json.dumps(layout, sort_keys=True, separators=(",", ":")).encode())


def _array_views(node, data: np.ndarray, table):
    """Inverse of _array_records: each record becomes a read-only view into `data`."""
    if isinstance(node, list):
        return [_array_views(item, data, table) for item in node]
    if not isinstance(node, dict):
        return node
    if set(node) != {"dtype", "shape", "index"}:
        return {key: _array_views(value, data, table) for key, value in node.items()}
    offset, nbytes = table[node["index"]]
    count = math.prod(node["shape"])
    if node["dtype"] != "<f8" or offset % _ALIGN or nbytes != 8 * count:
        raise ValueError(f"array record {node} does not fit its extent {[offset, nbytes]}")
    return np.frombuffer(data, "<f8", count, offset).reshape(node["shape"])


@dataclass(frozen=True)
class SavedModel:
    """A model file pulled back into memory."""

    op: MessageOperator
    tau: float
    seed: int
    payload: dict


def save_model(path, op: MessageOperator, *, seed: int, tau: float, extra: dict | None = None) -> Path:
    """Write an operator (always on a TwoStageSpec) as a checksummed model file.

    The model's carried updates are folded into its triangular factor, and
    the factor's lower triangle is stored alone, as the last array.  The
    arrays are hashed and written straight from their buffers, into a
    temporary file that replaces `path` only once complete.
    """
    spec = op.spec
    payload = {
        "seed": int(seed),
        "tau": float(tau),
        "lambda": float(op.model.lam),
        "noise_scale": float(op.model.noise_scale),
        "n_train": int(op.model.n_train),
        "weights": op.model.W,
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
    arrays = []
    layout = {"arrays": [], "data_bytes": 0, "payload": _array_records(payload, arrays)}
    D = op.model.num_features
    triangle = {"dtype": "<f8", "shape": [D * (D + 1) // 2], "index": len(arrays)}
    layout["payload"]["triangle"] = triangle
    # column by column, as little-endian pieces: views of the model's
    # blocks on little-endian hosts
    arrays.append([
        np.ascontiguousarray(column, dtype="<f8")
        for column in factor_columns(folded_factor(op.model), D)
    ])
    for pieces in arrays:
        nbytes = sum(piece.nbytes for piece in pieces)
        offset = layout["data_bytes"] + -layout["data_bytes"] % _ALIGN
        layout["arrays"].append([offset, nbytes])
        layout["data_bytes"] = offset + nbytes
    digest = _layout_digest(layout)
    for piece in _data_pieces(arrays, layout["arrays"]):
        digest.update(piece)
    header = json.dumps(
        {"format_version": MODEL_FORMAT_VERSION, "checksum": digest.hexdigest(), **layout},
        separators=(",", ":"),
    )
    header += " " * (-(len(header) + 1) % _ALIGN) + "\n"
    if len(header) > _HEADER_LIMIT:
        raise ModelFormatError(f"model header of {len(header)} bytes exceeds {_HEADER_LIMIT}")
    path = _with_parent(path)
    # written beside the target and renamed over it, so a write that fails
    # part-way leaves any previous model intact
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(header.encode("ascii"))
            for piece in _data_pieces(arrays, layout["arrays"]):
                handle.write(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_model(path) -> SavedModel:
    """Load and integrity-check a model file.

    Reloaded operators predict bit-identically to the saved ones: arrays are
    stored as their raw bytes and scalars as exact decimal round-trips.  The
    data section before the triangle is read into one buffer, and the
    returned payload holds every array as a read-only view into it, except
    `triangle`: its columns are read straight into the column blocks of a
    zeroed buffer (regress.factor_columns), which is the model's M, so the
    model holds the triangle once and no D x D array.
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
        layout = {key: doc.get(key) for key in ("arrays", "data_bytes", "payload")}
        size = os.fstat(handle.fileno()).st_size - len(line)
        if size != layout["data_bytes"]:
            raise ModelFormatError(f"model data is {size} bytes, not {layout['data_bytes']!r}")
        try:
            start, D = _triangle_extent(layout)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"model payload malformed: {exc}") from None
        raw = np.empty(start + _ALIGN, dtype=np.uint8)
        align = -raw.ctypes.data % _ALIGN
        data = raw[align : align + start]
        digest = _layout_digest(layout)
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
        rest = {key: value for key, value in layout["payload"].items() if key != "triangle"}
        payload = _array_views(rest, data, layout["arrays"]) | {"triangle": M}
        outer = payload["outer"]

        def arrays(node, *keys):
            return [np.asarray(node[key], dtype=float) for key in keys]

        spec = TwoStageSpec(
            RffSpec(*arrays(payload, "frequencies", "phases", "bandwidths")),
            *arrays(outer, "center", "projection"),
            RffSpec(*arrays(outer, "frequencies", "phases", "bandwidth")),
        )
        model = RidgeModel(
            *arrays(payload, "weights"),
            float(payload["lambda"]),
            M,
            float(payload["noise_scale"]),
            int(payload["n_train"]),
        )
        op = MessageOperator(spec, model)
        return SavedModel(op, float(payload["tau"]), int(payload["seed"]), payload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
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
        "cv_fold_errors": report.fold_errors,
        "cv_chosen": report.chosen,
        "bandwidth_multiplier": report.chosen_params[0],
    }
    return save_model(out, op, seed=config.seed, tau=tau, extra=extra)


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
    rows, kls = [], []
    for i, seq in enumerate(np.random.SeedSequence([config.seed, 2]).spawn(config.n_test)):
        draw_rng, rng_a, rng_b = (np.random.default_rng(s) for s in seq.spawn(3))
        inc = sample_incoming(config.prior, draw_rng)
        try:
            q_oracle, ess = oracle_to_x(inc, config.n_importance, rng_a)
            if config.passthrough:
                q_hat, _ = oracle_to_x(inc, config.n_importance, rng_b)
            else:
                q_hat = predict_q(op, inc)
        except DegenerateSampleError as exc:
            rows.append(_case_cols(i, inc) + ["nan"] * 4 + [_ffmt(exc.ess), "nan", "nan", "1"])
            continue
        kl = kl_divergence(q_oracle, q_hat)
        lkl = math.log10(kl) if kl > 0 else math.log10(sys.float_info.min)
        rows.append(
            _case_cols(i, inc) + _gaussian_cols(q_oracle) + _gaussian_cols(q_hat)
            + [_ffmt(ess), _ffmt(kl), _ffmt(lkl), "0"]
        )
        kls.append(kl)
    runtime = time.perf_counter() - start

    included = np.asarray(kls, dtype=float)
    if included.size:
        summary = {
            "min": float(included.min()),
            "median": float(np.median(included)),
            "mean": float(included.mean()),
            "max": float(included.max()),
        }
        counts, edges = np.histogram(np.log10(np.maximum(included, sys.float_info.min)), bins=20)
    else:
        summary = dict.fromkeys(("min", "median", "mean", "max"))
        counts, edges = np.zeros(20, dtype=int), np.linspace(0.0, 1.0, 21)

    _write_csv(_derived_path(out, ".cases.csv"), EVAL_CASES_HEADER, rows)
    _write_json(
        out,
        {
            "n_test": config.n_test,
            "n_excluded": config.n_test - len(kls),
            "n_included": len(kls),
            "passthrough": config.passthrough,
            "n_importance": config.n_importance,
            "kl_summary": summary,
            "histogram": {"log10_kl_bin_edges": edges.tolist(), "counts": counts.tolist()},
        },
    )
    _write_json(_derived_path(out, ".timings.json"), {"runtime_seconds": runtime})
    return out


def load_eval_report(path) -> dict:
    return json.loads(Path(path).read_text())


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
    for key, (parse, text) in _SCALARS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _bool:
            common.add_argument(flag, dest=key, action="store_const", const=True, help=text)
        else:
            common.add_argument(flag, dest=key, type=parse, help=text)

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
        out = args.func(_args_config(args))
        print(out)
    except (KernelEpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
