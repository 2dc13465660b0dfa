"""End-to-end checks of the command-line surface and its file formats."""

import argparse
import base64
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kernelep.cli as cli
from helpers import dense_factor, packed_factor
from kernelep.cli import (
    DATASET_HEADER,
    EVAL_CASES_HEADER,
    MODEL_FORMAT_VERSION,
    RunConfig,
    build_parser,
    cmd_active_run,
    cmd_ep_run,
    cmd_eval,
    cmd_gen_data,
    cmd_train,
    load_config_file,
    load_dataset,
    load_eval_cases,
    load_graph,
    load_model,
    main,
    make_config,
    save_dataset,
    save_graph,
    save_model,
)
from kernelep.ep_engine import demo_graph
from kernelep.errors import (
    ConfigError,
    DatasetFormatError,
    DomainError,
    GraphFormatError,
    ModelFormatError,
)
from kernelep.kernels import RffSpec, TwoStageSpec, draw_rff
from kernelep.operator import MessageOperator, predict_q, train_operator
from kernelep.regress import (
    RidgeModel,
    factor_size,
    fit,
    folded_factor,
    predictive_variance,
    update_online,
)


BASE = {
    "seed": 11,
    "n_train": 80,
    "n_test": 25,
    "n_importance": 1500,
    "num_features": 40,
    "cv": {"multipliers": [0.5, 1.0, 2.0], "lambdas": [1e-6, 1e-4, 1e-2], "folds": 4},
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: dataset, trained model, demo graph on disk."""
    root = tmp_path_factory.mktemp("cli")
    data = dict(
        BASE,
        dataset=str(root / "data.csv"),
        model=str(root / "model.json"),
        graph=str(root / "graph.json"),
    )
    config = make_config(data)
    save_graph(config.graph, demo_graph())
    cmd_gen_data(config)
    cmd_train(config)
    return root, data


@pytest.fixture(scope="module")
def ep_doc(ws):
    root, data = ws
    out = cmd_ep_run(make_config(data, {"out": str(root / "ep.json")}))
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_point_prior_single_row(tmp_path):
    lv = math.log(0.5)
    config = make_config(
        {
            "seed": 3,
            "n_train": 1,
            "n_importance": 20_000,
            "prior": {"mean": [0.4, 0.4], "log_variance": [lv, lv], "alpha": [1, 1], "beta": [1, 1]},
            "out": str(tmp_path / "one.csv"),
        }
    )
    path = cmd_gen_data(config)
    lines = path.read_text().splitlines()
    assert lines[0] == DATASET_HEADER
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[1]) == 0.4
    assert float(row[3]) == 1.0 and float(row[4]) == 1.0
    assert int(row[8]) == 20_000
    # Beta(1,1) contributes a constant density, so the tilted distribution is
    # the incoming Gaussian itself
    assert abs(float(row[5]) - 0.4) < 0.02
    assert abs(float(row[6]) - lv) < 0.06


def test_gen_data_identical_across_reruns_and_jobs(tmp_path):
    data = {"seed": 5, "n_train": 12, "n_importance": 800}
    outs = []
    for name, jobs in (("a.csv", 1), ("b.csv", 1), ("c.csv", 3)):
        config = make_config(data, {"out": str(tmp_path / name), "n_jobs": jobs})
        outs.append(cmd_gen_data(config).read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_dataset_roundtrip_bytes_and_values(ws, tmp_path):
    root, data = ws
    pairs = load_dataset(data["dataset"])
    assert len(pairs) == BASE["n_train"]
    again = save_dataset(tmp_path / "again.csv", pairs)
    assert again.read_bytes() == (root / "data.csv").read_bytes()
    reloaded = load_dataset(again)
    for p, q in zip(pairs, reloaded):
        assert p.input.m_x.mean == q.input.m_x.mean
        assert p.input.m_x.variance == q.input.m_x.variance
        assert p.input.m_z.alpha == q.input.m_z.alpha
        assert np.array_equal(p.target, q.target)
        assert p.ess == q.ess and p.n_samples == q.n_samples


def test_dataset_parse_errors_carry_line_numbers(tmp_path):
    good = "0," + ",".join(["1.0"] * 7) + ",100"
    cases = [
        ("bogus header\n" + good + "\n", 1),
        (DATASET_HEADER + "\n" + good + "\n0,1.0,2.0\n", 3),
        (DATASET_HEADER + "\n0,x," + ",".join(["1.0"] * 6) + ",100\n", 2),
        (DATASET_HEADER + "\n0,1.0,1.0,-2.0,1.0,1.0,1.0,1.0,100\n", 2),
    ]
    for i, (text, line) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert err.value.line == line
    empty = tmp_path / "empty.csv"
    empty.write_text(DATASET_HEADER + "\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(empty)


@pytest.mark.parametrize("tail", [
    "nan,1.0,500.0,10000",
    "1.0,inf,500.0,10000",
    "1.0,1.0,nan,10000",
    "1.0,1.0,-inf,10000",
    "1.0,1.0,500.0,0",
])
def test_dataset_refuses_non_finite_targets_or_ess_and_empty_samples(tmp_path, capsys, tail):
    path = tmp_path / "d.csv"
    rows = ["0,0.5,0.0,2.0,3.0,0.1,-0.5,500.0,10000", "1,0.5,0.0,2.0,3.0," + tail]
    path.write_text("\n".join([DATASET_HEADER, *rows]) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line == 3
    # train reports the line before it fits anything
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# train / model files


def test_gen_data_and_train_write_timing_sidecars(ws):
    # wall-clock time stays out of the dataset and the model file
    root, _ = ws
    for name in ("data.csv.timings.json", "model.json.timings.json"):
        side = json.loads((root / name).read_text())
        assert list(side) == ["runtime_seconds"] and side["runtime_seconds"] > 0.0


def test_gen_data_and_train_sidecars_do_not_clash(tmp_path):
    # a dataset and a model that share a stem each keep their own sidecar
    data, model = str(tmp_path / "run.csv"), str(tmp_path / "run.json")
    assert main(["gen-data", "--n-train", "20", "--n-importance", "200", "--out", data]) == 0
    assert main(["train", "--dataset", data, "--num-features", "40", "--out", model]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "run.csv", "run.csv.timings.json", "run.json", "run.json.timings.json"
    ]


def test_model_reload_predicts_bit_identically(ws):
    root, data = ws
    pairs = load_dataset(data["dataset"])
    rng = np.random.default_rng(np.random.SeedSequence([BASE["seed"], 1]))
    cv = BASE["cv"]
    op, report, tau = train_operator(
        pairs, BASE["num_features"], rng, cv["multipliers"], cv["lambdas"], cv["folds"]
    )
    loaded = load_model(data["model"])
    assert loaded.tau == tau
    assert loaded.seed == BASE["seed"]
    # CV's fold errors are decimal text in the header, and read back exactly
    assert loaded.metadata["cv_fold_errors"] == report.fold_errors.tolist()
    for p in pairs[:8]:
        a = predict_q(op, p.input)
        b = predict_q(loaded.op, p.input)
        assert a.mean == b.mean and a.variance == b.variance


def test_model_payload_fields(ws):
    # one header line holds the scalars, each array's shape and the
    # metadata; the width is the weights' second dimension, and no separate
    # field holds it
    _, data = ws
    _, doc, _ = _split(data["model"])
    assert list(doc) == [
        "format_version", "checksum", "seed", "tau", "lambda", "noise_scale", "n_train",
        "shapes", "metadata",
    ]
    assert list(doc["shapes"]) == list(_ARRAYS)
    assert doc["shapes"]["weights"] == [2, BASE["num_features"]]
    assert doc["shapes"]["bandwidths"] == [2]
    assert load_model(data["model"]).metadata["n_train_cases"] == BASE["n_train"]


def test_model_payload_stores_outer_layer(ws):
    _, data = ws
    arrays = _parts(data["model"])[1]
    spec = load_model(data["model"]).op.spec
    k = spec.outer.input_dim
    assert arrays["center"].shape == (spec.inner.num_features,)
    assert arrays["projection"].shape == (spec.inner.num_features, k)
    assert arrays["outer_frequencies"].shape == (BASE["num_features"], k)
    assert arrays["outer_bandwidth"].shape == (k,)
    np.testing.assert_array_equal(spec.outer.frequencies, arrays["outer_frequencies"])


# the data section's arrays in file order
_ARRAYS = (
    "weights", "frequencies", "phases", "bandwidths", "center", "projection",
    "outer_frequencies", "outer_phases", "outer_bandwidth", "triangle",
)


def _model_file(fields, data: bytes) -> bytes:
    """A model file of header fields (all but the checksum) and a data
    section, built with json and hashlib alone."""
    canon = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
    checksum = hashlib.sha256(canon + data).hexdigest()
    header = json.dumps(
        {"format_version": fields["format_version"], "checksum": checksum} | fields,
        separators=(",", ":"),
    )
    return (header + " " * (-(len(header) + 1) % 64) + "\n").encode() + data


def _data_section(arrays) -> bytes:
    """Each array's little-endian bytes from the next multiple of 64 on,
    zeros between."""
    data = bytearray()
    for a in arrays:
        data.extend(bytes(-len(data) % 64))
        data.extend(np.asarray(a, dtype="<f8").tobytes())
    return bytes(data)


def _shapes(arrays) -> dict:
    return {name: list(a.shape) for name, a in arrays.items()}


def _forge(path, fields, arrays):
    """A checksummed model file of header fields and named arrays, whose
    header states the arrays' own shapes."""
    fields = fields | {"shapes": _shapes(arrays)}
    path.write_bytes(_model_file(fields, _data_section(arrays.values())))
    return path


def _split(path):
    """(header line, parsed header, data section) of a model file."""
    raw = Path(path).read_bytes()
    line = raw[: raw.index(b"\n") + 1]
    return line, json.loads(line), raw[len(line) :]


def _parts(path):
    """(header fields but the checksum, name -> array) of a model file, each
    array found from the shapes alone; the last one ends the file."""
    _, doc, section = _split(path)
    arrays, end = {}, 0
    for name in _ARRAYS:
        shape = doc["shapes"][name]
        end += -end % 64
        arrays[name] = np.frombuffer(section, "<f8", math.prod(shape), end).reshape(shape)
        end += 8 * math.prod(shape)
    assert end == len(section)
    del doc["checksum"]
    return doc, arrays


def _op_arrays(op):
    """An operator's arrays in file order, the model's M (its column
    blocks) in the triangle's place."""
    spec, model = op.spec, op.model
    return [
        model.W, spec.inner.frequencies, spec.inner.phases, spec.inner.bandwidth,
        spec.center, spec.projection,
        spec.outer.frequencies, spec.outer.phases, spec.outer.bandwidth, model.M,
    ]


def test_model_format_version_one_refused(ws, tmp_path):
    # versions 1 and 2 held decimal arrays and version 3 base64 arrays, each
    # inside one JSON document; no loader for them remains
    _, data = ws
    line, doc, section = _split(data["model"])
    current = b'"format_version":%d' % MODEL_FORMAT_VERSION
    for version in (1, 2):
        old = tmp_path / f"v{version}.json"
        old.write_bytes(line.replace(current, b'"format_version":%d' % version) + section)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(old)
    payload = {
        name: {"dtype": "<f8", "shape": list(a.shape),
               "data": base64.b64encode(a.tobytes()).decode("ascii")}
        for name, a in _parts(data["model"])[1].items()
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    v3 = tmp_path / "v3.json"
    v3.write_text(json.dumps(
        {"format_version": 3, "checksum": hashlib.sha256(canon.encode()).hexdigest(),
         "payload": payload}, separators=(",", ":")) + "\n")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(v3)


def test_model_format_version_five_refused(tmp_path):
    # version 5 stated each array twice, as a payload record and as an
    # [offset, nbytes] table entry; its files must be retrained
    layout = {
        "format_version": 5,
        "arrays": [[0, 16]],
        "data_bytes": 16,
        "payload": {"weights": {"dtype": "<f8", "shape": [2, 1], "index": 0}},
    }
    v5 = tmp_path / "v5.json"
    v5.write_bytes(_model_file(layout, bytes(16)))
    with pytest.raises(ModelFormatError, match="unsupported model format version 5"):
        load_model(v5)


def test_model_arrays_stored_raw_and_checksummed(ws, tmp_path):
    _, data = ws
    line, doc, section = _split(data["model"])
    assert len(line) % 64 == 0
    D = BASE["num_features"]
    assert doc["shapes"]["triangle"] == [D * (D + 1) // 2]
    # the last array, which ends the file: the factor's lower triangle,
    # column by column
    triangle = _parts(data["model"])[1]["triangle"]
    M = dense_factor(load_model(data["model"]).op.model.M, D)
    np.testing.assert_array_equal(triangle, np.concatenate([M[j:, j] for j in range(D)]))
    assert not np.any(np.triu(M, 1))

    # flip one byte in the middle of the triangle
    pos = len(section) - triangle.nbytes // 2
    edited = tmp_path / "flipped.json"
    edited.write_bytes(line + section[:pos] + bytes([section[pos] ^ 1]) + section[pos + 1 :])
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(edited)


def test_model_header_read_is_bounded(ws, tmp_path, monkeypatch):
    # a first line past the bound is refused before json parses any of it
    _, data = ws
    line, _, section = _split(data["model"])
    parsed = []
    real_loads = json.loads

    def recording_loads(text, *args, **kwargs):
        parsed.append(len(text))
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(cli.json, "loads", recording_loads)
    padded = tmp_path / "padded.json"
    padded.write_bytes(line[:-1] + b" " * cli._HEADER_LIMIT + b"\n" + section)
    one_line = tmp_path / "one_line.json"
    one_line.write_bytes(b"[" + b"0," * cli._HEADER_LIMIT + b"0]")
    for path in (padded, one_line):
        with pytest.raises(ModelFormatError, match="no model header line within"):
            load_model(path)
    assert parsed == []
    load_model(data["model"])
    assert parsed == [len(line)] and len(line) <= cli._HEADER_LIMIT


def test_model_corruption_detected(ws, tmp_path):
    _, data = ws
    line, _, section = _split(data["model"])
    cases = {
        "truncated_data": line + section[:-8],
        "trailing_bytes": line + section + b"\0",
        "truncated_header": line[: len(line) // 2],
        "no_header": section,
        "empty": b"",
    }
    for name, raw in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError):
            load_model(path)

    edited = tmp_path / "edited.json"
    assert b'"n_train":80' in line
    edited.write_bytes(line.replace(b'"n_train":80', b'"n_train":81', 1) + section)
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(edited)

    versioned = tmp_path / "version.json"
    current = b'"format_version":%d' % MODEL_FORMAT_VERSION
    bumped = b'"format_version":%d' % (MODEL_FORMAT_VERSION + 1)
    versioned.write_bytes(line.replace(current, bumped, 1) + section)
    with pytest.raises(ModelFormatError, match="version"):
        load_model(versioned)


def test_model_inconsistent_arrays_refused(ws, tmp_path):
    # checksummed files whose arrays do not fit together are refused on
    # load, not by a numpy error at the first message
    _, data = ws
    fields, arrays = _parts(data["model"])
    D = arrays["weights"].shape[1]
    assert MODEL_FORMAT_VERSION == 6
    forged = {
        "small_triangle": {"triangle": np.ones(15)},
        "flat_triangle": {"triangle": np.ones(D)},
        "scalar_triangle": {"triangle": np.array(1.0)},
        "three_outputs": {"weights": np.zeros((3, D))},
        "one_output": {"weights": np.zeros((1, D))},
        "flat_weights": {"weights": np.zeros(D)},
        "short_phases": {"phases": np.zeros(3)},
        "flat_outer_frequencies": {"outer_frequencies": np.zeros(D)},
    }
    for name, change in forged.items():
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(_forge(tmp_path / f"{name}.json", fields, arrays | change))
    listed = fields | {"metadata": [["n_train_cases", 80]]}
    with pytest.raises(ModelFormatError, match="malformed: metadata is a list"):
        load_model(_forge(tmp_path / "listed.json", listed, arrays))


@pytest.mark.parametrize(
    "name, value",
    [
        ("lambda", True),
        ("lambda", "0.125"),
        ("n_train", 2.7),
        ("seed", "5"),
        ("tau", -1.0),
        ("noise_scale", "nan"),
    ],
)
def test_model_header_scalars_follow_the_numeric_rule(ws, tmp_path, name, value):
    # checksummed headers whose scalars errors.real or errors.integer refuse,
    # or that are not above their floor, are malformed; the same file with
    # the scalar as written loads
    _, data = ws
    fields, arrays = _parts(data["model"])
    load_model(_forge(tmp_path / "as_written.json", fields, arrays))
    path = _forge(tmp_path / "m.json", fields | {name: value}, arrays)
    with pytest.raises(ModelFormatError, match=f"malformed: {name}"):
        load_model(path)


def test_model_triangle_count_must_be_triangular(ws, tmp_path):
    # D (D + 1) / 2 values and one more: the loader names the count before
    # it reads any data
    _, data = ws
    fields, arrays = _parts(data["model"])
    triangle = np.append(arrays["triangle"], 0.0)
    path = _forge(tmp_path / "m.json", fields, arrays | {"triangle": triangle})
    with pytest.raises(ModelFormatError, match=f"malformed: {triangle.size} values are no triangle"):
        load_model(path)


def test_model_shapes_must_give_the_data_section(ws, tmp_path):
    # every offset follows from the shapes, so a data section of another
    # length than theirs is refused before any of it is read
    _, data = ws
    fields, arrays = _parts(data["model"])
    section = _data_section(arrays.values())
    D = arrays["weights"].shape[1]
    wider = fields | {"shapes": fields["shapes"] | {"weights": [2, D + 1]}}
    cases = {
        "longer": (fields, section + bytes(64)),
        "shorter": (fields, section[:-64]),
        "wider_weights": (wider, section),
    }
    for name, (header, data_section) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(_model_file(header, data_section))
        with pytest.raises(ModelFormatError, match="malformed: .* data bytes, shapes give"):
            load_model(path)


@pytest.mark.parametrize("shape", [[True, 40], [2, -40], [2.0, 40], [2, "40"], 80, None])
def test_model_shapes_must_be_lists_of_sizes(ws, tmp_path, shape):
    # a bool, a negative number or a non-integer is no dimension, and every
    # array needs a shape: the loader names the array before it reads data
    _, data = ws
    fields, arrays = _parts(data["model"])
    shapes = fields["shapes"] | {"weights": shape}
    if shape is None:
        del shapes["weights"]
    path = tmp_path / "m.json"
    path.write_bytes(_model_file(fields | {"shapes": shapes}, _data_section(arrays.values())))
    with pytest.raises(ModelFormatError, match="malformed: .*weights"):
        load_model(path)


def test_save_model_refuses_plain_rff_operator():
    # a linear operator on a 2-dim RffSpec, which the model format has no
    # place for, cannot be built in the first place
    rng = np.random.default_rng(5)
    spec = draw_rff(2, 6, 1.0, rng)
    model = fit(rng.normal(size=(6, 10)), rng.normal(size=(2, 10)), 1e-3)
    with pytest.raises(DomainError, match="needs a TwoStageSpec, not a RffSpec"):
        MessageOperator(spec, model)


def _wide_op(width):
    """An operator whose width x width inverse Gram dominates its file."""
    rng = np.random.default_rng(12)
    spec = TwoStageSpec(draw_rff(2, 8, 1.0, rng), np.zeros(8), np.eye(8)[:, :3],
                        draw_rff(3, width, 1.0, rng))
    return MessageOperator(spec, fit(rng.normal(size=(width, 40)), rng.normal(size=(2, 40)), 1e-3))


@pytest.fixture(scope="module")
def wide_op():
    return _wide_op(200)


def _reference_fields(op, seed, tau, metadata):
    """The header fields (all but the checksum) and the arrays save_model
    stores for an operator, the factor as its lower triangle column by
    column."""
    spec, model = op.spec, op.model
    square = dense_factor(folded_factor(model), model.num_features)
    arrays = dict(zip(_ARRAYS, _op_arrays(op)[:-1]))
    arrays["triangle"] = square.T[np.triu_indices(len(square))]
    fields = {
        "format_version": MODEL_FORMAT_VERSION, "seed": seed, "tau": tau,
        "lambda": model.lam, "noise_scale": model.noise_scale, "n_train": model.n_train,
        "shapes": _shapes(arrays), "metadata": metadata,
    }
    return fields, arrays


_TRICKY_TEXT = st.text(
    st.sampled_from('"\\/\n\t\x00\x1f\x7fé 😀a') | st.characters(), max_size=12
)
_METADATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TRICKY_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TRICKY_TEXT, children, max_size=4),
    max_leaves=16,
)


@given(metadata=st.dictionaries(_TRICKY_TEXT, _METADATA, max_size=5))
@example(metadata={"long": '"\\\x01é😀' * 2**15, "x": [1.5, -0.0]})
def test_model_writer_matches_json_dumps(wide_op, metadata):
    # save_model writes the bytes of the json-and-hashlib reference, and the
    # loader gives back every array and every metadata value
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(Path(tmp) / "m.json", wide_op, seed=3, tau=0.25, extra=metadata)
        fields, arrays = _reference_fields(wide_op, 3, 0.25, metadata)
        assert path.read_bytes() == _model_file(fields, _data_section(arrays.values()))
        loaded = load_model(path)
    np.testing.assert_array_equal(loaded.op.model.M, wide_op.model.M)
    np.testing.assert_array_equal(loaded.op.model.W, wide_op.model.W)
    # as text, so that NaN equals NaN
    assert json.dumps(loaded.metadata) == json.dumps(metadata)


def test_model_bytes_repeat_across_saves(wide_op, tmp_path):
    a = save_model(tmp_path / "a.json", wide_op, seed=3, tau=0.25, extra={"k": [1, 2.5]})
    b = save_model(tmp_path / "b.json", wide_op, seed=3, tau=0.25, extra={"k": [1, 2.5]})
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("metadata", [
    {"errors": np.arange(3.0)},  # metadata is plain JSON, with no arrays
    {"counts": {1: "one"}},  # JSON would write the key as "1"
    {"nested": [{"counts": {2.5: "x"}}]},
])
def test_save_model_refuses_metadata_that_would_not_load_back(wide_op, tmp_path, metadata):
    with pytest.raises(TypeError):
        save_model(tmp_path / "m.json", wide_op, seed=1, tau=0.5, extra=metadata)
    assert list(tmp_path.iterdir()) == []


def test_save_model_refuses_a_header_the_loader_would_refuse(wide_op, tmp_path):
    metadata = {"note": "x" * cli._HEADER_LIMIT}
    with pytest.raises(ModelFormatError, match="exceeds"):
        save_model(tmp_path / "m.json", wide_op, seed=1, tau=0.5, extra=metadata)
    assert list(tmp_path.iterdir()) == []


def test_loaded_arrays_are_aligned_read_only_views_of_one_buffer(tmp_path):
    # a 512 x 512 factor: the loaded model holds it as one block (512
    # columns wide, so the square's size), read straight from the file, and
    # everything else as views of one buffer; a packed copy of the triangle
    # or a second copy of any array would overrun the 1 MB allowance below
    D = 512
    path = save_model(tmp_path / "m.json", _wide_op(D), seed=1, tau=0.5)
    before_triangle = len(_split(path)[2]) - 8 * D * (D + 1) // 2
    tracemalloc.start()
    try:
        loaded = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * D * D + before_triangle + 2**20

    def owner(array):
        while isinstance(array.base, np.ndarray):
            array = array.base
        return array

    M = loaded.op.model.M
    assert M.shape == (factor_size(D),) and M.flags.c_contiguous and not M.flags.writeable
    model_arrays = (loaded.op.model.W, M, loaded.op.model.C)
    assert [a.size == D * D for a in model_arrays] == [False, True, False]
    arrays = _op_arrays(loaded.op)
    assert len(arrays) == 10 and arrays[-1] is M
    views = arrays[:-1]
    assert all(a.size < D * D for a in views)
    assert len({id(owner(a)) for a in views}) == 1
    buffer = owner(views[0])
    assert not np.shares_memory(M, buffer)
    for a in views:
        assert not a.flags.writeable
        assert a.ctypes.data % 64 == 0
        assert np.shares_memory(a, buffer)


def test_loaded_model_holds_no_square(tmp_path):
    # at D = 1100 the column blocks hold 870,032 doubles against 1,210,000
    # for the square, so a loader that kept a D x D array would hold more
    # than the bound below
    D = 1100
    path = save_model(tmp_path / "m.json", _wide_op(D), seed=1, tau=0.5)
    tracemalloc.start()
    try:
        model = load_model(path).op.model
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 8 * factor_size(D) <= held < 8 * D * D
    assert all(a.size < D * D for a in (model.W, model.M, model.C))


def _exact_square(D):
    """A D x D lower-triangular factor of exact binary fractions."""
    i, j = np.indices((D, D))
    return np.where(i >= j, ((i - j) % 11 - 5) / 32 + (i == j), 0.0)


def _exact_op(D):
    """An operator whose arrays are all exact binary fractions, with
    _exact_square(D) as its factor, so its model file's bytes depend on the
    writer alone and not on any arithmetic."""
    k = np.arange
    inner = RffSpec((k(16.0).reshape(8, 2) % 5 - 2) / 4, k(8.0) / 8, np.array([0.5, 0.25]))
    outer = RffSpec(
        (k(3.0 * D).reshape(D, 3) % 7 - 3) / 8, k(float(D)) % 16 / 4, np.array([2.0, 1.0, 0.5])
    )
    spec = TwoStageSpec(inner, k(8.0) / 16, np.eye(8)[:, :3], outer)
    W = (k(2.0 * D).reshape(2, D) % 9 - 4) / 16
    return MessageOperator(spec, RidgeModel(W, 0.125, packed_factor(_exact_square(D)), 0.5, 7))


def test_model_file_bytes_are_pinned(tmp_path):
    # D = 600 spans two column blocks, so the writer must give from the
    # blocks the same triangle bytes as from the square: the data section
    # ends with the square's lower triangle, column by column
    D = 600
    path = save_model(tmp_path / "m.json", _exact_op(D), seed=5, tau=0.375,
                      extra={"note": "pinned"})
    raw = path.read_bytes()
    square = _exact_square(D)
    triangle = np.concatenate([square[j:, j] for j in range(D)]).astype("<f8").tobytes()
    assert raw[-len(triangle) :] == triangle
    assert len(raw) == 1472224
    assert hashlib.sha256(raw).hexdigest() == (
        "04e4079c047e8a64988ee474ee12a9f3ab4e00fb094c82b72f61534425106503"
    )
    loaded = load_model(path).op.model
    assert loaded.M.tobytes() == _exact_op(D).model.M.tobytes()


def _modules_exit(*prefixes: str) -> str:
    """Code that exits with the names of the loaded modules under any of
    prefixes, if any."""
    return f"sys.exit(' '.join(m for m in sys.modules if m.startswith({prefixes!r})) or None)"


# SciPy serves training and the carry fold alone, and only as scipy.linalg:
# LAPACK for fits, folds and cross-validation.  The bandwidth medians take
# kernels' own pairwise distances (see test_train_loads_no_scipy_spatial)
_TRAINING_MODULES_EXIT = _modules_exit("scipy")


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def test_importing_the_cli_loads_no_scipy():
    # inference commands never pay for importing SciPy
    result = _run_python("import sys, kernelep.cli; " + _TRAINING_MODULES_EXIT)
    assert result.returncode == 0, result.stderr


def test_ep_run_and_eval_load_no_scipy(pipeline, tmp_path):
    # inference on the acceptance model, the oracle included, runs on NumPy
    # alone: its own special functions and log-sum-exp, and numpy's BLAS
    code = "\n".join([
        "import json, sys",
        "from kernelep.cli import cmd_ep_run, cmd_eval, make_config",
        "data = json.loads(sys.argv[1])",
        "cmd_ep_run(make_config(data, {'out': sys.argv[2]}))",
        "cmd_eval(make_config(data, {'out': sys.argv[3], 'n_test': 20}))",
        _TRAINING_MODULES_EXIT,
    ])
    result = _run_python(
        code, json.dumps(pipeline.data), str(tmp_path / "ep.json"), str(tmp_path / "eval.json")
    )
    assert result.returncode == 0, result.stderr


def test_train_loads_no_scipy_spatial(ws, tmp_path):
    # the bandwidth medians are NumPy code with pdist's bits, so a model
    # trained without scipy.spatial is the fixture's model, byte for byte
    _, data = ws
    code = "\n".join([
        "import json, sys",
        "from kernelep.cli import cmd_train, make_config",
        "cmd_train(make_config(json.loads(sys.argv[1]), {'out': sys.argv[2]}))",
        _modules_exit("scipy.spatial"),
    ])
    result = _run_python(code, json.dumps(data), str(tmp_path / "model.json"))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "model.json").read_bytes() == Path(data["model"]).read_bytes()


def test_model_round_trip_keeps_every_array_bit_for_bit(wide_op, tmp_path):
    metadata = {"k": [0.5, 1e-300, None]}
    path = save_model(tmp_path / "m.json", wide_op, seed=3, tau=0.25, extra=metadata)
    loaded = load_model(path)
    for got, want in zip(_op_arrays(loaded.op), _op_arrays(wide_op)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (loaded.seed, loaded.tau, loaded.metadata) == (3, 0.25, metadata)
    model = loaded.op.model
    assert not np.any(np.triu(dense_factor(model.M, model.num_features), 1))
    assert (model.lam, model.noise_scale, model.n_train) == (
        wide_op.model.lam, wide_op.model.noise_scale, wide_op.model.n_train
    )


def test_model_format_version_four_refused(wide_op, tmp_path):
    # version 4 stored the explicit D x D inverse Gram under `a_inv`
    model = wide_op.model
    fields, arrays = _reference_fields(wide_op, 3, 0.25, {})
    del arrays["triangle"]
    M = dense_factor(model.M, model.num_features)
    arrays["a_inv"] = M.T @ M
    v4 = tmp_path / "v4.json"
    v4.write_bytes(_model_file(fields | {"format_version": 4}, _data_section(arrays.values())))
    with pytest.raises(ModelFormatError, match="unsupported model format version 4"):
        load_model(v4)


def test_model_carrying_rows_is_saved_folded(wide_op, tmp_path):
    rng = np.random.default_rng(13)
    D = wide_op.model.num_features
    model = wide_op.model
    for _ in range(5):
        model = update_online(model, rng.normal(size=D), rng.normal(size=2))
    assert len(model.C) == 5
    path = save_model(tmp_path / "m.json", MessageOperator(wide_op.spec, model), seed=1, tau=0.5)
    loaded = load_model(path).op.model
    assert len(loaded.C) == 0
    assert loaded.M.tobytes() == folded_factor(model).tobytes()
    np.testing.assert_array_equal(loaded.W, model.W)
    probes = rng.normal(size=(D, 8))
    in_memory = predictive_variance(model, probes)
    np.testing.assert_allclose(predictive_variance(loaded, probes), in_memory, rtol=1e-10, atol=0)
    for probe, expected in zip(probes.T, in_memory):
        assert abs(predictive_variance(loaded, probe) - expected) <= 1e-10 * expected


def test_save_model_failure_keeps_previous_file(wide_op, tmp_path, monkeypatch):
    target = save_model(tmp_path / "model.json", wide_op, seed=1, tau=0.5)
    before = target.read_bytes()
    pieces = cli._data_pieces
    passes = []

    def disk_full(arrays, table):
        # the checksum pass runs whole; the write fails part-way
        passes.append(None)
        for i, piece in enumerate(pieces(arrays, table)):
            if len(passes) == 2 and i == 4:
                raise OSError(errno.ENOSPC, "No space left on device")
            yield piece

    monkeypatch.setattr(cli, "_data_pieces", disk_full)
    with pytest.raises(OSError, match="No space"):
        save_model(target, wide_op, seed=2, tau=0.5)
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]


def _disk_full(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


def _then_disk_full(items):
    yield from items
    _disk_full()


@pytest.mark.parametrize("kind, fail", [
    ("dataset", "stream"), ("dataset", "replace"), ("report", "replace")
])
def test_dataset_and_report_write_failure_keeps_previous_file(
    ws, tmp_path, monkeypatch, kind, fail
):
    pairs = load_dataset(ws[1]["dataset"])
    if kind == "dataset":
        target = save_dataset(tmp_path / "data.csv", pairs[:3])
        # rows stream into the file, so a failing stream fails the write part-way
        new = _then_disk_full(pairs[3:9]) if fail == "stream" else pairs[3:9]
        write = lambda: save_dataset(target, new)
    else:
        target = cli._write_json(tmp_path / "report.json", {"n_test": 3})
        write = lambda: cli._write_json(target, {"n_test": 6, "ess": [p.ess for p in pairs]})
    before = target.read_bytes()
    if fail == "replace":
        monkeypatch.setattr(cli.os, "replace", _disk_full)
    with pytest.raises(OSError, match="No space"):
        write()
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]


# ---------------------------------------------------------------------------
# eval


def test_eval_report_invariants(ws):
    root, data = ws
    out = cmd_eval(make_config(data, {"out": str(root / "report.json")}))
    report = json.loads(out.read_text())
    assert report["n_test"] == BASE["n_test"]
    assert report["n_included"] == report["n_test"] - report["n_excluded"]
    hist = report["histogram"]
    assert len(hist["log10_kl_bin_edges"]) == 21
    assert len(hist["counts"]) == 20
    assert sum(hist["counts"]) == report["n_included"]
    rows = load_eval_cases(root / "report.cases.csv")
    assert len(rows) == BASE["n_test"]
    assert [r["case_id"] for r in rows] == list(range(BASE["n_test"]))
    floor_columns = ("floor_mean", "floor_log_variance", "floor_kl")
    for r in rows:
        if r["excluded"]:
            assert math.isnan(r["kl"])
            assert all(math.isnan(r[c]) for c in floor_columns)
        else:
            assert r["kl"] >= 0.0
            assert r["ess"] > 0.0
        # a second run that degenerates leaves all three floor columns nan
        assert len({math.isnan(r[c]) for c in floor_columns}) == 1
    assert sum(r["excluded"] for r in rows) == report["n_excluded"]
    # the floor counts a case only when both oracle runs pass the ESS floor
    floor = report["floor"]
    assert set(floor) == {"n_included", "kl_summary", "histogram"}
    assert floor["n_included"] == sum(not math.isnan(r["floor_kl"]) for r in rows)
    assert floor["n_included"] <= report["n_included"]
    assert sum(floor["histogram"]["counts"]) == floor["n_included"]
    assert len(floor["histogram"]["log10_kl_bin_edges"]) == 21


def test_eval_floor_sits_at_noise_floor(ws, tmp_path):
    _, data = ws
    out = cmd_eval(make_config(data, {"out": str(tmp_path / "report.json")}))
    floor = json.loads(out.read_text())["floor"]
    cases = load_eval_cases(tmp_path / "report.cases.csv")
    rows = [r for r in cases if not math.isnan(r["floor_kl"])]
    kls = [r["floor_kl"] for r in rows]
    assert all(k >= 0.0 for k in kls)
    assert floor["kl_summary"]["median"] == float(np.median(kls)) < 0.05
    assert floor["kl_summary"]["max"] == max(kls) < 1.0
    # two independent oracle runs, and neither is the operator
    assert all(r["floor_kl"] != r["kl"] for r in rows)
    assert any(r["floor_mean"] != r["oracle_mean"] for r in rows)
    # a rerun draws the same cases and the same second runs
    cmd_eval(make_config(data, {"out": str(tmp_path / "rerun.json")}))
    rerun = load_eval_cases(tmp_path / "rerun.cases.csv")
    for key in ("mx_mean", "mz_alpha", "floor_mean", "floor_kl"):
        assert np.array_equal([r[key] for r in rerun], [r[key] for r in cases], equal_nan=True)


def test_eval_rerun_byte_identical(ws, tmp_path):
    _, data = ws
    a = cmd_eval(make_config(data, {"out": str(tmp_path / "a.json")}))
    b = cmd_eval(make_config(data, {"out": str(tmp_path / "b.json")}))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.cases.csv").read_bytes() == (tmp_path / "b.cases.csv").read_bytes()


# ---------------------------------------------------------------------------
# ep-run


def test_ep_run_demo_graph(ws, ep_doc):
    root, _ = ws
    for mode in ("oracle", "operator"):
        assert ep_doc[mode]["converged"] is True
        assert ep_doc[mode]["status"] == "converged"
        assert ep_doc[mode]["iterations"] <= 200
    z1 = ep_doc["oracle"]["marginals"]["z1"]
    assert z1 == {"family": "beta", "alpha": 5.0, "beta": 2.0}
    kl = ep_doc["kl_oracle_vs_operator"]
    assert kl["x"] >= 0.0
    assert kl["z1"] == 0.0 and kl["z2"] == 0.0 and kl["z3"] == 0.0
    side = json.loads((root / "ep.json.timings.json").read_text())
    assert "oracle" in side["oracle"]["per_kind"]
    assert "operator" in side["operator"]["per_kind"]
    oracle_p50 = side["oracle"]["per_kind"]["oracle"]["per_message_ms_p50"]
    operator_p50 = side["operator"]["per_kind"]["operator"]["per_message_ms_p50"]
    assert side["logistic_per_message_speedup"] == oracle_p50 / operator_p50 > 0


def test_ep_run_prior_only_graph(ws, tmp_path):
    _, data = ws
    graph = demo_graph(observations=())
    save_graph(tmp_path / "prior.json", graph)
    # undamped: the single prior message lands exactly in one sweep; any
    # damping below 1 only approaches it geometrically to within tol
    out = cmd_ep_run(
        make_config(
            dict(data, damping={"delta": 1.0}),
            {"graph": str(tmp_path / "prior.json"), "out": str(tmp_path / "ep.json")},
        )
    )
    doc = json.loads(out.read_text())
    for mode in ("oracle", "operator"):
        assert doc[mode]["converged"] is True
        assert doc[mode]["marginals"]["x"] == {
            "family": "gaussian",
            "mean": 0.0,
            "variance": 2.0,
        }
    assert doc["kl_oracle_vs_operator"]["x"] == 0.0


def test_ep_run_rerun_byte_identical(ws, tmp_path):
    _, data = ws
    a = cmd_ep_run(make_config(data, {"out": str(tmp_path / "a.json")}))
    b = cmd_ep_run(make_config(data, {"out": str(tmp_path / "b.json")}))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# active-run


def test_active_run_loads_neither_scipy_special_nor_spatial(ws, tmp_path):
    # queries and the online updates need no SciPy; only saving the updated
    # model may load scipy.linalg, to fold the carry rows
    _, data = ws
    code = "\n".join([
        "import json, sys",
        "from kernelep.cli import cmd_active_run, make_config",
        "data = json.loads(sys.argv[1])",
        "cmd_active_run(make_config(data, {'out': sys.argv[2], 'tau': 1e-12, 'budget': 2}))",
        _modules_exit("scipy.special", "scipy.spatial"),
    ])
    result = _run_python(code, json.dumps(data), str(tmp_path / "active.json"))
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "active.json").read_text())["queries"] == 2


@pytest.mark.parametrize("observation, reason", [
    ((1e5, 1e5), r"Beta\(100000\.0, 100000\.0\) quadrature did not converge"),
    ((1e308, 2.0), r"log B\(1e\+308, 2\.0\) overflows"),
])
def test_active_run_refuses_a_beta_it_cannot_integrate_on_one_line(
    ws, tmp_path, capsys, observation, reason
):
    # a Beta too sharp for the quadrature, and one whose log B overflows
    _, data = ws
    save_graph(tmp_path / "g.json", demo_graph([observation, (4.0, 3.0)]))
    argv = ["active-run", "--model", data["model"], "--graph", str(tmp_path / "g.json"),
            "--budget", "0", "--out", str(tmp_path / "active.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert re.search(reason, err)
    assert not (tmp_path / "active.json").exists()


def test_active_run_huge_tau_matches_operator_mode(ws, ep_doc, tmp_path):
    _, data = ws
    out = cmd_active_run(
        make_config(data, {"out": str(tmp_path / "active.json"), "tau": 1e9})
    )
    doc = json.loads(out.read_text())
    assert doc["queries"] == 0
    assert doc["query_log"] == []
    assert doc["marginals"] == ep_doc["operator"]["marginals"]
    assert doc["iterations"] == ep_doc["operator"]["iterations"]


def test_active_run_budget_and_updated_model(ws, tmp_path):
    _, data = ws
    out = cmd_active_run(
        make_config(
            data,
            {"out": str(tmp_path / "active.json"), "tau": 1e-12, "budget": 4},
        )
    )
    doc = json.loads(out.read_text())
    assert doc["queries"] == 4
    log = doc["query_log"]
    assert [e["action"] for e in log[:4]] == ["query"] * 4
    assert all(e["action"] == "fallback" for e in log[4:])
    assert len(log) > 4  # budget ran out before the run finished
    assert all(e["tau"] == 1e-12 for e in log)
    updated = load_model(tmp_path / "active.model.json")
    assert updated.op.model.n_train == BASE["n_train"] + 4
    assert updated.metadata["queries_absorbed"] == 4
    # the carried-over metadata keeps CV's fold errors: (grid points x
    # folds) nested lists of floats, exact through their decimal text
    errors = load_model(data["model"]).metadata["cv_fold_errors"]
    assert np.shape(errors) == (9, BASE["cv"]["folds"])
    assert updated.metadata["cv_fold_errors"] == errors


def test_active_run_variance_decreases_without_cavity_drift(ws, tmp_path):
    # single logistic factor and undamped sweeps keep the factor's incoming
    # context constant, isolating the absorb effect: repeat queries on the
    # same edge must see strictly smaller predictive variance
    _, data = ws
    save_graph(tmp_path / "single.json", demo_graph(observations=((5.0, 2.0),)))
    out = cmd_active_run(
        make_config(
            dict(data, damping={"delta": 1.0}),
            {
                "graph": str(tmp_path / "single.json"),
                "out": str(tmp_path / "active.json"),
                "tau": 1e-12,
                "budget": 50,
            },
        )
    )
    doc = json.loads(out.read_text())
    variances = [e["variance"] for e in doc["query_log"] if e["action"] == "query"]
    assert len(variances) >= 2
    assert all(b < a for a, b in zip(variances, variances[1:]))


def test_active_run_rerun_byte_identical(ws, tmp_path):
    _, data = ws
    paths = []
    for name in ("a", "b"):
        out = cmd_active_run(
            make_config(
                data,
                {"out": str(tmp_path / f"{name}.json"), "tau": 1e-12, "budget": 6},
            )
        )
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (tmp_path / "a.model.json").read_bytes() == (tmp_path / "b.model.json").read_bytes()


# ---------------------------------------------------------------------------
# graphs, config, entry point


def test_graph_roundtrip(tmp_path):
    graph = demo_graph()
    save_graph(tmp_path / "g.json", graph)
    loaded = load_graph(tmp_path / "g.json")
    assert [v.id for v in loaded.variables] == [v.id for v in graph.variables]
    assert [f.kind for f in loaded.factors] == [f.kind for f in graph.factors]
    assert loaded.factors[0].params == {"mean": 0.0, "variance": 2.0}
    assert set(loaded.observations) == set(graph.observations)
    assert loaded.observations["z1"].alpha == 5.0

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(GraphFormatError):
        load_graph(bad)
    bad.write_text(json.dumps({"variables": [{"id": "x"}], "factors": []}))
    with pytest.raises(GraphFormatError):
        load_graph(bad)


@pytest.mark.parametrize("section", ["observations", "params"])
def test_ep_run_refuses_a_graph_section_that_is_not_an_object(ws, tmp_path, capsys, section):
    _, data = ws
    doc = json.loads(save_graph(tmp_path / "g.json", demo_graph()).read_text())
    if section == "observations":
        doc["observations"] = list(doc["observations"].values())
    else:
        doc["factors"][0]["params"] = list(doc["factors"][0]["params"].values())
    (tmp_path / "g.json").write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError, match="bad graph structure"):
        load_graph(tmp_path / "g.json")
    argv = ["ep-run", "--model", data["model"], "--graph", str(tmp_path / "g.json")]
    assert main([*argv, "--out", str(tmp_path / "ep.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad graph structure") and err.count("\n") == 1


def _load_edited_graph(tmp_path, edit):
    """load_graph of demo_graph's saved document after edit(doc)."""
    path = save_graph(tmp_path / "g.json", demo_graph())
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return load_graph(path)


@pytest.mark.parametrize("section, key, value", [
    ("variables", "id", 7),
    ("variables", "family", None),
    ("factors", "id", 1.5),
    ("factors", "kind", ["logistic"]),
])
def test_graph_ids_kinds_and_families_must_be_strings(tmp_path, section, key, value):
    def edit(doc):
        doc[section][1][key] = value

    field = re.escape(f"{section}[1].{key}")
    with pytest.raises(GraphFormatError, match=rf"^{field} must be a JSON string"):
        _load_edited_graph(tmp_path, edit)


@pytest.mark.parametrize("neighbors, field", [
    ("x", "factors[1].neighbors"),
    ("xz1", "factors[1].neighbors"),
    ({"x": 0}, "factors[1].neighbors"),
    (["x", 1], "factors[1].neighbors[1]"),
])
def test_graph_neighbors_must_be_a_list_of_strings(tmp_path, neighbors, field):
    # a string would otherwise be split into one-letter variables
    def edit(doc):
        doc["factors"][1]["neighbors"] = neighbors

    with pytest.raises(GraphFormatError, match=rf"^{re.escape(field)} must be a JSON"):
        _load_edited_graph(tmp_path, edit)


@pytest.mark.parametrize("value", [True, "1e0", None, [2.0]])
@pytest.mark.parametrize("field", ["factors[0].params.variance", "observations.z2.beta"])
def test_graph_params_and_observation_shapes_must_be_numbers(tmp_path, field, value):
    def put(doc, v):
        if field.startswith("factors"):
            doc["factors"][0]["params"]["variance"] = v
        else:
            doc["observations"]["z2"]["beta"] = v

    # a JSON integer is a number
    graph = _load_edited_graph(tmp_path, lambda doc: put(doc, 3))
    if field.startswith("factors"):
        assert graph.factors[0].params["variance"] == 3.0
    else:
        assert graph.observations["z2"].beta == 3.0
    with pytest.raises(GraphFormatError, match=rf"^{re.escape(field)} must be a JSON number"):
        _load_edited_graph(tmp_path, lambda doc: put(doc, value))


@pytest.mark.parametrize("key, value", [("variance", None), ("mean", None), ("mean", math.nan)])
def test_ep_run_refuses_a_graph_with_a_bad_parameter(ws, tmp_path, capsys, key, value):
    _, data = ws
    doc = json.loads(save_graph(tmp_path / "g.json", demo_graph()).read_text())
    params = doc["factors"][0]["params"]
    if value is None:
        del params[key]
    else:
        params[key] = value
    (tmp_path / "g.json").write_text(json.dumps(doc))
    out = tmp_path / "ep.json"
    argv = ["ep-run", "--model", data["model"], "--graph", str(tmp_path / "g.json")]
    assert main([*argv, "--out", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_make_config_merge_and_validation():
    assert make_config({"seed": 1}, {"seed": 2}).seed == 2
    assert make_config({"seed": 1}, {"seed": None}).seed == 1
    config = make_config({"damping": {"delta": 0.25}})
    assert config.damping.delta == 0.25 and config.damping.max_iters == 200
    with pytest.raises(ConfigError):
        make_config({"bogus_key": 1})
    with pytest.raises(ConfigError):
        make_config({"n_train": 0})
    # the oracle's floor: a smaller sample would fail only after the inputs load
    with pytest.raises(ConfigError, match="n_importance"):
        make_config({"n_importance": 99})
    assert make_config({"n_importance": 100}).n_importance == 100
    with pytest.raises(ConfigError):
        make_config({"feature_kind": "spline"})
    with pytest.raises(ConfigError):
        make_config({"tau": -1.0})
    with pytest.raises(ConfigError):
        make_config({"prior": {"mean": [3]}})
    with pytest.raises(ConfigError):
        make_config({"dataset": ""})
    # built directly, RunConfig holds its numbers to the same rule
    for bad in ({"n_train": "5"}, {"n_jobs": 2.5}, {"budget": True}, {"tau": math.inf}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            RunConfig(**bad)


def test_negative_seed_refused(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        make_config({"seed": -1})
    # SeedSequence would refuse it later with a raw ValueError
    out = tmp_path / "d.csv"
    argv = ["gen-data", "--n-train", "2", "--n-importance", "500", "--out", str(out)]
    assert main([*argv, "--seed", "-1"]) == 1
    assert not out.exists()
    assert main([*argv, "--seed", "0"]) == 0


@pytest.mark.parametrize(
    "key, value",
    [
        ("out", None),  # str(None) is the path "None"
        ("model", 3),
        ("n_train", 2.7),  # int(2.7) truncates to 2
        ("seed", True),  # int(True) reads as 1
        ("budget", "many"),
    ],
)
def test_scalar_parsers_refuse_values_of_another_type(key, value):
    with pytest.raises(ConfigError, match=key):
        make_config({key: value})


@pytest.mark.parametrize(
    "data, label",
    [
        ({"tau": True}, "tau"),
        ({"damping": {"delta": True}}, "damping.delta"),
        ({"damping": {"tol": False}}, "damping.tol"),
        ({"cv": {"lambdas": [True]}}, "cv.lambdas"),
        ({"cv": {"multipliers": [1.0, True]}}, "cv.multipliers"),
        ({"cv": {"lambdas": "12"}}, "cv.lambdas"),  # a string is not a list
        ({"prior": {"mean": [True, 1.0]}}, "prior.mean"),
        ({"prior": {"log_variance": [0.0, True]}}, "prior.log_variance"),
        ({"prior": {"alpha": [True, 2.0]}}, "prior.alpha"),
        ({"prior": {"beta": [1.0, False]}}, "prior.beta"),
    ],
)
def test_float_parsers_refuse_booleans(data, label):
    # float(True) reads as 1.0
    with pytest.raises(ConfigError, match=label):
        make_config(data)


def test_float_keys_still_parse_integers_and_numeric_strings():
    config = make_config(
        {"tau": 1, "damping": {"delta": 0.25, "tol": "1e-4"}, "cv": {"lambdas": [1, 0.5]}}
    )
    assert (config.tau, config.damping.delta, config.damping.tol) == (1.0, 0.25, 1e-4)
    assert config.lambdas == (1.0, 0.5)


def test_integer_flags_still_parse_from_strings():
    config = cli._args_config(build_parser().parse_args(["train", "--seed", "7", "--budget", "0"]))
    assert (config.seed, config.budget) == (7, 0)
    assert make_config({"cv": {"folds": 3}, "damping": {"max_iters": 4}}).folds == 3
    for section, key in (("cv", "folds"), ("damping", "max_iters")):
        with pytest.raises(ConfigError, match=key):
            make_config({section: {key: 2.5}})


@pytest.mark.parametrize("key", ["multipliers", "lambdas"])
def test_cv_grid_values_must_be_finite_and_positive(key):
    # JSON reads 1e400 as inf
    data = json.loads('{"cv": {"%s": [1.0, 1e400]}}' % key)
    with pytest.raises(ConfigError, match=key):
        make_config(data)
    for value in (float("nan"), 0.0, -1.0):
        with pytest.raises(ConfigError, match=key):
            make_config({"cv": {key: [1.0, value]}})
    assert getattr(make_config({"cv": {key: [0.5, 2.0]}}), key) == (0.5, 2.0)


def test_every_scalar_key_reads_alike_from_file_and_flag(tmp_path):
    # a non-default value for each parser, valid for each of its keys (700
    # clears the importance-sample floor), as a JSON value and as a flag
    examples = {cli._int: 700, cli._str: "elsewhere.json", cli._optional_float: 0.25}
    parser = build_parser()
    for key, (parse, _) in cli._SCALARS.items():
        value = examples[parse]
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: value}))
        flag = ["--" + key.replace("_", "-"), str(value)]
        from_file = cli._args_config(parser.parse_args(["train", "--config", str(cfg)]))
        from_flag = cli._args_config(parser.parse_args(["train", *flag]))
        assert from_file == from_flag != RunConfig(), key
        assert getattr(from_flag, key) == value, key


def test_parser_options_are_the_scalar_table():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    expected = {"--config"} | {"--" + key.replace("_", "-") for key in cli._SCALARS}
    assert set(commands.choices) == {"gen-data", "train", "eval", "ep-run", "active-run"}
    for name, sub in commands.choices.items():
        options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == expected, name


def test_every_run_config_field_is_reachable():
    reachable = set(cli._SCALARS)
    for name, (build, keys) in cli._SECTIONS.items():
        targets = {target for target, _ in keys.values()}
        if build is None:
            reachable |= targets
        else:
            reachable.add(name)
            assert targets == {f.name for f in dataclasses.fields(build)}, name
    assert reachable == {f.name for f in dataclasses.fields(RunConfig)}


def test_main_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--feature-kind", "spline"])
    assert exc.value.code == 2

    ok = main(
        ["gen-data", "--seed", "3", "--n-train", "2", "--n-importance", "500",
         "--out", str(tmp_path / "d.csv")]
    )
    assert ok == 0
    assert (tmp_path / "d.csv").exists()

    assert main(["train", "--dataset", str(tmp_path / "missing.csv")]) == 1

    noise = tmp_path / "noise.json"
    noise.write_text("not a model")
    assert main(["eval", "--model", str(noise)]) == 1

    badcfg = tmp_path / "bad.json"
    badcfg.write_text("{{{")
    assert main(["gen-data", "--config", str(badcfg)]) == 1
    badcfg.write_text(json.dumps({"bogus": 1}))
    assert main(["gen-data", "--config", str(badcfg)]) == 1


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (10, 10)"),
     "error: Unable to allocate 7.28 TiB for an array with shape (10, 10)\n"),
    (MemoryError(), "error: MemoryError\n"),
])
def test_main_reports_running_out_of_memory_on_one_line(tmp_path, capsys, monkeypatch, error, line):
    # the command raises as numpy does when an allocation fails; nothing is
    # allocated for real
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "gen_training_set", exhausted)
    argv = ["gen-data", "--n-train", "2", "--n-importance", "500", "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == line
    assert not (tmp_path / "d.csv").exists()


# each text input with a Latin-1 byte where UTF-8 needs a continuation byte
_NOT_UTF8 = {
    "config": (load_config_file, ConfigError, b'{"dataset": "donn\xe9es.csv"}\n'),
    "dataset": (load_dataset, DatasetFormatError, DATASET_HEADER.encode() + b"\n0,caf\xe9\n"),
    "eval cases": (
        load_eval_cases, DatasetFormatError, EVAL_CASES_HEADER.encode() + b"\n0,caf\xe9\n"
    ),
    "graph": (load_graph, GraphFormatError, b'{"variables": [{"id": "\xe9"}]}\n'),
}


@pytest.mark.parametrize("kind", sorted(_NOT_UTF8))
def test_inputs_that_are_not_utf8_raise_their_format_error(tmp_path, kind):
    load, error, text = _NOT_UTF8[kind]
    (tmp_path / "in").write_bytes(text)
    with pytest.raises(error, match="is not UTF-8 text"):
        load(tmp_path / "in")


@pytest.mark.parametrize("kind, argv", [
    ("config", ["gen-data", "--config"]),
    ("dataset", ["train", "--dataset"]),
    ("graph", ["ep-run", "--model", "{model}", "--graph"]),
])
def test_main_reports_an_input_that_is_not_utf8_on_one_line(ws, tmp_path, capsys, kind, argv):
    (tmp_path / "in").write_bytes(_NOT_UTF8[kind][2])
    argv = [arg.format(model=ws[1]["model"]) for arg in argv]
    assert main([*argv, str(tmp_path / "in"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not UTF-8 text" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_feature_kind_option_removed():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--feature-kind", "product"])
    assert exc.value.code == 2
    with pytest.raises(ConfigError, match="unknown config keys"):
        make_config({"feature_kind": "joint"})


def test_main_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "n_train": 5, "n_importance": 600}))
    assert main(["gen-data", "--config", str(cfg), "--seed", "9",
                 "--out", str(tmp_path / "flag.csv")]) == 0
    assert main(["gen-data", "--seed", "9", "--n-train", "5", "--n-importance", "600",
                 "--out", str(tmp_path / "pure.csv")]) == 0
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "pure.csv").read_bytes()


def _inputs_in(tmp_path, ws) -> dict:
    """Copies of the workspace's dataset, model and graph, a small config
    file and a symlink to the model, under tmp_path: name -> bytes."""
    root, _ = ws
    for name in ("data.csv", "model.json", "graph.json"):
        shutil.copy(root / name, tmp_path / name)
    settings = {"n_train": 5, "n_test": 3, "n_importance": 200, "num_features": 10, "budget": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(settings))
    (tmp_path / "link.json").symlink_to(tmp_path / "model.json")
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


@pytest.mark.parametrize("argv", [
    ["active-run", "--model", "model.json", "--graph", "graph.json", "--out", "model.json"],
    ["active-run", "--model", "model.json", "--graph", "graph.json", "--out", "link.json"],
    ["active-run", "--model", "model.json", "--graph", "graph.json",
     "--out", "x.json", "--model-out", "x.json"],
    ["active-run", "--model", "model.json", "--graph", "graph.json",
     "--out", "x.json", "--model-out", "x.json.timings.json"],
    ["active-run", "--model", "model.json", "--graph", "graph.json", "--model-out", "graph.json"],
    ["active-run", "--model", "model.json", "--graph", "graph.json", "--model-out", "cfg.json"],
    ["ep-run", "--model", "model.json", "--graph", "graph.json", "--out", "graph.json"],
    ["ep-run", "--model", "model.json", "--graph", "graph.json", "--out", "./sub/../model.json"],
    ["eval", "--model", "model.json", "--out", "model.json"],
    ["eval", "--model", "model.json", "--out", "cfg.json"],
    ["eval", "--model", "data.cases.csv", "--out", "data.json"],
    ["train", "--dataset", "data.csv", "--out", "data.csv"],
    ["train", "--dataset", "data.csv", "--out", "cfg.json"],
    ["gen-data", "--out", "cfg.json"],
    ["gen-data", "--dataset", "cfg.json"],
])
def test_commands_refuse_outputs_that_replace_inputs_or_each_other(
    ws, tmp_path, monkeypatch, capsys, argv
):
    # every input is real and small, so a command that did not refuse would
    # run to the end and write over it
    shutil.copy(ws[0] / "model.json", tmp_path / "data.cases.csv")
    before = _inputs_in(tmp_path, ws)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_an_output_path_on_a_symlink_loop_is_checked_and_written(ws, tmp_path, monkeypatch):
    # Path.resolve raises on a loop; the check compares real paths, and
    # the atomic rename replaces the link itself
    _inputs_in(tmp_path, ws)
    (tmp_path / "loop_a").symlink_to(tmp_path / "loop_b")
    (tmp_path / "loop_b").symlink_to(tmp_path / "loop_a")
    monkeypatch.chdir(tmp_path)
    argv = ["ep-run", "--model", "model.json", "--graph", "graph.json", "--config", "cfg.json"]
    assert main([*argv, "--out", "loop_a"]) == 0
    assert "operator" in json.loads(Path("loop_a").read_text())


def test_active_run_may_update_its_model_in_place(ws, tmp_path, monkeypatch):
    _inputs_in(tmp_path, ws)
    monkeypatch.chdir(tmp_path)
    argv = ["active-run", "--model", "model.json", "--graph", "graph.json", "--tau", "1e-12"]
    assert main([*argv, "--config", "cfg.json", "--model-out", "model.json"]) == 0
    assert load_model("model.json").metadata["queries_absorbed"] == 1
    assert json.loads(Path("active_run.json").read_text())["queries"] == 1


@pytest.mark.parametrize("command", ["gen-data", "eval"])
def test_a_prior_box_the_quadrature_cannot_integrate_is_refused_before_the_oracle(
    ws, tmp_path, monkeypatch, capsys, command
):
    # an alpha of 0.05 puts about a fifth of a Beta's mass below the
    # smallest node, so train would fail on every dataset from this box
    def unreachable(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "gen_training_set", unreachable)
    monkeypatch.setattr(cli, "oracle_to_x", unreachable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prior": {"alpha": [0.05, 10.0]}, "n_train": 5, "n_test": 3}))
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(cfg), "--model", ws[1]["model"], "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: prior box corner Beta(0.05, 1.0) cannot be integrated")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
