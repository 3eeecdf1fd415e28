"""File formats: sparse/dense matrices, models, splits, manifests.

All writers are atomic (temp file + rename) and produce deterministic bytes
for identical inputs; floats are serialized with repr, so every write→read
round-trip is exact.  All readers reject non-finite values and report the
offending line.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np
import scipy.sparse as sp

from .core import (
    FactorModel,
    Hyperparams,
    TagCompleteError,
    TaggingMatrix,
    ValidationError,
)
from .metrics import EvalSplit

MATRIX_HEADER = "%%MatrixMarket matrix coordinate real general"
MODEL_FORMAT = "tagcomplete-model"
SPLIT_FORMAT = "tagcomplete-split"
MANIFEST_FORMAT = "tagcomplete-manifest"
SUPPORTED_VERSIONS = (1,)


class ParseError(TagCompleteError, ValueError):
    """A file failed to parse; the message carries path and line number."""


def _fail(path, line_no, message):
    raise ParseError(f"{path}:{line_no}: {message}")


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a sibling temp file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_sparse_matrix(path) -> sp.csr_matrix:
    """Parse a MatrixMarket coordinate file (1-based indices).

    Duplicate entries are summed.  Malformed headers, short/long entry lists,
    out-of-range indices, non-numeric or non-finite values all raise
    ParseError naming the line.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        _fail(path, 1, "empty file, expected MatrixMarket header")
    if lines[0].strip().lower().split() != MATRIX_HEADER.lower().split():
        _fail(path, 1, f"bad header {lines[0].strip()!r}, expected {MATRIX_HEADER!r}")

    # (line number, text) of every line after the header but blank and % ones
    content = [
        (line_no, text)
        for line_no, text in enumerate(map(str.strip, lines[1:]), start=2)
        if text and not text.startswith("%")
    ]
    if not content:
        _fail(path, len(lines), "missing size line")
    line_no, text = content[0]
    parts = text.split()
    if len(parts) != 3:
        _fail(path, line_no, f"size line needs 3 fields, got {len(parts)}")
    try:
        n, m, nnz = (int(p) for p in parts)
    except ValueError:
        _fail(path, line_no, f"non-integer size line {text!r}")
    if n < 0 or m < 0 or nnz < 0:
        _fail(path, line_no, "matrix dimensions must be non-negative")

    # collected as parsed: the declared count sizes nothing before it is checked
    rows, cols, vals = [], [], []
    for line_no, text in content[1:]:
        if len(vals) >= nnz:
            _fail(path, line_no, f"more than the declared {nnz} entries")
        parts = text.split()
        if len(parts) != 3:
            _fail(path, line_no, f"entry needs 3 fields, got {len(parts)}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            _fail(path, line_no, f"non-numeric entry {text!r}")
        if not (1 <= i <= n and 1 <= j <= m):
            _fail(path, line_no, f"index ({i}, {j}) outside {n}x{m} matrix")
        if not np.isfinite(v):
            _fail(path, line_no, f"non-finite value {parts[2]!r}")
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
    if len(vals) != nnz:
        _fail(path, len(lines), f"declared {nnz} entries but found {len(vals)}")
    # tocsr sums duplicates and sorts indices
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, m)).tocsr()


def write_sparse_matrix(path, matrix) -> None:
    """Write in MatrixMarket coordinate format, entries in row-major order."""
    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.sort_indices()
    coo = csr.tocoo()
    out = [MATRIX_HEADER, f"{csr.shape[0]} {csr.shape[1]} {coo.nnz}"]
    for i, j, v in zip(coo.row, coo.col, coo.data):
        out.append(f"{i + 1} {j + 1} {float(v)!r}")
    atomic_write_text(path, "\n".join(out) + "\n")


def read_dense_matrix(path) -> np.ndarray:
    """Parse a CSV matrix, one row per line; a non-numeric first line is
    treated as a header and skipped.  Ragged rows and non-finite values raise
    ParseError naming the line."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    content = [
        (idx + 1, line.strip()) for idx, line in enumerate(lines) if line.strip()
    ]
    if not content:
        _fail(path, 1, "empty file")

    def parse_row(line_no, text):
        cells = [c.strip() for c in text.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError:
            return None
        if not all(map(math.isfinite, row)):
            c = next(c for c, v in zip(cells, row) if not math.isfinite(v))
            _fail(path, line_no, f"non-finite value {c!r}")
        return row

    first = parse_row(*content[0])
    start = 0 if first is not None else 1
    if first is None and len(content) == 1:
        _fail(path, content[0][0], "no numeric rows after header")
    rows = []
    width = None
    for line_no, text in content[start:]:
        row = parse_row(line_no, text)
        if row is None:
            _fail(path, line_no, f"non-numeric cell in {text!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(
                path, line_no,
                f"ragged row: {len(row)} cells, expected {width}",
            )
        rows.append(row)
    return np.asarray(rows, dtype=float)


def write_dense_matrix(path, array) -> None:
    arr = np.asarray(array, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"dense matrix must be 2-D, got ndim={arr.ndim}")
    lines = [",".join(repr(float(v)) for v in row) for row in arr]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_auto(path) -> np.ndarray:
    """Dense array from either format: MatrixMarket if the file starts with
    '%%', CSV otherwise."""
    with open(path) as handle:
        head = handle.read(2)
    if head == "%%":
        return read_sparse_matrix(path).toarray()
    return read_dense_matrix(path)


def _sparse_to_lists(matrix) -> dict:
    coo = sp.csr_matrix(matrix).tocoo()
    return {
        "rows": [int(i) for i in coo.row],
        "cols": [int(j) for j in coo.col],
        "values": [float(v) for v in coo.data],
    }


def _require_ints(values, what) -> None:
    """TypeError unless every value is a JSON integer (not a float or a bool)."""
    if not all(type(v) is int for v in values):
        raise TypeError(f"{what} must be integers")


def _sparse_from_lists(payload, shape, path) -> sp.csr_matrix:
    try:
        rows, cols, vals = payload["rows"], payload["cols"], payload["values"]
        _require_ints((*rows, *cols), "indices")
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    except KeyError as exc:
        raise ParseError(f"{path}: sparse block missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad sparse block of shape {shape} ({exc})") from None


def _load_json(path, expected_format) -> dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if payload.get("format") != expected_format:
        raise ParseError(
            f"{path}: format is {payload.get('format')!r}, "
            f"expected {expected_format!r}"
        )
    if payload.get("version") not in SUPPORTED_VERSIONS:
        raise ParseError(
            f"{path}: unsupported version {payload.get('version')!r}, "
            f"supported: {list(SUPPORTED_VERSIONS)}"
        )
    return payload


@dataclass(frozen=True)
class ModelRecord:
    """A persisted model plus the settings and trace that produced it."""

    model: FactorModel
    hyperparams: Hyperparams
    objective_trace: np.ndarray


def write_model(path, model: FactorModel, hp: Hyperparams, trace=None) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": 1,
        "n_images": model.n_images,
        "n_tags": model.n_tags,
        "n_factors": model.n_factors,
        "hyperparams": {f.name: getattr(hp, f.name) for f in fields(hp)},
        "objective_trace": [float(v) for v in (trace if trace is not None else [])],
        "basis": [[float(v) for v in row] for row in model.U],
        "coeffs": _sparse_to_lists(model.V),
        "error": _sparse_to_lists(model.E),
    }
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def read_model(path) -> ModelRecord:
    payload = _load_json(path, MODEL_FORMAT)
    try:
        n, m, k = payload["n_images"], payload["n_tags"], payload["n_factors"]
        _require_ints((n, m, k), "n_images, n_tags and n_factors")
        basis = np.asarray(payload["basis"], dtype=float)
        hp_dict = payload["hyperparams"]
        trace = np.asarray(payload["objective_trace"], dtype=float)
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad header count, basis or trace ({exc})") from None
    if basis.shape != (n, k):
        raise ParseError(
            f"{path}: basis block is {basis.shape}, header says {(n, k)}"
        )
    try:
        hp = Hyperparams(**hp_dict)
    except (TypeError, ValidationError) as exc:
        raise ParseError(f"{path}: bad hyperparams ({exc})") from None
    V = _sparse_from_lists(payload.get("coeffs"), (k, m), path)
    E = _sparse_from_lists(payload.get("error"), (n, m), path)
    try:
        model = FactorModel(U=basis, V=V, E=E)
    except TagCompleteError as exc:
        raise ParseError(f"{path}: invalid model ({exc})") from None
    return ModelRecord(model=model, hyperparams=hp, objective_trace=trace)


def write_split(path, split: EvalSplit) -> None:
    payload = {
        "format": SPLIT_FORMAT,
        "version": 1,
        "n_images": split.observed.n_images,
        "n_tags": split.observed.n_tags,
        "observed": _sparse_to_lists(split.observed.matrix),
        "test_image_ids": list(split.test_image_ids),
        "deleted": [sorted(d) for d in split.deleted],
    }
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def read_split(path) -> EvalSplit:
    payload = _load_json(path, SPLIT_FORMAT)
    try:
        shape = (payload["n_images"], payload["n_tags"])
        observed, deleted = payload["observed"], payload["deleted"]
        test_image_ids = payload["test_image_ids"]
        _require_ints(shape, "n_images and n_tags")
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise ParseError(f"{path}: bad header count ({exc})") from None
    observed = _sparse_from_lists(observed, shape, path)
    try:
        _require_ints(test_image_ids, "test_image_ids")
        for tags in deleted:
            _require_ints(tags, "deleted tag ids")
        return EvalSplit(
            observed=TaggingMatrix(observed),
            deleted=tuple(frozenset(d) for d in deleted),
            test_image_ids=tuple(test_image_ids),
        )
    except (TypeError, ValueError) as exc:  # ValidationError is a ValueError
        raise ParseError(f"{path}: invalid split ({exc})") from None


def parse_key_values(path, target) -> dict:
    """Flat key=value file -> dict of typed values for fields of a dataclass.

    `target` is the dataclass the values are for (Hyperparams or SynthConfig).
    Blank lines and lines starting with # are skipped.  Each value is coerced
    with its field's declared type (int or float); unknown keys fail.
    """
    types = get_type_hints(target)
    values = {}
    with open(path) as handle:
        for idx, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                _fail(path, idx, f"expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                _fail(path, idx, f"unknown {target.__name__} field {key!r}")
            try:
                values[key] = types[key](value)
            except ValueError:
                _fail(path, idx, f"bad value {value!r} for {key}")
    return values


@dataclass(frozen=True)
class Manifest:
    """Paths naming a completion run's inputs, plus hyperparameter overrides.

    Relative paths are resolved against the manifest file's directory at read
    time; every referenced file must exist.
    """

    tags_path: str
    image_structure_path: str | None = None
    tag_structure_path: str | None = None
    overrides: dict | None = None


def read_manifest(path) -> Manifest:
    payload = _load_json(path, MANIFEST_FORMAT)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(key, required=False):
        value = payload.get(key)
        if value is None:
            if required:
                raise ParseError(f"{path}: missing required path {key!r}")
            return None
        if not isinstance(value, str):
            raise ParseError(f"{path}: {key} must be a path string, got {value!r}")
        resolved = value if os.path.isabs(value) else os.path.join(base, value)
        if not os.path.exists(resolved):
            raise ParseError(f"{path}: {key} file not found: {resolved}")
        return resolved

    overrides_file = resolve("overrides")
    return Manifest(
        tags_path=resolve("tags", required=True),
        image_structure_path=resolve("image_structure"),
        tag_structure_path=resolve("tag_structure"),
        overrides=(
            parse_key_values(overrides_file, Hyperparams) if overrides_file else None
        ),
    )
