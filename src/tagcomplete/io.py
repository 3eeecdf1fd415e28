"""File formats: sparse/dense matrices, models, splits, manifests.

All writers are atomic (temp file + rename) and produce deterministic bytes
for identical inputs; floats are serialized with repr, so every write→read
round-trip is exact.  All readers reject non-finite values and report the
offending line.

The MatrixMarket and CSV readers parse all entry or row lines in one
np.loadtxt call and check index ranges and finiteness on the whole array.
Only a file that numpy refuses, or whose checks flag a row, is scanned line
by line with Python's int and float, to name the bad line.  A number that
only Python reads, such as 1_0 or one with non-ASCII digits, is a parse
error ("non-numeric entry", "non-numeric cell in").
"""

from __future__ import annotations

import json
import math
import os
import warnings
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


def _read_text(path) -> str:
    """The file's contents decoded as UTF-8; ParseError naming the file and
    line otherwise."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            line_no = exc.object.count(b"\n", 0, exc.start) + 1
            _fail(path, line_no, f"not UTF-8 text ({exc.reason} at byte {exc.start})")


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a sibling temp file and an atomic rename.

    The file gets the mode that open(path, "w") gives a new file, 0666 less
    the umask, also when it replaces an existing one."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _loadtxt(lines, **kwargs):
    """np.loadtxt over the text lines, which hold no comments; None where
    numpy refuses them."""
    with warnings.catch_warnings():
        # some numpy versions read an integer field spelled as a float
        # ("1.5" as 1) with only a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, comments=None, **kwargs)
        except (ValueError, DeprecationWarning):
            return None


def _fail_first_refused(path, content, what, **kwargs):
    """ParseError naming the first of the (line number, text) lines that numpy
    refuses, for a number only Python reads, such as 1_0."""
    line_no, text = next(
        (line for line in content if _loadtxt([line[1]], **kwargs) is None),
        content[-1],
    )
    _fail(path, line_no, f"{what} {text!r}")


def read_sparse_matrix(path) -> sp.csr_matrix:
    """Parse a MatrixMarket coordinate file (1-based indices).

    Duplicate entries are summed.  Malformed headers, short/long entry lists,
    out-of-range indices, non-numeric or non-finite values all raise
    ParseError naming the line.
    """
    lines = _read_text(path).splitlines()
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

    # the declared count sizes nothing: the entries are parsed as found
    entries = content[1:]
    parsed = np.empty(0, _ENTRY)
    if entries:  # loadtxt warns on no lines
        parsed = _loadtxt([text for _, text in entries], dtype=_ENTRY, ndmin=1)
    if parsed is not None and len(parsed) == nnz:
        i, j, v = parsed["i"], parsed["j"], parsed["v"]
        if ((1 <= i) & (i <= n) & (1 <= j) & (j <= m) & np.isfinite(v)).all():
            # tocsr sums duplicates and sorts indices
            return sp.coo_matrix((v, (i - 1, j - 1)), shape=(n, m)).tocsr()
    _refuse_entries(path, entries, (n, m, nnz), len(lines))


def _refuse_entries(path, entries, size, last_line):
    """Raise the ParseError of the first bad entry line, reading each line with
    Python's int and float, or else of the first line numpy refuses."""
    n, m, nnz = size
    for count, (line_no, text) in enumerate(entries):
        if count >= nnz:
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
        if not math.isfinite(v):
            _fail(path, line_no, f"non-finite value {parts[2]!r}")
    if len(entries) != nnz:
        _fail(path, last_line, f"declared {nnz} entries but found {len(entries)}")
    _fail_first_refused(path, entries, "non-numeric entry", dtype=_ENTRY, ndmin=1)


def write_sparse_matrix(path, matrix) -> None:
    """Write in MatrixMarket coordinate format, entries in row-major order."""
    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.sort_indices()
    coo = csr.tocoo()
    entries = map(
        "{} {} {!r}".format,
        (coo.row + 1).tolist(),
        (coo.col + 1).tolist(),
        coo.data.astype(float).tolist(),
    )
    out = [MATRIX_HEADER, f"{csr.shape[0]} {csr.shape[1]} {coo.nnz}", *entries]
    atomic_write_text(path, "\n".join(out) + "\n")


def _csv_row(path, line_no, text):
    """The line's cells as floats, or None if a cell is not a number;
    ParseError naming the first non-finite cell."""
    cells = [c.strip() for c in text.split(",")]
    try:
        row = [float(c) for c in cells]
    except ValueError:
        return None
    if not all(map(math.isfinite, row)):
        c = next(c for c, v in zip(cells, row) if not math.isfinite(v))
        _fail(path, line_no, f"non-finite value {c!r}")
    return row


def read_dense_matrix(path) -> np.ndarray:
    """Parse a CSV matrix, one row per line; a non-numeric first line is
    treated as a header and skipped.  Ragged rows and non-finite values raise
    ParseError naming the line."""
    lines = _read_text(path).splitlines()
    content = [
        (idx + 1, line.strip()) for idx, line in enumerate(lines) if line.strip()
    ]
    if not content:
        _fail(path, 1, "empty file")
    rows = content[0 if _csv_row(path, *content[0]) is not None else 1:]
    if not rows:
        _fail(path, content[0][0], "no numeric rows after header")
    array = _loadtxt([text for _, text in rows], delimiter=",", ndmin=2)
    if array is None or not np.isfinite(array).all():
        _refuse_rows(path, rows)
    return array


def _refuse_rows(path, rows):
    """Raise the ParseError of the first bad CSV row, reading each cell with
    Python's float, or else of the first row numpy refuses."""
    width = None
    for line_no, text in rows:
        row = _csv_row(path, line_no, text)
        if row is None:
            _fail(path, line_no, f"non-numeric cell in {text!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(
                path, line_no,
                f"ragged row: {len(row)} cells, expected {width}",
            )
    _fail_first_refused(path, rows, "non-numeric cell in", delimiter=",", ndmin=2)


def write_dense_matrix(path, array) -> None:
    arr = np.asarray(array, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"dense matrix must be 2-D, got ndim={arr.ndim}")
    lines = [",".join(map(repr, row)) for row in arr.tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_auto(path) -> np.ndarray:
    """Dense array from either format: MatrixMarket if the file starts with
    '%%', CSV otherwise."""
    with open(path, "rb") as handle:  # the reader called decodes the file
        head = handle.read(2)
    if head == b"%%":
        return read_sparse_matrix(path).toarray()
    return read_dense_matrix(path)


def _sparse_to_lists(matrix) -> dict:
    coo = sp.csr_matrix(matrix).tocoo()
    return {
        "rows": coo.row.tolist(),
        "cols": coo.col.tolist(),
        "values": coo.data.astype(float).tolist(),
    }


def _json_list(items, level) -> str:
    """Encoded items laid out as json.dumps(list, indent=1) lays out a list
    nested `level` deep."""
    if not items:
        return "[]"
    pad = "\n" + " " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]"


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
        payload = json.loads(_read_text(path))
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
        "objective_trace": list(map(float, trace if trace is not None else [])),
    }
    tail = {"coeffs": _sparse_to_lists(model.V), "error": _sparse_to_lists(model.E)}
    # the text of json.dumps({**payload, "basis": U.tolist(), **tail}, indent=1),
    # with the basis joined here, as json's indented encoder is pure Python;
    # U is finite, so repr spells each value as json does
    basis = _json_list(
        [_json_list(list(map(repr, row)), 2) for row in model.U.tolist()], 1
    )
    text = (
        json.dumps(payload, indent=1)[:-2]
        + f',\n "basis": {basis},'
        + json.dumps(tail, indent=1)[1:]
    )
    atomic_write_text(path, text + "\n")


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
    for idx, raw in enumerate(_read_text(path).split("\n"), start=1):
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
