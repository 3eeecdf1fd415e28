"""File formats: sparse/dense matrices, models, splits, manifests.

All writers are atomic (temp file + rename) and produce deterministic bytes
for identical inputs; floats are serialized with repr, so every write→read
round-trip is exact.  The dense writers, of the CSV matrix and of a model's
basis, spell every +0.0 cell "0.0" without calling repr on it.  All readers
reject non-finite values and report the offending line; a MatrixMarket cell
whose duplicate entries sum to a non-finite value is refused at the last of
those entries.  The JSON readers take only JSON numbers as values, not
bools or strings, and name the field that holds another.  Every reader
skips one leading UTF-8 byte-order mark.

The MatrixMarket and CSV readers parse all entry or row lines in one
np.loadtxt call and check index ranges and finiteness on the whole array
(on the summed matrix, for MatrixMarket).  Only a file that numpy refuses,
or whose checks flag a row, is scanned line by line with Python's int and
float, to name the bad line.  A number that only Python reads, such as 1_0
or one with non-ASCII digits, is a parse error ("non-numeric entry",
"non-numeric cell in"); halving over runs of lines finds the first such
line in about log2(lines) np.loadtxt calls.
"""

from __future__ import annotations

import codecs
import json
import math
import os
import warnings
from dataclasses import dataclass, fields
from functools import partial
from typing import get_type_hints

import numpy as np
import scipy.sparse as sp

from .core import (
    FactorModel,
    Hyperparams,
    TagCompleteError,
    TaggingMatrix,
    ValidationError,
    _as_csr,
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
    """The file's contents decoded as UTF-8, less one leading byte-order
    mark; ParseError naming the file and line otherwise, with the byte
    offset counted from the file's first byte."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read().removeprefix("\ufeff")
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
    refuses, for a number only Python reads, such as 1_0, or else the last.
    Once the line scan has passed, every line has the format's field count,
    so numpy refuses a run of lines only if it holds a line that it refuses
    alone: halving finds the first in about log2(len(content)) calls."""
    lo, hi = 0, len(content)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _loadtxt([text for _, text in content[lo:mid]], **kwargs) is None:
            hi = mid
        else:
            lo = mid
    line_no, text = content[lo]
    _fail(path, line_no, f"{what} {text!r}")


def read_sparse_matrix(path) -> sp.csr_matrix:
    """Parse a MatrixMarket coordinate file (1-based indices).

    Duplicate entries are summed.  Malformed headers, short/long entry lists,
    out-of-range indices, non-numeric or non-finite values all raise
    ParseError naming the line; so do duplicates whose sum is not finite,
    at the line of their last entry.
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
    summed = None
    if entries:  # loadtxt warns on no lines
        parsed = _loadtxt([text for _, text in entries], dtype=_ENTRY, ndmin=1)
    if parsed is not None and len(parsed) == nnz:
        i, j, v = parsed["i"], parsed["j"], parsed["v"]
        if ((1 <= i) & (i <= n) & (1 <= j) & (j <= m)).all():
            # tocsr sums duplicates and sorts indices.  A sum is non-finite
            # whenever one of its terms is, so this checks every value.
            summed = sp.coo_matrix((v, (i - 1, j - 1)), shape=(n, m)).tocsr()
            if np.isfinite(summed.data).all():
                return summed
    _refuse_entries(path, entries, (n, m, nnz), len(lines), summed)


def _refuse_entries(path, entries, size, last_line, summed):
    """Raise the ParseError of the first bad entry line, reading each line with
    Python's int and float.  Failing that, when numpy refused the file
    (summed is None), of the first line numpy refuses; else of the first
    non-finite cell of the summed matrix, in row-major order."""
    n, m, nnz = size
    last = {}  # (i, j) -> line number of the cell's last entry
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
        last[i, j] = line_no
    if len(entries) != nnz:
        _fail(path, last_line, f"declared {nnz} entries but found {len(entries)}")
    if summed is None:
        _fail_first_refused(path, entries, "non-numeric entry", dtype=_ENTRY, ndmin=1)
    at = np.flatnonzero(~np.isfinite(summed.data))[0]
    i = int(np.searchsorted(summed.indptr, at, side="right"))
    j = int(summed.indices[at]) + 1
    _fail(path, last[i, j], f"duplicate entries at ({i}, {j}) sum to a non-finite value")


def write_sparse_matrix(path, matrix) -> None:
    """Write in MatrixMarket coordinate format, entries in row-major order:
    the canonical float64 form of matrix (core._as_csr), duplicates summed
    and stored zeros kept.  The caller's arrays are never rewritten."""
    coo = _as_csr(matrix).tocoo()
    entries = map(
        "{} {} {!r}".format,
        (coo.row + 1).tolist(),
        (coo.col + 1).tolist(),
        coo.data.tolist(),
    )
    out = [MATRIX_HEADER, f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}", *entries]
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


def _text_rows(arr: np.ndarray, join) -> list:
    """join(texts) for each row of the 2-D float array, texts the repr of
    each of its cells, in order.

    Every +0.0 cell shares the one text "0.0" and is never made a Python
    float: most cells of a completed score matrix at the paper's defaults,
    and of a fitted basis, are +0.0.  Cells are taken 64 rows at a time, so
    the whole array is never held as Python objects.  A block with no +0.0
    cell, such as a feature matrix, is mapped through repr whole; in any
    other block each row starts from one template of "0.0" texts and spells
    only its other cells.  -0.0 keeps "-0.0".
    """
    spelled = arr != 0.0
    spelled |= np.signbit(arr)
    width = arr.shape[1]
    counts = np.count_nonzero(spelled, axis=1).tolist()
    template = ["0.0"] * width
    texts = []
    for start in range(0, arr.shape[0], 64):
        block, mask = arr[start:start + 64], spelled[start:start + 64]
        if min(counts[start:start + 64]) == width:
            texts.extend(join(map(repr, row)) for row in block.tolist())
            continue
        values, columns = block[mask].tolist(), np.nonzero(mask)[1].tolist()
        at = 0
        for count in counts[start:start + 64]:
            cells = template.copy()
            for j, value in zip(columns[at:at + count], values[at:at + count]):
                cells[j] = repr(value)
            texts.append(join(cells))
            at += count
    return texts


def write_dense_matrix(path, array) -> None:
    """Write a CSV matrix, one row per line, each cell spelled by repr."""
    arr = np.asarray(array, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"dense matrix must be 2-D, got ndim={arr.ndim}")
    lines = _text_rows(arr, ",".join)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_auto(path) -> np.ndarray:
    """Dense array from either format: MatrixMarket if the file starts with
    '%%', after a UTF-8 byte-order mark if it has one, and CSV otherwise."""
    with open(path, "rb") as handle:  # the reader called decodes the file
        head = handle.read(5)
    if head.removeprefix(codecs.BOM_UTF8).startswith(b"%%"):
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
    """Encoded items, an iterable of non-empty texts, laid out as
    json.dumps(list, indent=1) lays out a list nested `level` deep."""
    pad = "\n" + " " * (level + 1)
    text = ("," + pad).join(items)
    return "[" + pad + text + pad[:-1] + "]" if text else "[]"


def _require_ints(values, what) -> None:
    """TypeError unless every value is a JSON integer (not a float or a bool)."""
    if not all(type(v) is int for v in values):
        raise TypeError(f"{what} must be integers")


def _require_numbers(values, what) -> None:
    """TypeError unless values is a list of JSON numbers: ints or floats, not
    bools or strings."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise TypeError(f"{what} must be a list of numbers")


def _sparse_from_lists(payload, field, shape, path) -> sp.csr_matrix:
    """The sparse block `payload`, the file's field `field`, as CSR."""
    try:
        rows, cols, vals = payload["rows"], payload["cols"], payload["values"]
        _require_ints((*rows, *cols), "indices")
        _require_numbers(vals, "values")
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    except KeyError as exc:
        raise ParseError(f"{path}: {field} block missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad {field} block of shape {shape} ({exc})") from None


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
    basis = _json_list(_text_rows(model.U, partial(_json_list, level=2)), 1)
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
        basis, trace = payload["basis"], payload["objective_trace"]
        if type(basis) is not list:
            raise TypeError("basis must be a list of rows")
        for row in basis:
            _require_numbers(row, "each basis row")
        basis = np.asarray(basis, dtype=float)
        hp_dict = payload["hyperparams"]
        _require_numbers(trace, "objective_trace")
        trace = np.asarray(trace, dtype=float)
        if not np.isfinite(trace).all():
            raise ValueError("objective_trace must be finite")
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad header count, basis or trace ({exc})") from None
    if basis.shape != (n, k):
        raise ParseError(
            f"{path}: basis block is {basis.shape}, header says {(n, k)}"
        )
    try:
        hp = Hyperparams(**hp_dict)
    except (TypeError, ValidationError) as exc:
        raise ParseError(f"{path}: bad hyperparams ({exc})") from None
    V = _sparse_from_lists(payload.get("coeffs"), "coeffs", (k, m), path)
    E = _sparse_from_lists(payload.get("error"), "error", (n, m), path)
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
    observed = _sparse_from_lists(observed, "observed", shape, path)
    try:
        _require_ints(test_image_ids, "test_image_ids")
        for tags in deleted:
            _require_ints(tags, "deleted tag ids")
        return EvalSplit(
            observed=TaggingMatrix(observed),
            deleted=tuple(deleted),
            test_image_ids=tuple(test_image_ids),
        )
    except (TypeError, ValueError) as exc:  # ValidationError is a ValueError
        raise ParseError(f"{path}: invalid split ({exc})") from None


def parse_key_values(path, target) -> dict:
    """Flat key=value file -> dict of typed values for fields of a dataclass.

    `target` is the dataclass the values are for (Hyperparams or SynthConfig).
    Blank lines and lines starting with # are skipped.  Each value is coerced
    with its field's declared type (int or float); unknown and repeated keys
    fail.
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
        if key in values:
            _fail(path, idx, f"repeated {target.__name__} field {key!r}")
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
