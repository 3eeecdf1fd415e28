import json
import os
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import read_dense_by_cells, read_sparse_by_lines

from tagcomplete.core import FactorModel, Hyperparams, TaggingMatrix
from tagcomplete.io import (
    MATRIX_HEADER,
    ParseError,
    parse_key_values,
    read_dense_matrix,
    read_manifest,
    read_matrix_auto,
    read_model,
    read_sparse_matrix,
    read_split,
    write_dense_matrix,
    write_model,
    write_sparse_matrix,
    write_split,
)
from tagcomplete.metrics import EvalSplit
from tagcomplete.synth import SynthConfig, delete_tags, generate


def random_sparse(rng, n, m, density=0.3):
    dense = rng.normal(size=(n, m)) * (rng.random((n, m)) < density)
    return sp.csr_matrix(dense)


class TestSparseMatrixFormat:
    def test_single_entry_one_based(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n"
        )
        m = read_sparse_matrix(path)
        assert m.shape == (2, 2)
        assert m[0, 0] == 1.0
        assert m.nnz == 1

    def test_empty_entry_list(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 4 0\n")
        m = read_sparse_matrix(path)
        assert m.shape == (3, 4)
        assert m.nnz == 0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n2 2 2\n1 2 0.5\n% mid comment\n2 1 -1.5\n"
        )
        m = read_sparse_matrix(path)
        assert m[0, 1] == 0.5
        assert m[1, 0] == -1.5

    def test_duplicates_are_summed(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.5\n"
        )
        m = read_sparse_matrix(path)
        assert m[0, 0] == 3.5
        assert m.nnz == 1

    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1 0\n")
        with pytest.raises(ParseError, match=":1:"):
            read_sparse_matrix(path)

    def test_out_of_range_index_names_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(ParseError, match=":3:"):
            read_sparse_matrix(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"
        )
        with pytest.raises(ParseError, match=":3:"):
            read_sparse_matrix(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n"
        )
        with pytest.raises(ParseError, match="non-finite"):
            read_sparse_matrix(path)

    def test_truncated_entry_list(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        )
        with pytest.raises(ParseError, match="declared 3"):
            read_sparse_matrix(path)

    def test_excess_entries(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 1 1.0\n2 2 1.0\n"
        )
        with pytest.raises(ParseError, match="more than"):
            read_sparse_matrix(path)

    def test_huge_declared_count_is_a_parse_error(self, tmp_path):
        # sizing arrays by the count would need 10^17 entries before any check
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 100000000000000000\n1 1 1.0\n"
        )
        with pytest.raises(ParseError, match=r":3: declared 10+ entries but found 1$"):
            read_sparse_matrix(path)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        for trial in range(10):
            m = random_sparse(rng, 7, 5)
            path = tmp_path / f"rt{trial}.mtx"
            write_sparse_matrix(path, m)
            back = read_sparse_matrix(path)
            assert (m != back).nnz == 0
            np.testing.assert_array_equal(m.toarray(), back.toarray())

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(61)
        m = random_sparse(rng, 6, 6)
        a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_sparse_matrix(a, m)
        write_sparse_matrix(b, m.copy())
        assert a.read_bytes() == b.read_bytes()


class TestSparseMatrixErrors:
    """Every ParseError names the line, counted with comment and blank lines."""

    @pytest.mark.parametrize(
        "body, line_no, message",
        [
            ("", 1, "missing size line"),
            ("% only a comment\n\n", 3, "missing size line"),
            ("% c\n\n2 2\n", 4, "size line needs 3 fields, got 2"),
            ("\n%\n2 x 1\n", 4, "non-integer size line '2 x 1'"),
            ("%\n-1 2 0\n", 3, "matrix dimensions must be non-negative"),
            ("2 2 2\n% c\n\n1 1 1.0\n%\n1 q 2\n", 7, "non-numeric entry '1 q 2'"),
            ("% c\n2 2 1\n\n1 1\n", 5, "entry needs 3 fields, got 2"),
            ("2 2 1\n%\n\n  3 1 1.0  \n", 5, "index (3, 1) outside 2x2 matrix"),
            ("2 2 1\n\n1 1 inf\n", 4, "non-finite value 'inf'"),
            ("2 2 1\n1 1 1.0\n% c\n\n2 2 1.0\n", 6, "more than the declared 1 entries"),
            ("2 2 2\n1 1 1.0\n% c\n\n", 5, "declared 2 entries but found 1"),
        ],
    )
    def test_error_names_line(self, body, line_no, message, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        expected = re.escape(f"{path}:{line_no}: {message}")
        with pytest.raises(ParseError, match=f"^{expected}$"):
            read_sparse_matrix(path)

    def test_result_is_canonical(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n% c\n2 3 4\n"
            "2 3 1.0\n\n1 2 2.0\n2 1 -0.0\n2 3 0.5\n"
        )
        m = read_sparse_matrix(path)
        assert m.has_canonical_format
        assert m.indptr.tolist() == [0, 1, 3]
        assert m.indices.tolist() == [1, 0, 2]
        assert m.data.tolist() == [2.0, -0.0, 1.5]
        assert np.signbit(m.data[1])


class TestDenseMatrixFormat:
    def test_single_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("3.5\n")
        np.testing.assert_array_equal(read_dense_matrix(path), [[3.5]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2\n1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(
            read_dense_matrix(path), [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_ragged_rows_name_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match=":2:"):
            read_dense_matrix(path)

    def test_inf_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,inf\n")
        with pytest.raises(ParseError, match="non-finite"):
            read_dense_matrix(path)

    def test_non_finite_names_line_and_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1.0,2.0,3.0\n4.0, -Infinity ,nan\n")
        with pytest.raises(ParseError, match=r":3: non-finite value '-Infinity'"):
            read_dense_matrix(path)

    def test_non_numeric_cell_mid_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(ParseError, match=":2:"):
            read_dense_matrix(path)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(62)
        for trial in range(10):
            arr = rng.normal(size=(4, 6))
            path = tmp_path / f"rt{trial}.csv"
            write_dense_matrix(path, arr)
            np.testing.assert_array_equal(read_dense_matrix(path), arr)

    def test_auto_detects_both_formats(self, tmp_path):
        rng = np.random.default_rng(63)
        arr = rng.normal(size=(3, 4))
        dense_path = tmp_path / "a.csv"
        sparse_path = tmp_path / "a.mtx"
        write_dense_matrix(dense_path, arr)
        write_sparse_matrix(sparse_path, sp.csr_matrix(arr))
        np.testing.assert_array_equal(read_matrix_auto(dense_path), arr)
        np.testing.assert_array_equal(read_matrix_auto(sparse_path), arr)


class TestModelFormat:
    def make_model(self, rng, n=5, m=4, k=2):
        U = rng.normal(size=(n, k))
        U /= np.maximum(np.linalg.norm(U, axis=0, keepdims=True), 1.0)
        V = random_sparse(rng, k, m, density=0.5)
        E = random_sparse(rng, n, m, density=0.2)
        return FactorModel(U=U, V=V, E=E)

    @pytest.mark.parametrize(
        "field, value", [("K", 1.5), ("max_outer_iters", True), ("eta", False)]
    )
    def test_wrongly_typed_hyperparam(self, field, value, tmp_path):
        rng = np.random.default_rng(69)
        path = tmp_path / "model.json"
        write_model(path, self.make_model(rng), Hyperparams(K=2, knn_k=3))
        payload = json.loads(path.read_text())
        payload["hyperparams"][field] = value
        path.write_text(json.dumps(payload))
        expected = re.escape(f"{path}: bad hyperparams ({field} must be ")
        with pytest.raises(ParseError, match=f"^{expected}"):
            read_model(path)

    @pytest.mark.parametrize("key", ["inner_sweeps", "lasso_max_iters"])
    def test_removed_hyperparam(self, key, tmp_path):
        rng = np.random.default_rng(70)
        path = tmp_path / "model.json"
        write_model(path, self.make_model(rng), Hyperparams(K=2, knn_k=3))
        payload = json.loads(path.read_text())
        assert len(payload["hyperparams"]) == 12
        payload["hyperparams"][key] = 1
        path.write_text(json.dumps(payload))
        expected = f"^{re.escape(str(path))}: bad hyperparams .*'{key}'"
        with pytest.raises(ParseError, match=expected):
            read_model(path)

    @pytest.mark.parametrize(
        "field, value", [("n_factors", True), ("n_images", 5.0), ("n_tags", "4")]
    )
    def test_non_integer_header_count(self, field, value, tmp_path):
        rng = np.random.default_rng(71)
        path = tmp_path / "model.json"
        write_model(path, self.make_model(rng, k=1), Hyperparams(K=1, knn_k=3))
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        expected = (
            f"{path}: bad header count, basis or trace "
            "(n_images, n_tags and n_factors must be integers)"
        )
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            read_model(path)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(64)
        model = self.make_model(rng)
        hp = Hyperparams(eta=0.25, K=2, knn_k=3)
        trace = [3.5, 2.25, 2.0]
        path = tmp_path / "model.json"
        write_model(path, model, hp, trace)
        record = read_model(path)
        np.testing.assert_array_equal(record.model.U, model.U)
        assert (record.model.V != model.V).nnz == 0
        assert (record.model.E != model.E).nnz == 0
        assert record.hyperparams == hp
        np.testing.assert_array_equal(record.objective_trace, trace)

    def test_version_mismatch(self, tmp_path):
        rng = np.random.default_rng(65)
        path = tmp_path / "model.json"
        write_model(path, self.make_model(rng), Hyperparams(K=2, knn_k=3))
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="version"):
            read_model(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ParseError, match="format"):
            read_model(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(66)
        path = tmp_path / "model.json"
        write_model(path, self.make_model(rng), Hyperparams(K=2, knn_k=3))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError, match="invalid JSON"):
            read_model(path)

    def test_shape_mismatch_detected(self, tmp_path):
        rng = np.random.default_rng(67)
        path = tmp_path / "model.json"
        write_model(path, self.make_model(rng), Hyperparams(K=2, knn_k=3))
        payload = json.loads(path.read_text())
        payload["n_factors"] = 7
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="basis block"):
            read_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("basis", "x"),
            ("basis", [[5.0, 0.0]] * 5),  # columns outside the unit ball
            ("objective_trace", [[1.0], 2.0]),
            ("coeffs", {"rows": [9], "cols": [0], "values": [1.0]}),
            ("error", [1.0]),
        ],
    )
    def test_wrongly_typed_field(self, field, value, tmp_path):
        rng = np.random.default_rng(68)
        path = tmp_path / "model.json"
        write_model(path, self.make_model(rng), Hyperparams(K=2, knn_k=3))
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            read_model(path)


class TestSplitFormat:
    def test_round_trip(self, tmp_path):
        cfg = SynthConfig(
            n_images=12, n_tags=10, n_topics=2, tags_per_image=3,
            feature_dim=4, feature_noise=0.1, delete_fraction=0.4, rng_seed=3,
        )
        split = delete_tags(generate(cfg).truth, 0.4, rng_seed=4)
        path = tmp_path / "split.json"
        write_split(path, split)
        back = read_split(path)
        assert back.test_image_ids == split.test_image_ids
        assert back.deleted == split.deleted
        assert (back.observed.matrix != split.observed.matrix).nnz == 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("test_image_ids", [0.9, True]),
            ("test_image_ids", [0, 1.0]),
            ("deleted", [[1.7], [0, 2]]),
            ("deleted", [[1], [False, 2]]),
            ("n_images", 2.0),
            ("n_tags", True),
        ],
    )
    def test_non_integer_ids_rejected(self, field, value, tmp_path):
        payload = {
            "format": "tagcomplete-split",
            "version": 1,
            "n_images": 2,
            "n_tags": 4,
            "observed": {"rows": [0, 1], "cols": [0, 1], "values": [1.0, 1.0]},
            "test_image_ids": [0, 1],
            "deleted": [[1], [0, 2]],
            field: value,
        }
        path = tmp_path / "split.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*integers"):
            read_split(path)

    def test_invalid_split_content(self, tmp_path):
        path = tmp_path / "split.json"
        payload = {
            "format": "tagcomplete-split",
            "version": 1,
            "n_images": 1,
            "n_tags": 2,
            "observed": {"rows": [0], "cols": [0], "values": [1.0]},
            "test_image_ids": [0],
            "deleted": [[0]],  # overlaps observed
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="invalid split"):
            read_split(path)

    def test_repeated_test_image_id_rejected(self, tmp_path):
        path = tmp_path / "split.json"
        payload = {
            "format": "tagcomplete-split",
            "version": 1,
            "n_images": 1,
            "n_tags": 3,
            "observed": {"rows": [0], "cols": [0], "values": [1.0]},
            "test_image_ids": [0, 0],
            "deleted": [[1], [2]],
        }
        path.write_text(json.dumps(payload))
        message = f"^{re.escape(str(path))}: invalid split \\(test image 0 is listed more than once\\)$"
        with pytest.raises(ParseError, match=message):
            read_split(path)


# Finite doubles at the edges of the format: both signed zeros, subnormals
# down to 5e-324, the smallest normal and the largest magnitude.
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
])
EXTREME_FLOATS = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
SIDES = st.integers(1, 4)
ROUND_TRIPS = settings(max_examples=40, deadline=None)


@st.composite
def sparse_entries(draw, shape):
    """{(row, col): value} over a matrix of the given shape."""
    cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    return draw(st.dictionaries(cells, EXTREME_FLOATS))


def stored_matrix(shape, entries) -> sp.csr_matrix:
    """CSR storing every entry explicitly, zeros included."""
    rows, cols = zip(*entries) if entries else ((), ())
    return sp.coo_matrix((list(entries.values()), (rows, cols)), shape=shape).tocsr()


def stored_bits(matrix) -> list:
    """Stored entries as sorted (row, col, exact hex value), so -0.0 != 0.0."""
    coo = sp.csr_matrix(matrix).tocoo()
    return sorted(
        (int(i), int(j), float(v).hex()) for i, j, v in zip(coo.row, coo.col, coo.data)
    )


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestExtremeFloatRoundTrips:
    """Every writer's output reads back bit for bit at the edges of float64."""

    @ROUND_TRIPS
    @given(st.data())
    def test_matrix_market(self, tmp_path_factory, data):
        shape = (data.draw(SIDES), data.draw(SIDES))
        matrix = stored_matrix(shape, data.draw(sparse_entries(shape)))
        path = tmp_path_factory.mktemp("mtx") / "m.mtx"
        write_sparse_matrix(path, matrix)
        back = read_sparse_matrix(path)
        assert back.shape == shape
        assert stored_bits(back) == stored_bits(matrix)

    @ROUND_TRIPS
    @given(arrays(float, st.tuples(SIDES, SIDES), elements=EXTREME_FLOATS))
    def test_dense_csv(self, tmp_path_factory, array):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_dense_matrix(path, array)
        assert_same_bits(read_dense_matrix(path), array)

    @ROUND_TRIPS
    @given(st.data())
    def test_model_json(self, tmp_path_factory, data):
        n, k, m = data.draw(SIDES), data.draw(SIDES), data.draw(SIDES)
        # entries of at most 0.5 in magnitude keep U's columns in the unit ball
        small = st.sampled_from([-0.0, 5e-324, -5e-324]) | st.floats(-0.5, 0.5)
        model = FactorModel(
            U=data.draw(arrays(float, (n, k), elements=small)),
            V=stored_matrix((k, m), data.draw(sparse_entries((k, m)))),
            E=stored_matrix((n, m), data.draw(sparse_entries((n, m)))),
        )
        trace = data.draw(st.lists(EXTREME_FLOATS, max_size=5))
        path = tmp_path_factory.mktemp("model") / "model.json"
        write_model(path, model, Hyperparams(K=k), trace)
        record = read_model(path)
        assert_same_bits(record.model.U, model.U)
        assert stored_bits(record.model.V) == stored_bits(model.V)
        assert stored_bits(record.model.E) == stored_bits(model.E)
        assert_same_bits(record.objective_trace, np.asarray(trace, dtype=float))

    @ROUND_TRIPS
    @given(st.data())
    def test_split_json(self, tmp_path_factory, data):
        # image 0 keeps tag 0 and loses tag 1; drawn entries fill the columns after
        n, m = data.draw(SIDES), data.draw(SIDES)
        drawn = data.draw(sparse_entries((n, m)))
        entries = {(i, j + 2): v for (i, j), v in drawn.items()}
        entries[(0, 0)] = data.draw(EDGE_FLOATS.filter(bool))
        split = EvalSplit(
            observed=TaggingMatrix(stored_matrix((n, m + 2), entries)),
            deleted=({1},),
            test_image_ids=(0,),
        )
        path = tmp_path_factory.mktemp("split") / "split.json"
        write_split(path, split)
        back = read_split(path)
        assert back.observed.matrix.shape == (n, m + 2)
        assert stored_bits(back.observed.matrix) == stored_bits(split.observed.matrix)
        assert (back.test_image_ids, back.deleted) == ((0,), (frozenset({1}),))



class TestWritersExactBytes:
    """The MatrixMarket, dense and model writers emit the per-element
    repr(float(v)) text of every value, at the edges of float64 too."""

    @ROUND_TRIPS
    @given(st.data())
    def test_matrix_market(self, tmp_path_factory, data):
        shape = (data.draw(SIDES), data.draw(SIDES))
        entries = data.draw(sparse_entries(shape))
        path = tmp_path_factory.mktemp("mtx") / "m.mtx"
        write_sparse_matrix(path, stored_matrix(shape, entries))
        lines = [MATRIX_HEADER, f"{shape[0]} {shape[1]} {len(entries)}"]
        lines += [f"{i + 1} {j + 1} {float(v)!r}" for (i, j), v in sorted(entries.items())]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @ROUND_TRIPS
    @given(arrays(float, st.tuples(SIDES, SIDES), elements=EXTREME_FLOATS))
    def test_dense_csv(self, tmp_path_factory, array):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_dense_matrix(path, array)
        lines = [",".join(repr(float(v)) for v in row) for row in array]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @ROUND_TRIPS
    @given(st.data())
    def test_model_json(self, tmp_path_factory, data):
        n, k = data.draw(SIDES), data.draw(SIDES)
        edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
        basis = data.draw(arrays(float, (n, k), elements=edge | st.floats(-0.5, 0.5)))
        model = FactorModel(U=basis, V=sp.csr_matrix((k, 2)), E=sp.csr_matrix((n, 2)))
        trace = data.draw(st.lists(EXTREME_FLOATS, max_size=5))
        for given_trace in (trace, np.asarray(trace, dtype=float)):
            path = tmp_path_factory.mktemp("model") / "model.json"
            write_model(path, model, Hyperparams(K=k), given_trace)
            written = path.read_bytes()
            payload = json.loads(written)
            payload["objective_trace"] = [float(v) for v in given_trace]
            payload["basis"] = [[float(v) for v in row] for row in model.U]
            assert written == (json.dumps(payload, indent=1) + "\n").encode()

    @ROUND_TRIPS
    @given(st.data())
    def test_model_json_sparse_blocks(self, tmp_path_factory, data):
        n, k, m = data.draw(SIDES), data.draw(SIDES), data.draw(SIDES)
        V = stored_matrix((k, m), data.draw(sparse_entries((k, m))))
        E = stored_matrix((n, m), data.draw(sparse_entries((n, m))))
        path = tmp_path_factory.mktemp("model") / "model.json"
        write_model(path, FactorModel(U=np.zeros((n, k)), V=V, E=E), Hyperparams(K=k))
        written = path.read_bytes()
        payload = json.loads(written)
        for key, matrix in (("coeffs", V), ("error", E)):
            coo = matrix.tocoo()
            payload[key] = {
                "rows": [int(i) for i in coo.row],
                "cols": [int(j) for j in coo.col],
                "values": [float(v) for v in coo.data],
            }
        assert written == (json.dumps(payload, indent=1) + "\n").encode()


# spellings of a finite double that both Python's float and numpy read exactly
SPELLINGS = st.sampled_from([repr, "{:.17e}".format, "{:.17g}".format, "{:+.17E}".format])
PADS = st.sampled_from(["", " ", "  ", "\t", " \t"])
BLANKS = st.sampled_from(["", "   ", "\t"])
NON_NUMERIC = st.sampled_from(["x", "1.0.0", "--1", "1e", "0x10"])
NON_FINITE = st.sampled_from(["nan", "inf", "-Infinity", "NaN", "1e400"])
LINE_ENDS = st.sampled_from(["\n", "\r\n"])
ORACLE_CHECKS = settings(max_examples=150, deadline=None)


@st.composite
def matrix_market_file(draw, corrupt=False):
    """MatrixMarket text with blank and % lines between the lines, padded
    fields and several float spellings.  With corrupt, one entry gets a bad
    field, a 0 or out-of-range index, or 2 or 4 fields, or the declared
    count is one off."""
    n, m = draw(SIDES), draw(SIDES)
    cell = st.tuples(st.integers(1, n), st.integers(1, m), EXTREME_FLOATS)
    entries = [
        [str(i), str(j), draw(SPELLINGS)(v)]
        for i, j, v in draw(st.lists(cell, min_size=int(corrupt), max_size=8))
    ]
    declared = len(entries)
    if corrupt:
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        kind = draw(st.sampled_from(["non-numeric", "non-finite", "index", "fields", "count"]))
        if kind == "non-numeric":
            field = draw(st.integers(0, 2))
            # an index spelled as a float is not an integer either
            entry[field] = draw(NON_NUMERIC | st.sampled_from(["1.0", "2.5"]) if field < 2
                                else NON_NUMERIC)
        elif kind == "non-finite":
            entry[2] = draw(NON_FINITE)
        elif kind == "index":
            axis = draw(st.integers(0, 1))
            entry[axis] = draw(st.sampled_from(["0", "-1", str((n, m)[axis] + 1)]))
        elif kind == "fields":
            entry[:] = entry[:2] if draw(st.booleans()) else [*entry, "1.0"]
        else:
            declared += draw(st.sampled_from([-1, 1]))
    fillers = st.lists(BLANKS | st.sampled_from(["%", "% a comment", "\t% c"]), max_size=2)
    lines = [MATRIX_HEADER, *draw(fillers), f"{n} {m} {declared}"]
    for fields in entries:
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        lines += [*draw(fillers), draw(PADS) + sep.join(fields) + draw(PADS)]
    lines += draw(fillers)
    end = draw(LINE_ENDS)
    return end.join(lines) + end


@st.composite
def csv_file(draw, corrupt=False):
    """CSV text with blank lines between the rows, spaces and tabs around
    the cells, several float spellings and maybe a header line.  With
    corrupt, a header is always there and one row gets a cell more or
    less, a non-numeric cell or a non-finite one."""
    n_rows, width = draw(st.integers(1 + int(corrupt), 4)), draw(SIDES)
    row = st.lists(EXTREME_FLOATS, min_size=width, max_size=width)
    rows = [[draw(SPELLINGS)(v) for v in values] for values in draw(
        st.lists(row, min_size=n_rows, max_size=n_rows))]
    if corrupt:
        cells = rows[draw(st.integers(0, n_rows - 1))]
        kind = draw(st.sampled_from(["ragged", "non-numeric", "non-finite"]))
        if kind == "ragged":
            if width == 1 or draw(st.booleans()):
                cells.append("1.0")
            else:
                cells.pop()
        else:
            # an empty cell, unless it would leave a blank line
            bad = NON_NUMERIC | st.just("") if width > 1 else NON_NUMERIC
            cells[draw(st.integers(0, width - 1))] = draw(
                bad if kind == "non-numeric" else NON_FINITE
            )
    lines = []
    if corrupt or draw(st.booleans()):
        lines.append(",".join(f"col{c}" for c in range(width)))
    for cells in rows:
        lines += draw(st.lists(BLANKS, max_size=1))
        lines.append(",".join(draw(PADS) + c + draw(PADS) for c in cells))
    end = draw(LINE_ENDS)
    return end.join(lines) + end


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert a.data.dtype == b.data.dtype
    assert_same_bits(a.data, b.data)


class TestReadersMatchLineOracles:
    """The one-call numpy readers return the bits, and raise the messages, of
    the line-at-a-time Python readers they replace (tests/oracles.py)."""

    @ORACLE_CHECKS
    @given(matrix_market_file())
    def test_matrix_market(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("mtx") / "m.mtx"
        path.write_bytes(text.encode())
        got = read_sparse_matrix(path)
        assert_same_csr(got, read_sparse_by_lines(path))
        assert got.has_canonical_format

    @ORACLE_CHECKS
    @given(csv_file())
    def test_dense_csv(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode())
        got = read_dense_matrix(path)
        assert_same_bits(got, read_dense_by_cells(path))
        assert got.flags.c_contiguous

    @ORACLE_CHECKS
    @given(st.data())
    def test_corrupt_files(self, tmp_path_factory, data):
        read, oracle, strategy = data.draw(st.sampled_from([
            (read_sparse_matrix, read_sparse_by_lines, matrix_market_file(corrupt=True)),
            (read_dense_matrix, read_dense_by_cells, csv_file(corrupt=True)),
        ]))
        path = tmp_path_factory.mktemp("corrupt") / "input"
        path.write_bytes(data.draw(strategy).encode())
        with pytest.raises(ValueError) as expected:
            oracle(path)
        with pytest.raises(ParseError) as got:
            read(path)
        assert str(got.value) == str(expected.value)


class TestSpellingsOnlyPythonReads:
    """A number that Python's int or float reads but numpy's parser does not,
    such as 1_0 or a non-ASCII digit, is a parse error naming its line.  A
    fault that Python sees on any line is named first."""

    @pytest.mark.parametrize(
        "read, oracle, text, line_no, message",
        [
            (read_sparse_matrix, read_sparse_by_lines,
             f"{MATRIX_HEADER}\n2 2 2\n1 1 1.0\n% c\n1 2 1_0\n",
             5, "non-numeric entry '1 2 1_0'"),
            (read_sparse_matrix, read_sparse_by_lines,
             f"{MATRIX_HEADER}\n2 2 1\n\n1 \u0661 1.0\n",
             4, "non-numeric entry '1 \u0661 1.0'"),
            (read_dense_matrix, read_dense_by_cells,
             "a,b\n1.0,2.0\n\n3.0, 1_0\n", 4, "non-numeric cell in '3.0, 1_0'"),
        ],
    )
    def test_names_the_line(self, read, oracle, text, line_no, message, tmp_path):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        oracle(path)  # the Python readers took these
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:{line_no}: {message}"

    def test_python_fault_named_first(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(f"{MATRIX_HEADER}\n2 2 2\n1 1 1_0\n1 1 x\n")
        with pytest.raises(ParseError) as exc:
            read_sparse_matrix(path)
        assert str(exc.value) == f"{path}:4: non-numeric entry '1 1 x'"

    def test_index_read_via_a_float_is_refused(self, tmp_path, monkeypatch):
        # some numpy versions read "1.0" into an integer field, warning only
        def old_loadtxt(lines, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.ones(len(lines), dtype)

        monkeypatch.setattr(np, "loadtxt", old_loadtxt)
        path = tmp_path / "m.mtx"
        path.write_text(f"{MATRIX_HEADER}\n2 2 1\n1.0 1 1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as outside a test run
            with pytest.raises(ParseError) as exc:
                read_sparse_matrix(path)
        assert str(exc.value) == f"{path}:3: non-numeric entry '1.0 1 1.0'"


class TestNoWarningOnEmptyInput:
    def test_no_entries_and_one_row(self, tmp_path):
        mtx, csv = tmp_path / "m.mtx", tmp_path / "d.csv"
        mtx.write_text(f"{MATRIX_HEADER}\n3 4 0\n")
        csv.write_text("a,b\n1.0,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_sparse_matrix(mtx).shape == (3, 4)
            np.testing.assert_array_equal(read_dense_matrix(csv), [[1.0, 2.0]])


class TestOverrides:
    def test_parses_typed_values(self, tmp_path):
        path = tmp_path / "hp.conf"
        path.write_text("# tuning\neta = 0.5\nK=7\n\nlambda_ = 0.25\n")
        got = parse_key_values(path, Hyperparams)
        assert got == {"eta": 0.5, "K": 7, "lambda_": 0.25}
        assert isinstance(got["K"], int)
        hp = Hyperparams().with_overrides(**got)
        assert hp.K == 7 and hp.eta == 0.5

    def test_parses_synth_config(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("n_images = 40\n# noise\nfeature_noise=0.5\nrng_seed=3\n")
        got = parse_key_values(path, SynthConfig)
        assert got == {"n_images": 40, "feature_noise": 0.5, "rng_seed": 3}
        assert isinstance(got["n_images"], int)
        assert isinstance(got["feature_noise"], float)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "hp.conf"
        path.write_text("eta=0.5\nbogus=1\n")
        with pytest.raises(ParseError, match=":2:.*bogus"):
            parse_key_values(path, Hyperparams)

    def test_bad_int_value(self, tmp_path):
        path = tmp_path / "hp.conf"
        path.write_text("K=2.5\n")
        with pytest.raises(ParseError, match="bad value"):
            parse_key_values(path, Hyperparams)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "hp.conf"
        path.write_text("eta 0.5\n")
        with pytest.raises(ParseError, match="key=value"):
            parse_key_values(path, Hyperparams)


class TestNonUtf8Input:
    """A file that is not UTF-8 is a ParseError naming the file, the line and
    the byte, from every reader."""

    @pytest.mark.parametrize(
        "read",
        [
            read_sparse_matrix,
            read_dense_matrix,
            read_matrix_auto,
            read_split,  # and read_model and read_manifest, through _load_json
            lambda path: parse_key_values(path, Hyperparams),
        ],
        ids=["sparse", "dense", "auto", "json", "key_values"],
    )
    def test_reader_names_file_and_line(self, read, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(b"%%MatrixMarket\n# x\n\xff\xfe\n")
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:3: not UTF-8 text (invalid start byte at byte 19)"

    @pytest.mark.parametrize("read", [read_model, read_manifest])
    def test_json_readers_at_first_byte(self, read, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:1: not UTF-8 text (invalid start byte at byte 0)"


def write_manifest_json(path, **paths):
    """A manifest as the CLI reads it: format marker, version and input paths."""
    payload = {"format": "tagcomplete-manifest", "version": 1, **paths}
    path.write_text(json.dumps(payload))


class TestManifest:
    def test_resolves_relative_paths(self, tmp_path):
        tags = tmp_path / "tags.mtx"
        write_sparse_matrix(tags, sp.csr_matrix(np.eye(2)))
        feats = tmp_path / "x.csv"
        write_dense_matrix(feats, np.eye(2))
        conf = tmp_path / "hp.conf"
        conf.write_text("eta=0.5\n")
        manifest_path = tmp_path / "run.json"
        write_manifest_json(
            manifest_path, tags="tags.mtx", features="x.csv", overrides="hp.conf"
        )
        m = read_manifest(manifest_path)
        assert m.tags_path == str(tags)
        assert m.overrides == {"eta": 0.5}
        assert m.image_structure_path is None

    def test_missing_file_fails(self, tmp_path):
        manifest_path = tmp_path / "run.json"
        write_manifest_json(manifest_path, tags="nope.mtx")
        with pytest.raises(ParseError, match="not found"):
            read_manifest(manifest_path)

    def test_requires_tags_path(self, tmp_path):
        manifest_path = tmp_path / "run.json"
        manifest_path.write_text(
            json.dumps({"format": "tagcomplete-manifest", "version": 1})
        )
        with pytest.raises(ParseError, match="tags"):
            read_manifest(manifest_path)


class TestAtomicity:
    def test_overwrite_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.csv"
        write_dense_matrix(path, np.eye(2))
        write_dense_matrix(path, np.ones((2, 2)))
        np.testing.assert_array_equal(read_dense_matrix(path), np.ones((2, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_mode_is_that_of_open(self, tmp_path):
        # 0666 less the umask, for a new file and for one it replaces
        plain = tmp_path / "plain.csv"
        with open(plain, "w"):
            pass
        path = tmp_path / "out.csv"
        write_dense_matrix(path, np.eye(2))
        assert path.stat().st_mode == plain.stat().st_mode
        os.chmod(path, 0o600)
        write_dense_matrix(path, np.ones((2, 2)))
        assert path.stat().st_mode == plain.stat().st_mode

    def test_failed_write_cleans_up(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_dense_matrix(path, np.eye(2))
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
