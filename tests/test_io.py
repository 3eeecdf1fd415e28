import json
import os
import re

import numpy as np
import pytest
import scipy.sparse as sp

from tagcomplete.core import FactorModel, Hyperparams, TaggingMatrix
from tagcomplete.io import (
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
        assert m.features_path == str(feats)
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

    def test_failed_write_cleans_up(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_dense_matrix(path, np.eye(2))
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
