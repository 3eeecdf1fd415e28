import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from tagcomplete import io as tgio
from tagcomplete import cli, lasso, structure
from tagcomplete.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _hyperparams_from,
    build_parser,
    main,
)
from tagcomplete.core import FeatureMatrix, Hyperparams, StructureMatrix, TaggingMatrix
from tagcomplete.metrics import evaluate, rank_predictions
from tagcomplete.synth import SynthConfig, delete_tags, generate


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(output: str) -> dict:
    pairs = {}
    for line in output.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


SMALL_CFG = dict(
    n_images=60,
    n_tags=20,
    n_topics=4,
    tags_per_image=5,
    feature_dim=8,
    feature_noise=0.05,
    delete_fraction=0.4,
    rng_seed=7,
    off_topic_prob=0.0,
)


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    cfg = SynthConfig(**SMALL_CFG)
    instance = generate(cfg)
    split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
    paths = {
        "features": str(base / "features.csv"),
        "observed": str(base / "observed.mtx"),
        "split": str(base / "split.json"),
        "dir": base,
    }
    tgio.write_dense_matrix(paths["features"], instance.features.data)
    tgio.write_sparse_matrix(paths["observed"], split.observed.matrix)
    tgio.write_split(paths["split"], split)
    return paths


def write_manifest_json(path, **paths) -> None:
    """A manifest as the CLI reads it: format marker, version and input paths."""
    with open(path, "w") as handle:
        json.dump({"format": "tagcomplete-manifest", "version": 1, **paths}, handle)


def write_config(path, **overrides) -> str:
    values = dict(SMALL_CFG, **overrides)
    path.write_text(
        "# synthetic instance\n"
        + "".join(f"{k} = {v}\n" for k, v in values.items())
    )
    return str(path)


class TestBuildStructure:
    def test_image_mode_diagonal_absent(self, pipeline_files, capsys, tmp_path):
        out = str(tmp_path / "S.mtx")
        code, stdout, _ = run_cli(
            [
                "build-structure", "--mode", "image",
                "--features", pipeline_files["features"],
                "--knn", "10", "--out", out,
            ],
            capsys,
        )
        assert code == EXIT_OK
        matrix = tgio.read_sparse_matrix(out)
        assert matrix.shape == (60, 60)
        assert np.all(matrix.diagonal() == 0)
        coo = matrix.tocoo()
        assert not np.any(coo.row == coo.col)
        report = kv(stdout)
        assert report["mode"] == "image"
        assert float(report["kkt_max"]) <= 1e-8

    def test_tag_mode_column_support(self, pipeline_files, capsys, tmp_path):
        out = str(tmp_path / "T.mtx")
        code, stdout, _ = run_cli(
            [
                "build-structure", "--mode", "tag",
                "--tags", pipeline_files["observed"],
                "--knn", "10", "--out", out,
            ],
            capsys,
        )
        assert code == EXIT_OK
        matrix = tgio.read_sparse_matrix(out)
        per_column = np.diff(matrix.tocsc().indptr)
        assert np.all(per_column <= 10)
        assert np.all(matrix.diagonal() == 0)
        assert float(kv(stdout)["kkt_max"]) <= 1e-8

    def test_repeated_runs_identical_bytes(self, pipeline_files, capsys, tmp_path):
        out_a = tmp_path / "a.mtx"
        out_b = tmp_path / "b.mtx"
        for out in (out_a, out_b):
            code, _, _ = run_cli(
                [
                    "build-structure", "--mode", "image",
                    "--features", pipeline_files["features"],
                    "--knn", "10", "--out", str(out),
                ],
                capsys,
            )
            assert code == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("with_tags", [False, True])
    def test_image_mode_searches_neighbors_once(
        self, pipeline_files, capsys, tmp_path, monkeypatch, with_tags
    ):
        # the build and its certificate share one neighbor search; the
        # certificate's residuals are those of a check that searches again
        search, calls = structure.knn_index, []

        def counted(vectors, k):
            calls.append(k)
            return search(vectors, k)

        monkeypatch.setattr(structure, "knn_index", counted)
        monkeypatch.setattr(cli, "knn_index", counted)
        out = str(tmp_path / "S.mtx")
        tag_args = ["--tags", pipeline_files["observed"]] if with_tags else []
        code, stdout, _ = run_cli(
            ["build-structure", "--mode", "image", "--features", pipeline_files["features"],
             *tag_args, "--knn", "10", "--out", out],
            capsys,
        )
        assert code == EXIT_OK and calls == [10]
        features = FeatureMatrix(tgio.read_dense_matrix(pipeline_files["features"]))
        tags = TaggingMatrix(tgio.read_sparse_matrix(pipeline_files["observed"])) if with_tags else None
        residuals = structure.feature_structure_kkt(
            features, StructureMatrix(tgio.read_sparse_matrix(out)),
            Hyperparams(knn_k=10), tags=tags,
        )
        assert calls == [10, 10]
        report = kv(stdout)
        assert report["kkt_max"] == repr(float(np.max(residuals)))
        assert report["kkt_mean"] == repr(float(np.mean(residuals)))

    def test_tag_mode_searches_neighbors_once(self, pipeline_files, capsys, tmp_path, monkeypatch):
        # the build and its certificate share one tag-neighbor search; T and
        # the report are those of the library calls that search on their own
        search, calls = structure._tag_neighbors, []

        def counted(G, k):
            calls.append(k)
            return search(G, k)

        monkeypatch.setattr(structure, "_tag_neighbors", counted)
        out = tmp_path / "T.mtx"
        code, stdout, _ = run_cli(
            ["build-structure", "--mode", "tag", "--tags", pipeline_files["observed"],
             "--knn", "10", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK and calls == [10]
        tags, hp = TaggingMatrix(tgio.read_sparse_matrix(pipeline_files["observed"])), Hyperparams(knn_k=10)
        T = structure.build_tag_structure(tags, hp)
        residuals = structure.tag_structure_kkt(tags, T, hp)
        assert calls == [10, 10, 10]
        tgio.write_sparse_matrix(tmp_path / "want.mtx", T.matrix)
        assert out.read_bytes() == (tmp_path / "want.mtx").read_bytes()
        assert stdout.splitlines() == [
            "mode=tag", f"items={T.size}", f"nnz={T.matrix.nnz}",
            f"kkt_max={float(np.max(residuals))!r}", f"kkt_mean={float(np.mean(residuals))!r}",
            f"wrote={out}",
        ]

    def test_image_mode_requires_features(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["build-structure", "--mode", "image", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "--features" in err

    def test_tag_mode_rejects_features(self, pipeline_files, capsys, tmp_path):
        code, _, err = run_cli(
            [
                "build-structure", "--mode", "tag",
                "--tags", pipeline_files["observed"],
                "--features", pipeline_files["features"],
                "--out", str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("mode, flag", [("image", "--mu"), ("tag", "--alpha")])
    def test_other_modes_l1_flag_rejected(self, pipeline_files, capsys, tmp_path, mode, flag):
        # the flag used to parse and then be ignored
        out = tmp_path / "x.mtx"
        inputs = {"image": ["--features", pipeline_files["features"]],
                  "tag": ["--tags", pipeline_files["observed"]]}[mode]
        code, stdout, err = run_cli(
            ["build-structure", "--mode", mode, *inputs, flag, "0.5", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_USAGE and stdout == "" and not out.exists()
        assert err == f"error: --mode {mode} does not use {flag}\n"

    def test_tag_mode_non_binary_tags_exit_2(self, capsys, tmp_path):
        tags = sp.csr_matrix(np.array([[1.0, 0.0, 1.0], [1.0, 0.5, 0.0]]))
        tgio.write_sparse_matrix(str(tmp_path / "tags.mtx"), tags)
        out = tmp_path / "T.mtx"
        code, stdout, err = run_cli(
            ["build-structure", "--mode", "tag", "--tags", str(tmp_path / "tags.mtx"),
             "--knn", "2", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_USAGE and stdout == "" and not out.exists()
        assert err == (
            "error: the tag structure needs a binary tagging matrix, "
            "but D stores 0.5 at image 1, tag 1\n"
        )

    @pytest.mark.parametrize("mode", ["image", "tag"])
    def test_lasso_out_of_rounds_exits_3(
        self, pipeline_files, capsys, tmp_path, monkeypatch, mode
    ):
        # one round per item is too few for these lassos
        monkeypatch.setattr(
            structure, "solve_lasso",
            lambda batch, tol: lasso.solve_lasso(batch, tol, max_iters=1),
        )
        out = tmp_path / "x.mtx"
        inputs = {"image": ["--features", pipeline_files["features"]],
                  "tag": ["--tags", pipeline_files["observed"]]}[mode]
        code, stdout, err = run_cli(
            ["build-structure", "--mode", mode, *inputs, "--knn", "10", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_NUMERICAL and stdout == "" and not out.exists()
        assert err.startswith("numerical failure: reconstruction subproblem for item ")


@pytest.fixture(scope="module")
def built_structures(pipeline_files, tmp_path_factory):
    base = tmp_path_factory.mktemp("structures")
    s_path = str(base / "S.mtx")
    t_path = str(base / "T.mtx")
    for args in (
        ["build-structure", "--mode", "image",
         "--features", pipeline_files["features"], "--knn", "10",
         "--out", s_path],
        ["build-structure", "--mode", "tag",
         "--tags", pipeline_files["observed"], "--knn", "10",
         "--out", t_path],
    ):
        assert main(args) == EXIT_OK
    return {"S": s_path, "T": t_path}


class TestComplete:
    def test_zero_tags_zero_scores(self, capsys, tmp_path):
        tags = str(tmp_path / "zero.mtx")
        s_path = str(tmp_path / "S.mtx")
        t_path = str(tmp_path / "T.mtx")
        tgio.write_sparse_matrix(tags, sp.csr_matrix((3, 2)))
        tgio.write_sparse_matrix(s_path, sp.csr_matrix((3, 3)))
        tgio.write_sparse_matrix(t_path, sp.csr_matrix((2, 2)))
        scores_path = str(tmp_path / "scores.csv")
        code, stdout, _ = run_cli(
            [
                "complete", "--tags", tags,
                "--image-structure", s_path, "--tag-structure", t_path,
                "--K", "2", "--out-scores", scores_path,
            ],
            capsys,
        )
        assert code == EXIT_OK
        report = kv(stdout)
        assert report["iterations"] == "1"
        assert report["converged"] == "True"
        assert float(report["relative_residual"]) == 0.0
        scores = tgio.read_dense_matrix(scores_path)
        np.testing.assert_array_equal(scores, np.zeros((3, 2)))

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        tags = str(tmp_path / "tags.mtx")
        s_path = str(tmp_path / "S.mtx")
        t_path = str(tmp_path / "T.mtx")
        tgio.write_sparse_matrix(tags, sp.csr_matrix(np.eye(3, 2)))
        tgio.write_sparse_matrix(s_path, sp.csr_matrix((3, 3)))
        tgio.write_sparse_matrix(t_path, sp.csr_matrix((2, 2)))
        code, stdout, err = run_cli(
            [
                "complete", "--tags", tags,
                "--image-structure", s_path, "--tag-structure", t_path,
                "--K", "2", "--seed", "-1", "--no-reinit",
                "--out-scores", str(tmp_path / "scores.csv"),
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert "rng_seed" in err
        assert stdout == ""

    def test_exact_instance_small_residual(self, capsys, tmp_path):
        # block-constant tags with tags_per_image equal to the block size
        # factor exactly at rank n_topics
        cfg = SynthConfig(
            n_images=80, n_tags=20, n_topics=4, tags_per_image=5,
            feature_dim=8, feature_noise=0.0, delete_fraction=0.4,
            rng_seed=3, off_topic_prob=0.0,
        )
        instance = generate(cfg)
        tags = str(tmp_path / "exact.mtx")
        s_path = str(tmp_path / "S.mtx")
        t_path = str(tmp_path / "T.mtx")
        tgio.write_sparse_matrix(tags, instance.truth.matrix)
        tgio.write_sparse_matrix(s_path, sp.csr_matrix((80, 80)))
        tgio.write_sparse_matrix(t_path, sp.csr_matrix((20, 20)))
        code, stdout, _ = run_cli(
            [
                "complete", "--tags", tags,
                "--image-structure", s_path, "--tag-structure", t_path,
                "--K", "4", "--gamma", "1e-8", "--lambda", "1e-8",
                "--eta", "1e-8", "--beta", "10", "--rel-tol", "1e-7",
                "--max-iters", "150", "--no-reinit",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert float(kv(stdout)["relative_residual"]) <= 1e-3

    def test_model_trace_non_increasing(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        model_path = str(tmp_path / "model.json")
        code, _, _ = run_cli(
            [
                "complete", "--tags", pipeline_files["observed"],
                "--image-structure", built_structures["S"],
                "--tag-structure", built_structures["T"],
                "--K", "4", "--eta", "0.05", "--beta", "2.0",
                "--max-iters", "40", "--out-model", model_path,
            ],
            capsys,
        )
        assert code == EXIT_OK
        record = tgio.read_model(model_path)
        trace = np.asarray(record.objective_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 1e-10 * np.abs(trace[:-1]))

    def complete_with_model(self, pipeline_files, built_structures, capsys, tmp_path, flags):
        """complete on the pipeline files: exit code, stdout, stderr and the
        number of tags whose column of V is all zero in the model file."""
        model_path = str(tmp_path / "model.json")
        code, stdout, err = run_cli(
            [
                "complete", "--tags", pipeline_files["observed"],
                "--image-structure", built_structures["S"],
                "--tag-structure", built_structures["T"],
                "--out-model", model_path, *flags,
            ],
            capsys,
        )
        V = tgio.read_model(model_path).model.V.toarray()
        return code, stdout, err, int((~V.any(axis=0)).sum())

    @pytest.mark.parametrize("reinit", ["--no-reinit", "--reinit"])
    def test_relative_residual_reads_the_model(
        self, pipeline_files, built_structures, capsys, tmp_path, reinit
    ):
        # ||D - UV|| / ||D|| from the model file and the dense D the fit read:
        # bit for bit for 0/1 data, and to rounding for reinitialized data,
        # whose norm sums the same squares in another order
        model_path = str(tmp_path / "model.json")
        scores_path = str(tmp_path / "scores.csv")
        code, stdout, _ = run_cli(
            [
                "complete", "--tags", pipeline_files["observed"],
                "--image-structure", built_structures["S"],
                "--tag-structure", built_structures["T"],
                "--K", "4", "--eta", "0.05", "--out-model", model_path,
                "--out-scores", scores_path, reinit,
            ],
            capsys,
        )
        assert code == EXIT_OK
        D = TaggingMatrix(tgio.read_sparse_matrix(pipeline_files["observed"]))
        if reinit == "--reinit":
            S = StructureMatrix(tgio.read_sparse_matrix(built_structures["S"]))
            T = StructureMatrix(tgio.read_sparse_matrix(built_structures["T"]))
            D = structure.reinitialize(D, S, T)
        scores = tgio.read_model(model_path).model.completed()
        np.testing.assert_array_equal(tgio.read_dense_matrix(scores_path), scores)
        data = D.to_dense()
        want = float(np.linalg.norm(data - scores)) / float(np.linalg.norm(data))
        got = float(kv(stdout)["relative_residual"])
        if reinit == "--no-reinit":
            assert got == want
        else:
            assert abs(got - want) <= 1e-14 * want

    def test_empty_tags_warn_on_stderr(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        # at the default eta, 2 of the 20 tags end with an all-zero column
        code, stdout, err, empty = self.complete_with_model(
            pipeline_files, built_structures, capsys, tmp_path, ["--K", "4"]
        )
        assert code == EXIT_OK
        assert empty == 2
        assert err == (
            "warning: 2 of 20 tags have an all-zero column of V, "
            "so every image scores 0 on them (eta=1.0, K=4)\n"
        )
        assert list(kv(stdout)) == [
            "iterations", "converged", "skipped_coordinates",
            "objective_trace_tail", "relative_residual",
        ]

    def test_a_fit_with_no_live_factor_warns_and_exits_0(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        # an eta above every coupling zeroes V in the first sweep, and the
        # basis pass of iteration 1 then zeroes U
        code, stdout, err, empty = self.complete_with_model(
            pipeline_files, built_structures, capsys, tmp_path,
            ["--K", "4", "--eta", "1000", "--no-reinit"],
        )
        assert code == EXIT_OK
        assert kv(stdout)["converged"] == "True"
        assert empty == 20
        assert err == (
            "warning: fit ended with no live factor, so U = 0, V = 0 and every score is 0: "
            "the last one died in iteration 1\n"
            "warning: 20 of 20 tags have an all-zero column of V, "
            "so every image scores 0 on them (eta=1000.0, K=4)\n"
        )

    def test_no_warning_without_empty_tags(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        code, _, err, empty = self.complete_with_model(
            pipeline_files, built_structures, capsys, tmp_path,
            ["--K", "4", "--eta", "0.05", "--beta", "2.0"],
        )
        assert code == EXIT_OK
        assert empty == 0
        assert err == ""

    def test_sparse_out_matches_dense(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        dense_path = str(tmp_path / "scores.csv")
        sparse_path = str(tmp_path / "scores.mtx")
        common = [
            "complete", "--tags", pipeline_files["observed"],
            "--image-structure", built_structures["S"],
            "--tag-structure", built_structures["T"],
            "--K", "4", "--eta", "0.05", "--beta", "2.0",
            "--max-iters", "15",
        ]
        assert main(common + ["--out-scores", dense_path]) == EXIT_OK
        assert main(common + ["--out-scores", sparse_path, "--sparse-out"]) == EXIT_OK
        capsys.readouterr()
        dense = tgio.read_dense_matrix(dense_path)
        from_sparse = tgio.read_sparse_matrix(sparse_path).toarray()
        np.testing.assert_allclose(from_sparse, dense, rtol=0, atol=1e-15)

    def test_sparse_out_without_out_scores_exit_2(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        model = tmp_path / "model.json"
        code, stdout, err = run_cli(
            ["complete", "--tags", pipeline_files["observed"],
             "--image-structure", built_structures["S"],
             "--tag-structure", built_structures["T"],
             "--out-model", str(model), "--sparse-out"],
            capsys,
        )
        assert code == EXIT_USAGE and stdout == "" and not model.exists()
        assert err == "error: --sparse-out needs --out-scores\n"

    def test_manifest_supplies_inputs_and_overrides(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        overrides_path = tmp_path / "overrides.txt"
        overrides_path.write_text("K = 4\neta = 0.05\nbeta = 2.0\nmax_outer_iters = 15\n")
        manifest_path = str(tmp_path / "manifest.json")
        write_manifest_json(
            manifest_path,
            tags=pipeline_files["observed"],
            image_structure=built_structures["S"],
            tag_structure=built_structures["T"],
            overrides=str(overrides_path),
        )
        code, stdout, _ = run_cli(["complete", "--manifest", manifest_path], capsys)
        assert code == EXIT_OK
        via_manifest = kv(stdout)

        code, stdout, _ = run_cli(
            [
                "complete", "--tags", pipeline_files["observed"],
                "--image-structure", built_structures["S"],
                "--tag-structure", built_structures["T"],
                "--K", "4", "--eta", "0.05", "--beta", "2.0",
                "--max-iters", "15",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert kv(stdout) == via_manifest

    def test_flag_beats_manifest_override(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        overrides_path = tmp_path / "overrides.txt"
        overrides_path.write_text("max_outer_iters = 15\nK = 4\n")
        manifest_path = str(tmp_path / "manifest.json")
        write_manifest_json(
            manifest_path,
            tags=pipeline_files["observed"],
            image_structure=built_structures["S"],
            tag_structure=built_structures["T"],
            overrides=str(overrides_path),
        )
        code, stdout, _ = run_cli(
            ["complete", "--manifest", manifest_path, "--max-iters", "2"],
            capsys,
        )
        assert code == EXIT_OK
        assert kv(stdout)["iterations"] == "2"

    def test_non_finite_flag_exits_2(self, pipeline_files, built_structures, capsys):
        code, stdout, err = run_cli(
            [
                "complete", "--tags", pipeline_files["observed"],
                "--image-structure", built_structures["S"],
                "--tag-structure", built_structures["T"], "--alpha", "nan",
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err == "error: alpha must be finite\n"
        assert stdout == ""

    def test_non_finite_override_exits_2(
        self, pipeline_files, built_structures, capsys, tmp_path
    ):
        overrides_path = tmp_path / "overrides.txt"
        overrides_path.write_text("K = 4\ngamma = inf\n")
        manifest_path = str(tmp_path / "manifest.json")
        write_manifest_json(
            manifest_path,
            tags=pipeline_files["observed"],
            image_structure=built_structures["S"],
            tag_structure=built_structures["T"],
            overrides=str(overrides_path),
        )
        code, stdout, err = run_cli(["complete", "--manifest", manifest_path], capsys)
        assert code == EXIT_USAGE
        assert err == "error: gamma must be finite\n"
        assert stdout == ""

    @pytest.mark.parametrize("key", ["inner_sweeps", "lasso_max_iters"])
    def test_removed_hyperparam_override_exits_2(
        self, key, pipeline_files, built_structures, capsys, tmp_path
    ):
        overrides_path = tmp_path / "overrides.txt"
        overrides_path.write_text(f"K = 4\n{key} = 2\n")
        manifest_path = str(tmp_path / "manifest.json")
        write_manifest_json(
            manifest_path,
            tags=pipeline_files["observed"],
            image_structure=built_structures["S"],
            tag_structure=built_structures["T"],
            overrides=str(overrides_path),
        )
        code, stdout, err = run_cli(["complete", "--manifest", manifest_path], capsys)
        assert code == EXIT_USAGE
        expected = f"error: {overrides_path}:2: unknown Hyperparams field {key!r}\n"
        assert err == expected
        assert stdout == ""

    def test_max_iters_exits_0_unconverged(
        self, pipeline_files, built_structures, capsys
    ):
        code, stdout, _ = run_cli(
            [
                "complete", "--tags", pipeline_files["observed"],
                "--image-structure", built_structures["S"],
                "--tag-structure", built_structures["T"],
                "--K", "4", "--max-iters", "1",
            ],
            capsys,
        )
        assert code == EXIT_OK
        report = kv(stdout)
        assert report["iterations"] == "1"
        assert report["converged"] == "False"

    def test_reinit_to_zero_exits_2(self, pipeline_files, capsys, tmp_path):
        s_path = str(tmp_path / "S.mtx")
        t_path = str(tmp_path / "T.mtx")
        tgio.write_sparse_matrix(s_path, sp.csr_matrix((60, 60)))
        tgio.write_sparse_matrix(t_path, sp.csr_matrix((20, 20)))
        code, stdout, err = run_cli(
            [
                "complete", "--tags", pipeline_files["observed"],
                "--image-structure", s_path, "--tag-structure", t_path,
                "--K", "4",
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "all zeros" in err and "--no-reinit" in err

    def test_requires_structures(self, pipeline_files, capsys):
        code, _, err = run_cli(
            ["complete", "--tags", pipeline_files["observed"]], capsys
        )
        assert code == EXIT_USAGE
        assert "structure" in err

    @pytest.mark.parametrize("shape, name", [((3, 0), "tags"), ((0, 3), "images")])
    def test_empty_tagging_matrix_exits_2(self, capsys, tmp_path, shape, name):
        tags, s_path, t_path = (str(tmp_path / f) for f in ("D.mtx", "S.mtx", "T.mtx"))
        tgio.write_sparse_matrix(tags, sp.csr_matrix(shape))
        tgio.write_sparse_matrix(s_path, sp.csr_matrix((shape[0], shape[0])))
        tgio.write_sparse_matrix(t_path, sp.csr_matrix((shape[1], shape[1])))
        code, stdout, err = run_cli(
            [
                "complete", "--tags", tags,
                "--image-structure", s_path, "--tag-structure", t_path,
                "--K", "2", "--no-reinit",
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert f"tagging matrix has no {name}" in err

    def test_blowup_exits_3_with_trace(self, capsys, tmp_path):
        tags = str(tmp_path / "huge.mtx")
        zero2 = str(tmp_path / "z2.mtx")
        tgio.write_sparse_matrix(
            tags, sp.csr_matrix(np.array([[1e200, 0.0], [0.0, 1e200]]))
        )
        tgio.write_sparse_matrix(zero2, sp.csr_matrix((2, 2)))
        code, _, err = run_cli(
            [
                "complete", "--tags", tags,
                "--image-structure", zero2, "--tag-structure", zero2,
                "--K", "2", "--no-reinit",
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert err == (
            "numerical failure: objective became non-finite after the "
            "coefficient pass of iteration 1\nobjective_trace=inf,inf\n"
        )


class TestEvaluate:
    def test_key_value_output(self, capsys, tmp_path):
        from tagcomplete.core import TaggingMatrix
        from tagcomplete.metrics import EvalSplit

        observed = TaggingMatrix.from_dense(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
        split = EvalSplit(
            observed=observed, deleted=({1}, {0, 2}), test_image_ids=(0, 1)
        )
        split_path = str(tmp_path / "split.json")
        scores_path = str(tmp_path / "scores.csv")
        tgio.write_split(split_path, split)
        tgio.write_dense_matrix(
            scores_path, np.array([[0.0, 0.9, 0.5, 0.1], [0.2, 0.0, 0.1, 0.9]])
        )
        out_path = tmp_path / "eval.txt"
        code, stdout, _ = run_cli(
            [
                "evaluate", "--scores", scores_path, "--split", split_path,
                "--n", "2", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_OK
        report = kv(stdout)
        # image 0: top-2 = [1, 2], deleted {1} -> 1 hit of 1 deleted
        # image 1: top-2 = [3, 0], deleted {0, 2} -> 1 hit of 2 deleted
        assert float(report["AP@2"]) == 0.5
        assert float(report["AR@2"]) == 0.75
        assert float(report["C@2"]) == 1.0
        assert out_path.read_text() == stdout

    def test_missing_scores_file(self, capsys, tmp_path):
        split_path = str(tmp_path / "nope.json")
        code, _, err = run_cli(
            ["evaluate", "--scores", "absent.csv", "--split", split_path],
            capsys,
        )
        assert code == EXIT_USAGE


    def test_duplicates_summing_to_inf_exit_2(self, capsys, tmp_path):
        scores_path = tmp_path / "scores.mtx"
        scores_path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 4 2\n1 1 1e308\n1 1 1e308\n"
        )
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(TestWronglyTypedJson.SPLIT))
        code, stdout, err = run_cli(
            ["evaluate", "--scores", str(scores_path), "--split", str(split_path)],
            capsys,
        )
        assert code == EXIT_USAGE and stdout == ""
        assert err == (
            f"error: {scores_path}:4: duplicate entries at (1, 1) sum to a non-finite value\n"
        )

    def test_huge_declared_count_exits_2(self, capsys, tmp_path):
        scores_path = tmp_path / "scores.mtx"
        scores_path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 4 100000000000000000\n1 1 1.0\n"
        )
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(TestWronglyTypedJson.SPLIT))
        code, _, err = run_cli(
            ["evaluate", "--scores", str(scores_path), "--split", str(split_path)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {scores_path}:3: declared ")


class TestWronglyTypedJson:
    """Well-formed JSON with a wrongly typed field exits 2 naming the file."""

    SPLIT = {
        "format": "tagcomplete-split",
        "version": 1,
        "n_images": 2,
        "n_tags": 4,
        "observed": {"rows": [0, 1], "cols": [0, 1], "values": [1.0, 1.0]},
        "test_image_ids": [0, 1],
        "deleted": [[1], [0, 2]],
    }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deleted", [["x"]]),
            ("test_image_ids", 0),
            ("observed", {"rows": [0, 5], "cols": [0, 1], "values": [1.0, 1.0]}),
            ("n_images", -2),
            ("observed", {"rows": [0.5, 1], "cols": [0, 1], "values": [1.0, 1.0]}),
            ("observed", {"rows": [True, 0], "cols": [0, 1], "values": [1.0, 1.0]}),
            ("observed", {"rows": [0, 1], "cols": [0, 1.0], "values": [1.0, 1.0]}),
        ],
    )
    def test_split(self, field, value, capsys, tmp_path):
        scores_path = str(tmp_path / "scores.csv")
        tgio.write_dense_matrix(scores_path, np.zeros((2, 4)))
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(dict(self.SPLIT, **{field: value})))
        code, _, err = run_cli(
            ["evaluate", "--scores", scores_path, "--split", str(split_path)], capsys
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {split_path}: ")

    @pytest.mark.parametrize(
        "field, value",
        [("test_image_ids", [0.9, True]), ("deleted", [[1.7], [0, 2]])],
    )
    def test_split_non_integer_ids(self, field, value, capsys, tmp_path):
        scores_path = str(tmp_path / "scores.csv")
        tgio.write_dense_matrix(scores_path, np.zeros((2, 4)))
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(dict(self.SPLIT, **{field: value})))
        code, stdout, err = run_cli(
            ["evaluate", "--scores", scores_path, "--split", str(split_path)], capsys
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {split_path}: invalid split (")
        assert "must be integers" in err
        assert stdout == ""

    def test_manifest_tags_not_a_path(self, capsys, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(
            {"format": "tagcomplete-manifest", "version": 1, "tags": 5}
        ))
        code, _, err = run_cli(["complete", "--manifest", str(manifest_path)], capsys)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {manifest_path}: ")


class TestSynthBench:
    def test_perfect_recovery(self, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg")
        code, stdout, _ = run_cli(
            [
                "synth-bench", "--config", config,
                "--knn", "10", "--K", "4", "--eta", "0.05", "--beta", "2.0",
            ],
            capsys,
        )
        assert code == EXIT_OK
        report = kv(stdout)
        assert report["converged"] == "True"
        assert float(report["AP@2"]) == 1.0
        assert float(report["AR@2"]) == 1.0
        assert float(report["C@2"]) == 1.0

    def test_baseline_near_chance(self, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg")
        code, stdout, _ = run_cli(
            [
                "synth-bench", "--config", config,
                "--knn", "10", "--K", "4", "--eta", "0.05", "--beta", "2.0",
            ],
            capsys,
        )
        assert code == EXIT_OK
        report = kv(stdout)
        # every image keeps 3 of 5 tags, so 17 candidates hide 2 true tags;
        # drawing 2 of 17: E[hits]/2 = 2/17, P(any hit) = 1 - C(15,2)/C(17,2)
        chance_p = 2.0 / 17.0
        chance_c = 1.0 - (15 * 14) / (17 * 16)
        assert abs(float(report["baseline_AP@2"]) - chance_p) <= 0.2 * chance_p
        assert abs(float(report["baseline_AR@2"]) - chance_p) <= 0.2 * chance_p
        assert abs(float(report["baseline_C@2"]) - chance_c) <= 0.2 * chance_c

    def test_fixed_seed_identical_report(self, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg")
        args = [
            "synth-bench", "--config", config, "--seed", "11",
            "--knn", "10", "--K", "4", "--eta", "0.05", "--beta", "2.0",
        ]
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg")
        args = [
            "synth-bench", "--config", config,
            "--knn", "10", "--K", "4", "--eta", "0.05", "--beta", "2.0",
        ]
        code, base_out, _ = run_cli(args, capsys)
        assert code == EXIT_OK
        code, seeded_out, _ = run_cli(args + ["--seed", "7"], capsys)
        assert code == EXIT_OK
        assert seeded_out == base_out  # config already says rng_seed=7
        code, other_out, _ = run_cli(args + ["--seed", "8"], capsys)
        assert code == EXIT_OK
        assert other_out != base_out

    def test_max_iters_exits_0_unconverged(self, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg")
        code, stdout, _ = run_cli(
            [
                "synth-bench", "--config", config, "--max-iters", "1",
                "--knn", "10", "--K", "4", "--eta", "0.05", "--beta", "2.0",
            ],
            capsys,
        )
        assert code == EXIT_OK
        report = kv(stdout)
        assert report["iterations"] == "1"
        assert report["converged"] == "False"

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg")
        code, _, err = run_cli(
            ["synth-bench", "--config", config, "--seed", "-1"], capsys
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert "rng_seed" in err

    def test_negative_config_seed_exits_2(self, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg", rng_seed=-3)
        code, _, err = run_cli(["synth-bench", "--config", config], capsys)
        assert code == EXIT_USAGE
        assert "rng_seed" in err

    def test_bad_config_key(self, capsys, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text("n_images = 10\nbananas = 3\n")
        code, _, err = run_cli(
            ["synth-bench", "--config", str(config)], capsys
        )
        assert code == EXIT_USAGE
        assert "bananas" in err

    def test_missing_config_fields(self, capsys, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text("n_images = 10\n")
        code, _, err = run_cli(
            ["synth-bench", "--config", str(config)], capsys
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert str(config) in err
        for name in ("n_tags", "n_topics", "feature_dim", "rng_seed"):
            assert name in err

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_feature_noise_exits_2(self, noise, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg", feature_noise=noise)
        code, stdout, err = run_cli(["synth-bench", "--config", config], capsys)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err == "error: feature_noise must be finite and >= 0\n"

    def test_infeasible_config(self, capsys, tmp_path):
        config = write_config(tmp_path / "synth.cfg", tags_per_image=50)
        code, _, err = run_cli(["synth-bench", "--config", config], capsys)
        assert code == EXIT_USAGE


class TestNonUtf8Input:
    """Every subcommand exits 2 on an input file that is not UTF-8, with the
    reader's message naming the file, line and byte."""

    AT_FIRST_BYTE = (b"\xff\xfe1,2\n", "1: not UTF-8 text (invalid start byte at byte 0)")

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["evaluate", "--scores", "BAD", "--split", "SPLIT"], AT_FIRST_BYTE),
            (["evaluate", "--scores", "SCORES", "--split", "BAD"], AT_FIRST_BYTE),
            (["build-structure", "--mode", "tag", "--tags", "BAD", "--out", "OUT"],
             AT_FIRST_BYTE),
            (["build-structure", "--mode", "image", "--features", "BAD", "--out", "OUT"],
             AT_FIRST_BYTE),
            (["complete", "--manifest", "BAD"], AT_FIRST_BYTE),
            (["synth-bench", "--config", "BAD"],
             (b"n_images = 10\n\xff = 3\n", "2: not UTF-8 text (invalid start byte at byte 14)")),
        ],
        ids=["scores", "split", "tag-structure", "image-structure", "manifest", "config"],
    )
    def test_exits_2_naming_the_file(self, argv, bad, capsys, tmp_path):
        content, where = bad
        paths = {name: tmp_path / name for name in ("BAD", "SCORES", "SPLIT", "OUT")}
        paths["BAD"].write_bytes(content)
        tgio.write_dense_matrix(paths["SCORES"], np.zeros((2, 4)))
        paths["SPLIT"].write_text(json.dumps(TestWronglyTypedJson.SPLIT))
        argv = [str(paths.get(arg, arg)) for arg in argv]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout, err) == (EXIT_USAGE, "", f"error: {paths['BAD']}:{where}\n")
        assert not paths["OUT"].exists()


class TestHyperparamFlags:
    """Each hyperparameter flag sets its own Hyperparams field and no other."""

    REQUIRED = {
        "build-structure": ["--mode", "tag", "--out", "S.mtx"],
        "complete": [],
        "synth-bench": ["--config", "synth.cfg"],
    }
    SHARED = [
        ("--K", "7", "K", 7),
        ("--knn", "7", "knn_k", 7),
        ("--alpha", "0.25", "alpha", 0.25),
        ("--mu", "0.25", "mu", 0.25),
        ("--beta", "0.25", "beta", 0.25),
        ("--gamma", "0.25", "gamma", 0.25),
        ("--lambda", "0.25", "lambda_", 0.25),
        ("--eta", "0.25", "eta", 0.25),
        ("--seed", "5", "rng_seed", 5),
        ("--max-iters", "9", "max_outer_iters", 9),
        ("--rel-tol", "0.001", "rel_tol", 0.001),
    ]
    TABLE = {
        "build-structure": [r for r in SHARED if r[0] in ("--knn", "--alpha", "--mu")],
        "complete": SHARED,
        "synth-bench": SHARED,
    }
    CASES = [(command, *row) for command, rows in TABLE.items() for row in rows]

    @pytest.mark.parametrize("command, flag, text, field, value", CASES)
    def test_flag_sets_its_field(self, command, flag, text, field, value):
        argv = [command, *self.REQUIRED[command], flag, text]
        args = build_parser().parse_args(argv)
        assert _hyperparams_from(args) == Hyperparams().with_overrides(**{field: value})

    @pytest.mark.parametrize("command", sorted(TABLE))
    def test_table_lists_every_hyperparameter_flag(self, command):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        declared = {
            action.option_strings[0]
            for action in subparsers[command]._actions
            if action.dest in Hyperparams.field_names()
        }
        assert declared == {flag for flag, *_ in self.TABLE[command]}


class TestWarningLines:
    """A library warning reaches stderr as one "warning: <message>" line."""

    SHORT = (
        "warning: 1 test image(s) have fewer than 2 candidate tags; "
        "their prediction lists are shorter\n"
    )
    ZERO_TAG = (
        "warning: 1 tag column(s) are all-zero; "
        "their reconstruction weights are set to zero\n"
    )

    @staticmethod
    def evaluate_args(tmp_path):
        """evaluate on a split whose image 0 has one candidate tag of 4."""
        from tagcomplete.metrics import EvalSplit

        observed = TaggingMatrix.from_dense(np.array([[1.0, 1, 1, 0], [0, 1.0, 0, 0]]))
        split = EvalSplit(observed=observed, deleted=({3}, {0, 2}), test_image_ids=(0, 1))
        split_path, scores_path = str(tmp_path / "split.json"), str(tmp_path / "scores.csv")
        tgio.write_split(split_path, split)
        tgio.write_dense_matrix(
            scores_path, np.array([[0.0, 0.9, 0.5, 0.1], [0.2, 0.0, 0.1, 0.9]])
        )
        return ["evaluate", "--scores", scores_path, "--split", split_path, "--n", "2"]

    def test_evaluate_short_candidate_list(self, capsys, tmp_path):
        code, stdout, err = run_cli(self.evaluate_args(tmp_path), capsys)
        assert code == EXIT_OK
        assert stdout == "AP@2=0.5\nAR@2=0.75\nC@2=1.0\n"
        assert err == self.SHORT

    def test_tag_build_with_an_all_zero_tag_column(self, capsys, tmp_path):
        tags, out = str(tmp_path / "D.mtx"), str(tmp_path / "T.mtx")
        tgio.write_sparse_matrix(tags, sp.csr_matrix(np.array([[1.0, 0, 1], [1, 0, 0], [0, 0, 1]])))
        code, stdout, err = run_cli(
            ["build-structure", "--mode", "tag", "--tags", tags, "--knn", "2", "--out", out],
            capsys,
        )
        assert code == EXIT_OK
        assert kv(stdout)["items"] == "3"
        assert err == self.ZERO_TAG

    def test_in_a_new_interpreter(self, tmp_path):
        # under the interpreter's own warning filters, not the test runner's
        result = subprocess.run(
            [sys.executable, "-m", "tagcomplete.cli", *self.evaluate_args(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        assert result.stderr == self.SHORT


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["build-structure", "--mode", "image"]) == EXIT_USAGE
        capsys.readouterr()

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "tagcomplete.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "build-structure" in result.stdout


class TestThreadCountContract:
    def test_complete_is_rounding_equal_at_one_and_two_blas_threads(self, tmp_path):
        """`complete` with reinitialization, run in exactly two subprocesses at
        OPENBLAS_NUM_THREADS=1 and =2, gives rounding-equal results: equal
        iterations, skips, E support and AP/AR/C@2, and final objectives
        equal to a relative 1e-9.  Output bytes are promised only at a fixed
        BLAS build and thread count; at this 400 x 300 shape with K = 100
        the scores differ in their last bits between 1 and 2 threads under
        OpenBLAS 0.3.31 on 2 cores.  On a
        1-core machine OpenBLAS caps its threads at the core count, so both
        runs are the same run and the test passes trivially; so it does
        under a BLAS that ignores OPENBLAS_NUM_THREADS."""
        cfg = SynthConfig(n_images=400, n_tags=300, n_topics=15, tags_per_image=8,
                          feature_dim=32, feature_noise=0.3, delete_fraction=0.4,
                          rng_seed=23, off_topic_prob=0.05)
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        hp = Hyperparams(knn_k=30)
        inputs = {
            "tags": split.observed.matrix,
            "image-structure": structure.build_feature_structure(instance.features, hp).matrix,
            "tag-structure": structure.build_tag_structure(split.observed, hp).matrix,
        }
        argv = [sys.executable, "-m", "tagcomplete.cli", "complete", "--K", "100"]
        for flag, matrix in inputs.items():
            tgio.write_sparse_matrix(tmp_path / f"{flag}.mtx", matrix)
            argv += [f"--{flag}", str(tmp_path / f"{flag}.mtx")]
        runs = []
        for threads in ("1", "2"):
            model, scores = tmp_path / f"model-{threads}.json", tmp_path / f"scores-{threads}.csv"
            result = subprocess.run(
                argv + ["--out-model", str(model), "--out-scores", str(scores)],
                capture_output=True, text=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            )
            assert result.returncode == EXIT_OK, result.stderr
            E = tgio.read_model(model).model.E
            predictions = rank_predictions(tgio.read_dense_matrix(scores), split, 2)
            runs.append((kv(result.stdout), set(zip(*E.nonzero())),
                         evaluate(predictions, split, 2)))
        (one, support_one, quality_one), (two, support_two, quality_two) = runs
        for key in ("iterations", "converged", "skipped_coordinates"):
            assert one[key] == two[key]
        final_one = float(one["objective_trace_tail"].split(",")[-1])
        final_two = float(two["objective_trace_tail"].split(",")[-1])
        assert abs(final_one - final_two) <= 1e-9 * abs(final_one)
        assert support_one == support_two
        assert quality_one == quality_two
