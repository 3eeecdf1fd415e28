"""Batch command-line front end for the completion pipeline.

Subcommands: build-structure, complete, evaluate, synth-bench.  Exit codes:
0 on success, 2 on usage or input problems, 3 on numerical failures
(objective blow-up, or a structure lasso that runs out of rounds).
Reaching --max-iters is not a failure: the run exits 0 and prints
converged=False.  complete warns on stderr, in one line naming eta and K,
when tags end with an all-zero column of V, and so score 0 on every image.
All randomness is controlled by explicit seeds, so repeated invocations
produce identical output files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import io as tgio
from .core import (
    FeatureMatrix,
    Hyperparams,
    StructureMatrix,
    TagCompleteError,
    TaggingMatrix,
    ValidationError,
)
from .lasso import LassoConvergenceError
from .metrics import evaluate as evaluate_metrics
from .metrics import rank_predictions
from .solver import NumericalBlowupError, fit
from .structure import (
    build_feature_structure,
    build_tag_structure,
    combined_feature_rows,
    feature_structure_kkt,
    knn_index,
    reinitialize,
    tag_structure_kkt,
)
from .synth import SynthConfig, delete_tags, generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

def _add_hyperparam_flags(parser) -> None:
    """Flags whose dest is the Hyperparams field they set."""
    parser.add_argument("--K", type=int, default=None, help="basis columns")
    parser.add_argument("--knn", dest="knn_k", metavar="KNN", type=int,
                        default=None, help="neighborhood size")
    parser.add_argument("--alpha", type=float, default=None,
                        help="image-structure L1 weight")
    parser.add_argument("--mu", type=float, default=None,
                        help="tag-structure L1 weight")
    parser.add_argument("--beta", type=float, default=None,
                        help="error-matrix L1 weight")
    parser.add_argument("--gamma", type=float, default=None,
                        help="image-structure penalty weight")
    parser.add_argument("--lambda", dest="lambda_", type=float, default=None,
                        help="tag-structure penalty weight")
    parser.add_argument("--eta", type=float, default=None,
                        help="coefficient L1 weight")
    parser.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int,
                        default=None, help="rng seed")
    parser.add_argument("--max-iters", dest="max_outer_iters", metavar="MAX_ITERS",
                        type=int, default=None)
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)


def _hyperparams_from(args, overrides=None) -> Hyperparams:
    """Defaults, then manifest/config overrides, then explicit flags."""
    merged = dict(overrides or {})
    for field in Hyperparams.field_names():
        if getattr(args, field, None) is not None:
            merged[field] = getattr(args, field)
    return Hyperparams().with_overrides(**merged)


def _print_lines(lines, out_path=None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        tgio.atomic_write_text(out_path, text)


def _cmd_build_structure(args) -> int:
    unused = {"image": "mu", "tag": "alpha"}[args.mode]
    if getattr(args, unused) is not None:
        raise ValidationError(f"--mode {args.mode} does not use --{unused}")
    hp = _hyperparams_from(args)
    if args.mode == "image":
        if args.features is None:
            raise ValidationError("--mode image requires --features")
        features = FeatureMatrix(tgio.read_dense_matrix(args.features))
        tags = (
            TaggingMatrix(tgio.read_sparse_matrix(args.tags))
            if args.tags
            else None
        )
        # one neighbor search for the build and its certificate
        neighbors = knn_index(combined_feature_rows(features, tags), hp.knn_k)
        structure = build_feature_structure(features, hp, tags=tags, neighbors=neighbors)
        residuals = feature_structure_kkt(
            features, structure, hp, tags=tags, neighbors=neighbors
        )
    else:
        if args.tags is None:
            raise ValidationError("--mode tag requires --tags")
        if args.features is not None:
            raise ValidationError("--mode tag does not use --features")
        D = TaggingMatrix(tgio.read_sparse_matrix(args.tags))
        structure = build_tag_structure(D, hp)
        residuals = tag_structure_kkt(D, structure, hp)
    tgio.write_sparse_matrix(args.out, structure.matrix)
    _print_lines(
        [
            f"mode={args.mode}",
            f"items={structure.size}",
            f"nnz={structure.matrix.nnz}",
            f"kkt_max={float(np.max(residuals))!r}",
            f"kkt_mean={float(np.mean(residuals))!r}",
            f"wrote={args.out}",
        ]
    )
    return EXIT_OK


def _cmd_complete(args) -> int:
    if args.sparse_out and not args.out_scores:
        raise ValidationError("--sparse-out needs --out-scores")
    overrides = None
    tags_path = args.tags
    image_structure_path = args.image_structure
    tag_structure_path = args.tag_structure
    if args.manifest:
        manifest = tgio.read_manifest(args.manifest)
        overrides = manifest.overrides
        tags_path = tags_path or manifest.tags_path
        image_structure_path = image_structure_path or manifest.image_structure_path
        tag_structure_path = tag_structure_path or manifest.tag_structure_path
    if not tags_path:
        raise ValidationError("no tagging matrix: pass --tags or --manifest")
    if not image_structure_path or not tag_structure_path:
        raise ValidationError(
            "both --image-structure and --tag-structure are required "
            "(directly or via --manifest)"
        )
    hp = _hyperparams_from(args, overrides)
    D = TaggingMatrix(tgio.read_sparse_matrix(tags_path))
    S = StructureMatrix(tgio.read_sparse_matrix(image_structure_path))
    T = StructureMatrix(tgio.read_sparse_matrix(tag_structure_path))
    fit_input = reinitialize(D, S, T) if args.reinit else D
    report = fit(fit_input, S, T, hp)
    scores = report.model.completed()
    data = fit_input.to_dense()
    denom = float(np.linalg.norm(data))
    residual = float(np.linalg.norm(data - scores)) / denom if denom else 0.0
    if args.out_model:
        tgio.write_model(
            args.out_model, report.model, hp, report.objective_trace
        )
    if args.out_scores:
        if args.sparse_out:
            tgio.write_sparse_matrix(args.out_scores, scores)
        else:
            tgio.write_dense_matrix(args.out_scores, scores)
    V = report.model.V
    empty = V.shape[1] - np.unique(V.indices[V.data != 0.0]).size
    if empty:
        print(
            f"warning: {empty} of {V.shape[1]} tags have an all-zero column of V, "
            f"so every image scores 0 on them (eta={hp.eta!r}, K={hp.K})",
            file=sys.stderr,
        )
    tail = report.objective_trace[-5:]
    _print_lines(
        [
            f"iterations={report.iterations}",
            f"converged={report.converged}",
            f"skipped_coordinates={report.skipped_coordinates}",
            "objective_trace_tail=" + ",".join(repr(float(v)) for v in tail),
            f"relative_residual={residual!r}",
        ]
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    scores = tgio.read_matrix_auto(args.scores)
    split = tgio.read_split(args.split)
    predictions = rank_predictions(scores, split, args.n)
    metrics = evaluate_metrics(predictions, split, args.n)
    _print_lines(
        [
            f"AP@{args.n}={metrics['AP']!r}",
            f"AR@{args.n}={metrics['AR']!r}",
            f"C@{args.n}={metrics['C']!r}",
        ],
        args.out,
    )
    return EXIT_OK


def _cmd_synth_bench(args) -> int:
    values = tgio.parse_key_values(args.config, SynthConfig)
    if args.rng_seed is not None:
        values["rng_seed"] = args.rng_seed
    missing = [
        f.name for f in fields(SynthConfig)
        if f.default is MISSING and f.name not in values
    ]
    if missing:
        raise ValidationError(
            f"{args.config}: missing SynthConfig field(s): {', '.join(missing)}"
        )
    cfg = SynthConfig(**values)
    # one master seed drives synthesis, deletion, solver, and baseline
    hp = _hyperparams_from(args).with_overrides(rng_seed=cfg.rng_seed)
    instance = generate(cfg)
    split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
    S = build_feature_structure(instance.features, hp)
    T = build_tag_structure(split.observed, hp)
    fit_input = (
        reinitialize(split.observed, S, T) if args.reinit else split.observed
    )
    report = fit(fit_input, S, T, hp)
    scores = report.model.completed()
    predictions = rank_predictions(scores, split, args.n)
    metrics = evaluate_metrics(predictions, split, args.n)
    shuffler = np.random.default_rng(cfg.rng_seed + 2)
    shuffled = np.empty_like(scores)
    for i in range(scores.shape[0]):
        shuffled[i] = scores[i, shuffler.permutation(scores.shape[1])]
    baseline_preds = rank_predictions(shuffled, split, args.n)
    baseline = evaluate_metrics(baseline_preds, split, args.n)
    _print_lines(
        [
            f"n_images={cfg.n_images}",
            f"n_tags={cfg.n_tags}",
            f"iterations={report.iterations}",
            f"converged={report.converged}",
            f"AP@{args.n}={metrics['AP']!r}",
            f"AR@{args.n}={metrics['AR']!r}",
            f"C@{args.n}={metrics['C']!r}",
            f"baseline_AP@{args.n}={baseline['AP']!r}",
            f"baseline_AR@{args.n}={baseline['AR']!r}",
            f"baseline_C@{args.n}={baseline['C']!r}",
        ],
        args.out,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagcomplete",
        description="Complete missing image tags by structure-preserving "
        "low-rank factorization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "build-structure",
        help="learn a reconstruction structure over images or tags",
    )
    p.add_argument("--mode", choices=("image", "tag"), required=True)
    p.add_argument("--features", help="dense CSV feature matrix (image mode)")
    p.add_argument(
        "--tags",
        help="sparse tagging matrix; required in tag mode, optional in "
        "image mode to append tags to the features",
    )
    p.add_argument("--knn", dest="knn_k", metavar="KNN", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_structure)

    p = sub.add_parser("complete", help="factorize and complete a tagging matrix")
    p.add_argument("--tags", help="sparse tagging matrix")
    p.add_argument("--image-structure", dest="image_structure")
    p.add_argument("--tag-structure", dest="tag_structure")
    p.add_argument("--manifest", help="JSON manifest naming the inputs")
    _add_hyperparam_flags(p)
    p.add_argument(
        "--reinit",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="blend the tagging matrix through both structures before fitting",
    )
    p.add_argument("--out-model", dest="out_model")
    p.add_argument("--out-scores", dest="out_scores")
    p.add_argument("--sparse-out", dest="sparse_out", action="store_true")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("evaluate", help="score completed tags against a split")
    p.add_argument("--scores", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "synth-bench",
        help="generate a planted instance, run the pipeline, report metrics",
    )
    p.add_argument("--config", required=True, help="key=value synthesis options")
    p.add_argument("--n", type=int, default=2)
    _add_hyperparam_flags(p)
    p.add_argument(
        "--reinit", action=argparse.BooleanOptionalAction, default=True
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (NumericalBlowupError, LassoConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        trace = getattr(exc, "trace", None)
        if trace:
            print(
                "objective_trace=" + ",".join(repr(float(v)) for v in trace),
                file=sys.stderr,
            )
        return EXIT_NUMERICAL
    except (TagCompleteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
