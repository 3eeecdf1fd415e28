"""The benchmark workloads: instance, set-up, timed operation and checks.

Every workload draws one planted instance from `SynthConfig` with its own
instance seed; deletions use instance seed + 1 and the gate's permutation
baseline instance seed + 2, as in the acceptance tests.  The benchmark seed
then reorders the images of that instance (seed 0 keeps the generated
order), so every seed poses the same problem in a different order: the
inputs change with the seed but the work does not, and the spread across
seeds measures the machine rather than the instance.  Tags keep their order
because tag-space neighbor distances tie often and ties break by index.  The program sees only
the generated inputs: library calls get the in-memory matrices, and the CLI
workload gets files.

Checks run outside the timed region and count in the run's ledger.
"""

from __future__ import annotations

import hashlib
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from tagcomplete import cli, io as tgio, metrics, solver, structure, synth
from tagcomplete.core import FactorModel, FeatureMatrix, Hyperparams, TaggingMatrix
from tagcomplete.synth import SynthConfig

from layers import CLI_SPANS

# relative slack for float noise between objective evaluations; the same
# slack tests/test_acceptance.py allows in its monotonicity gate
MONO_SLACK = 1e-10

# the acceptance-gate floors of test_planted_recovery
GATE_MIN_C = 0.5
GATE_MIN_AR_RATIO = 5.0


class StageFailed(Exception):
    """A timed stage raised or exited non-zero; the rep is abandoned."""


@dataclass
class Ledger:
    """Stages and checks attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    exit_nonzero: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed: {detail}")

    def stage(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"stage {name} raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(name) from exc


@dataclass
class State:
    """What set-up hands to the timed operation."""

    cfg: SynthConfig
    hp: Hyperparams
    features: FeatureMatrix
    split: metrics.EvalSplit
    S: object = None
    T: object = None
    files: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed operation produced, for the checks."""

    scores: np.ndarray
    quality: dict
    S: object = None
    T: object = None
    report: object = None
    objective_trace: np.ndarray | None = None
    basis: np.ndarray | None = None
    kkt_max: dict = field(default_factory=dict)


def no_span(name):
    return nullcontext()


def permuted(features: FeatureMatrix, split: metrics.EvalSplit, seed: int):
    """The same instance with its images in a seeded order; seed 0 returns
    it unchanged."""
    if seed == 0:
        return features, split
    rows = np.random.default_rng(seed).permutation(features.n_images)
    new_index = np.argsort(rows)  # new image i is old image rows[i]
    return FeatureMatrix(features.data[rows]), metrics.EvalSplit(
        observed=TaggingMatrix(split.observed.matrix[rows]),
        deleted=split.deleted,
        test_image_ids=tuple(int(new_index[i]) for i in split.test_image_ids),
    )


def digest(scores: np.ndarray) -> str:
    arr = np.ascontiguousarray(scores, dtype=np.float64)
    h = hashlib.sha256(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instance_seed: int
    synth: dict  # SynthConfig fields except rng_seed
    hp: dict  # Hyperparams overrides
    prebuilt: bool = False  # build S and T in set-up, not in the timed op
    via_cli: bool = False  # run the timed op through cli.main on files

    def config(self) -> SynthConfig:
        return SynthConfig(**self.synth, rng_seed=self.instance_seed)

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(**self.hp)

    # -- set-up ------------------------------------------------------------
    def setup(self, seed: int, workdir: Path) -> State:
        cfg = self.config()
        hp = self.hyperparams()
        instance = synth.generate(cfg)
        split = synth.delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        features, split = permuted(instance.features, split, seed)
        state = State(cfg, hp, features, split)
        if self.prebuilt:
            state.S = structure.build_feature_structure(features, hp)
            state.T = structure.build_tag_structure(split.observed, hp)
        if self.via_cli:
            files = {
                name: str(workdir / name)
                for name in (
                    "features.csv", "observed.mtx", "split.json",
                    "S.mtx", "T.mtx", "model.json", "scores.csv",
                )
            }
            tgio.write_dense_matrix(files["features.csv"], features.data)
            tgio.write_sparse_matrix(files["observed.mtx"], split.observed.matrix)
            tgio.write_split(files["split.json"], split)
            state.files = files
        return state

    # -- timed operation ---------------------------------------------------
    def run(self, state: State, ledger: Ledger, span=no_span) -> Outcome:
        if self.via_cli:
            return self._run_cli(state, ledger, span)
        return self._run_library(state, ledger)

    def _run_library(self, state: State, ledger: Ledger) -> Outcome:
        hp, split = state.hp, state.split
        if self.prebuilt:
            S, T = state.S, state.T
        else:
            S = ledger.stage(
                "build_feature_structure",
                structure.build_feature_structure, state.features, hp,
            )
            T = ledger.stage("build_tag_structure", structure.build_tag_structure, split.observed, hp)
        start = ledger.stage("reinitialize", structure.reinitialize, split.observed, S, T)
        report = ledger.stage("fit", solver.fit, start, S, T, hp)
        scores = ledger.stage("completed", report.model.completed)
        predictions = ledger.stage("rank_predictions", metrics.rank_predictions, scores, split, 2)
        quality = ledger.stage("evaluate", metrics.evaluate, predictions, split, 2)
        return Outcome(scores=scores, quality=quality, S=S, T=T, report=report,
                       objective_trace=report.objective_trace, basis=report.model.U)

    def _cli(self, ledger: Ledger, span, argv) -> dict:
        name = CLI_SPANS[(argv[0], argv[2] if argv[0] == "build-structure" else None)]
        out = StringIO()
        with span(name), redirect_stdout(out):
            code = ledger.stage(name, cli.main, argv)
        if code != 0:
            ledger.exit_nonzero += 1
            ledger.failed += 1
            ledger.failures.append(f"stage {name} exited {code}")
            raise StageFailed(name)
        return dict(line.partition("=")[::2] for line in out.getvalue().splitlines())

    def _run_cli(self, state: State, ledger: Ledger, span) -> Outcome:
        f = state.files
        image = self._cli(ledger, span, [
            "build-structure", "--mode", "image",
            "--features", f["features.csv"], "--out", f["S.mtx"],
        ])
        tag = self._cli(ledger, span, [
            "build-structure", "--mode", "tag",
            "--tags", f["observed.mtx"], "--out", f["T.mtx"],
        ])
        self._cli(ledger, span, [
            "complete", "--tags", f["observed.mtx"],
            "--image-structure", f["S.mtx"], "--tag-structure", f["T.mtx"],
            "--out-model", f["model.json"], "--out-scores", f["scores.csv"],
        ])
        lines = self._cli(ledger, span, [
            "evaluate", "--scores", f["scores.csv"], "--split", f["split.json"], "--n", "2",
        ])
        # outputs are read back outside the timed region by `collect`
        return Outcome(
            scores=None,
            quality={k: float(lines[f"{k}@2"]) for k in ("AP", "AR", "C")},
            kkt_max={"S": float(image["kkt_max"]), "T": float(tag["kkt_max"])},
        )

    def collect(self, state: State, outcome: Outcome) -> Outcome:
        """Read the CLI's output files into the outcome (untimed)."""
        if self.via_cli:
            record = tgio.read_model(state.files["model.json"])
            outcome.scores = tgio.read_dense_matrix(state.files["scores.csv"])
            outcome.objective_trace = record.objective_trace
            outcome.basis = record.model.U
        return outcome

    # -- checks ------------------------------------------------------------
    def check(self, state: State, outcome: Outcome, ledger: Ledger) -> None:
        hp = state.hp
        if self.via_cli:
            kkt = outcome.kkt_max
        else:
            kkt = {
                "S": float(np.max(structure.feature_structure_kkt(
                    state.features, outcome.S, hp))),
                "T": float(np.max(structure.tag_structure_kkt(
                    state.split.observed, outcome.T, hp))),
            }
        for key, value in kkt.items():
            ledger.check(f"kkt_{key}", value <= hp.lasso_tol,
                         f"max KKT residual {value!r} > {hp.lasso_tol!r}")

        chains = {"objective_trace": outcome.objective_trace}
        if outcome.report is not None:
            # objective_trace[0], then coeffs/basis/error values per iteration
            chains["block_trace"] = np.concatenate(
                [outcome.report.objective_trace[:1], outcome.report.block_trace.ravel()]
            )
        for name, values in chains.items():
            values = np.asarray(values, dtype=float)
            rises = values[1:] > values[:-1] + MONO_SLACK * np.maximum(np.abs(values[:-1]), 1e-30)
            ledger.check(f"{name}_nonincreasing", not rises.any(),
                         f"{int(rises.sum())} increase(s)")

        norms = np.linalg.norm(outcome.basis, axis=0)
        limit = 1.0 + FactorModel.COLUMN_NORM_SLACK
        ledger.check("unit_ball", bool(np.all(norms <= limit)),
                     f"max column norm {norms.max():.17g}")

        if self.name == "gate":
            self._check_gate_floors(state, outcome, ledger)

    def _check_gate_floors(self, state: State, outcome: Outcome, ledger: Ledger) -> None:
        scores, split = outcome.scores, state.split
        shuffler = np.random.default_rng(state.cfg.rng_seed + 2)
        shuffled = np.empty_like(scores)
        for i in range(scores.shape[0]):
            shuffled[i] = scores[i, shuffler.permutation(scores.shape[1])]
        baseline = metrics.evaluate(metrics.rank_predictions(shuffled, split, 2), split, 2)
        ratio = outcome.quality["AR"] / max(baseline["AR"], 1e-12)
        ledger.check("gate_ar_vs_baseline", ratio >= GATE_MIN_AR_RATIO,
                     f"AR@2 is {ratio:.2f}x the permutation baseline")
        ledger.check("gate_c_floor", outcome.quality["C"] >= GATE_MIN_C,
                     f"C@2 {outcome.quality['C']!r} < {GATE_MIN_C}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gate",
            why="acceptance-gate instance; the S lasso is ~94% of wall_s and C@2 "
            "sits just above its 0.5 floor",
            instance_seed=5,
            synth=dict(n_images=1000, n_tags=100, n_topics=10, tags_per_image=5,
                       feature_dim=32, feature_noise=0.3, delete_fraction=0.4,
                       off_topic_prob=0.0),
            hp=dict(K=20, knn_k=50),
        ),
        Workload(
            name="refit_tall",
            why="tall instance, S and T prebuilt in set-up, refit capped at 5 iterations: "
            "update_basis dominates wall_s and the lasso does none of it",
            instance_seed=11,
            synth=dict(n_images=400, n_tags=52, n_topics=4, tags_per_image=6,
                       feature_dim=32, feature_noise=0.3, delete_fraction=0.4,
                       off_topic_prob=0.05),
            # a fixed iteration budget (the CLI's --max-iters) fixes the work;
            # reorderings of this instance converge in 6 or 7 iterations
            hp=dict(K=20, knn_k=10, max_outer_iters=5),
            prebuilt=True,
        ),
        Workload(
            name="paper_cli",
            why="CLI on files at paper defaults (knn_k=200, K=100): k=200 lasso grams, "
            "io, KKT re-certification, near-square fit",
            instance_seed=23,
            synth=dict(n_images=400, n_tags=300, n_topics=15, tags_per_image=8,
                       feature_dim=32, feature_noise=0.3, delete_fraction=0.4,
                       off_topic_prob=0.05),
            hp=dict(),
            via_cli=True,
        ),
    )
}
