"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one [PASS]/[FAIL] line (visible with pytest -s) and
fails loudly when its criterion is not met, including when it overruns the
stated time budget.  Tolerances and instance shapes are fixed here on
purpose; loosening them is a contract change, not a test fix.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import in_block, zero_structure
from oracles import (
    basis_update_value,
    lasso_by_enumeration,
    lasso_objective,
    scalar_min_by_search,
    soft_threshold,
)
from tagcomplete import io as tgio
from tagcomplete.core import Hyperparams, StructureMatrix, TaggingMatrix
from tagcomplete.lasso import LassoProblem, kkt_residual, solve_lasso
from tagcomplete.metrics import EvalSplit, evaluate, rank_predictions
from tagcomplete.solver import (
    FactorModel,
    coeff_update_value,
    error_update_value,
    fit,
)
from tagcomplete.structure import (
    build_feature_structure,
    build_tag_structure,
    feature_structure_kkt,
    reinitialize,
    tag_structure_kkt,
)
from tagcomplete.synth import SynthConfig, delete_tags, generate

# max basis column norm of every fit performed in this file, checked by the
# projection-invariant criterion (the FactorModel constructor additionally
# enforces the same bound on every snapshot anywhere in the suite)
_BASIS_NORMS = []

MONO_SLACK = 1e-10


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _tracked_fit(*args, **kwargs):
    report = fit(*args, **kwargs)
    norms = np.linalg.norm(report.model.U, axis=0)
    _BASIS_NORMS.append(float(norms.max(initial=0.0)))
    return report


def _chain(report) -> list:
    values = [float(report.objective_trace[0])]
    for row in report.block_trace:
        values.extend(float(v) for v in row)
    return values


def _count_increases(values) -> int:
    bad = 0
    for prev, nxt in zip(values, values[1:]):
        if nxt > prev + MONO_SLACK * max(abs(prev), 1e-30):
            bad += 1
    return bad


def _random_structure(rng, size) -> StructureMatrix:
    nnz = int(rng.integers(0, size * 4))
    rows = rng.integers(0, size, nnz)
    cols = rng.integers(0, size, nnz)
    keep = rows != cols
    data = rng.normal(0.0, 0.5, int(keep.sum()))
    matrix = sp.coo_matrix(
        (data, (rows[keep], cols[keep])), shape=(size, size)
    ).tocsr()
    matrix.sum_duplicates()
    return StructureMatrix(matrix)


def _random_hp(rng, k) -> Hyperparams:
    return Hyperparams(
        K=k,
        knn_k=8,
        beta=float(10.0 ** rng.uniform(-1.3, 0.4)),
        gamma=float(10.0 ** rng.uniform(-1.3, 0.4)),
        lambda_=float(10.0 ** rng.uniform(-1.3, 0.4)),
        eta=float(10.0 ** rng.uniform(-1.3, 0.4)),
        max_outer_iters=6,
        rel_tol=1e-9,
        rng_seed=int(rng.integers(0, 2**31)),
    )


def test_monotonicity_suite():
    start = time.monotonic()
    violations = 0
    runs = 0

    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(5, 201))
        m = int(rng.integers(3, 51))
        k = int(rng.integers(1, 21))
        dense = (rng.random((n, m)) < rng.uniform(0.03, 0.25)).astype(float)
        if rng.random() < 0.3:
            dense *= rng.uniform(0.2, 1.5)  # re-initialized inputs are real
        D = TaggingMatrix.from_dense(dense)
        S = _random_structure(rng, n)
        T = _random_structure(rng, m)
        report = _tracked_fit(D, S, T, _random_hp(rng, k))
        violations += _count_increases(_chain(report))
        runs += 1

    for i in range(10):
        rng = np.random.default_rng(2000 + i)
        n_topics = int(rng.integers(3, 6))
        cfg = SynthConfig(
            n_images=int(rng.integers(80, 140)),
            n_tags=n_topics * int(rng.integers(4, 7)),
            n_topics=n_topics,
            tags_per_image=int(rng.integers(2, 5)),
            feature_dim=12,
            feature_noise=0.2,
            delete_fraction=0.4,
            rng_seed=int(rng.integers(0, 2**31)),
            off_topic_prob=0.1,
        )
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        hp = Hyperparams(
            K=int(rng.integers(4, 13)),
            knn_k=8,
            max_outer_iters=8,
            rel_tol=1e-9,
        )
        S = build_feature_structure(instance.features, hp)
        T = build_tag_structure(split.observed, hp)
        report = _tracked_fit(reinitialize(split.observed, S, T), S, T, hp)
        violations += _count_increases(_chain(report))
        runs += 1

    elapsed = time.monotonic() - start
    _verdict(
        "monotonicity-suite",
        violations == 0 and elapsed < 120,
        f"{violations} objective increases beyond {MONO_SLACK} relative slack "
        f"across {runs} runs ({elapsed:.1f}s, budget 120s)",
    )


def test_closed_form_updates():
    start = time.monotonic()
    count = 10_000
    rng = np.random.default_rng(4242)

    p = rng.normal(0.0, 2.5, count) * 10.0 ** rng.uniform(-1.5, 0.8, count)
    eta = np.abs(rng.normal(0.0, 1.2, count))
    eta[rng.random(count) < 0.05] = 0.0
    denom = rng.uniform(0.05, 4.0, count)

    maxmin = (np.maximum(p - eta, 0.0) + np.minimum(p + eta, 0.0)) / denom
    soft = soft_threshold(p, eta) / denom
    closed = np.array(
        [coeff_update_value(p[i], eta[i], denom[i]) for i in range(count)]
    )
    forms_gap = max(
        float(np.abs(maxmin - soft).max()), float(np.abs(soft - closed).max())
    )

    # agreement is scale-aware: golden-section localizes the argmin of a
    # float64 objective only to ~sqrt(eps*|f|/curvature), so minimizers far
    # from the origin are compared relatively
    coeff_gap = 0.0
    value_excess = 0.0
    for i in range(count):
        d, e, q = denom[i], eta[i], p[i]

        def objective(v, d=d, e=e, q=q):
            return d * v * v - 2.0 * q * v + 2.0 * e * abs(v)

        radius = (abs(q) + e) / d + 1.0
        brute, brute_val = scalar_min_by_search(objective, radius, grid=401)
        coeff_gap = max(
            coeff_gap, abs(brute - closed[i]) / max(1.0, abs(closed[i]))
        )
        value_excess = max(
            value_excess,
            (objective(closed[i]) - brute_val) / max(1.0, abs(brute_val)),
        )

    q_vals = rng.normal(0.0, 2.5, count) * 10.0 ** rng.uniform(-1.5, 0.8, count)
    basis_denom = rng.uniform(0.05, 4.0, count)
    basis_gap = 0.0
    for i in range(count):
        d, q = basis_denom[i], q_vals[i]
        closed_u = basis_update_value(q, d, 1.0)
        brute, _ = scalar_min_by_search(
            lambda u: d * u * u - 2.0 * q * u, 1.0, grid=401
        )
        basis_gap = max(basis_gap, abs(brute - closed_u))

    residuals = rng.normal(0.0, 2.0, count)
    betas = np.abs(rng.normal(0.0, 1.5, count))
    error_gap = 0.0
    for i in range(count):
        r, b = residuals[i], betas[i]
        closed_e = error_update_value(r, b)
        brute, _ = scalar_min_by_search(
            lambda e: (e - r) ** 2 + b * abs(e), abs(r) + b + 1.0, grid=401
        )
        error_gap = max(error_gap, abs(brute - closed_e))

    elapsed = time.monotonic() - start
    ok = (
        forms_gap <= 1e-12
        and coeff_gap <= 1e-6
        and value_excess <= 1e-9
        and basis_gap <= 1e-6
        and error_gap <= 1e-6
        and elapsed < 60
    )
    _verdict(
        "closed-form-updates",
        ok,
        f"max/min vs soft gap {forms_gap:.1e}; brute-force gaps "
        f"coeff {coeff_gap:.1e} (value excess {value_excess:.1e}), "
        f"basis {basis_gap:.1e}, error {error_gap:.1e} "
        f"on {count} triples each ({elapsed:.1f}s, budget 60s)",
    )


def test_lasso_oracle_equivalence():
    start = time.monotonic()
    worst_obj_gap = 0.0
    worst_kkt = 0.0
    for i in range(200):
        rng = np.random.default_rng(3000 + i)
        n_vars = int(rng.integers(1, 9))
        n_rows = n_vars + int(rng.integers(0, 4))
        A = rng.normal(size=(n_rows, n_vars))
        b = rng.normal(size=n_rows) * rng.uniform(0.5, 2.0)
        l1 = 0.0 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-2.0, 0.7))
        problem = LassoProblem(
            gram=A.T @ A,
            corr=A.T @ b,
            target_sq_norm=float(b @ b),
            l1_weight=l1,
        )
        solution = solve_lasso(problem)
        _, oracle_obj = lasso_by_enumeration(
            problem.gram, problem.corr, problem.target_sq_norm, l1
        )
        obj = lasso_objective(
            problem.gram, problem.corr, problem.target_sq_norm, l1, solution.weights
        )
        worst_obj_gap = max(worst_obj_gap, obj - oracle_obj)
        worst_kkt = max(worst_kkt, kkt_residual(problem, solution.weights))
    elapsed = time.monotonic() - start
    ok = worst_obj_gap <= 1e-6 and worst_kkt <= 1e-8 and elapsed < 120
    _verdict(
        "lasso-oracle-equivalence",
        ok,
        f"200 problems (<=8 vars): worst objective excess {worst_obj_gap:.2e} "
        f"(tol 1e-6), worst KKT residual {worst_kkt:.2e} (tol 1e-8) "
        f"({elapsed:.1f}s, budget 120s)",
    )


def test_structure_invariants(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(77)
    cfg = SynthConfig(
        n_images=150,
        n_tags=24,
        n_topics=4,
        tags_per_image=4,
        feature_dim=12,
        feature_noise=0.25,
        delete_fraction=0.4,
        rng_seed=11,
        off_topic_prob=0.1,
    )
    instance = generate(cfg)
    split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
    hp = Hyperparams(knn_k=9)
    problems = []

    image_structure = build_feature_structure(instance.features, hp)
    image_res = feature_structure_kkt(instance.features, image_structure, hp)
    problems.append(("image", image_structure, image_res, "row"))

    with_tags = build_feature_structure(
        instance.features, hp, tags=split.observed
    )
    with_tags_res = feature_structure_kkt(
        instance.features, with_tags, hp, tags=split.observed
    )
    problems.append(("image+tags", with_tags, with_tags_res, "row"))

    tag_structure = build_tag_structure(split.observed, hp)
    tag_res = tag_structure_kkt(split.observed, tag_structure, hp)
    problems.append(("tag", tag_structure, tag_res, "column"))

    issues = []
    for name, structure, residuals, axis in problems:
        matrix = structure.matrix
        coo = matrix.tocoo()
        if np.any(coo.row == coo.col) or np.any(matrix.diagonal() != 0.0):
            issues.append(f"{name}: nonzero or stored diagonal")
        counts = (
            np.diff(matrix.indptr)
            if axis == "row"
            else np.diff(matrix.tocsc().indptr)
        )
        if counts.size and counts.max(initial=0) > hp.knn_k:
            issues.append(f"{name}: {axis} support exceeds knn_k")
        if float(np.max(residuals, initial=0.0)) > hp.lasso_tol:
            issues.append(
                f"{name}: KKT residual {np.max(residuals):.2e} > {hp.lasso_tol}"
            )

    rebuilt = build_feature_structure(instance.features, hp)
    first_path = tmp_path / "first.mtx"
    second_path = tmp_path / "second.mtx"
    tgio.write_sparse_matrix(first_path, image_structure.matrix)
    tgio.write_sparse_matrix(second_path, rebuilt.matrix)
    if first_path.read_bytes() != second_path.read_bytes():
        issues.append("image: rebuild changed serialized bytes")
    rebuilt_tags = build_tag_structure(split.observed, hp)
    if (rebuilt_tags.matrix != tag_structure.matrix).nnz != 0 or not np.array_equal(
        rebuilt_tags.matrix.data, tag_structure.matrix.data
    ):
        issues.append("tag: rebuild not bit-identical")

    elapsed = time.monotonic() - start
    _verdict(
        "structure-invariants",
        not issues,
        (
            "; ".join(issues)
            if issues
            else f"zero diagonals, support <= knn_k, KKT certified "
            f"(max {max(float(np.max(r)) for _, _, r, _ in problems):.1e}), "
            f"byte-identical reruns ({elapsed:.1f}s)"
        ),
    )


def test_planted_recovery():
    start = time.monotonic()
    cfg = SynthConfig(
        n_images=1000,
        n_tags=100,
        n_topics=10,
        tags_per_image=5,
        feature_dim=32,
        feature_noise=0.3,
        delete_fraction=0.4,
        rng_seed=5,
        off_topic_prob=0.0,
    )
    hp = Hyperparams(K=20, knn_k=50)  # paper-default weights, K per contract
    instance = generate(cfg)
    split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
    S = build_feature_structure(instance.features, hp)
    T = build_tag_structure(split.observed, hp)
    report = _tracked_fit(reinitialize(split.observed, S, T), S, T, hp)
    scores = report.model.completed()
    metrics = evaluate(rank_predictions(scores, split, 2), split, 2)

    shuffler = np.random.default_rng(cfg.rng_seed + 2)
    shuffled = np.empty_like(scores)
    for i in range(scores.shape[0]):
        shuffled[i] = scores[i, shuffler.permutation(scores.shape[1])]
    baseline = evaluate(rank_predictions(shuffled, split, 2), split, 2)

    elapsed = time.monotonic() - start
    ratio = metrics["AR"] / max(baseline["AR"], 1e-12)
    ok = ratio >= 5.0 and metrics["C"] >= 0.5 and elapsed < 300
    _verdict(
        "planted-recovery",
        ok,
        f"AR@2={metrics['AR']:.4f} vs baseline {baseline['AR']:.4f} "
        f"(ratio {ratio:.1f}, need >=5); C@2={metrics['C']:.4f} (need >=0.5) "
        f"({elapsed:.1f}s, budget 300s)",
    )


def test_projection_invariant():
    start = time.monotonic()
    # a few fresh fits chosen to push basis columns onto the norm ball
    for seed, beta, gamma in ((0, 10.0, 1e-8), (1, 0.7, 1.0), (2, 0.1, 0.05)):
        rng = np.random.default_rng(seed)
        dense = (rng.random((40, 12)) < 0.3).astype(float)
        D = TaggingMatrix.from_dense(dense)
        S = _random_structure(rng, 40)
        T = _random_structure(rng, 12)
        hp = Hyperparams(
            K=5, knn_k=5, beta=beta, gamma=gamma, eta=1e-6,
            max_outer_iters=40, rng_seed=seed,
        )
        _tracked_fit(D, S, T, hp)
    worst = max(_BASIS_NORMS)
    elapsed = time.monotonic() - start
    _verdict(
        "projection-invariant",
        worst <= 1.0 + 1e-12 and len(_BASIS_NORMS) >= 60,
        f"max basis column norm {worst:.15f} over {len(_BASIS_NORMS)} fits "
        f"(bound 1+1e-12; every snapshot is also checked at construction) "
        f"({elapsed:.1f}s)",
    )


def test_exact_factorization():
    start = time.monotonic()
    cfg = SynthConfig(
        n_images=80,
        n_tags=20,
        n_topics=4,
        tags_per_image=5,  # equals the topic block size: exact rank-4 truth
        feature_dim=8,
        feature_noise=0.0,
        delete_fraction=0.4,
        rng_seed=3,
        off_topic_prob=0.0,
    )
    instance = generate(cfg)
    dense = instance.truth.to_dense()
    assert np.array_equal(dense, in_block(cfg, instance.topics))

    hp = Hyperparams(
        K=4, knn_k=5, gamma=1e-8, lambda_=1e-8, eta=1e-8, beta=10.0,
        rel_tol=1e-7, max_outer_iters=150,
    )
    report = _tracked_fit(
        instance.truth,
        zero_structure(cfg.n_images),
        zero_structure(cfg.n_tags),
        hp,
    )
    rel = float(
        np.linalg.norm(dense - report.model.completed()) / np.linalg.norm(dense)
    )
    elapsed = time.monotonic() - start
    _verdict(
        "exact-factorization",
        rel <= 1e-3,
        f"relative residual {rel:.2e} at true rank (tol 1e-3) ({elapsed:.1f}s)",
    )


def test_metrics_hand_verified():
    start = time.monotonic()
    # worked example: image A hits 1 of its 2 deleted tags in the top 2,
    # image B hits 0 of its 1
    observed = TaggingMatrix.from_dense(
        np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    )
    split = EvalSplit(
        observed=observed, deleted=({1, 2}, {3}), test_image_ids=(0, 1)
    )
    scores = np.array([[0.0, 0.9, 0.1, 0.8], [0.9, 0.0, 0.8, 0.1]])
    metrics = evaluate(rank_predictions(scores, split, 2), split, 2)
    two_image_ok = (
        metrics["AP"] == 0.25 and metrics["AR"] == 0.25 and metrics["C"] == 0.5
    )

    # three-image variant: C additionally hits 1 of its 1 deleted at rank 1
    observed3 = TaggingMatrix.from_dense(
        np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])
    )
    split3 = EvalSplit(
        observed=observed3, deleted=({1, 2}, {3}, {0}), test_image_ids=(0, 1, 2)
    )
    scores3 = np.vstack([scores, [0.9, 0.1, 0.0, 0.8]])
    metrics3 = evaluate(rank_predictions(scores3, split3, 2), split3, 2)
    three_image_ok = (
        metrics3["AP"] == float(np.mean([0.5, 0.0, 0.5]))
        and metrics3["AR"] == float(np.mean([0.5, 0.0, 1.0]))
        and metrics3["C"] == float(np.mean([1.0, 0.0, 1.0]))
    )

    regressions = 0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        n_img = int(rng.integers(6, 20))
        n_tag = int(rng.integers(8, 24))
        random_scores = rng.normal(size=(n_img, n_tag))
        dense = np.zeros((n_img, n_tag))
        deleted = []
        for row in range(n_img):
            marked = rng.choice(n_tag, size=int(rng.integers(2, 5)), replace=False)
            n_obs = int(rng.integers(1, min(3, marked.size - 1) + 1))
            dense[row, marked[:n_obs]] = 1.0
            deleted.append(frozenset(int(t) for t in marked[n_obs:]))
        random_split = EvalSplit(
            observed=TaggingMatrix.from_dense(dense),
            deleted=tuple(deleted),
            test_image_ids=tuple(range(n_img)),
        )
        series = [
            evaluate(rank_predictions(random_scores, random_split, n), random_split, n)
            for n in range(1, 6)
        ]
        ar = [m["AR"] for m in series]
        c = [m["C"] for m in series]
        if np.any(np.diff(ar) < 0) or np.any(np.diff(c) < 0):
            regressions += 1

    elapsed = time.monotonic() - start
    ok = two_image_ok and three_image_ok and regressions == 0
    _verdict(
        "metrics-hand-verified",
        ok,
        f"worked examples exact (2-image {two_image_ok}, 3-image "
        f"{three_image_ok}); AR/C monotone in N on 100 random prediction "
        f"sets ({regressions} regressions) ({elapsed:.1f}s)",
    )


def test_io_round_trips(tmp_path):
    start = time.monotonic()
    failures = 0
    for i in range(100):
        rng = np.random.default_rng(6000 + i)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 30))

        density = rng.uniform(0.0, 0.35)
        mask = rng.random((n, m)) < density
        values = rng.normal(0.0, 1.0, (n, m)) * 10.0 ** rng.uniform(-9, 9)
        sparse = sp.csr_matrix(np.where(mask, values, 0.0))
        sparse_path = tmp_path / f"sparse_{i}.mtx"
        tgio.write_sparse_matrix(sparse_path, sparse)
        sparse_back = tgio.read_sparse_matrix(sparse_path)
        if sparse_back.shape != sparse.shape or (sparse_back != sparse).nnz != 0:
            failures += 1
        if not np.array_equal(sparse_back.toarray(), sparse.toarray()):
            failures += 1

        dense = rng.normal(0.0, 1.0, (n, m)) * 10.0 ** rng.uniform(-9, 9)
        dense_path = tmp_path / f"dense_{i}.csv"
        tgio.write_dense_matrix(dense_path, dense)
        if not np.array_equal(tgio.read_dense_matrix(dense_path), dense):
            failures += 1

        k = int(rng.integers(1, 6))
        U = rng.normal(size=(n, k))
        norms = np.linalg.norm(U, axis=0)
        norms[norms == 0.0] = 1.0
        U /= np.maximum(norms, 1.0)
        model = FactorModel(
            U=U,
            V=sp.csr_matrix(
                np.where(rng.random((k, m)) < 0.4, rng.normal(size=(k, m)), 0.0)
            ),
            E=sp.csr_matrix(
                np.where(rng.random((n, m)) < 0.2, rng.normal(size=(n, m)), 0.0)
            ),
        )
        hp = Hyperparams(
            K=k,
            knn_k=int(rng.integers(1, 50)),
            beta=float(rng.uniform(0.01, 3.0)),
            eta=float(rng.uniform(0.01, 3.0)),
            rng_seed=int(rng.integers(0, 2**31)),
        )
        trace = list(np.sort(rng.random(int(rng.integers(2, 6))))[::-1])
        model_path = tmp_path / f"model_{i}.json"
        tgio.write_model(model_path, model, hp, trace)
        record = tgio.read_model(model_path)
        if not (
            np.array_equal(record.model.U, model.U)
            and (record.model.V != model.V).nnz == 0
            and (record.model.E != model.E).nnz == 0
            and record.hyperparams == hp
            and list(record.objective_trace) == trace
        ):
            failures += 1

    elapsed = time.monotonic() - start
    _verdict(
        "io-round-trips",
        failures == 0,
        f"sparse, dense, and model write-read identity on 100 random "
        f"instances ({failures} failures) ({elapsed:.1f}s)",
    )
