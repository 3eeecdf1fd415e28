from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagcomplete import lasso
from tagcomplete.core import ValidationError
from tagcomplete.lasso import (
    LassoBatch,
    LassoConvergenceError,
    LassoProblem,
    LassoSolution,
    RowPool,
    kkt_residual,
    solve_lasso,
    verify_kkt,
)

from oracles import lasso_by_enumeration, lasso_objective


def objective_at(problem, w):
    return lasso_objective(
        problem.gram, problem.corr, problem.target_sq_norm, problem.l1_weight, w
    )


def random_problem(rng, p, l1_weight=None):
    n = p + rng.integers(1, 5)
    A = rng.normal(size=(n, p))
    b = rng.normal(size=n)
    if l1_weight is None:
        l1_weight = float(rng.uniform(0.01, 2.0))
    return LassoProblem(
        gram=A.T @ A,
        corr=A.T @ b,
        target_sq_norm=float(b @ b),
        l1_weight=l1_weight,
    )


class TestKnownSolutions:
    def test_one_variable(self):
        # min (1 - w)^2 + |w|  ->  w = 0.5
        problem = LassoProblem(
            gram=np.array([[1.0]]),
            corr=np.array([1.0]),
            target_sq_norm=1.0,
            l1_weight=1.0,
        )
        sol = solve_lasso(problem)
        np.testing.assert_allclose(sol.weights, [0.5], atol=1e-12)
        np.testing.assert_allclose(objective_at(problem, sol.weights), 0.75, atol=1e-12)

    def test_strong_penalty_zeroes_everything(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        corr = A.T @ b
        problem = LassoProblem(
            gram=A.T @ A,
            corr=corr,
            target_sq_norm=float(b @ b),
            l1_weight=float(2.5 * np.abs(corr).max()),
        )
        sol = solve_lasso(problem)
        np.testing.assert_array_equal(sol.weights, np.zeros(4))
        assert sol.kkt_residual == 0.0

    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(8, 3))
        b = rng.normal(size=8)
        problem = LassoProblem(
            gram=A.T @ A,
            corr=A.T @ b,
            target_sq_norm=float(b @ b),
            l1_weight=0.0,
        )
        sol = solve_lasso(problem, tol=1e-12)
        want = np.linalg.solve(A.T @ A, A.T @ b)
        np.testing.assert_allclose(sol.weights, want, atol=1e-9)

    def test_empty_problem(self):
        problem = LassoProblem(
            gram=np.zeros((0, 0)),
            corr=np.zeros(0),
            target_sq_norm=2.0,
            l1_weight=1.0,
        )
        sol = solve_lasso(problem)
        assert sol.weights.shape == (0,)
        assert objective_at(problem, sol.weights) == 2.0


class TestOracleAgreement:
    def test_matches_enumeration_on_random_problems(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            p = int(rng.integers(1, 7))
            problem = random_problem(rng, p)
            sol = solve_lasso(problem)
            _, best = lasso_by_enumeration(
                problem.gram, problem.corr, problem.target_sq_norm, problem.l1_weight
            )
            assert objective_at(problem, sol.weights) <= best + 1e-6, f"trial {trial}"
            assert sol.kkt_residual <= 1e-8


class TestProperties:
    def test_l1_norm_shrinks_as_penalty_grows(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(12, 5))
        b = rng.normal(size=12)
        norms = []
        for l1 in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
            problem = LassoProblem(
                gram=A.T @ A,
                corr=A.T @ b,
                target_sq_norm=float(b @ b),
                l1_weight=l1,
            )
            norms.append(np.abs(solve_lasso(problem).weights).sum())
        for lighter, heavier in zip(norms, norms[1:]):
            assert heavier <= lighter + 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(10, 6))
        b = rng.normal(size=10)
        problem = LassoProblem(
            gram=A.T @ A,
            corr=A.T @ b,
            target_sq_norm=float(b @ b),
            l1_weight=0.7,
        )
        sol = solve_lasso(problem)
        perm = rng.permutation(6)
        permuted = LassoProblem(
            gram=problem.gram[np.ix_(perm, perm)],
            corr=problem.corr[perm],
            target_sq_norm=problem.target_sq_norm,
            l1_weight=0.7,
        )
        sol_p = solve_lasso(permuted)
        np.testing.assert_allclose(sol_p.weights, sol.weights[perm], atol=1e-7)

    def test_solution_is_deterministic(self):
        rng = np.random.default_rng(13)
        problem = random_problem(rng, 5)
        a = solve_lasso(problem)
        b = solve_lasso(problem)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert objective_at(problem, a.weights) == objective_at(problem, b.weights)


class TestVerifyKkt:
    def test_accepts_solver_output(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            problem = random_problem(rng, int(rng.integers(1, 8)))
            sol = solve_lasso(problem)
            assert verify_kkt(problem, sol, tol=1e-8)

    def test_rejects_perturbed_solution(self):
        rng = np.random.default_rng(22)
        problem = random_problem(rng, 5, l1_weight=0.3)
        sol = solve_lasso(problem)
        bad = LassoSolution(
            weights=sol.weights + 0.05,
            kkt_residual=sol.kkt_residual,
        )
        assert not verify_kkt(problem, bad, tol=1e-8)


class TestSolverLimits:
    # outside these domains the solver used to certify anything: tol=nan ran
    # every round and returned, tol=inf returned w = 0 with residual 1.9, and
    # max_iters=-5 or 2.5 was taken as a round cap
    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
    def test_rejects_tol_outside_the_open_interval(self, tol):
        problem = random_problem(np.random.default_rng(41), 4)
        with pytest.raises(ValidationError, match="tol must be finite and > 0"):
            solve_lasso(problem, tol=tol)

    @pytest.mark.parametrize("max_iters", [-5, 2.5, True, np.float64(3.0), "3", None])
    def test_rejects_round_cap_that_is_not_a_count(self, max_iters):
        problem = random_problem(np.random.default_rng(42), 4)
        with pytest.raises(ValidationError, match="max_iters must be an int >= 0"):
            solve_lasso(problem, max_iters=max_iters)

    def test_accepts_numpy_int_and_zero_round_cap(self):
        problem = random_problem(np.random.default_rng(43), 4, l1_weight=0.01)
        want = solve_lasso(problem).weights
        assert solve_lasso(problem, max_iters=np.int64(50)).weights.tobytes() == want.tobytes()
        with pytest.raises(LassoConvergenceError, match="after 0 rounds"):
            solve_lasso(problem, max_iters=0)
        settled = LassoProblem(gram=np.eye(2), corr=np.zeros(2), target_sq_norm=0.0, l1_weight=0.1)
        assert solve_lasso(settled, max_iters=0).weights.tolist() == [0.0, 0.0]


class TestConvergenceFailure:
    def test_error_carries_residual(self):
        rng = np.random.default_rng(31)
        problem = random_problem(rng, 6, l1_weight=0.05)
        with pytest.raises(LassoConvergenceError) as exc:
            solve_lasso(problem, tol=1e-14, max_iters=1)
        assert exc.value.kkt_residual > 0

    def test_zero_diagonal_violator_fails_at_once(self):
        # coordinate 1 has a zero column but its gradient violates the
        # conditions: once coordinate 0 is solved no step can help, so the
        # solver stops at once rather than spending every round
        problem = LassoProblem(
            gram=np.array([[1.0, 0.0], [0.0, 0.0]]),
            corr=np.array([0.5, 1.0]),
            target_sq_norm=2.0,
            l1_weight=0.1,
        )
        with pytest.raises(LassoConvergenceError, match="after 2 rounds") as exc:
            solve_lasso(problem)
        assert exc.value.kkt_residual == pytest.approx(1.9)


# Degenerate neighborhoods, posed as the structure builders pose them: the
# target is rebuilt from neighbor rows, so gram = rows @ rows.T.  Sizes stay
# small because the oracle enumerates 3^p sign patterns.
DEGENERATE = settings(max_examples=30, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
L1_WEIGHTS = st.sampled_from([0.0, 0.01, 0.1, 1.0])


# the swap-step and rounding-dust instances of TestDegenerateNeighborhoods
SWAP_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
SWAP_TARGET = np.array([1.0, 0.1])
DUST_ROWS = np.array(
    [
        [1, 0, 1, 1, 1],
        [0, 1, 0, 0, 0],
        [0, 1, 1, 0, 1],
        [1, 0, 1, 0, 1],
        [0, 1, 0, 0, 1],
        [1, 1, 1, 0, 1],
        [1, 0, 1, 1, 0],
        [0, 1, 0, 1, 0],
    ],
    dtype=float,
)


def unit_rows(X):
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.where(norms > 0.0, norms, 1.0)


def check_neighbor_lasso(rows, target, l1_weight, max_iters=lasso.DEFAULT_MAX_ITERS):
    """Solve the lasso rebuilding target from rows and check the answer."""
    problem = LassoProblem(
        gram=rows @ rows.T,
        corr=rows @ target,
        target_sq_norm=float(target @ target),
        l1_weight=l1_weight,
    )
    sol = solve_lasso(problem, max_iters=max_iters)
    assert kkt_residual(problem, sol.weights) <= 1e-8
    assert np.all(sol.weights[np.diagonal(problem.gram) == 0.0] == 0.0)
    if problem.gram.shape[0] <= 8:
        oracle_w, _ = lasso_by_enumeration(
            problem.gram, problem.corr, problem.target_sq_norm, l1_weight
        )

        # residual form: at l1_weight 0 the oracle may pick weights in the
        # thousands, where the Gram form loses digits to cancellation
        def objective(w):
            r = target - w @ rows
            return float(r @ r + l1_weight * np.abs(w).sum())

        assert objective(sol.weights) <= objective(oracle_w) + 1e-9
    return sol


class TestDegenerateNeighborhoods:
    @DEGENERATE
    @given(seed=SEEDS, d=st.integers(1, 8), extra=st.integers(1, 6), l1=L1_WEIGHTS)
    def test_rank_deficient_gram(self, seed, d, extra, l1):
        # more neighbors than feature dimensions, L2-normalized like S rows
        rng = np.random.default_rng(seed)
        rows = unit_rows(rng.normal(size=(d + extra, d)))
        target = unit_rows(rng.normal(size=(1, d)))[0]
        check_neighbor_lasso(rows, target, l1)

    @DEGENERATE
    @given(
        seed=SEEDS,
        n_distinct=st.integers(1, 5),
        n_copies=st.integers(1, 3),
        d=st.integers(1, 6),
        l1=L1_WEIGHTS,
    )
    def test_duplicated_neighbor_rows(self, seed, n_distinct, n_copies, d, l1):
        rng = np.random.default_rng(seed)
        distinct = unit_rows(rng.normal(size=(n_distinct, d)))
        picks = np.concatenate(
            [np.arange(n_distinct), rng.integers(0, n_distinct, size=n_copies)]
        )
        rows = distinct[rng.permutation(picks)]
        target = unit_rows(rng.normal(size=(1, d)))[0]
        check_neighbor_lasso(rows, target, l1)

    @DEGENERATE
    @given(
        seed=SEEDS,
        n_others=st.integers(0, 5),
        width=st.integers(4, 12),
        l1=L1_WEIGHTS,
    )
    def test_zero_one_row_is_disjoint_sum(self, seed, n_others, width, l1):
        # tag columns as T sees them: one 0/1 row is the sum of two others
        # with disjoint supports
        rng = np.random.default_rng(seed)
        first = (rng.random(width) < 0.5).astype(float)
        first[:2] = [1.0, 0.0]
        second = (rng.random(width) < 0.5) * (first == 0.0)
        second[1] = 1.0
        others = (rng.random((n_others, width)) < 0.4).astype(float)
        rows = np.vstack([first, second, first + second, others])
        rows = rows[rng.permutation(rows.shape[0])]
        target = (rng.random(width) < 0.5).astype(float)
        check_neighbor_lasso(rows, target, l1)

    @DEGENERATE
    @given(seed=SEEDS, k=st.integers(2, 8), d=st.integers(1, 8), l1=L1_WEIGHTS)
    def test_all_zero_neighbor_row(self, seed, k, d, l1):
        rng = np.random.default_rng(seed)
        rows = unit_rows(rng.normal(size=(k, d)))
        rows[rng.integers(0, k)] = 0.0
        target = unit_rows(rng.normal(size=(1, d)))[0]
        check_neighbor_lasso(rows, target, l1)

    @DEGENERATE
    @given(seed=SEEDS, k=st.integers(13, 34), d=st.integers(2, 11))
    def test_many_neighbors_tiny_penalty(self, seed, k, d):
        # many more unit rows than dimensions and a tiny L1 weight: most
        # joining columns lie in the span of the active ones, so most faces
        # are singular; swap steps keep the round count linear in k
        rng = np.random.default_rng(seed)
        rows = unit_rows(rng.normal(size=(k, d)))
        target = unit_rows(rng.normal(size=(1, d)))[0]
        check_neighbor_lasso(rows, target, 1e-4, max_iters=4 * k)

    def test_singular_face_takes_swap_step(self):
        # e1, e2 and their normalized sum span only the plane.  Rounds 1 and
        # 2 activate e1 and e2; in round 3 the sum violates the conditions
        # and joins, and the 3x3 active gram is singular.  That round is a
        # swap step: the sum takes e2's place, and round 4 solves the face
        # {e1, sum} exactly.  Scalar steps alone need more rounds than that.
        sol = check_neighbor_lasso(SWAP_ROWS, SWAP_TARGET, 0.01, max_iters=4)
        assert sol.weights[1] == 0.0
        assert np.all(sol.weights[[0, 2]] > 0.0)
        with pytest.raises(LassoConvergenceError, match="after 3 rounds"):
            check_neighbor_lasso(SWAP_ROWS, SWAP_TARGET, 0.01, max_iters=3)

    def test_rounding_dust_takes_scalar_step(self):
        # the target is neighbor 6 itself.  Round 2 solves the face {0, 6},
        # and rounding can leave weight 0 at about -1e-16 instead of 0; no
        # face step on that sign pattern lowers the objective, so round 3
        # minimizes coordinate 0 alone, which sets it to exactly 0
        sol = check_neighbor_lasso(DUST_ROWS, DUST_ROWS[6].copy(), 0.01, max_iters=3)
        assert np.flatnonzero(sol.weights).tolist() == [6]



# Lockstep batches.  Every item of a batch has k variables; a smaller fixed
# instance gets extra all-zero neighbor rows, which never take weight.
def neighbor_item(rows, target, k):
    rows = np.vstack([rows, np.zeros((k - rows.shape[0], rows.shape[1]))])
    return rows @ rows.T, rows @ target


def rank_deficient_item(rng, k):
    d = int(rng.integers(1, 6))
    return neighbor_item(unit_rows(rng.normal(size=(k, d))), unit_rows(rng.normal(size=(1, d)))[0], k)


def duplicated_item(rng, k):
    d, n_distinct = int(rng.integers(1, 7)), int(rng.integers(1, k))
    distinct = unit_rows(rng.normal(size=(n_distinct, d)))
    picks = np.concatenate([np.arange(n_distinct), rng.integers(0, n_distinct, k - n_distinct)])
    return neighbor_item(distinct[rng.permutation(picks)], unit_rows(rng.normal(size=(1, d)))[0], k)


def zero_one_sum_item(rng, k):
    width = int(rng.integers(4, 13))
    first = (rng.random(width) < 0.5).astype(float)
    first[:2] = [1.0, 0.0]
    second = (rng.random(width) < 0.5) * (first == 0.0)
    second[1] = 1.0
    others = (rng.random((k - 3, width)) < 0.4).astype(float)
    rows = np.vstack([first, second, first + second, others])[rng.permutation(k)]
    return neighbor_item(rows, (rng.random(width) < 0.5).astype(float), k)


def zero_row_item(rng, k):
    d = int(rng.integers(1, 9))
    rows = unit_rows(rng.normal(size=(k, d)))
    rows[rng.integers(0, k)] = 0.0
    return neighbor_item(rows, unit_rows(rng.normal(size=(1, d)))[0], k)


def zero_diagonal_item(rng, k):
    # TestConvergenceFailure's violator: coordinate 1 has a zero column
    gram, corr = np.zeros((k, k)), np.zeros(k)
    gram[0, 0], corr[:2] = 1.0, [0.5, 1.0]
    return gram, corr


BATCH_ITEMS = {
    "rank_deficient": rank_deficient_item,
    "duplicated": duplicated_item,
    "zero_one_sum": zero_one_sum_item,
    "zero_row": zero_row_item,
    "swap_step": lambda rng, k: neighbor_item(SWAP_ROWS, SWAP_TARGET, k),
    "rounding_dust": lambda rng, k: neighbor_item(DUST_ROWS, DUST_ROWS[6], k),
    "zero_target": lambda rng, k: neighbor_item(rng.normal(size=(k, 3)), np.zeros(3), k),
    "zero_diagonal": zero_diagonal_item,
}


def solve_alone(gram, corr, l1_weight, max_iters=lasso.DEFAULT_MAX_ITERS):
    """The batch-of-one answer: a LassoSolution, or the LassoConvergenceError."""
    problem = LassoProblem(gram, corr, target_sq_norm=0.0, l1_weight=l1_weight)
    try:
        return solve_lasso(problem, max_iters=max_iters)
    except LassoConvergenceError as exc:
        return exc


def stacked_batch(grams, corrs, l1_weight):
    """The LassoBatch whose item b has gram grams[b] and correlations corrs[b],
    over the block-diagonal pool of the grams, so its entries are grams[b]'s."""
    n, k = corrs.shape
    index = np.arange(n * k).reshape(n, k)
    pool = np.zeros((n * k, n * k))
    pool[index[:, :, None], index[:, None, :]] = grams
    return LassoBatch(pool, index, corrs, l1_weight)


def batch_items(batch, keep):
    """The LassoBatch of the items `keep` of batch, over the same pool."""
    return batch._replace(index=batch.index[keep], corr=batch.corr[keep])


def assert_batch_matches(batch, alone, max_iters=lasso.DEFAULT_MAX_ITERS):
    """The batch raises for its first failing item, and every other item's
    weights and residual are bitwise those of its batch-of-one answer alone[i]."""
    failing = [i for i, a in enumerate(alone) if isinstance(a, LassoConvergenceError)]
    if failing:
        with pytest.raises(LassoConvergenceError) as exc:
            solve_lasso(batch, max_iters=max_iters)
        first = alone[failing[0]]
        assert exc.value.item == failing[0]
        assert str(exc.value) == str(first)
        assert exc.value.kkt_residual == first.kkt_residual
    keep = [i for i in range(len(alone)) if i not in failing]
    sol = solve_lasso(batch_items(batch, keep), max_iters=max_iters)
    assert sol.weights.shape == (len(keep), batch.index.shape[1])
    for row, i in enumerate(keep):
        assert sol.weights[row].tobytes() == alone[i].weights.tobytes(), i
    assert sol.kkt_residual == max((alone[i].kkt_residual for i in keep), default=0.0)


def assert_batch_matches_items(grams, corrs, l1_weight, max_iters=lasso.DEFAULT_MAX_ITERS):
    """assert_batch_matches for the stacked batch of grams and corrs, each
    item's answer solved alone; returns those answers."""
    alone = [solve_alone(g, c, l1_weight, max_iters) for g, c in zip(grams, corrs)]
    assert_batch_matches(stacked_batch(grams, corrs, l1_weight), alone, max_iters)
    return alone


class TestLockstepBatches:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS,
        k=st.integers(8, 12),
        kinds=st.lists(st.sampled_from(sorted(BATCH_ITEMS)), min_size=1, max_size=8),
        l1=st.sampled_from([0.0, 1e-4, 0.01, 0.1, 1.0]),
    )
    def test_batch_composition_changes_nothing(self, seed, k, kinds, l1):
        rng = np.random.default_rng(seed)
        items = [BATCH_ITEMS[kind](rng, k) for kind in kinds]
        grams, corrs = np.stack([g for g, _ in items]), np.stack([c for _, c in items])
        assert_batch_matches_items(grams, corrs, l1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS,
        n=st.integers(2, 24),
        d=st.integers(1, 8),
        k=st.integers(1, 10),
        n_items=st.integers(1, 8),
        binary=st.booleans(),
        l1=st.sampled_from([0.0, 1e-4, 0.01, 0.1, 1.0]),
    )
    def test_items_sharing_one_pool(self, seed, n, d, k, n_items, binary, l1):
        # items index overlapping, permuted subsets of one pool A A', as the
        # tag builder's neighborhoods index D'D; with duplicate and all-zero
        # rows when binary
        rng = np.random.default_rng(seed)
        k = min(k, n)
        if binary:
            A, b = (rng.random((n, d)) < 0.4).astype(float), (rng.random((n_items, d)) < 0.5) * 1.0
        else:
            A, b = unit_rows(rng.normal(size=(n, d))), rng.normal(size=(n_items, d))
        pool = A @ A.T
        index = np.stack([rng.permutation(n)[:k] for _ in range(n_items)])
        corr = np.einsum("ikd,id->ik", A[index], b)
        batch = LassoBatch(pool, index, corr, l1)
        alone = []
        for i in range(n_items):
            try:
                alone.append(solve_lasso(batch_items(batch, [i])))
            except LassoConvergenceError as exc:
                alone.append(exc)
            # a batch of one over the pool is the lasso of its explicit gram
            explicit = solve_alone(pool[np.ix_(index[i], index[i])], corr[i], l1)
            assert type(explicit) is type(alone[i])
            if isinstance(explicit, LassoSolution):
                assert explicit.weights.tobytes() == alone[i].weights[0].tobytes()
                alone[i] = explicit
            else:
                assert str(explicit) == str(alone[i])
        assert_batch_matches(batch, alone)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS,
        n=st.integers(2, 24),
        d=st.integers(1, 8),
        k=st.integers(1, 10),
        n_items=st.integers(1, 8),
        binary=st.booleans(),
        l1=st.sampled_from([0.0, 1e-4, 0.01, 0.1, 1.0]),
    )
    def test_items_over_a_row_pool(self, seed, n, d, k, n_items, binary, l1):
        # the same items over the pooled rows A themselves, as the image
        # builder poses them: each solves as it does alone, and its answer
        # meets the KKT conditions of its explicit gram A A' up to rounding
        rng = np.random.default_rng(seed)
        k = min(k, n)
        if binary:
            A, b = (rng.random((n, d)) < 0.4).astype(float), (rng.random((n_items, d)) < 0.5) * 1.0
        else:
            A, b = unit_rows(rng.normal(size=(n, d))), rng.normal(size=(n_items, d))
        index = np.stack([rng.permutation(n)[:k] for _ in range(n_items)])
        corr = np.matmul(A[index], b[:, :, None])[:, :, 0]
        batch = LassoBatch(RowPool(A), index, corr, l1)
        explicit_grams = np.matmul(A[index], A[index].transpose(0, 2, 1))
        np.testing.assert_allclose(
            lasso._diagonal(batch), np.diagonal(explicit_grams, axis1=1, axis2=2), rtol=1e-14
        )
        faces, pool_gram = [], lasso.pool_gram

        def face_grams(pool, left, right=None):
            entries = pool_gram(pool, left, right)
            if right is None:
                faces.append(entries)
            return entries

        alone = []
        with mock.patch.object(lasso, "pool_gram", face_grams):
            for i in range(n_items):
                try:
                    alone.append(solve_lasso(batch_items(batch, [i])))
                except LassoConvergenceError as exc:
                    alone.append(exc)
            assert_batch_matches(batch, alone)
        # every face gram formed over the rows is exactly symmetric
        assert all(np.array_equal(face, face.swapaxes(1, 2)) for face in faces)
        for i, answer in enumerate(alone):
            if isinstance(answer, LassoSolution):
                rows = A[index[i]]
                explicit = LassoProblem(rows @ rows.T, corr[i], 0.0, l1)
                assert kkt_residual(explicit, answer.weights[0]) <= lasso.DEFAULT_TOL + 1e-12

    def test_round_cap_counts_each_items_own_rounds(self):
        # the swap-step instance needs 4 rounds and the zero-diagonal violator
        # fails after 2; the other items finish within 3
        rng = np.random.default_rng(44)
        kinds = ["zero_target", "rounding_dust", "swap_step", "zero_diagonal", "rounding_dust"]
        items = [BATCH_ITEMS[kind](rng, 8) for kind in kinds]
        grams, corrs = np.stack([g for g, _ in items]), np.stack([c for _, c in items])
        with pytest.raises(LassoConvergenceError, match="after 3 rounds") as exc:
            solve_lasso(stacked_batch(grams, corrs, 0.01), max_iters=3)
        assert exc.value.item == 2
        alone = assert_batch_matches_items(grams, corrs, 0.01, max_iters=3)
        assert [type(a).__name__ for a in alone] == [
            "LassoSolution", "LassoSolution", "LassoConvergenceError",
            "LassoConvergenceError", "LassoSolution",
        ]
        assert "after 2 rounds" in str(alone[3])
        assert_batch_matches_items(grams[[0, 1, 2, 4]], corrs[[0, 1, 2, 4]], 0.01, max_iters=4)

    def test_problem_solves_as_a_batch_of_one(self):
        problem = random_problem(np.random.default_rng(45), 6, l1_weight=0.05)
        sol = solve_lasso(problem)
        at = np.arange(6)[None]
        batch = solve_lasso(LassoBatch(problem.gram, at, problem.corr[None], 0.05))
        assert sol.weights.shape == (6,) and batch.weights.shape == (1, 6)
        assert batch.weights[0].tobytes() == sol.weights.tobytes()
        assert batch.kkt_residual == sol.kkt_residual
