import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagcomplete import lasso
from tagcomplete.core import ValidationError
from tagcomplete.lasso import (
    LassoConvergenceError,
    LassoProblem,
    LassoSolution,
    kkt_residual,
    solve_lasso,
    verify_kkt,
)

from oracles import lasso_by_enumeration, lasso_objective


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


class TestProblemValidation:
    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValidationError):
            LassoProblem(
                gram=np.array([[1.0, 0.5], [0.0, 1.0]]),
                corr=np.zeros(2),
                target_sq_norm=0.0,
                l1_weight=1.0,
            )

    def test_rejects_indefinite_gram(self):
        with pytest.raises(ValidationError):
            LassoProblem(
                gram=np.array([[1.0, 0.0], [0.0, -1.0]]),
                corr=np.zeros(2),
                target_sq_norm=0.0,
                l1_weight=1.0,
            )

    def test_structure_path_poses_the_same_problem(self):
        # the structure builds' path skips the checks that the public constructor
        # (tested above) runs, and must store the same arrays
        rng = np.random.default_rng(3)
        rows, target = rng.normal(size=(6, 4)), rng.normal(size=4)
        built = lasso._row_problem(rows, target, 0.1)
        public = LassoProblem(rows @ rows.T, rows @ target, float(target @ target), 0.1)
        for field in ("gram", "corr", "target_sq_norm", "l1_weight"):
            got, want = np.asarray(getattr(built, field)), np.asarray(getattr(public, field))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field

    def test_rejects_negative_l1(self):
        with pytest.raises(ValidationError):
            LassoProblem(
                gram=np.eye(2), corr=np.zeros(2), target_sq_norm=0.0, l1_weight=-1.0
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
        np.testing.assert_allclose(problem.objective_at(sol.weights), 0.75, atol=1e-12)

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
        assert problem.objective_at(sol.weights) == 2.0


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
            assert problem.objective_at(sol.weights) <= best + 1e-6, f"trial {trial}"
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
        assert problem.objective_at(a.weights) == problem.objective_at(b.weights)

    def test_objective_at_matches_hand_expansion(self):
        rng = np.random.default_rng(14)
        problem = random_problem(rng, 4)
        w = rng.normal(size=4)
        np.testing.assert_allclose(
            problem.objective_at(w),
            lasso_objective(
                problem.gram, problem.corr, problem.target_sq_norm,
                problem.l1_weight, w,
            ),
            rtol=1e-12,
        )


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
    if problem.n_vars <= 8:
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
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        target = np.array([1.0, 0.1])
        sol = check_neighbor_lasso(rows, target, 0.01, max_iters=4)
        assert sol.weights[1] == 0.0
        assert np.all(sol.weights[[0, 2]] > 0.0)
        with pytest.raises(LassoConvergenceError, match="after 3 rounds"):
            check_neighbor_lasso(rows, target, 0.01, max_iters=3)

    def test_rounding_dust_takes_scalar_step(self):
        # the target is neighbor 6 itself.  Round 2 solves the face {0, 6},
        # and rounding can leave weight 0 at about -1e-16 instead of 0; no
        # face step on that sign pattern lowers the objective, so round 3
        # minimizes coordinate 0 alone, which sets it to exactly 0
        rows = np.array(
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
        sol = check_neighbor_lasso(rows, rows[6].copy(), 0.01, max_iters=3)
        assert np.flatnonzero(sol.weights).tolist() == [6]
