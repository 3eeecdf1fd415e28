import numpy as np
import pytest

from tagcomplete.core import ValidationError
from tagcomplete.lasso import (
    LassoConvergenceError,
    LassoProblem,
    LassoSolution,
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
        np.testing.assert_allclose(sol.objective_value, 0.75, atol=1e-12)

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
        assert sol.objective_value == 2.0


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
            assert sol.objective_value <= best + 1e-6, f"trial {trial}"
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
        assert a.objective_value == b.objective_value

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
            objective_value=sol.objective_value,
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
