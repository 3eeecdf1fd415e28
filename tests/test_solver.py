import copy
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tagcomplete import solver
from tagcomplete.core import (
    DimensionMismatchError,
    FactorModel,
    FeatureMatrix,
    Hyperparams,
    StructureMatrix,
    TaggingMatrix,
    ValidationError,
)
from tagcomplete.lasso import LassoProblem, solve_lasso
from tagcomplete.solver import (
    NumericalBlowupError,
    SolverWorkspace,
    coeff_update_value,
    error_update_value,
    fit,
    initial_model,
    update_basis,
    update_coeffs,
    update_error,
)
from tagcomplete.structure import build_feature_structure, build_tag_structure, reinitialize
from tagcomplete.synth import SynthConfig, delete_tags, generate

from helpers import zero_structure
from oracles import (
    basis_pass_by_column_loop,
    basis_update_value,
    coefficient_sweep_by_residual,
    coefficient_sweep_by_scalar_loop,
    dense_objective,
    fit_at_full_rank,
    fit_with_dense_state,
    lanczos_stop_dimensions,
    scalar_min_by_search,
    soft_threshold,
    trust_region_by_eigh,
)


def random_setup(rng, n=8, m=6, k=3, density=0.3, hp=None):
    hp = hp or Hyperparams(K=k, knn_k=3, eta=0.3, beta=0.5)
    D = TaggingMatrix.from_dense((rng.random((n, m)) < 0.4).astype(float))
    Sd = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(Sd, 0.0)
    Td = rng.normal(size=(m, m)) * (rng.random((m, m)) < density)
    np.fill_diagonal(Td, 0.0)
    S = StructureMatrix(sp.csr_matrix(Sd))
    T = StructureMatrix(sp.csr_matrix(Td))
    U = rng.normal(size=(n, k))
    U /= np.maximum(np.linalg.norm(U, axis=0, keepdims=True), 1.0)
    V = rng.normal(size=(k, m)) * (rng.random((k, m)) < 0.6)
    E = rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.2)
    model = FactorModel(U=U, V=sp.csr_matrix(V), E=sp.csr_matrix(E))
    return D, S, T, model, hp


def set_target(ws, spots, values):
    """Set the workspace's target D - E to values at spots, through
    E = D - values there: exact for the 0/1 data here and 1.0, and NaN and
    -/+inf give NaN and +/-inf."""
    error = ws.error.toarray()
    error[spots] = ws.data[spots] - values
    ws.error = sp.csr_matrix(error)


class TestScalarForms:
    def test_coeff_update_below_threshold_is_zero(self):
        assert coeff_update_value(0.5, 1.0, 1.0) == 0.0

    def test_coeff_update_above_threshold(self):
        assert coeff_update_value(2.0, 1.0, 1.0) == 1.0

    def test_coeff_update_matches_maxmin_expression(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = float(rng.normal(scale=3.0))
            eta = float(rng.uniform(0.0, 2.0))
            denom = float(rng.uniform(0.1, 5.0))
            maxmin = (max(p, eta) + min(p, -eta)) / denom
            assert abs(coeff_update_value(p, eta, denom) - maxmin) <= 1e-12

    def test_coeff_update_matches_grid_search(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = float(rng.normal(scale=2.0))
            eta = float(rng.uniform(0.0, 1.5))
            denom = float(rng.uniform(0.2, 4.0))

            def f(v):
                return denom * v * v - 2.0 * p * v + 2.0 * eta * abs(v)

            got = coeff_update_value(p, eta, denom)
            _, best = scalar_min_by_search(f, radius=max(3.0 * abs(p) / denom, 1.0))
            assert f(got) <= best + 1e-6

    def test_basis_update_is_clipped_least_squares(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = float(rng.normal(scale=2.0))
            denom = float(rng.uniform(0.2, 4.0))

            def f(u):
                return denom * u * u - 2.0 * q * u

            got = basis_update_value(q, denom, radius=1.0)
            assert -1.0 <= got <= 1.0
            _, best = scalar_min_by_search(f, radius=1.0)
            assert f(got) <= best + 1e-6

    def test_error_update_below_threshold(self):
        assert error_update_value(0.2, 0.7) == 0.0

    def test_error_update_above_threshold(self):
        np.testing.assert_allclose(error_update_value(0.5, 0.7), 0.15)

    def test_error_update_matches_grid_search(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = float(rng.normal(scale=1.5))
            beta = float(rng.uniform(0.0, 2.0))

            def f(e):
                return (r - e) ** 2 + beta * abs(e)

            got = float(error_update_value(r, beta))
            _, best = scalar_min_by_search(f, radius=max(2.0 * abs(r), 1.0))
            assert f(got) <= best + 1e-6

    def test_error_update_zero_beta_absorbs_residual(self):
        r = np.array([[0.4, -2.0], [0.0, 7.0]])
        np.testing.assert_array_equal(error_update_value(r, 0.0), r)

    def test_soft_threshold_elementwise(self):
        x = np.array([-2.0, -0.3, 0.0, 0.3, 2.0])
        np.testing.assert_allclose(
            soft_threshold(x, 0.5), [-1.5, 0.0, 0.0, 0.0, 1.5]
        )

    @pytest.mark.parametrize("beta", [0.0, 1e-310, 0.7, 2.0, 1e300])
    def test_error_update_is_soft_threshold_bit_for_bit(self, beta):
        # signed zeros, subnormals, infinities, NaN of either sign, and values
        # at beta/2 and one ulp either side of it, as arrays and one scalar at
        # a time (numpy's scalar arithmetic may pick either NaN's sign)
        half = 0.5 * beta
        edges = [
            0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.3, 1.7976931348623157e308,
            np.inf, np.nan, half, np.nextafter(half, 0.0), np.nextafter(half, np.inf),
        ]
        x = np.array(edges + [-v for v in edges])
        with np.errstate(invalid="ignore"):
            want = soft_threshold(x, half)
            assert error_update_value(x, beta).tobytes() == want.tobytes()
            grid = x.reshape(2, -1)
            assert error_update_value(grid, beta).tobytes() == want.tobytes()
            for value, bits in zip(x.tolist(), want):
                got = error_update_value(value, beta)
                assert got.tobytes() == bits.tobytes() or np.isnan(got) == np.isnan(bits)


class TestSolverWorkspace:
    def test_model_shape_mismatch_names_model(self):
        rng = np.random.default_rng(5)
        D, S, T, model, hp = random_setup(rng, n=8, m=6, k=3)
        wide = FactorModel(
            U=model.U, V=sp.csr_matrix((3, 7)), E=sp.csr_matrix((8, 7))
        )
        message = "^model is 8x7 but D is 8x6$"
        with pytest.raises(DimensionMismatchError, match=message) as exc:
            SolverWorkspace(D, S, T, wide, hp)
        assert isinstance(exc.value, ValidationError)


class TestUpdateCoeffs:
    def test_objective_non_increasing(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            D, S, T, model, hp = random_setup(rng)
            ws = SolverWorkspace(D, S, T, model, hp)
            before = ws.objective_value()
            update_coeffs(ws)
            after = ws.objective_value()
            assert after <= before + 1e-10 * abs(before)

    def test_fixed_point_stationary(self):
        rng = np.random.default_rng(11)
        D, S, T, model, hp = random_setup(rng)
        ws = SolverWorkspace(D, S, T, model, hp)
        for _ in range(500):
            before = ws.coeffs.copy()
            update_coeffs(ws)
            if np.abs(ws.coeffs - before).max() < 1e-12:
                break
        before = ws.coeffs.copy()
        update_coeffs(ws)
        assert np.abs(ws.coeffs - before).max() <= 1e-9

    def test_every_coordinate_beats_random_probes_at_fixed_point(self):
        rng = np.random.default_rng(12)
        D, S, T, model, hp = random_setup(rng, n=6, m=3, k=4)
        ws = SolverWorkspace(D, S, T, model, hp)
        for _ in range(500):
            before = ws.coeffs.copy()
            update_coeffs(ws)
            if np.abs(ws.coeffs - before).max() < 1e-13:
                break
        Dd, Sd, Td = D.to_dense(), S.matrix.toarray(), T.matrix.toarray()
        for k in range(4):
            for m in range(3):
                current = ws.coeffs[k, m]
                base = dense_objective(Dd, Sd, Td, ws.basis, ws.coeffs, ws.error.toarray(), hp)
                probes = current + rng.normal(scale=0.3, size=1000)
                trial = ws.coeffs.copy()
                for v in probes:
                    trial[k, m] = v
                    assert (
                        dense_objective(Dd, Sd, Td, ws.basis, trial, ws.error.toarray(), hp)
                        >= base - 1e-9
                    )

    def test_skips_zero_curvature_coordinates(self):
        D = TaggingMatrix.from_dense(np.ones((4, 3)))
        hp = Hyperparams(K=2, knn_k=2, lambda_=0.0)
        model = FactorModel(
            U=np.zeros((4, 2)), V=sp.csr_matrix((2, 3)), E=sp.csr_matrix((4, 3))
        )
        ws = SolverWorkspace(
            D,
            zero_structure(4),
            zero_structure(3),
            model,
            hp,
        )
        skipped = update_coeffs(ws)
        assert skipped == 2 * 3
        assert np.all(ws.coeffs == 0.0)


class TestUpdateBasis:
    def test_objective_non_increasing(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            D, S, T, model, hp = random_setup(rng)
            ws = SolverWorkspace(D, S, T, model, hp)
            before = ws.objective_value()
            update_basis(ws)
            after = ws.objective_value()
            assert after <= before + 1e-10 * abs(before)

    def test_columns_stay_in_unit_ball(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            D, S, T, model, hp = random_setup(rng)
            ws = SolverWorkspace(D, S, T, model, hp)
            update_basis(ws)
            assert np.linalg.norm(ws.basis, axis=0).max() <= 1.0 + 1e-12

    def test_zero_coeffs_zero_penalty_skips_everything(self):
        D = TaggingMatrix.from_dense(np.ones((5, 4)))
        hp = Hyperparams(K=3, knn_k=2, gamma=0.0)
        rng = np.random.default_rng(22)
        U = rng.normal(size=(5, 3))
        U /= np.linalg.norm(U, axis=0, keepdims=True)
        model = FactorModel(
            U=U, V=sp.csr_matrix((3, 4)), E=sp.csr_matrix((5, 4))
        )
        ws = SolverWorkspace(
            D,
            zero_structure(5),
            zero_structure(4),
            model,
            hp,
        )
        before = ws.basis.copy()
        skipped = update_basis(ws)
        assert skipped == 5 * 3
        np.testing.assert_array_equal(ws.basis, before)

    def test_failed_step_leaves_its_column(self, monkeypatch):
        # when _basis_step gives up, its column keeps every bit, and its
        # n_images coordinates count as skipped in update_basis and in fit
        step, calls = solver._basis_step, []

        def fails_on_column_1(ws, g, q, rows):
            calls.append(g)
            if len(calls) % ws.n_factors == 2:
                return None, None, rows
            return step(ws, g, q, rows)

        D, S, T, model, hp = random_setup(np.random.default_rng(24), n=10, m=7, k=3)
        plain = SolverWorkspace(D, S, T, model, hp)
        assert update_basis(plain) == 0
        monkeypatch.setattr(solver, "_basis_step", fails_on_column_1)
        ws = SolverWorkspace(D, S, T, model, hp)
        assert update_basis(ws) == 10
        # every column took a step, so call 2 was column 1's
        assert len(calls) == 3
        assert ws.basis[:, 1].tobytes() == model.U[:, 1].tobytes()
        assert not np.array_equal(ws.basis, plain.basis)

        calls.clear()
        hp = Hyperparams(K=3, knn_k=3, eta=0.1, beta=1.0, max_outer_iters=6)
        report = fit(D, S, T, hp, model)
        assert len(calls) == 3 * report.iterations
        assert report.skipped_coordinates == 10 * report.iterations
        assert report.model.U[:, 1].tobytes() == model.U[:, 1].tobytes()
        chain = np.concatenate(([report.objective_trace[0]], report.block_trace.ravel()))
        for prev, cur in zip(chain, chain[1:]):
            assert cur <= prev + 1e-10 * abs(prev)

    def test_single_coordinate_scalar_case(self):
        # N=1, K=1, no image penalty: minimizer is Q/(VV') clipped to [-1, 1]
        rng = np.random.default_rng(23)
        for _ in range(20):
            v = rng.normal(size=(1, 3))
            d = rng.normal(size=(1, 3))
            hp = Hyperparams(K=1, knn_k=1, gamma=0.0, eta=0.1)
            model = FactorModel(
                U=np.zeros((1, 1)), V=sp.csr_matrix(v), E=sp.csr_matrix((1, 3))
            )
            ws = SolverWorkspace(
                TaggingMatrix.from_dense(d),
                zero_structure(1),
                zero_structure(3),
                model,
                hp,
            )
            update_basis(ws)
            q = float(v[0] @ d[0])
            denom = float(v[0] @ v[0])
            want = np.clip(q / denom, -1.0, 1.0)
            np.testing.assert_allclose(ws.basis[0, 0], want, atol=1e-12)

            def f(u):
                return denom * u * u - 2.0 * q * u

            _, best = scalar_min_by_search(f, radius=1.0)
            assert f(ws.basis[0, 0]) <= best + 1e-6

    def test_basis_pass_matches_fresh_steps_across_lanczos_lengths(self, monkeypatch):
        # update_basis starts each step's Lanczos array at the j of the step
        # before it, and takes the image (S - I)u of a step's u from the step;
        # the column loop starts every step at 8 rows and forms every image
        step, calls = solver._basis_step, []

        def recorded(ws, g, q, rows=8):
            result = step(ws, g, q, rows)
            calls.append((rows, result[2]))
            return result

        monkeypatch.setattr(solver, "_basis_step", recorded)
        rng, seen = np.random.default_rng(47), []
        for _ in range(12):
            n, k = int(rng.integers(30, 90)), int(rng.integers(3, 7))
            hp = Hyperparams(K=k, knn_k=3, eta=0.3, beta=0.5,
                             gamma=float(10 ** rng.uniform(-1, 2)))
            ws = SolverWorkspace(*random_setup(rng, n=n, m=5, k=k, density=0.05, hp=hp))
            want, want_skipped = basis_pass_by_column_loop(ws)
            calls.clear()
            assert update_basis(ws) == want_skipped
            np.testing.assert_array_equal(ws.basis.view(np.int64), want.view(np.int64))
            assert [rows for rows, _ in calls] == [8] + [j for _, j in calls[:-1]]
            seen += calls
        # steps that grew their array and steps that started longer than
        # they needed both ran
        assert any(j > rows for rows, j in seen) and any(j < rows for rows, j in seen)


class TestSweepMatchesReference:
    """One coefficient sweep equals the from-scratch reference sweep, which
    recomputes every q from the full residuals in the same order."""

    def check(self, D, S, T, model, hp):
        ws = SolverWorkspace(D, S, T, model, hp)
        want = coefficient_sweep_by_residual(
            D.to_dense(), T.matrix.toarray(), ws.basis, ws.coeffs, ws.error.toarray(), hp
        )
        basis = ws.basis.copy()
        skipped = update_coeffs(ws)
        np.testing.assert_array_equal(ws.basis, basis)
        np.testing.assert_allclose(ws.coeffs, want, rtol=0.0, atol=1e-10)
        return skipped

    @pytest.mark.parametrize("block", ["coeffs"])
    def test_random_instances(self, block):
        rng = np.random.default_rng(40)
        for _ in range(12):
            n, m, k = (int(v) for v in rng.integers(2, 9, size=3))
            self.check(*random_setup(rng, n=n, m=m, k=k))

    @pytest.mark.parametrize("block", ["coeffs"])
    def test_zero_curvature_coordinates(self, block):
        rng = np.random.default_rng(42)
        hp = Hyperparams(K=3, knn_k=3, eta=0.3, gamma=0.0, lambda_=0.0)
        D, S, T, model, hp = random_setup(rng, n=7, m=5, k=3, hp=hp)
        U = model.U.copy()
        U[:, 1] = 0.0  # coefficient row 1 has zero curvature
        model = FactorModel(U=U, V=model.V, E=model.E)
        assert self.check(D, S, T, model, hp) == 5

    def test_penalties_exactly_symmetric(self):
        rng = np.random.default_rng(43)
        setups = [
            random_setup(rng, n=n, m=m, density=density)
            for n, m, density in [(8, 6, 0.3), (25, 17, 0.1), (30, 30, 0.8)]
        ]
        cfg = SynthConfig(
            n_images=80, n_tags=20, n_topics=4, tags_per_image=4, feature_dim=10,
            feature_noise=0.25, delete_fraction=0.4, rng_seed=3,
        )
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        hp = Hyperparams(K=4, knn_k=9)
        S = build_feature_structure(instance.features, hp)
        T = build_tag_structure(split.observed, hp)
        setups.append((split.observed, S, T, initial_model(split.observed, hp), hp))
        for setup in setups:
            ws = SolverWorkspace(*setup)
            np.testing.assert_array_equal(ws.tag_penalty, ws.tag_penalty.T)
            # the basis operator gamma*B'B is symmetric only if B' is exact
            assert (ws.image_shift_t != ws.image_shift.T).nnz == 0


class TestCoefficientRowScan:
    """update_coeffs, which scans each row before sweeping it, is bitwise equal
    to the scalar step at every coordinate, skip counts included."""

    def instance(self, rng):
        """A workspace with dead rows, live rows, signed zeros and, at random,
        eta = 0, lambda = 0 or tags without penalty mass (zero-curvature
        coordinates) and a non-finite target."""
        n, m, k = (int(v) for v in rng.integers(2, 10, size=3))
        hp = Hyperparams(
            K=k, knn_k=3, beta=0.5,
            eta=float(rng.choice([0.0, 0.05, 0.3, 2.0])),
            lambda_=float(rng.choice([0.0, 0.5])),
        )
        D, S, T, model, hp = random_setup(rng, n=n, m=m, k=k, hp=hp)
        ws = SolverWorkspace(D, S, T, model, hp)
        dead = rng.random(k) < 0.4
        ws.basis[:, dead] = 0.0
        ws.coeffs[dead] = 0.0
        ws.coeffs[rng.random((k, m)) < 0.2] = -0.0
        if rng.random() < 0.3:
            massless = rng.random(m) < 0.3
            ws.tag_penalty[massless] = 0.0
            ws.tag_penalty[:, massless] = 0.0
        if rng.random() < 0.2:
            spots = rng.random((n, m)) < 0.1
            set_target(ws, spots, rng.choice([np.nan, np.inf, -np.inf], size=spots.sum()))
        return ws

    def check(self, ws):
        for _ in range(3):
            want, want_skipped = coefficient_sweep_by_scalar_loop(
                ws.basis, ws.coeffs, ws.coeff_coupling(), ws.tag_penalty, ws.hp.eta
            )
            basis = ws.basis.copy()
            assert update_coeffs(ws) == want_skipped
            np.testing.assert_array_equal(ws.coeffs, want)
            np.testing.assert_array_equal(np.signbit(ws.coeffs), np.signbit(want))
            np.testing.assert_array_equal(ws.basis, basis)

    def test_random_instances(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            ws = self.instance(rng)
            with np.errstate(over="ignore", invalid="ignore"):  # as fit runs it
                self.check(ws)

    def test_sweeps_of_a_fit_with_dying_factors(self):
        # at default weights 10 of these 12 factors die within three iterations
        cfg = SynthConfig(
            n_images=60, n_tags=30, n_topics=3, tags_per_image=3, feature_dim=8,
            feature_noise=0.3, delete_fraction=0.4, rng_seed=1,
        )
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        hp = Hyperparams(K=12, knn_k=5)
        S = build_feature_structure(instance.features, hp)
        T = build_tag_structure(split.observed, hp)
        ws = SolverWorkspace(split.observed, S, T, initial_model(split.observed, hp), hp)
        for _ in range(4):
            self.check(ws)
            update_basis(ws)
            update_error(ws)

    def test_dead_row_after_a_row_that_overflows(self):
        # row 0's tiny basis column against a huge target overflows its
        # coefficient on the massless tag 0 mid-sweep; then the dead row 1
        # sees 0 * inf = NaN in its coupling, and the scalar loop writes NaN
        # on tag 1, so its products must be formed
        rng = np.random.default_rng(45)
        D, S, T, model, hp = random_setup(rng, n=3, m=2, k=2, hp=Hyperparams(K=2, knn_k=2))
        ws = SolverWorkspace(D, S, T, model, hp)
        ws.basis[:] = [[1e-100, 0.0], [0.0, 0.0], [0.0, 0.0]]
        ws.coeffs[:] = 0.0
        ws.data[:], ws.error = 1e250, sp.csr_matrix(ws.error.shape)  # target 1e250
        ws.tag_penalty[:] = [[0.0, 0.0], [0.0, 1.0]]
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(ws)
        assert np.isnan(ws.coeffs[1, 1])


def check_basis_pass(ws, before, after, tol=1e-8):
    """Assert that `after` is one cyclic pass of exact trust-region steps from
    `before`, recomputed densely from the workspace's V, target D - E and S.

    Column k's subproblem sees columns < k of `after` and columns > k of
    `before`.  Its result must satisfy the trust-region conditions, with the
    ball multiplier sigma recovered by least squares, and every coordinate
    must already be its own exact scalar minimizer: basis_update_value moves
    none of them.  Returns the norms of the columns after the pass.
    """
    n, k = before.shape
    shift = ws.image_structure.matrix.toarray() - np.eye(n)
    penalty = ws.hp.gamma * shift.T @ shift
    gram = ws.coeffs @ ws.coeffs.T
    corr = ws.coeffs @ (ws.data - ws.error.toarray()).T
    norms = []
    for j in range(k):
        current = np.hstack([after[:, :j], before[:, j:]])
        g = gram[j, j]
        q = corr[j] - current @ gram[:, j] + g * before[:, j]
        u = after[:, j]
        hessian = g * np.eye(n) + penalty
        norm = float(np.linalg.norm(u))
        scale = float(np.linalg.norm(q))
        assert norm <= 1.0 + 1e-12
        sigma = 0.0 if norm < 1.0 - 1e-9 else float(u @ (q - hessian @ u)) / norm**2
        assert sigma >= -tol * scale
        assert np.linalg.norm(hessian @ u + sigma * u - q) <= tol * scale
        for p in range(n):
            d = hessian[p, p]
            if d <= 0.0:
                continue
            q_p = q[p] - (hessian[p] @ u - d * u[p])
            radius = max(np.sqrt(max(1.0 - (norm * norm - u[p] ** 2), 0.0)), abs(u[p]))
            moved = basis_update_value(q_p, d, radius) - u[p]
            assert abs(moved) <= tol * max(1.0, scale / d)
        norms.append(norm)
    return np.array(norms)


def chain_structure(n):
    """Items on a line, each a near duplicate of its neighbors and rebuilt by
    them with equal weights: S - I sends constant vectors to zero, and
    gamma (S - I)'(S - I) has many distinct eigenvalues near 0, so small g
    leaves A = gI + gamma (S - I)'(S - I) ill-conditioned."""
    S = np.zeros((n, n))
    for i in range(n):
        neighbors = [j for j in (i - 1, i + 1) if 0 <= j < n]
        S[i, neighbors] = 1.0 / len(neighbors)
    return StructureMatrix(sp.csr_matrix(S))


def workspace_for(S, gamma):
    """A workspace on structure S, for direct calls of the basis step."""
    n = S.matrix.shape[0]
    D = TaggingMatrix.from_dense(np.eye(n, 3))
    model = FactorModel(U=np.zeros((n, 2)), V=sp.csr_matrix((2, 3)), E=sp.csr_matrix((n, 3)))
    hp = Hyperparams(K=2, knn_k=3, gamma=gamma)
    return SolverWorkspace(D, S, zero_structure(3), model, hp)


def basis_step_and_dimension(ws, g, q, monkeypatch):
    """solver._basis_step(ws, g, q) and the dimension of the largest Lanczos
    space it solved the projected subproblem in."""
    dimensions = [0]
    projected = solver._projected_step

    def recorded(diagonal, *args):
        dimensions.append(len(diagonal))
        return projected(diagonal, *args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_projected_step", recorded)
        u, _, _ = solver._basis_step(ws, g, q)
    return u, max(dimensions)


def check_against_dense_solve(ws, g, q, u, atol):
    """u is the trust-region minimizer of the dense reference solve."""
    shift = ws.image_shift.toarray()
    operator = g * np.eye(q.shape[0]) + ws.hp.gamma * shift.T @ shift
    want, _ = trust_region_by_eigh(operator, q)
    assert u is not None
    np.testing.assert_allclose(u, want, rtol=0.0, atol=atol)


def check_stop_dimension(ws, g, q, dimension):
    """The basis step stopped its Lanczos process between the first
    dimension that meets its stop rule, beta_{j+1} |h_j| <= _CERT_RTOL / 100
    * ||q||, and where a process stops that tests the rule only on the
    reference schedule j = 4, 6, 9, 13, ...: the step's O(1) estimate of the
    rule, at a sigma solved earlier, may lag it, but not past that bound."""
    shift, shift_t, gamma = ws.image_shift, ws.image_shift_t, ws.hp.gamma
    first, last = lanczos_stop_dimensions(
        lambda v: gamma * (shift_t @ (shift @ v)), g, q, solver._CERT_RTOL / 100
    )
    assert first <= dimension <= last


class TestBasisTrustRegion:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        m=st.integers(1, 8),
        k=st.integers(1, 5),
        gamma=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
        scale=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    )
    def test_every_step_meets_the_trust_region_conditions(
        self, seed, n, m, k, gamma, scale
    ):
        rng = np.random.default_rng(seed)
        hp = Hyperparams(K=k, knn_k=3, eta=0.3, beta=0.5, gamma=gamma)
        D, S, T, model, hp = random_setup(rng, n=n, m=m, k=k, hp=hp)
        model = FactorModel(U=model.U, V=scale * model.V, E=model.E)
        ws = SolverWorkspace(D, S, T, model, hp)
        before = ws.basis.copy()
        skipped = update_basis(ws)
        # only constant subproblems are skipped: no step failed its certificate
        constant = int((~ws.coeffs.any(axis=1)).sum()) if gamma == 0.0 else 0
        assert skipped == n * constant
        check_basis_pass(ws, before, ws.basis)

    @pytest.mark.parametrize("seed", [34, 80, 293])
    def test_ill_conditioned_columns_are_certified(self, seed):
        # a dense random S with gamma = 100 against g ~ 1e-4 conditions the
        # column systems at 1e5 or worse: conjugate gradients need more than
        # N steps before the residual meets the certificate
        rng = np.random.default_rng(seed)
        hp = Hyperparams(K=3, knn_k=3, eta=0.3, beta=0.5, gamma=100.0)
        D, S, T, model, hp = random_setup(rng, n=28, m=6, k=3, density=0.6, hp=hp)
        model = FactorModel(U=model.U, V=0.01 * model.V, E=model.E)
        ws = SolverWorkspace(D, S, T, model, hp)
        before = ws.basis.copy()
        assert update_basis(ws) == 0
        check_basis_pass(ws, before, ws.basis)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("v_scale", [1.0, 0.01])
    def test_boundary_steps_are_certified(self, seed, gamma, v_scale):
        # a target far above the data, scaled against the coefficients, gives
        # every live column a coupling q large enough to end on the sphere
        # with multiplier sigma > 0, where Newton's method and its derivative
        # solve set sigma; with a dense S, v_scale = 0.01 leaves g ~ 1e-4
        # against gamma*B'B, so the column systems are ill-conditioned
        rng = np.random.default_rng(seed)
        hp = Hyperparams(K=3, knn_k=3, eta=0.3, beta=0.5, gamma=gamma)
        D, S, T, model, hp = random_setup(rng, n=20, m=5, k=3, density=0.6, hp=hp)
        E = -50.0 / v_scale * np.abs(rng.normal(size=(20, 5)))
        model = FactorModel(U=model.U, V=v_scale * model.V, E=sp.csr_matrix(E))
        ws = SolverWorkspace(D, S, T, model, hp)
        before = ws.basis.copy()
        assert update_basis(ws) == 0
        norms = check_basis_pass(ws, before, ws.basis)
        live = ws.coeffs.any(axis=1)
        assert live.any()
        np.testing.assert_allclose(norms[live], 1.0, rtol=0.0, atol=1e-12)

    def test_zero_column_moves_to_origin(self):
        # g = 0 and q = 0 with gamma > 0: u = 0 is the exact minimizer
        rng = np.random.default_rng(24)
        D, S, T, model, hp = random_setup(rng, n=9, m=6, k=3)
        V = model.V.toarray()
        V[1, :] = 0.0
        model = FactorModel(U=model.U, V=sp.csr_matrix(V), E=model.E)
        ws = SolverWorkspace(D, S, T, model, hp)
        before = ws.basis.copy()
        assert update_basis(ws) == 0
        np.testing.assert_array_equal(ws.basis[:, 1], 0.0)
        check_basis_pass(ws, before, ws.basis)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_zero_curvature_with_coupling_ends_on_sphere(self, gamma):
        # g = 0 with q != 0: the linear term drives u to the sphere
        rng = np.random.default_rng(25)
        hp = Hyperparams(K=2, knn_k=3, gamma=gamma)
        ws = SolverWorkspace(*random_setup(rng, n=10, m=4, k=2, hp=hp))
        q = 40.0 * rng.normal(size=10)
        u, _, _ = solver._basis_step(ws, 0.0, q)
        assert u is not None
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        shift = ws.image_structure.matrix.toarray() - np.eye(10)
        pushed = q - gamma * shift.T @ (shift @ u)  # = sigma * u at the optimum
        np.testing.assert_allclose(pushed / np.linalg.norm(pushed), u, atol=1e-9)
        if gamma == 0.0:
            np.testing.assert_allclose(u, q / np.linalg.norm(q), atol=1e-15)

    def test_column_on_unit_sphere(self):
        rng = np.random.default_rng(41)
        D, S, T, model, hp = random_setup(rng, n=6, m=5, k=2)
        U = model.U.copy()
        U[:, 0] = [0.5, 0.5, 0.5, 0.5, 0.0, 0.0]  # norm exactly 1
        # a large positive target pulls column 0 outward against the ball
        V = np.abs(model.V.toarray()) + 1.0
        E = np.full((6, 5), -50.0)
        model = FactorModel(U=U, V=sp.csr_matrix(V), E=sp.csr_matrix(E))
        ws = SolverWorkspace(D, S, T, model, hp)
        before = ws.basis.copy()
        assert update_basis(ws) == 0
        norms = check_basis_pass(ws, before, ws.basis)
        assert abs(norms[0] - 1.0) <= 1e-12

    def test_padding_columns_beyond_min_shape(self):
        # K > min(N, M): initial_model pads with seeded random unit columns
        rng = np.random.default_rng(26)
        D, S, T, _, _ = random_setup(rng, n=5, m=3, k=1)
        hp = Hyperparams(K=7, knn_k=2, eta=0.1)
        start = initial_model(D, hp)
        V = rng.normal(size=(7, 3)) * (rng.random((7, 3)) < 0.7)
        model = FactorModel(U=start.U, V=sp.csr_matrix(V), E=start.E)
        ws = SolverWorkspace(D, S, T, model, hp)
        before = ws.basis.copy()
        assert update_basis(ws) == 0
        check_basis_pass(ws, before, ws.basis)


    def test_agrees_with_dense_solve(self, monkeypatch):
        # interior and boundary steps on small random instances, up to a
        # Lanczos space of the full dimension
        rng = np.random.default_rng(60)
        for _ in range(200):
            n = int(rng.integers(1, 16))
            gamma = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
            hp = Hyperparams(K=2, knn_k=3, gamma=gamma)
            ws = SolverWorkspace(*random_setup(rng, n=n, m=4, k=2, hp=hp))
            g = float(rng.uniform(0.1, 3.0))
            q = float(rng.choice([0.01, 0.3, 3.0, 30.0])) * rng.normal(size=n)
            u, dimension = basis_step_and_dimension(ws, g, q, monkeypatch)
            assert dimension <= n
            check_stop_dimension(ws, g, q, dimension)
            check_against_dense_solve(ws, g, q, u, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("scale", [0.1, 10.0])
    def test_one_and_two_items(self, n, gamma, scale, monkeypatch):
        # the Lanczos space reaches the dimension N of the whole space, except
        # for gamma = 0, where A = gI and q spans an invariant space
        rng = np.random.default_rng(61)
        hp = Hyperparams(K=2, knn_k=3, eta=0.3, beta=0.5, gamma=gamma)
        D, _, T, model, hp = random_setup(rng, n=n, m=3, k=2, hp=hp)
        S = StructureMatrix(sp.csr_matrix(np.array([[0.0, 0.7], [0.3, 0.0]])[:n, :n]))
        ws = SolverWorkspace(D, S, T, model, hp)
        q = scale * rng.normal(size=n)
        u, dimension = basis_step_and_dimension(ws, 0.5, q, monkeypatch)
        assert dimension == (n if gamma else 1)
        check_against_dense_solve(ws, 0.5, q, u, atol=1e-12)
        before = ws.basis.copy()
        constant = int((~ws.coeffs.any(axis=1)).sum()) if gamma == 0.0 else 0
        assert update_basis(ws) == n * constant
        check_basis_pass(ws, before, ws.basis)

    @pytest.mark.parametrize("n", [40, 90])
    @pytest.mark.parametrize("g, scale", [(1e-3, 0.01), (1e-3, 1.0), (1e-6, 1e-4)])
    def test_near_duplicate_chain(self, n, g, scale, monkeypatch):
        # many small, distinct eigenvalues of A that the space must resolve
        ws = workspace_for(chain_structure(n), gamma=1.0)
        q = scale * np.random.default_rng(62).normal(size=n)
        u, dimension = basis_step_and_dimension(ws, g, q, monkeypatch)
        check_stop_dimension(ws, g, q, dimension)
        check_against_dense_solve(ws, g, q, u, atol=1e-10)

    @pytest.mark.parametrize("n", [40, 90])
    @pytest.mark.parametrize("g, scale", [(1e-3, 0.01), (1e-3, 1.0), (1e-6, 1e-4)])
    def test_near_duplicate_chain_solves_at_most_twice(self, n, g, scale, monkeypatch):
        # the projected problem is solved where the estimate starts, j = 4,
        # and where it meets the stop rule, not again to refresh sigma
        ws = workspace_for(chain_structure(n), gamma=1.0)
        q = scale * np.random.default_rng(62).normal(size=n)
        solves, projected = [], solver._projected_step

        def counted(*args):
            solves.append(len(args[0]))
            return projected(*args)

        monkeypatch.setattr(solver, "_projected_step", counted)
        u, _, _ = solver._basis_step(ws, g, q)
        assert u is not None and solves[0] == 4 and len(solves) <= 2

    @pytest.mark.parametrize("scale", [0.01, 10.0])
    def test_invariant_space_ends_the_process(self, scale, monkeypatch):
        # S = 0 makes A = (g + gamma) I, so q spans an invariant space and the
        # next Lanczos vector would be rounding noise scaled up to norm 1
        ws = workspace_for(zero_structure(6), gamma=0.1)
        q = scale * np.random.default_rng(65).normal(size=6)
        u, dimension = basis_step_and_dimension(ws, 0.3, q, monkeypatch)
        assert dimension == 1
        check_against_dense_solve(ws, 0.3, q, u, atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_small_g_against_large_gamma(self, seed, monkeypatch):
        # g = 1e-6 against gamma = 100 on a dense random S: the column system
        # is conditioned at 1e8 or worse, so u is pinned by the optimality
        # conditions rather than by distance to the dense solve
        rng = np.random.default_rng(seed)
        hp = Hyperparams(K=2, knn_k=3, gamma=100.0)
        ws = SolverWorkspace(*random_setup(rng, n=28, m=4, k=2, density=0.6, hp=hp))
        q = 1e-3 * rng.normal(size=28)
        u, dimension = basis_step_and_dimension(ws, 1e-6, q, monkeypatch)
        assert u is not None and dimension > 8
        check_stop_dimension(ws, 1e-6, q, dimension)
        shift = ws.image_shift.toarray()
        operator = 1e-6 * np.eye(28) + 100.0 * shift.T @ shift
        _, sigma = trust_region_by_eigh(operator, q)
        scale = np.linalg.norm(q)
        assert np.linalg.norm(u) <= 1.0 + 1e-12
        assert np.linalg.norm(operator @ u + sigma * u - q) <= 1e-8 * scale

    def test_tiny_g_against_a_singular_penalty(self):
        # rows of S scaled to sum to 1 make B = S - I singular (B 1 = 0), or
        # nearly so when a row of S is empty, so with g in [1e-16, 1e-8] and
        # gamma up to 100, A = gI + gamma B'B is conditioned near 1e9 or far
        # worse: rounding can leave T_j + sigma I without a positive LDL'
        # where Newton's method starts.  Every step is still certified and
        # matches the minimizer of the eigendecomposition.
        rng = np.random.default_rng(71)
        for _ in range(150):
            n = int(rng.integers(5, 40))
            gamma = float(10 ** rng.uniform(-1, 2))
            hp = Hyperparams(K=2, knn_k=3, gamma=gamma)
            D, S, T, model, hp = random_setup(
                rng, n=n, m=4, k=2, density=float(rng.uniform(0.1, 0.9)), hp=hp
            )
            weights = np.abs(S.matrix.toarray())
            sums = weights.sum(axis=1, keepdims=True)
            S = StructureMatrix(sp.csr_matrix(weights / np.where(sums > 0.0, sums, 1.0)))
            ws = SolverWorkspace(D, S, T, model, hp)
            shift = ws.image_shift.toarray()
            for _ in range(3):
                g = float(10 ** rng.uniform(-16, -8))
                q = float(10 ** rng.uniform(-4, 1)) * rng.normal(size=n)
                u, _, _ = solver._basis_step(ws, g, q)
                assert u is not None
                operator = g * np.eye(n) + gamma * shift.T @ shift
                want, sigma = trust_region_by_eigh(operator, q)
                scale = np.linalg.norm(q)
                assert np.linalg.norm(u) <= 1.0 + 1e-12
                assert np.linalg.norm(operator @ u + sigma * u - q) <= 1e-8 * scale
                value = float(u @ operator @ u - 2.0 * q @ u)
                best = float(want @ operator @ want - 2.0 * q @ want)
                assert value <= best + 1e-9 * abs(best)

    def test_coupling_nearly_orthogonal_to_the_low_spectrum(self, monkeypatch):
        # q lies in the top half of A's spectrum up to a 1e-6 part in the
        # bottom half; the interior step divides that part by the smallest
        # eigenvalues, so the space must reach them
        n, g = 60, 1e-2
        ws = workspace_for(chain_structure(n), gamma=1.0)
        shift = ws.image_shift.toarray()
        _, vectors = np.linalg.eigh(g * np.eye(n) + shift.T @ shift)
        rng = np.random.default_rng(63)
        weights = rng.normal(size=n)
        weights[: n // 2] *= 1e-6
        q = 1e-2 * vectors @ weights
        u, dimension = basis_step_and_dimension(ws, g, q, monkeypatch)
        assert dimension >= 19
        check_against_dense_solve(ws, g, q, u, atol=1e-10)

    def test_steps_see_nonzero_coupling_and_positive_curvature(self, monkeypatch):
        # update_basis calls the step only with q != 0 and g > 0, so
        # A = gI + gamma B'B is positive definite and the hard case of the
        # trust-region subproblem cannot arise
        calls = []
        step = solver._basis_step

        def checked(ws, g, q, rows):
            assert g > 0.0 and q.any()
            calls.append(g)
            return step(ws, g, q, rows)

        monkeypatch.setattr(solver, "_basis_step", checked)
        rng = np.random.default_rng(64)
        for _ in range(30):
            D, S, T, model, hp = random_setup(rng, n=9, m=6, k=4)
            V = model.V.toarray()
            V[rng.random(4) < 0.5] = 0.0
            model = FactorModel(U=model.U, V=sp.csr_matrix(V), E=model.E)
            update_basis(SolverWorkspace(D, S, T, model, hp))
        cfg = SynthConfig(
            n_images=60, n_tags=30, n_topics=3, tags_per_image=3, feature_dim=8,
            feature_noise=0.3, delete_fraction=0.4, rng_seed=1,
        )
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        hp = Hyperparams(K=12, knn_k=5, max_outer_iters=4)
        S = build_feature_structure(instance.features, hp)
        T = build_tag_structure(split.observed, hp)
        fit(split.observed, S, T, hp)
        assert len(calls) > 30


class TestUncertifiedBasisSteps:
    """The basis step returns no column rather than an uncertified one: for a
    non-finite q or g, for a Lanczos matrix T_j that no sigma makes positive
    definite, and for a step that fails its certificate.  update_basis then
    keeps the column and counts its coordinates skipped.  A gamma near the
    float maximum overflows gamma B'B q, which is how T_j turns non-finite."""

    @staticmethod
    def projected_steps(monkeypatch):
        """The h of each projected solve, as the basis steps make them."""
        steps, projected = [], solver._projected_step

        def recorded(*args):
            step = projected(*args)
            steps.append(step[0])
            return step

        monkeypatch.setattr(solver, "_projected_step", recorded)
        return steps

    @pytest.mark.parametrize("g, q", [
        (1.0, [1.0, np.inf, 0.0, 2.0]),
        (1.0, [1e200, -1e200, 0.0, 1.0]),  # q'q overflows
        (np.nan, [1.0, 2.0, 0.0, 1.0]),
        (np.inf, [1.0, 2.0, 0.0, 1.0]),
    ])
    def test_non_finite_q_or_g(self, g, q, monkeypatch):
        steps = self.projected_steps(monkeypatch)
        ws = workspace_for(chain_structure(4), gamma=1.0)
        with np.errstate(over="ignore"):
            assert solver._basis_step(ws, g, np.array(q)) == (None, None, 8)
        assert steps == []

    @staticmethod
    def overflowing(gamma):
        """A workspace on a dense random S whose gamma B'B overflows, and a q."""
        rng = np.random.default_rng(0)
        Sd = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.6)
        np.fill_diagonal(Sd, 0.0)
        return workspace_for(StructureMatrix(sp.csr_matrix(Sd)), gamma), rng.normal(size=6)

    def test_no_positive_definite_shift(self, monkeypatch):
        # gamma = 1e300: beta_2 = ||w|| overflows, so T_2's off-diagonal is
        # inf and every sigma tried leaves a pivot that is not positive
        steps = self.projected_steps(monkeypatch)
        ws, q = self.overflowing(1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            assert solver._basis_step(ws, 1.0, q) == (None, None, 2)
        assert steps == [None]

    def test_failed_certificate(self, monkeypatch):
        # gamma = 1e308: gamma B'B q overflows, T_1 = [inf] and the projected
        # step h = q_norm / inf = 0 is solved, but u = 0 leaves the residual
        # -q, which fails the certificate
        steps = self.projected_steps(monkeypatch)
        ws, q = self.overflowing(1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert solver._basis_step(ws, 1.0, q) == (None, None, 1)
        assert steps == [[0.0]]

    @pytest.mark.parametrize("gamma", [1e300, 1e308])
    def test_update_basis_keeps_failed_columns(self, gamma):
        rng = np.random.default_rng(67)
        hp = Hyperparams(K=3, knn_k=3, eta=0.3, beta=0.5, gamma=gamma)
        D, S, T, model, hp = random_setup(rng, n=8, m=6, k=3, density=0.6, hp=hp)
        ws = SolverWorkspace(D, S, T, model, hp)
        before, live = ws.basis.copy(), int(ws.coeffs.any(axis=1).sum())
        with np.errstate(over="ignore", invalid="ignore"):
            skipped = update_basis(ws)
        assert live > 0 and skipped == 8 * 3
        assert ws.basis.tobytes() == before.tobytes()

    def test_non_positive_slope_ends_newton(self):
        # T = [inf] at sigma = 0.5: h = q_norm / inf = 0, whose norm is not
        # 1 and not reached at sigma = 0, and the Newton slope
        # h'(T + sigma I)^-1 h is 0, so the last solve is returned unmoved
        assert solver._projected_step([np.inf], [], 1.0, 0.5) == ([0.0], 0.5, np.inf, 1.0)


class TestUpdateError:
    def test_closed_form_is_global_minimum(self):
        rng = np.random.default_rng(30)
        D, S, T, model, hp = random_setup(rng)
        ws = SolverWorkspace(D, S, T, model, hp)
        update_error(ws)
        after = ws.objective_value()
        # any other E does no better
        for _ in range(20):
            other = ws.error.toarray() + rng.normal(scale=0.3, size=ws.error.shape)
            val = dense_objective(
                D.to_dense(), S.matrix.toarray(), T.matrix.toarray(),
                ws.basis, ws.coeffs, other, hp,
            )
            assert val >= after - 1e-9

    def test_matches_elementwise_lasso(self):
        rng = np.random.default_rng(31)
        beta = 0.8
        for r in rng.normal(scale=1.5, size=40):
            problem = LassoProblem(
                gram=np.array([[1.0]]),
                corr=np.array([r]),
                target_sq_norm=float(r * r),
                l1_weight=beta,
            )
            w = solve_lasso(problem, tol=1e-12).weights[0]
            np.testing.assert_allclose(
                float(error_update_value(r, beta)), w, atol=1e-10
            )

    @staticmethod
    def workspaces(seed):
        """60 random (D, S, T, hp, workspace), beta in {0, 0.5, 2}; in about
        3 of 10, non-finite coefficients make D - UV non-finite."""
        rng = np.random.default_rng(seed)
        for _ in range(60):
            n, m, k = (int(v) for v in rng.integers(2, 9, size=3))
            hp = Hyperparams(K=k, knn_k=3, beta=float(rng.choice([0.0, 0.5, 2.0])))
            D, S, T, model, hp = random_setup(rng, n=n, m=m, k=k, hp=hp)
            ws = SolverWorkspace(D, S, T, model, hp)
            if rng.random() < 0.3:
                spots = rng.random(ws.coeffs.shape) < 0.2
                ws.coeffs[spots] = rng.choice([np.nan, np.inf, -np.inf], size=spots.sum())
            yield D, S, T, hp, ws

    def test_matches_the_dense_shrinkage(self):
        # E is error_update_value of data - UV, stored where that is nonzero
        # (NaN included), and the refresh returns the values before and
        # after it
        for D, S, T, hp, ws in self.workspaces(33):
            with np.errstate(over="ignore", invalid="ignore"):
                want = error_update_value(ws.data - ws.basis @ ws.coeffs, hp.beta)
                before = dense_objective(
                    D.to_dense(), S.matrix.toarray(), T.matrix.toarray(),
                    ws.basis, ws.coeffs, ws.error.toarray(), hp,
                )
                got_before, got_after = update_error(ws)
                after = dense_objective(
                    D.to_dense(), S.matrix.toarray(), T.matrix.toarray(),
                    ws.basis, ws.coeffs, want, hp,
                )
            np.testing.assert_array_equal(ws.error.toarray(), want)
            assert ws.error.indices.tolist() == np.nonzero(want)[1].tolist()
            assert ws.error.indptr.tolist() == [0, *np.cumsum(np.count_nonzero(want, axis=1))]
            for got, value in ((got_before, before), (got_after, after)):
                if np.isfinite(value):
                    assert abs(got - value) <= 1e-12 * value
                else:
                    assert not np.isfinite(got)

    def test_returns_the_values_of_a_fresh_pass(self):
        # each value update_error returns is, bit for bit, objective_value()
        # of a workspace that has evaluated nothing, at the state before the
        # refresh and at the state after it
        for _, _, _, _, ws in self.workspaces(34):
            before, after = copy.deepcopy(ws), copy.deepcopy(ws)
            with np.errstate(over="ignore", invalid="ignore"):
                got = update_error(ws)
                after.error = ws.error.copy()
                want = before.objective_value(), after.objective_value()
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_refreshes_target(self):
        # the couplings read the target data - E of the refreshed E
        rng = np.random.default_rng(32)
        D, S, T, model, hp = random_setup(rng)
        ws = SolverWorkspace(D, S, T, model, hp)
        update_error(ws)
        target = ws.data - ws.error.toarray()
        np.testing.assert_allclose(ws.coeff_coupling(), ws.basis.T @ target, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ws.basis_coupling(), ws.coeffs @ target.T, rtol=1e-12, atol=1e-12)


class TestFit:
    def test_zero_data_converges_immediately(self):
        D = TaggingMatrix.from_dense(np.zeros((5, 4)))
        hp = Hyperparams(K=2, knn_k=2)
        report = fit(
            D,
            zero_structure(5),
            zero_structure(4),
            hp,
        )
        assert report.converged
        assert report.iterations == 1
        assert report.objective_trace[1] == 0.0
        assert report.objective_trace[-1] == 0.0
        assert report.model.V.nnz == 0
        assert report.model.E.nnz == 0

    def test_trace_non_increasing_with_defaults(self):
        rng = np.random.default_rng(40)
        D, S, T, _, _ = random_setup(rng, n=30, m=12, k=4)
        hp = Hyperparams(K=4, knn_k=3, max_outer_iters=200)
        report = fit(D, S, T, hp)
        assert report.iterations <= 200
        trace = report.objective_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-10 * abs(prev)

    def test_block_trace_chain_monotone(self):
        rng = np.random.default_rng(41)
        D, S, T, _, _ = random_setup(rng, n=20, m=10, k=3)
        hp = Hyperparams(K=3, knn_k=3, max_outer_iters=50)
        report = fit(D, S, T, hp)
        chain = [report.objective_trace[0]]
        for row in report.block_trace:
            chain.extend(row)
        for prev, cur in zip(chain, chain[1:]):
            assert cur <= prev + 1e-10 * abs(prev)

    def test_row_block_passes_and_objective_values(self, monkeypatch):
        # a pass over the row blocks at the start, after each coefficient
        # sweep and in each error refresh; an objective value at the start,
        # after each sweep, and before and after each refresh
        counts = dict.fromkeys(["objective_value", "residual_blocks"], 0)
        for name in counts:
            def counted(self, *args, _name=name, _method=getattr(SolverWorkspace, name)):
                counts[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(SolverWorkspace, name, counted)
        rng = np.random.default_rng(43)
        D, S, T, _, _ = random_setup(rng, n=20, m=10, k=3)
        report = fit(D, S, T, Hyperparams(K=3, knn_k=3, max_outer_iters=50))
        assert report.iterations > 1
        assert counts == {
            "objective_value": 1 + 3 * report.iterations,
            "residual_blocks": 1 + 2 * report.iterations,
        }

    def test_final_model_validates_and_matches_trace(self):
        rng = np.random.default_rng(42)
        D, S, T, _, _ = random_setup(rng, n=15, m=8, k=3)
        hp = Hyperparams(K=3, knn_k=3, max_outer_iters=30)
        report = fit(D, S, T, hp)
        report.model.validate()
        np.testing.assert_allclose(
            dense_objective(
                D.to_dense(), S.matrix.toarray(), T.matrix.toarray(),
                report.model.U, report.model.V.toarray(), report.model.E.toarray(), hp,
            ),
            report.objective_trace[-1],
            rtol=1e-12,
        )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(43)
        D, S, T, _, _ = random_setup(rng, n=12, m=6, k=2)
        hp = Hyperparams(K=2, knn_k=3, max_outer_iters=20, rng_seed=7)
        a = fit(D, S, T, hp)
        b = fit(D, S, T, hp)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.model.U, b.model.U)
        assert (a.model.V != b.model.V).nnz == 0

    def test_seed_changes_padding_columns(self):
        # K above the number of singular directions: the pad is seeded random
        D = TaggingMatrix.from_dense(np.eye(4))
        m1 = initial_model(D, Hyperparams(K=6, knn_k=2, rng_seed=1))
        m2 = initial_model(D, Hyperparams(K=6, knn_k=2, rng_seed=2))
        np.testing.assert_allclose(m1.U[:, :4], m2.U[:, :4], atol=1e-12)
        assert np.abs(m1.U[:, 4:] - m2.U[:, 4:]).max() > 1e-6

    def test_initial_model_contract(self):
        rng = np.random.default_rng(9)
        D = TaggingMatrix.from_dense((rng.random((6, 5)) < 0.4).astype(float))
        hp = Hyperparams(K=3, knn_k=2, rng_seed=0)
        model = initial_model(D, hp)
        np.testing.assert_allclose(np.linalg.norm(model.U, axis=0), 1.0, atol=1e-12)
        assert model.V.nnz == 0
        assert model.E.nnz == 0
        # basis spans the top singular directions of the input
        left, _, _ = np.linalg.svd(D.to_dense(), full_matrices=False)
        overlap = np.abs(left[:, :3].T @ model.U)
        np.testing.assert_allclose(np.diag(overlap), 1.0, atol=1e-10)

    def test_initial_model_deterministic(self):
        D = TaggingMatrix.from_dense(np.eye(5))
        hp = Hyperparams(K=3, knn_k=2, rng_seed=0)
        m1 = initial_model(D, hp)
        m2 = initial_model(D, hp)
        np.testing.assert_array_equal(m1.U, m2.U)

    def test_blowup_raises_with_trace(self):
        rng = np.random.default_rng(44)
        D, S, T, model, hp = random_setup(rng, n=6, m=4, k=2)
        huge = FactorModel(
            U=model.U,
            V=sp.csr_matrix(np.full((2, 4), 1e308)),
            E=sp.csr_matrix((6, 4)),
        )
        with pytest.raises(NumericalBlowupError) as exc:
            fit(D, S, T, hp.with_overrides(K=2), start=huge)
        assert len(exc.value.trace) >= 1

    def test_overflowing_coefficient_pass_raises_before_the_basis_pass(self, monkeypatch):
        # 1e200 targets: the initial objective overflows, unchecked, and so
        # does the value after the first coefficient pass, which ends the fit
        D = TaggingMatrix.from_dense(np.diag([1e200, 1e200]))
        basis_calls = []
        monkeypatch.setattr(solver, "update_basis", basis_calls.append)
        with pytest.raises(NumericalBlowupError) as exc:
            fit(D, zero_structure(2), zero_structure(2), Hyperparams(K=2, knn_k=1))
        assert str(exc.value) == (
            "objective became non-finite after the coefficient pass of iteration 1"
        )
        assert exc.value.trace == [np.inf, np.inf]
        assert basis_calls == []

    def test_overflowing_start_recovers_in_the_first_coefficient_pass(self):
        # one factor and no tag penalty: every coefficient moves to its own
        # minimizer, so the start's 1e200 coefficients are gone after one pass
        rng = np.random.default_rng(45)
        hp = Hyperparams(K=1, knn_k=3, lambda_=0.0)
        D, S, T, model, hp = random_setup(rng, n=6, m=4, k=1, hp=hp)
        huge = FactorModel(U=model.U, V=sp.csr_matrix(np.full((1, 4), 1e200)), E=model.E)
        report = fit(D, S, T, hp, start=huge)
        assert report.objective_trace[0] == np.inf
        assert np.isfinite(report.objective_trace[1:]).all()
        assert np.isfinite(report.block_trace).all()

    @pytest.mark.parametrize("spoiled, block", [(0, "basis pass"), (1, "error refresh")])
    def test_non_finite_refresh_value_raises_before_the_next_iteration(
        self, monkeypatch, spoiled, block
    ):
        # a non-finite value from the second error refresh, before or after
        # it, ends the fit before a third coefficient pass
        rng = np.random.default_rng(41)
        D, S, T, _, _ = random_setup(rng, n=20, m=10, k=3)
        hp = Hyperparams(K=3, knn_k=3, max_outer_iters=50)
        clean = fit(D, S, T, hp)
        assert clean.iterations > 2
        sweep, refresh, sweeps = solver.update_coeffs, solver.update_error, []

        def counted(ws):
            sweeps.append(ws.n_factors)
            return sweep(ws)

        def refreshed(ws):
            values = list(refresh(ws))
            if len(sweeps) == 2:
                values[spoiled] = np.nan
            return tuple(values)

        monkeypatch.setattr(solver, "update_coeffs", counted)
        monkeypatch.setattr(solver, "update_error", refreshed)
        with pytest.raises(NumericalBlowupError) as exc:
            fit(D, S, T, hp)
        assert str(exc.value) == f"objective became non-finite after the {block} of iteration 2"
        assert len(sweeps) == 2
        trace = exc.value.trace
        assert trace[:2] == clean.objective_trace[:2].tolist()
        assert len(trace) == 3 and np.isnan(trace[2])


class TestLiveRank:
    """fit takes dead factors, a zero basis column with a zero coefficient
    row, out of its working arrays and puts them back in the model.  It ends
    where the fit at the full rank K ends, up to rounding: the same iteration
    and skip counts and sparsity pattern of V, and the same final objective
    to a relative 1e-9.  Columns of U stay in their places, and a column
    that is dead at the start keeps its bits, -0.0 included."""

    def check(self, D, S, T, hp, start=None):
        want = fit_at_full_rank(D, S, T, hp, start)
        got = fit(D, S, T, hp, start)
        assert (got.iterations, got.converged, got.skipped_coordinates, got.live_rank) == (
            want.iterations, want.converged, want.skipped_coordinates, want.live_rank
        )
        for name in ("indptr", "indices"):
            assert getattr(got.model.V, name).tolist() == getattr(want.model.V, name).tolist()
        final = want.objective_trace[-1]
        assert abs(got.objective_trace[-1] - final) <= 1e-9 * abs(final)
        np.testing.assert_allclose(got.model.U, want.model.U, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(got.model.V.toarray(), want.model.V.toarray(), atol=1e-8)
        np.testing.assert_allclose(got.model.E.toarray(), want.model.E.toarray(), atol=1e-8)
        dead = np.zeros(hp.K, dtype=bool)
        if start is not None:
            dead = ~(start.U.any(axis=0) | (start.V.getnnz(axis=1) > 0))
            assert got.model.U[:, dead].tobytes() == start.U[:, dead].tobytes()
        died = ~got.model.U.any(axis=0) & ~dead
        assert got.model.U[:, died].tobytes() == want.model.U[:, died].tobytes()
        return got

    def with_dead_factors(self, rng, model):
        """model with about 40% of its factors dead, their basis columns a
        mix of 0.0 and -0.0."""
        U, V = model.U.copy(), model.V.toarray()
        dead = rng.random(U.shape[1]) < 0.4
        U[:, dead] = rng.choice([0.0, -0.0], size=(U.shape[0], int(dead.sum())))
        V[dead] = 0.0
        return FactorModel(U=U, V=sp.csr_matrix(V), E=model.E)

    @pytest.mark.parametrize(
        "weights",
        [{}, {"gamma": 0.0}, {"lambda_": 0.0}, {"eta": 0.0}, {"gamma": 0.0, "lambda_": 0.0}],
    )
    def test_random_starts_with_dead_factors(self, weights):
        rng = np.random.default_rng(46)
        for _ in range(15):
            n, m, k = (int(v) for v in rng.integers(2, 10, size=3))
            hp = Hyperparams(K=k, knn_k=3, eta=0.3, beta=0.5, max_outer_iters=30)
            D, S, T, model, hp = random_setup(
                rng, n=n, m=m, k=k, hp=hp.with_overrides(**weights)
            )
            self.check(D, S, T, hp, self.with_dead_factors(rng, model))
            self.check(D, S, T, hp)

    @staticmethod
    def planted(hp):
        """A small planted instance's observed tags, S and T."""
        cfg = SynthConfig(
            n_images=60, n_tags=30, n_topics=3, tags_per_image=3, feature_dim=8,
            feature_noise=0.3, delete_fraction=0.4, rng_seed=1,
        )
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        S = build_feature_structure(instance.features, hp)
        return split.observed, S, build_tag_structure(split.observed, hp)

    def test_factors_dying_in_the_fit(self, monkeypatch):
        # at default weights 2 of these 12 factors die in the first basis
        # pass and the others later on, so the blocks run at ever lower rank
        hp = Hyperparams(K=12, knn_k=5)
        observed, S, T = self.planted(hp)
        ranks, refresh = [], solver.update_error

        def recorded(ws):
            ranks.append(ws.n_factors)
            return refresh(ws)

        monkeypatch.setattr(solver, "update_error", recorded)
        got = self.check(observed, S, T, hp)
        assert ranks == [10, 3, 2, 2, 1, 0, 0]
        assert not got.model.U.any() and got.model.V.nnz == 0

    def test_the_zero_factorization_is_named(self):
        # the instance above: its last factor dies in the basis pass of
        # iteration 6, and the fit goes on to converge at U = V = 0
        hp = Hyperparams(K=12, knn_k=5)
        observed, S, T = self.planted(hp)
        with pytest.warns(UserWarning) as warned:
            got = fit(observed, S, T, hp)
        assert [str(w.message) for w in warned] == [
            "fit ended with no live factor, so U = 0, V = 0 and every score is 0: "
            "the last one died in iteration 6"
        ]
        assert got.converged and got.live_rank[-1] == 0
        zero = FactorModel(U=np.zeros((60, 12)), V=sp.csr_matrix((12, 30)), E=got.model.E)
        with pytest.warns(UserWarning, match=r": the start had none$"):
            fit(observed, S, T, hp, zero)

    def test_the_report_lists_the_live_rank(self):
        # the instance above: 12 factors at the start, then the rank after
        # each basis pass; the warning names the iteration of the first 0
        hp = Hyperparams(K=12, knn_k=5)
        observed, S, T = self.planted(hp)
        with pytest.warns(UserWarning) as warned:
            got = fit(observed, S, T, hp)
        assert got.live_rank == [12, 10, 3, 2, 2, 1, 0, 0]
        assert len(got.live_rank) == got.iterations + 1
        assert str(warned[0].message).endswith(f"iteration {got.live_rank.index(0)}")

    def test_live_factors_end_without_a_warning(self):
        # at eta = 0.3 five factors stay live
        hp = Hyperparams(K=12, knn_k=5, eta=0.3)
        observed, S, T = self.planted(hp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit(observed, S, T, hp)
        assert got.live_rank[-1] == 5

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_every_factor_dies(self, gamma):
        # an L1 weight above every coupling zeroes V in the first sweep; with
        # gamma > 0 the basis pass then zeroes U, and the fit runs at rank 0
        rng = np.random.default_rng(47)
        hp = Hyperparams(K=3, knn_k=3, eta=1e3, beta=0.5, gamma=gamma)
        D, S, T, model, hp = random_setup(rng, n=9, m=6, k=3, hp=hp)
        got = self.check(D, S, T, hp, model)
        assert got.model.V.nnz == 0
        assert got.model.U.any() == (gamma == 0.0)

    def test_zero_data(self):
        rng = np.random.default_rng(48)
        D, S, T, model, hp = random_setup(rng, n=7, m=5, k=3)
        zero = TaggingMatrix.from_dense(np.zeros((7, 5)))
        start = FactorModel(U=model.U, V=sp.csr_matrix((3, 5)), E=sp.csr_matrix((7, 5)))
        self.check(zero, S, T, hp)
        self.check(zero, S, T, hp, self.with_dead_factors(rng, start))

    def test_dead_factor_and_infinite_target_blow_up(self):
        # data - E overflows to inf, but data and E are finite: a dead
        # factor's couplings U'D - U'E and VD' - VE' are exactly 0, so it
        # leaves the working arrays, and the fit fails as the fit at full
        # rank does
        rng = np.random.default_rng(49)
        D, S, T, model, hp = random_setup(rng, n=6, m=4, k=3)
        D = TaggingMatrix.from_dense(np.where(D.to_dense() > 0.0, 1.5e308, 0.0))
        E = sp.csr_matrix(np.where(D.to_dense() > 0.0, -1.5e308, 0.0))
        start = FactorModel(U=model.U, V=model.V, E=E)
        start = self.with_dead_factors(np.random.default_rng(1), start)
        assert not (start.U.any(axis=0) | (start.V.getnnz(axis=1) > 0)).all()
        with np.errstate(over="ignore"):  # data - E
            with pytest.raises(NumericalBlowupError) as want:
                fit_at_full_rank(D, S, T, hp, start)
            with pytest.raises(NumericalBlowupError) as got:
                fit(D, S, T, hp, start)
        assert str(got.value) == str(want.value)
        np.testing.assert_array_equal(got.value.trace, want.value.trace)

    @pytest.mark.parametrize("lambda_", [0.0, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_passes_count_the_dropped_factors_skips(self, lambda_, gamma):
        # each pass returns, after the drop, what it returns on a twin
        # workspace that kept the dead factors
        rng = np.random.default_rng(51)
        dropped_any = False
        for _ in range(15):
            n, m, k = (int(v) for v in rng.integers(2, 10, size=3))
            hp = Hyperparams(
                K=k, knn_k=3, eta=0.3, beta=0.5, lambda_=lambda_, gamma=gamma
            )
            D, S, T, model, hp = random_setup(rng, n=n, m=m, k=k, hp=hp)
            model = self.with_dead_factors(rng, model)
            dropped, kept = (SolverWorkspace(D, S, T, model, hp) for _ in range(2))
            dropped.drop_dead_factors()
            dropped_any |= dropped.n_factors < k
            for step in (update_coeffs, update_basis):
                assert step(dropped) == step(kept)
        assert dropped_any

    @pytest.mark.parametrize("lambda_", [0.0, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_fit_sums_what_the_passes_return(self, lambda_, gamma, monkeypatch):
        rng = np.random.default_rng(52)
        hp = Hyperparams(K=6, knn_k=3, eta=0.3, beta=0.5, lambda_=lambda_, gamma=gamma)
        D, S, T, model, hp = random_setup(rng, n=9, m=7, k=6, hp=hp)
        start = self.with_dead_factors(rng, model)
        assert not (start.U.any(axis=0) | (start.V.getnnz(axis=1) > 0)).all()
        returned = []

        def spy(step):
            def recorded(ws):
                returned.append(step(ws))
                return returned[-1]

            return recorded

        for step in (update_coeffs, update_basis):
            monkeypatch.setattr(solver, step.__name__, spy(step))
        got = fit(D, S, T, hp, start)
        assert len(returned) == 2 * got.iterations
        assert got.skipped_coordinates == sum(returned)
        assert (got.skipped_coordinates > 0) == (lambda_ == 0.0 or gamma == 0.0)

    def test_workspace_drops_dead_factors_and_snapshot_restores_them(self):
        rng = np.random.default_rng(50)
        D, S, T, model, hp = random_setup(rng, n=6, m=5, k=4)
        model = self.with_dead_factors(np.random.default_rng(3), model)
        live = model.U.any(axis=0) | (model.V.getnnz(axis=1) > 0)
        assert 0 < live.sum() < 4
        ws = SolverWorkspace(D, S, T, model, hp)
        ws.drop_dead_factors()
        np.testing.assert_array_equal(ws.factors, np.flatnonzero(live))
        assert ws.n_factors == live.sum()
        after = ws.snapshot()
        assert after.U.tobytes() == model.U.tobytes()
        assert (after.V != model.V).nnz == 0


def check_fit_invariants(D, S, T, hp):
    """Fit twice: the block trace never rises, every column of U stays in the
    unit ball, and the rerun is byte-identical."""
    first, second = fit(D, S, T, hp), fit(D, S, T, hp)
    chain = np.concatenate(([first.objective_trace[0]], first.block_trace.ravel()))
    for prev, cur in zip(chain, chain[1:]):
        assert cur <= prev + 1e-10 * abs(prev)
    assert np.linalg.norm(first.model.U, axis=0).max() <= 1.0 + 1e-12
    for a, b in [
        (first.model.U, second.model.U),
        (first.model.V.toarray(), second.model.V.toarray()),
        (first.model.E.toarray(), second.model.E.toarray()),
        (first.objective_trace, second.objective_trace),
        (first.block_trace, second.block_trace),
    ]:
        assert a.tobytes() == b.tobytes()


def structures(features, D, hp):
    S = build_feature_structure(FeatureMatrix(features), hp)
    T = build_tag_structure(D, hp)
    return S, T


DEGENERATE = settings(max_examples=25, deadline=None)


@pytest.mark.filterwarnings("ignore:.*tag column\\(s\\) are all-zero")
class TestDegenerateShapes:
    """fit through the structure builders on shapes at the edge of the
    contract, each checked by check_fit_invariants."""

    @DEGENERATE
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), m=st.integers(2, 6),
           extra=st.integers(0, 4))
    def test_knn_k_at_least_population(self, seed, n, m, extra):
        rng = np.random.default_rng(seed)
        D = TaggingMatrix.from_dense((rng.random((n, m)) < 0.5).astype(float))
        hp = Hyperparams(K=2, knn_k=max(n, m) + extra, eta=0.2, max_outer_iters=8)
        check_fit_invariants(D, *structures(rng.normal(size=(n, 3)), D, hp), hp)

    @DEGENERATE
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(2, 6),
           extra=st.integers(1, 5))
    def test_more_factors_than_min_shape(self, seed, n, m, extra):
        rng = np.random.default_rng(seed)
        D = TaggingMatrix.from_dense((rng.random((n, m)) < 0.5).astype(float))
        hp = Hyperparams(K=min(n, m) + extra, knn_k=3, eta=0.2, max_outer_iters=8)
        check_fit_invariants(D, *structures(rng.normal(size=(n, 3)), D, hp), hp)

    @DEGENERATE
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(2, 6),
           zero_rows=st.integers(1, 3), copies=st.integers(1, 3))
    def test_zero_feature_rows_and_duplicate_images(self, seed, n, m, zero_rows, copies):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, 4))
        features[rng.choice(n, size=min(zero_rows, n), replace=False)] = 0.0
        dense = (rng.random((n, m)) < 0.5).astype(float)
        # the first `copies` images are repeated, features and tags alike
        features = np.vstack([features, features[:copies]])
        D = TaggingMatrix.from_dense(np.vstack([dense, dense[:copies]]))
        hp = Hyperparams(K=3, knn_k=3, eta=0.2, max_outer_iters=8)
        check_fit_invariants(D, *structures(features, D, hp), hp)

    @DEGENERATE
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), m=st.integers(2, 7),
           used=st.integers(1, 3))
    def test_empty_tag_columns_and_single_tag_images(self, seed, n, m, used):
        rng = np.random.default_rng(seed)
        dense = np.zeros((n, m))
        # every image carries one tag, drawn from the first `used` columns
        dense[np.arange(n), rng.integers(0, min(used, m - 1), size=n)] = 1.0
        D = TaggingMatrix.from_dense(dense)
        hp = Hyperparams(K=2, knn_k=3, eta=0.2, max_outer_iters=8)
        check_fit_invariants(D, *structures(rng.normal(size=(n, 3)), D, hp), hp)


class TestZeroCoefficientRows:
    """A coefficient row that is all zero couples to nothing: update_coeffs
    does not form its penalty coupling and update_basis not its column's q.
    On the finite states that fit runs them on, both stay bitwise equal to
    their references, which form every product: the scalar loop, and the
    column loop of basis_pass_by_column_loop."""

    def instance(self, rng, gamma):
        """A workspace whose coefficient rows are all zero at random, some
        holding -0.0, while their basis columns stay nonzero; at random with
        tags without penalty mass."""
        n, m, k = (int(v) for v in rng.integers(2, 9, size=3))
        hp = Hyperparams(K=k, knn_k=3, beta=0.5, gamma=gamma,
                         eta=float(rng.choice([0.0, 0.05, 0.3])))
        D, S, T, model, hp = random_setup(rng, n=n, m=m, k=k, hp=hp)
        ws = SolverWorkspace(D, S, T, model, hp)
        zero = rng.random(k) < 0.5
        ws.coeffs[zero] = np.where(rng.random((int(zero.sum()), m)) < 0.3, -0.0, 0.0)
        if rng.random() < 0.3:
            massless = rng.random(m) < 0.3
            ws.tag_penalty[massless] = 0.0
            ws.tag_penalty[:, massless] = 0.0
        return ws

    def check_basis(self, ws):
        want, want_skipped = basis_pass_by_column_loop(ws)
        assert update_basis(ws) == want_skipped
        np.testing.assert_array_equal(ws.basis.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_basis_pass_matches_the_column_loop(self, gamma):
        rng = np.random.default_rng(46)
        for _ in range(150):
            self.check_basis(self.instance(rng, gamma))

    def test_coefficient_sweep_matches_the_scalar_loop(self):
        rng = np.random.default_rng(47)
        for _ in range(150):
            ws = self.instance(rng, 1.0)
            want, want_skipped = coefficient_sweep_by_scalar_loop(
                ws.basis, ws.coeffs, ws.coeff_coupling(), ws.tag_penalty, ws.hp.eta
            )
            assert update_coeffs(ws) == want_skipped
            np.testing.assert_array_equal(ws.coeffs.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("gamma, target, zeroed, skipped", [
        (1.0, 1.0, True, 0),  # q is exactly 0: the column moves to 0
        (0.0, 1.0, False, 5),  # a constant subproblem: its 5 coordinates skip
    ])
    def test_zero_row_column(self, gamma, target, zeroed, skipped):
        rng = np.random.default_rng(48)
        hp = Hyperparams(K=2, knn_k=3, gamma=gamma)
        D, S, T, model, hp = random_setup(rng, n=5, m=4, k=2, hp=hp)
        ws = SolverWorkspace(D, S, T, model, hp)
        ws.coeffs[:] = 0.0
        set_target(ws, (0, 0), target)
        before = ws.basis.copy()
        assert update_basis(ws) == 2 * skipped
        np.testing.assert_array_equal(ws.basis, 0.0 if zeroed else before)


class TestDenseStateReference:
    """fit keeps E sparse and forms D - E - UV only on row blocks; it ends
    where fit_with_dense_state, the same loop on the dense N x M state,
    ends: the same iteration and skip counts, the same support of E, and
    traces equal to a relative 1e-9, or the same blow-up."""

    @staticmethod
    def check(D, S, T, hp, start=None):
        want = fit_with_dense_state(D, S, T, hp, start)
        got = fit(D, S, T, hp, start)
        assert (got.iterations, got.converged, got.skipped_coordinates, got.live_rank) == (
            want.iterations, want.converged, want.skipped_coordinates, want.live_rank
        )
        for name in ("indptr", "indices"):
            assert getattr(got.model.E, name).tolist() == getattr(want.model.E, name).tolist()
        np.testing.assert_allclose(got.objective_trace, want.objective_trace, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got.block_trace, want.block_trace, rtol=1e-9, atol=0)
        return got

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(2, 12), st.integers(2, 8), st.integers(1, 4)),
        weights=st.tuples(
            st.sampled_from([0.0, 0.5, 2.0]),  # beta
            st.sampled_from([0.0, 1.0]),  # gamma
            st.sampled_from([0.0, 0.5]),  # lambda
            st.sampled_from([0.05, 0.3]),  # eta
        ),
        zero_rows=st.integers(0, 3),
        from_start=st.booleans(),
    )
    def test_random_instances(self, seed, shape, weights, zero_rows, from_start):
        rng = np.random.default_rng(seed)
        (n, m, k), (beta, gamma, lambda_, eta) = shape, weights
        hp = Hyperparams(K=k, knn_k=3, beta=beta, gamma=gamma, lambda_=lambda_, eta=eta,
                         max_outer_iters=15)
        D, S, T, model, hp = random_setup(rng, n=n, m=m, k=k, hp=hp)
        dense = D.to_dense()
        dense[rng.choice(n, size=min(zero_rows, n), replace=False)] = 0.0
        D = TaggingMatrix.from_dense(dense)
        self.check(D, S, T, hp, model if from_start else None)

    def test_beta_zero_error_takes_the_whole_residual(self):
        rng = np.random.default_rng(61)
        D, S, T, _, _ = random_setup(rng, n=10, m=6, k=2)
        hp = Hyperparams(K=2, knn_k=3, beta=0.0, eta=0.05, max_outer_iters=10)
        got = self.check(D, S, T, hp)
        assert got.model.V.nnz > 0
        np.testing.assert_allclose(
            got.model.E.toarray(), D.to_dense() - got.model.completed(), rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("scale", [1e308, 1e200])
    def test_blow_up(self, scale):
        rng = np.random.default_rng(62)
        D, S, T, model, hp = random_setup(rng, n=6, m=4, k=2)
        huge = FactorModel(U=model.U, V=sp.csr_matrix(np.full((2, 4), scale)), E=model.E)
        with pytest.raises(NumericalBlowupError) as want:
            fit_with_dense_state(D, S, T, hp, huge)
        with pytest.raises(NumericalBlowupError) as got:
            fit(D, S, T, hp, huge)
        assert str(got.value) == str(want.value)
        got_trace, want_trace = np.asarray(got.value.trace), np.asarray(want.value.trace)
        np.testing.assert_array_equal(np.isfinite(got_trace), np.isfinite(want_trace))
        finite = np.isfinite(want_trace)
        np.testing.assert_allclose(got_trace[finite], want_trace[finite], rtol=1e-9, atol=0)


class TestFitMemory:
    def test_tall_fit_holds_at_most_three_dense_arrays(self):
        # the working state is dense D, the factors and a sparse E; the
        # dense state (E, D - E, UV and a residual buffer beside D) peaked
        # at more than five N x M arrays here
        cfg = SynthConfig(
            n_images=2000, n_tags=100, n_topics=10, tags_per_image=5, feature_dim=8,
            feature_noise=0.3, delete_fraction=0.4, rng_seed=3,
        )
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        hp = Hyperparams(K=20, knn_k=5, max_outer_iters=3)
        S = build_feature_structure(instance.features, hp)
        T = build_tag_structure(split.observed, hp)
        tracemalloc.start()
        try:
            fit(split.observed, S, T, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * cfg.n_images * cfg.n_tags * 8


class TestEigenStart:
    """initial_model takes the top eigenvectors of the gram on the smaller
    side of D: its leading left singular vectors, with one sign fixed, and
    the seeded random fill past its numerical rank."""

    @staticmethod
    def fill(hp, n, count):
        extra = np.random.default_rng(hp.rng_seed).uniform(-1.0, 1.0, size=(n, count))
        return extra / np.linalg.norm(extra, axis=0)

    @staticmethod
    def start(dense, hp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return initial_model(TaggingMatrix.from_dense(dense), hp).U

    @pytest.mark.parametrize("n, m", [(9, 5), (5, 9)])
    def test_leading_singular_vectors(self, n, m):
        rng = np.random.default_rng(n)
        dense = rng.random((n, m)) * (rng.random((n, m)) < 0.6)
        hp = Hyperparams(K=7, knn_k=2, rng_seed=3)
        U = self.start(dense, hp)
        left = np.linalg.svd(dense, full_matrices=False)[0][:, :5]
        np.testing.assert_allclose(np.abs(left.T @ U[:, :5]), np.eye(5), atol=1e-10)
        anchors = np.argmax(np.abs(U[:, :5]), axis=0)
        assert (U[anchors, np.arange(5)] > 0.0).all()
        np.testing.assert_array_equal(U[:, 5:], self.fill(hp, n, 2))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("rank", [0, 2, 5])
    def test_rank_deficient_takes_the_seeded_fill(self, transpose, rank):
        # rank 5 of 6: an all-zero tag (or image) column
        rng = np.random.default_rng(rank)
        dense = rng.random((8, rank)) @ rng.random((rank, 6))
        dense = dense.T if transpose else dense
        hp = Hyperparams(K=6, knn_k=2, rng_seed=4)
        U = self.start(dense, hp)
        left = np.linalg.svd(dense, full_matrices=False)[0][:, :rank]
        np.testing.assert_allclose(np.abs(left.T @ U[:, :rank]), np.eye(rank), atol=1e-10)
        np.testing.assert_array_equal(U[:, rank:], self.fill(hp, dense.shape[0], 6 - rank))

    def test_huge_and_tiny_entries(self):
        rng = np.random.default_rng(5)
        dense = rng.random((7, 5)) * (rng.random((7, 5)) < 0.7)
        hp = Hyperparams(K=3, knn_k=2)
        U = self.start(dense * 1e200, hp)
        left = np.linalg.svd(dense, full_matrices=False)[0][:, :3]
        np.testing.assert_allclose(np.abs(left.T @ U), np.eye(3), atol=1e-10)
        # scaling by a power of two is exact, so the start does not move
        for exponent in (600, -600):
            np.testing.assert_array_equal(
                self.start(np.ldexp(dense, exponent), hp), self.start(dense, hp)
            )


class TestReportCounts:
    """SolverReport counts the model's live factors and its tags with an
    all-zero column of V."""

    def test_paper_defaults(self):
        # the paper_cli benchmark instance at seed 0, as complete fits it
        cfg = SynthConfig(
            n_images=400, n_tags=300, n_topics=15, tags_per_image=8, feature_dim=32,
            feature_noise=0.3, delete_fraction=0.4, off_topic_prob=0.05, rng_seed=23,
        )
        instance = generate(cfg)
        split = delete_tags(instance.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        hp = Hyperparams()
        S = build_feature_structure(instance.features, hp)
        T = build_tag_structure(split.observed, hp)
        report = fit(reinitialize(split.observed, S, T), S, T, hp)
        assert (report.live_rank[-1], report.empty_tags) == (6, 271)
        V = report.model.V.toarray()
        assert report.empty_tags == int((~V.any(axis=0)).sum())
        # no update after the last basis pass changes U or V
        assert report.live_rank[-1] == int((report.model.U.any(axis=0) | V.any(axis=1)).sum())

    def test_hand_zeroed_column(self):
        rng = np.random.default_rng(49)
        D, S, T, _, hp = random_setup(rng, n=12, m=6, k=3)
        report = fit(D, S, T, hp.with_overrides(eta=0.01))
        model = report.model
        V = model.V.toarray()
        tag = int(np.flatnonzero(V.any(axis=0))[0])
        V[:, tag] = 0.0
        zeroed = dataclasses.replace(report, model=FactorModel(U=model.U, V=sp.csr_matrix(V), E=model.E))
        assert zeroed.empty_tags == report.empty_tags + 1


class TestEmptyInput:
    @pytest.mark.parametrize("shape, name", [((3, 0), "tags"), ((0, 3), "images")])
    def test_fit_names_the_empty_dimension(self, shape, name):
        D = TaggingMatrix(sp.csr_matrix(shape))
        S, T = zero_structure(shape[0]), zero_structure(shape[1])
        with pytest.raises(ValidationError, match=f"no {name}"):
            fit(D, S, T, Hyperparams(K=2, knn_k=2))
