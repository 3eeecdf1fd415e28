"""Independent reference implementations used only by the test suite.

Everything here is deliberately brute force: enumeration, dense algebra,
scalar grid search.  None of it shares code with the package under test, so
agreement between the two is evidence, not tautology.  The exceptions
are references that faster package paths must match bit for bit, or, for
the image structure, up to rounding: structure_by_item_loop runs the
package's own lasso solver one item at a time on explicit grams, against
the builders' lockstep batches, coefficient_sweep_by_scalar_loop takes
the package's scalar step at every coordinate, against the row scan of
solver.update_coeffs, basis_pass_by_column_loop forms every basis column's
coupling and takes the package's trust-region step on it, against
solver.update_basis, which passes over columns with an all-zero
coefficient row, and rank_by_image_loop ranks one test image at a
time, against the one sort of metrics.rank_predictions.
lasso_by_full_width_rounds is lasso.solve_lasso's round loop as it was when
every round read each item's active set, signs and gradient operands off
full (items, k) arrays; solve_lasso, which keeps the active sets compact,
must match its weights, residuals and errors bit for bit.
instance_by_image_loop and split_by_image_loop are synth.generate and
synth.delete_tags as they drew one image at a time around per-image numpy
calls and two dense copies, and split_fault_by_image_loop is the frozen copy
of the per-image loop that metrics.EvalSplit's one-pass check replaced; the
instances and splits of the package must equal theirs bit for bit, and its
messages theirs.  rows_by_repr
spells every cell with repr, against the dense writers, which spell +0.0
without it.  The two file
readers read_sparse_by_lines and read_dense_by_cells parse one line and one
cell at a time with Python's int and float; io's one-call numpy readers must
return the same bits and raise the same messages.  soft_threshold is the
reference for the shrinkage of solver.error_update_value, bit for bit, and fit_at_full_rank runs the package's coefficient and basis
blocks at the full rank K, with each objective from objective_from_arrays
and the error block by soft_threshold, against solver.fit, which drops dead
factors; fit_with_dense_state runs fit's loop on the dense N x M working
state (E, the target D - E and the product UV) that fit kept before E
became sparse, against fit, which forms D - E - UV only on row blocks.
objective_from_arrays sums core's objective terms on raw arrays, against
dense_objective.  lanczos_stop_dimensions solves a basis step's projected
problem at every Lanczos dimension by eigendecomposition, and bounds where
solver._basis_step, which solves it at few, may stop.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import scipy.sparse as sp


def dense_objective(D, S, T, U, V, E, hp) -> float:
    """Term-by-term dense evaluation of the completion objective."""
    D = np.asarray(D, dtype=float)
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    E = np.asarray(E, dtype=float)
    fit = ((D - E - U @ V) ** 2).sum()
    feat = hp.gamma * ((U - S @ U) ** 2).sum()
    tag = hp.lambda_ * ((V - V @ T) ** 2).sum()
    sparse_v = 2.0 * hp.eta * np.abs(V).sum()
    sparse_e = hp.beta * np.abs(E).sum()
    return float(fit + feat + tag + sparse_v + sparse_e)


def basis_update_value(q: float, denom: float, radius: float) -> float:
    """Exact minimizer of denom*u^2 - 2*q*u over |u| <= radius, denom > 0."""
    u = q / denom
    if u > radius:
        return radius
    if u < -radius:
        return -radius
    return u


def lasso_objective(gram, corr, target_sq_norm, l1_weight, w) -> float:
    w = np.asarray(w, dtype=float)
    return float(
        target_sq_norm - 2.0 * corr @ w + w @ gram @ w + l1_weight * np.abs(w).sum()
    )


def lasso_by_enumeration(gram, corr, target_sq_norm, l1_weight):
    """Global lasso minimizer by enumerating all 3^p sign patterns.

    For each pattern sigma in {-1, 0, +1}^p, solve the equality-constrained
    stationarity system on the support, check sign consistency, and evaluate
    the true objective; return the best candidate.  Exponential, so only for
    small p.  Always includes w = 0 as a candidate, so it returns a valid
    (possibly suboptimal-by-epsilon) point even under degenerate grams.

    Supports whose gram is numerically singular (condition number above
    1e10) are skipped.  No minimum is lost: some minimizer always has
    linearly independent active columns (Tibshirani, "The lasso problem and
    uniqueness", 2013).  Solving a singular system would instead give huge
    weights whose Gram-form objective cancels to meaningless values.
    """
    gram = np.asarray(gram, dtype=float)
    corr = np.asarray(corr, dtype=float)
    p = gram.shape[0]
    best_w = np.zeros(p)
    best_obj = lasso_objective(gram, corr, target_sq_norm, l1_weight, best_w)
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=p):
        support = [j for j, s in enumerate(signs) if s != 0.0]
        if not support:
            continue
        sigma = np.array([s for s in signs if s != 0.0])
        A = gram[np.ix_(support, support)]
        b = corr[support] - 0.5 * l1_weight * sigma
        try:
            w_sup = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(np.sign(w_sup) != sigma) or np.linalg.cond(A) > 1e10:
            continue
        w = np.zeros(p)
        w[support] = w_sup
        obj = lasso_objective(gram, corr, target_sq_norm, l1_weight, w)
        if obj < best_obj:
            best_obj = obj
            best_w = w
    return best_w, best_obj


def coefficient_sweep_by_residual(D, T, U, V, E, hp):
    """One cyclic sweep of exact scalar updates of V (k outer), from scratch.

    For each coordinate in turn, the restriction d*x^2 - 2*q*x + 2*eta*|x| is
    read off the full fit residual D - E - U V and the full structure
    residual V (I - T) at the current point, and q is soft-thresholded.
    Coordinates with d <= 0 are left alone.  Returns the updated V.
    """
    U = np.asarray(U, dtype=float)
    V = np.array(V, dtype=float)
    target = np.asarray(D, dtype=float) - np.asarray(E, dtype=float)
    shift = np.eye(V.shape[1]) - np.asarray(T, dtype=float)
    for k, m in itertools.product(range(V.shape[0]), range(V.shape[1])):
        old = V[k, m]
        fit_d = U[:, k] @ U[:, k]
        pen_d = hp.lambda_ * (shift[m] @ shift[m])
        if fit_d + pen_d <= 0.0:
            continue
        fit_q = U[:, k] @ (target[:, m] - U @ V[:, m]) + fit_d * old
        pen_q = pen_d * old - hp.lambda_ * (V[k] @ shift) @ shift[m]
        q = fit_q + pen_q
        V[k, m] = np.sign(q) * max(abs(q) - hp.eta, 0.0) / (fit_d + pen_d)
    return V


def trust_region_by_eigh(operator, q):
    """Minimizer of u'Au - 2q'u over ||u|| <= 1 for a dense symmetric
    positive definite A, and its ball multiplier sigma, from the full
    eigendecomposition A = W diag(lam) W'.

    With c = W'q, u(sigma) = W c/(lam + sigma).  sigma = 0 when lam_min > 0
    and ||u(0)|| <= 1; otherwise sigma is found by bisection on
    ||u(sigma)|| = 1 between max(0, -lam_min) and ||q|| - lam_min, where
    ||u|| <= 1.  So an A conditioned past what eigh resolves, whose lam_min
    rounding puts a few ulps of ||A|| at or below 0, gets its boundary step.
    """
    lam, vectors = np.linalg.eigh(np.asarray(operator, dtype=float))
    c = vectors.T @ np.asarray(q, dtype=float)
    rounding = 8 * lam.size * np.finfo(float).eps * np.abs(lam).max(initial=0.0)
    assert lam[0] > -rounding, "the operator must be positive definite"
    if lam[0] > 0.0 and np.linalg.norm(c / lam) <= 1.0:
        return vectors @ (c / lam), 0.0
    lo, hi = max(0.0, -lam[0]), max(float(np.linalg.norm(c)) - lam[0], 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.linalg.norm(c / (lam + mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    return vectors @ (c / (lam + hi)), hi


def lanczos_stop_dimensions(apply, g, q, rtol):
    """Bounds on where a basis step's Lanczos process stops: (first, last).

    Runs the fully reorthogonalized Lanczos process of solver._basis_step
    from q on A = gI + apply, and at every j solves the projected problem,
    h minimizing h'T_j h - 2||q|| h_1 over ||h|| <= 1, by trust_region_by_eigh.
    With stop = rtol * ||q||, the process may end at j when
    beta_{j+1} |h_j| <= stop, or when beta_{j+1} <= stop or j = N.  first is
    the first such j; last is where the process ends when it tests the rule
    only on the reference schedule j = 4, 6, 9, 13, ... (and ends at any j
    where beta_{j+1} <= stop or j = N).  last bounds how far the basis
    step's O(1) estimate of the rule, at a sigma solved earlier, may lag.
    """
    n, q_norm = q.shape[0], float(np.linalg.norm(q))
    stop = rtol * q_norm
    vectors, alphas, betas = np.empty((n, n)), [], []
    vectors[0] = q / q_norm
    first, check = None, 4
    for j in range(1, n + 1):
        space = vectors[:j]
        w = apply(space[-1])
        coeffs = space @ w
        alphas.append(g + float(coeffs[-1]))
        w -= coeffs @ space
        w -= (space @ w) @ space
        beta = float(np.sqrt(w @ w))
        tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        h, _ = trust_region_by_eigh(tridiagonal, q_norm * np.eye(j, 1)[:, 0])
        done = not beta > stop or j == n
        met = done or beta * abs(h[-1]) <= stop
        if first is None and met:
            first = j
        if done or (j == check and met):
            return first, j
        if j == check:
            check = int(1.5 * check)
        vectors[j] = w / beta
        betas.append(beta)


def coefficient_sweep_by_scalar_loop(basis, coeffs, corr, tag_penalty, eta):
    """One cyclic pass of solver.coeff_update_value over every coordinate of
    the coefficient matrix, rows outer, with the covariance updates of
    solver.update_coeffs but no row scan.  corr is the coupling to the data,
    U'(D - E), as SolverWorkspace.coeff_coupling forms it.

    Coordinates whose curvature (U'U)_kk + tag_penalty[m, m] is not positive
    are skipped.  Returns the swept copy of coeffs and the number of skips.
    """
    from tagcomplete.solver import coeff_update_value

    coeffs = np.array(coeffs, dtype=float)
    gram = basis.T @ basis
    diag = np.diagonal(tag_penalty).tolist()
    skipped = 0
    for k in range(coeffs.shape[0]):
        row = coeffs[k].tolist()
        gram_kk = float(gram[k, k])
        coupling = (corr[k] - (gram[k] @ coeffs - gram_kk * coeffs[k])).tolist()
        penalty_dot = coeffs[k] @ tag_penalty
        for m, old in enumerate(row):
            denom = gram_kk + diag[m]
            if denom <= 0.0:
                skipped += 1
                continue
            q = coupling[m] - (penalty_dot[m] - diag[m] * old)
            new = coeff_update_value(q, eta, denom)
            if new != old:
                row[m] = new
                penalty_dot += (new - old) * tag_penalty[m]
        coeffs[k] = row
    return coeffs, skipped


def basis_pass_by_column_loop(ws):
    """One cyclic pass of solver._basis_step over every basis column of the
    workspace, each column's coupling q formed from the whole coefficient
    matrix and the data's coupling V(D - E)', as solver.update_basis runs it
    but with no column passed over.  Returns the new basis and the number of skipped
    coordinates; the workspace is left unchanged."""
    from tagcomplete.solver import _basis_step

    basis, shift, gamma = ws.basis.copy(), ws.image_shift, ws.hp.gamma
    gram = ws.coeffs @ ws.coeffs.T
    corr = ws.basis_coupling()

    def value(g, q, u):
        image = shift @ u
        return float(u @ (g * u - 2.0 * q)) + gamma * float(image @ image)

    skipped = 0
    for k in range(basis.shape[1]):
        g, old = float(gram[k, k]), basis[:, k].copy()
        q = corr[k] - (basis @ gram[:, k] - g * old)
        if not q.any():
            if g == 0.0 and gamma == 0.0:
                skipped += basis.shape[0]
            else:
                basis[:, k] = 0.0
            continue
        u, _, _ = _basis_step(ws, g, q)
        if u is None:
            skipped += basis.shape[0]
        elif value(g, q, u) <= value(g, q, old):
            basis[:, k] = u
    return basis, skipped


def rows_by_repr(array) -> list:
    """Each row of the 2-D array as ",".join(map(repr, row)): one repr call
    per cell."""
    return [",".join(map(repr, row)) for row in np.asarray(array, dtype=float).tolist()]


def soft_threshold(x, threshold):
    """sign(x) * max(|x| - threshold, 0), elementwise."""
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def objective_from_arrays(data, U, V, E, S, T, hp) -> float:
    """The completion objective on raw arrays, as core's term functions
    give it; dense_objective is its reference.

    data, U, V and E are dense; S and T are the sparse structure matrices.
    Shapes are not checked and non-finite values propagate to the result.
    """
    from tagcomplete.core import (
        basis_term,
        coeff_terms,
        error_term,
        objective_from_terms,
        residual_term,
    )

    return objective_from_terms(
        residual_term(data - E - U @ V),
        basis_term(U, S, hp),
        coeff_terms(V, T, hp),
        error_term(E, hp),
    )


def checked_value(value, block, iteration, trace):
    """value, or solver.NumericalBlowupError as fit raises it at the first
    non-finite block value: the trace so far plus that value."""
    from tagcomplete.solver import NumericalBlowupError

    if not np.isfinite(value):
        raise NumericalBlowupError(
            f"objective became non-finite after the {block} of iteration {iteration}",
            [*trace, value],
        )
    return value


def fit_at_full_rank(D, S, T, hp, start=None):
    """solver.fit without dropping dead factors: every block at rank K, every
    objective from objective_from_arrays, and the error block as
    soft_threshold of data - UV by beta/2.  live_rank counts the factors
    with a nonzero basis column or coefficient row at the start and after
    each basis pass.  Returns a solver.SolverReport and raises
    solver.NumericalBlowupError as fit does."""
    from tagcomplete.solver import (
        SolverReport,
        SolverWorkspace,
        initial_model,
        update_basis,
        update_coeffs,
    )

    ws = SolverWorkspace(D, S, T, initial_model(D, hp) if start is None else start, hp)

    def objective():
        return objective_from_arrays(
            ws.data, ws.basis, ws.coeffs, ws.error.toarray(), S.matrix, T.matrix, hp
        )

    def live():
        return int(np.count_nonzero(ws.basis.any(axis=0) | ws.coeffs.any(axis=1)))

    with np.errstate(over="ignore", invalid="ignore"):
        trace = [objective()]
    rows, skipped, converged, live_rank = [], 0, False, [live()]
    for iteration in range(1, hp.max_outer_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            skipped += update_coeffs(ws)
            after_coeffs = checked_value(objective(), "coefficient pass", iteration, trace)
            skipped += update_basis(ws)
            live_rank.append(live())
            after_basis = checked_value(objective(), "basis pass", iteration, trace)
            ws.error = sp.csr_matrix(
                soft_threshold(ws.data - ws.basis @ ws.coeffs, 0.5 * hp.beta)
            )
            after_error = checked_value(objective(), "error refresh", iteration, trace)
        rows.append((after_coeffs, after_basis, after_error))
        trace.append(after_error)
        prev = trace[-2]
        if after_error == 0.0 or prev - after_error <= hp.rel_tol * max(abs(prev), 1e-30):
            converged = True
            break
    return SolverReport(
        model=ws.snapshot(),
        objective_trace=np.asarray(trace),
        block_trace=np.asarray(rows).reshape(len(rows), 3),
        converged=converged,
        iterations=len(rows),
        skipped_coordinates=skipped,
        live_rank=live_rank,
    )


def fit_with_dense_state(D, S, T, hp, start=None):
    """solver.fit on the dense working state it kept before E became
    sparse: E, the target D - E and the cached product UV as N x M arrays.
    The couplings are U'target and V target', every residual term is
    ||target - UV||^2 over the whole matrix, given to the workspace's
    objective_value, and the error block shrinks data - UV over the whole
    matrix, so the value after the basis pass, the error refresh and the
    value after it share one product.  The package's coefficient and basis
    passes and its dead-factor drop run on that state, and the skips are the
    sum of what the passes return, dropped factors' included, and live_rank
    is the working rank at the start and after each basis pass's drop.
    Returns a solver.SolverReport and raises solver.NumericalBlowupError as
    fit does."""
    from tagcomplete.core import residual_term
    from tagcomplete.solver import (
        SolverReport,
        SolverWorkspace,
        error_update_value,
        initial_model,
        update_basis,
        update_coeffs,
    )

    class DenseState(SolverWorkspace):
        def __init__(self, model):
            super().__init__(D, S, T, model, hp)
            self.error = model.E.toarray()
            self.target = self.data - self.error
            self._product = None

        def coeff_coupling(self):
            return self.basis.T @ self.target

        def basis_coupling(self):
            return self.coeffs @ self.target.T

        def changed(self, block):
            super().changed(block)
            if block != "error":
                self._product = None

        def product(self):
            if self._product is None:
                self._product = self.basis @ self.coeffs
            return self._product

        def objective_value(self):
            return super().objective_value(residual_term(self.target - self.product()))

        def update_error(self):
            self.error = error_update_value(self.data - self.product(), hp.beta)
            self.target = self.data - self.error
            self.changed("error")

    ws = DenseState(initial_model(D, hp) if start is None else start)
    ws.drop_dead_factors()
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [ws.objective_value()]
    rows, skipped, converged, live_rank = [], 0, False, [ws.n_factors]
    for iteration in range(1, hp.max_outer_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            skipped += update_coeffs(ws)
            after_coeffs = checked_value(
                ws.objective_value(), "coefficient pass", iteration, trace
            )
            skipped += update_basis(ws)
            ws.drop_dead_factors()
            live_rank.append(ws.n_factors)
            after_basis = checked_value(ws.objective_value(), "basis pass", iteration, trace)
            ws.update_error()
            after_error = checked_value(ws.objective_value(), "error refresh", iteration, trace)
        rows.append((after_coeffs, after_basis, after_error))
        trace.append(after_error)
        prev = trace[-2]
        if after_error == 0.0 or prev - after_error <= hp.rel_tol * max(abs(prev), 1e-30):
            converged = True
            break
    return SolverReport(
        model=ws.snapshot(),
        objective_trace=np.asarray(trace),
        block_trace=np.asarray(rows).reshape(len(rows), 3),
        converged=converged,
        iterations=len(rows),
        skipped_coordinates=skipped,
        live_rank=live_rank,
    )


def knn_by_full_scan(points, query_index, k):
    """k nearest euclidean neighbors of points[query_index], self excluded.

    Ties broken by ascending index via stable sort on (distance, index).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    dists = np.sqrt(((points - points[query_index]) ** 2).sum(axis=1))
    order = sorted((dists[i], i) for i in range(n) if i != query_index)
    return [i for _, i in order[:k]]


def knn_by_einsum_scan(points, k):
    """Every item's k nearest neighbors, one full scan each.

    Distances are sqrt(einsum) over the whole difference matrix, ordered by
    (distance, index) with lexsort: a bitwise reference for the package's
    preselecting index.
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=float))
    n = points.shape[0]
    index = np.arange(n)
    neighbors = []
    for i in range(n):
        diff = points - points[i]
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        others, others_d = index[index != i], dists[index != i]
        order = np.lexsort((others, others_d))[: min(k, n - 1)]
        neighbors.append(others[order])
    return neighbors


def structure_by_item_loop(vectors, l1_weight, k, tol, max_iters=None):
    """Reconstruction weights with one solve_lasso call, a batch of one, per
    item, neighbors from knn_by_einsum_scan.

    Returns the dense weight matrix (row i rebuilds vectors[i]) and the
    (item, LassoConvergenceError) of every item that failed; a failed row
    stays zero.  max_iters=None is the solver's default round cap.
    """
    from tagcomplete.lasso import LassoBatch, LassoConvergenceError, solve_lasso

    vectors = np.asarray(vectors, dtype=float)
    weights = np.zeros((vectors.shape[0], vectors.shape[0]))
    failures = []
    cap = {} if max_iters is None else {"max_iters": max_iters}
    for i, nb in enumerate(knn_by_einsum_scan(vectors, k)):
        rows, at = vectors[nb], np.arange(nb.size)[None]
        problem = LassoBatch(rows @ rows.T, at, (rows @ vectors[i])[None], l1_weight)
        try:
            weights[i, nb] = solve_lasso(problem, tol, **cap).weights[0]
        except LassoConvergenceError as exc:
            failures.append((i, exc))
    return weights, failures


def lasso_by_full_width_rounds(problem, tol, max_iters):
    """solve_lasso's rounds as they were before each item's active set was
    kept compact: every round re-derives it, and the signs, violations and
    gradient operands, from full (items, k) arrays.  The body below and its
    two helpers are that round loop as it was, unchanged but for the
    helpers' names; it calls the solver's diagonal, Cholesky, swap,
    line-search and violation helpers, which the compact rounds use
    unchanged."""
    from tagcomplete.core import ValidationError
    from tagcomplete.lasso import (
        _SINGULAR_PIVOT,
        LassoBatch,
        LassoConvergenceError,
        LassoProblem,
        LassoSolution,
        _diagonal,
        _violations,
    )

    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tol must be finite and > 0, got {tol!r}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValidationError(f"max_iters must be an int >= 0, got {max_iters!r}")
    single = isinstance(problem, LassoProblem)
    if single:
        at = np.arange(problem.corr.shape[0])[None]
        problem = LassoBatch(problem.gram, at, problem.corr[None], problem.l1_weight)
    corr, lam = problem.corr, problem.l1_weight
    w = np.zeros(corr.shape)
    kkt = np.zeros(corr.shape[0])
    failed_after = np.full(corr.shape[0], -1)  # rounds at an item's failure
    diag = _diagonal(problem)
    unusable = ~(diag > 0.0)
    any_unusable = unusable.any()
    pivot_floor = _SINGULAR_PIVOT * diag.max(axis=1, initial=0.0)
    live = np.arange(corr.shape[0])
    rounds = 0
    while live.size:
        x = w[live]
        grad = _full_width_gradients(problem, live, x)
        violation = _violations(x, grad, lam)
        kkt[live] = violation.max(axis=1, initial=0.0)
        going = kkt[live] > tol
        if not going.all():
            live, x, grad, violation = live[going], x[going], grad[going], violation[going]
            if not live.size:
                break
        if rounds >= max_iters:
            failed_after[live] = rounds
            break
        rounds += 1
        if any_unusable:
            violation[unusable[live]] = -np.inf
        best = np.argmax(violation, axis=1)
        theta = np.sign(x)
        joins = np.where(theta != 0.0, violation, 0.0).max(axis=1) <= tol
        # only zero-diagonal coordinates violate: no step helps
        stuck = joins & (violation[np.arange(live.size), best] <= tol)
        if stuck.any():
            failed_after[live[stuck]] = rounds
            # items after the first failure cannot change the outcome
            keep = ~stuck & (live < np.flatnonzero(failed_after >= 0)[0])
            live, x, grad, theta, best, joins = (
                a[keep] for a in (live, x, grad, theta, best, joins)
            )
        at = np.flatnonzero(joins)
        theta[at, best[at]] = -np.sign(grad[at, best[at]])
        moved = _full_width_face_steps(problem, w, live, x, theta, np.where(joins, best, -1), pivot_floor)
        if not moved.all():
            # rounding dust: exactly minimize the worst violator alone
            at = np.flatnonzero(~moved)
            b, j = live[at], best[at]
            z = diag[b, j] * x[at, j] - grad[at, j]
            w[b, j] = np.sign(z) * np.maximum(np.abs(z) - 0.5 * lam, 0.0) / diag[b, j]
        del x, grad, violation, theta  # the round's (items, k) arrays, before the next's
    failed = np.flatnonzero(failed_after >= 0)
    if failed.size:
        item = int(failed[0])
        raise LassoConvergenceError(
            f"lasso did not reach KKT residual {tol:g} "
            f"(last residual {kkt[item]:g} after {failed_after[item]} rounds)",
            kkt_residual=float(kkt[item]),
            item=item,
        )
    return LassoSolution(w[0] if single else w, float(kkt.max(initial=0.0)))


def _full_width_gradients(batch, live, x) -> np.ndarray:
    """gram @ x - corr for the live items, formed from their active coordinates.

    Over a gram pool it is one sparse product for all items, whatever their
    active counts: a CSR matrix that holds each item's active weights at
    their pool members, times the pool, read at each item's index with one
    flat take.  Each item's sum runs over its active coordinates in order,
    so its arithmetic is that of its own.  Over a row pool it is A (A'x):
    A'x sums the active rows, and a stacked product with each item's k
    rows of width d takes k d per item, with no gram formed.  There, items
    with one number of active coordinates are done together, for the same
    reason, and both gathers, the active rows and the k neighbor rows, are
    taken in slices of items within half of _ROW_BUDGET (see _slices).  The
    sums A'x are one (items, d) array, which fits the budget in a batch of
    _batch_size items.
    """
    from tagcomplete.lasso import RowPool, _groups, _slices

    grad = -batch.corr[live]
    if not isinstance(batch.pool, RowPool):
        active = np.flatnonzero(x != 0.0)  # row by row, in coordinate order
        if active.size:
            members, size = batch.index[live], batch.pool.shape[0]
            starts = np.searchsorted(active, np.arange(0, x.size + 1, x.shape[1]))
            left = sp.csr_matrix(
                (x.take(active), members.take(active).astype(np.int32), starts.astype(np.int32)),
                shape=(live.size, size),
            )
            members += np.arange(0, live.size * size, size)[:, None]  # into the flat product
            grad += (left @ batch.pool).take(members)
        return grad
    counts = (x != 0.0).sum(axis=1)
    pool, vectors = batch.pool, batch.pool.vectors
    half = np.zeros((live.size, vectors.shape[1]))  # A'x
    for count, rows in _groups(counts):
        if count == 0:
            continue
        xr, rows = x[rows], np.arange(live.size)[rows]
        active = np.nonzero(xr)[1].reshape(rows.size, count)
        xa = xr[np.arange(rows.size)[:, None], active][:, None, :]
        members = batch.index[live[rows, None], active]
        for at in _slices(pool, rows.size, count):
            half[rows[at]] = np.matmul(xa[at], vectors[members[at]])[:, 0]
    moving = np.flatnonzero(counts)
    for at in _slices(pool, moving.size, batch.index.shape[1]):
        part = moving[at]  # gathers (items, k, d), freed with the statement
        grad[part] += np.matmul(vectors[batch.index[live[part]]], half[part, :, None])[:, :, 0]
    return grad


def _full_width_face_steps(batch, w, live, x, theta, joining, pivot_floor) -> np.ndarray:
    """Move each live item's weights toward a lower objective on its sign face.

    Row r is item live[r], with weights x[r] (a copy of w[live[r]]), signs
    theta[r] and joining coordinate joining[r] (-1 for none).  The target
    is the face minimizer, or on a singular face the swap step's first zero
    crossing.  Items with one face size share one stacked Cholesky
    factorization, so each item's arithmetic is that of its own; over a row
    pool they go in slices whose face rows fit half of _ROW_BUDGET (see
    _slices), so that the face grams and every array formed from them stay
    within it too.  Writes the moved items' weights into w and returns which
    rows moved; a row without a target, or where no candidate point lowers
    the objective, keeps its weights.
    """
    from tagcomplete.lasso import (
        _cholesky, _cholesky_solve, _groups, _line_search, _slices, _swap_target, pool_gram,
    )

    moved = np.zeros(live.size, dtype=bool)
    for size, group in _groups((theta != 0.0).sum(axis=1)):
        group = np.arange(live.size)[group]
        for part in _slices(batch.pool, group.size, size):
            rows = group[part]
            items = live[rows]
            face = np.nonzero(theta[rows])[1].reshape(rows.size, size)
            fgram = pool_gram(batch.pool, batch.index[items[:, None], face])
            fx = x[rows[:, None], face]
            fcorr = batch.corr[items[:, None], face]
            rhs = fcorr - 0.5 * batch.l1_weight * theta[rows[:, None], face]
            chol, found = _cholesky(fgram, pivot_floor[items])
            if found.all():
                target = _cholesky_solve(chol, rhs)
            else:
                target = np.zeros_like(fx)
                target[found] = _cholesky_solve(chol[found], rhs[found])
                for i in np.flatnonzero(~found & (joining[rows] >= 0)):
                    swap = _swap_target(fgram[i], face[i] == joining[rows[i]], fx[i],
                                        theta[rows[i], joining[rows[i]]], pivot_floor[items[i]])
                    if swap is not None:
                        target[i], found[i] = swap, True
                rows, items, face, fgram, fcorr, fx, target = (
                    a[found] for a in (rows, items, face, fgram, fcorr, fx, target)
                )
            points, lower = _line_search(fgram, fcorr, batch.l1_weight, fx, target)
            moved[rows] = lower
            w[items[lower, None], face[lower]] = points[lower]
    return moved



def golden_section(f, lo, hi, iters=200):
    """Golden-section search for the minimizer of a unimodal f on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def scalar_min_by_search(f, radius, grid=2001, refine=True):
    """Approximate argmin of a scalar f on [-radius, radius].

    Coarse grid to localize, then golden-section refinement around the best
    cell.  For the piecewise-quadratic subproblems in this codebase the grid
    straddles the kink at 0 (odd point count), and refinement runs on each
    neighboring cell so a kink between cells cannot hide the minimizer.
    """
    xs = np.linspace(-radius, radius, grid)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    best_x, best_f = float(xs[i]), float(vals[i])
    if refine:
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, grid - 1)]
        for a, b in ((lo, xs[i]), (xs[i], hi)):
            x = golden_section(f, a, b)
            fx = f(x)
            if fx < best_f:
                best_x, best_f = float(x), float(fx)
    # 0 is a kink of |x|; always consider it.
    if f(0.0) < best_f:
        best_x, best_f = 0.0, float(f(0.0))
    return best_x, best_f


def rank_by_full_sort(scores, observed):
    """All unobserved tag indices ordered by descending score, ties ascending."""
    scores = np.asarray(scores, dtype=float)
    candidates = [j for j in range(scores.shape[0]) if j not in set(observed)]
    return sorted(candidates, key=lambda j: (-scores[j], j))


def rank_by_image_loop(scores, split, n):
    """metrics.rank_predictions as one mask, flatnonzero and lexsort per test
    image: candidates by descending score, ties by ascending tag index, cut
    at n, with one warning counting the images that have fewer than n."""
    scores = np.asarray(scores, dtype=float)
    m = split.observed.n_tags
    predictions = []
    short = 0
    for img in split.test_image_ids:
        mask = np.ones(m, dtype=bool)
        mask[split.observed.tags_of(img)] = False
        candidates = np.flatnonzero(mask)
        if len(candidates) < n:
            short += 1
        # stable ordering: descending score, then ascending tag index
        order = np.lexsort((candidates, -scores[img, candidates]))
        predictions.append([int(t) for t in candidates[order][:n]])
    if short:
        warnings.warn(
            f"{short} test image(s) have fewer than {n} candidate tags; "
            "their prediction lists are shorter",
            stacklevel=2,
        )
    return predictions


def instance_by_image_loop(cfg):
    """synth.generate as it was written before its draws were collected
    with tolist: one setdiff1d per off-topic image and one int per tag.
    Returns (truth, features, topics)."""
    from tagcomplete.core import FeatureMatrix, TaggingMatrix
    from tagcomplete.synth import tag_blocks

    rng = np.random.default_rng(cfg.rng_seed)
    blocks = tag_blocks(cfg.n_tags, cfg.n_topics)
    topics = rng.integers(0, cfg.n_topics, size=cfg.n_images)
    all_tags = np.arange(cfg.n_tags)
    rows, cols = [], []
    for i in range(cfg.n_images):
        block = blocks[topics[i]]
        n_off = int(rng.binomial(cfg.tags_per_image, cfg.off_topic_prob))
        n_off = min(n_off, cfg.n_tags - len(block))
        n_on = cfg.tags_per_image - n_off
        chosen = rng.choice(block, size=n_on, replace=False)
        if n_off:
            outside = np.setdiff1d(all_tags, block, assume_unique=True)
            off = rng.choice(outside, size=n_off, replace=False)
            chosen = np.concatenate([chosen, off])
        rows.extend([i] * len(chosen))
        cols.extend(int(t) for t in chosen)
    truth = TaggingMatrix(
        sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(cfg.n_images, cfg.n_tags))
    )
    projection = rng.normal(size=(cfg.n_topics, cfg.feature_dim))
    embed = projection[topics]
    if cfg.feature_noise > 0:
        embed = embed + cfg.feature_noise * rng.normal(size=(cfg.n_images, cfg.feature_dim))
    return truth, FeatureMatrix(embed), topics


def split_by_image_loop(truth, fraction, rng_seed):
    """synth.delete_tags on two dense N x M copies of the truth, one image
    at a time.  Returns (observed, deleted, test_image_ids), unchecked."""
    from tagcomplete.core import TaggingMatrix, ValidationError

    if not (0.0 < fraction < 1.0):
        raise ValidationError("fraction must be in (0, 1)")
    rng = np.random.default_rng(rng_seed)
    dense = truth.to_dense()
    observed = dense.copy()
    deleted, test_ids = [], []
    for i in range(truth.n_images):
        tags = np.flatnonzero(dense[i])
        if len(tags) < 2:
            raise ValidationError(f"image {i} has {len(tags)} tag(s); need >= 2 to split")
        n_del = int(round(fraction * len(tags)))
        n_del = min(max(n_del, 1), len(tags) - 1)
        removed = rng.choice(tags, size=n_del, replace=False)
        observed[i, removed] = 0.0
        deleted.append(frozenset(int(t) for t in removed))
        test_ids.append(i)
    return TaggingMatrix.from_dense(observed), tuple(deleted), tuple(test_ids)


def split_fault_by_image_loop(observed, deleted, test_image_ids):
    """The message of the first fault that metrics.EvalSplit's checks meet,
    one test image at a time in order, or None for a valid split: a frozen
    copy of the per-image loop that EvalSplit's one pass replaced."""
    deleted = tuple(frozenset(int(t) for t in d) for d in deleted)
    test_image_ids = tuple(int(i) for i in test_image_ids)
    if len(deleted) != len(test_image_ids):
        return f"{len(test_image_ids)} test images but {len(deleted)} deleted sets"
    n, m = observed.n_images, observed.n_tags
    seen = set()
    for img, dels in zip(test_image_ids, deleted):
        if not (0 <= img < n):
            return f"test image {img} out of range"
        if img in seen:
            return f"test image {img} is listed more than once"
        seen.add(img)
        if not dels:
            return f"image {img} has no deleted tags"
        if any(not (0 <= t < m) for t in dels):
            return f"image {img} has deleted tags out of range"
        row = observed.matrix.getrow(img)
        kept = {int(j) for j, v in zip(row.indices, row.data) if v != 0.0}
        if not kept:
            return f"image {img} has no observed tags"
        if kept & dels:
            return f"image {img}: tags {sorted(kept & dels)} are both observed and deleted"
    return None


def average_precision_by_hand(rankings, deleted_sets, n):
    vals = [len(set(r[:n]) & d) / n for r, d in zip(rankings, deleted_sets)]
    return float(np.mean(vals))


def average_recall_by_hand(rankings, deleted_sets, n):
    vals = [len(set(r[:n]) & d) / len(d) for r, d in zip(rankings, deleted_sets)]
    return float(np.mean(vals))


def coverage_by_hand(rankings, deleted_sets, n):
    vals = [1.0 if set(r[:n]) & d else 0.0 for r, d in zip(rankings, deleted_sets)]
    return float(np.mean(vals))


def _fail(path, line_no, message):
    raise ValueError(f"{path}:{line_no}: {message}")


MATRIX_HEADER = "%%MatrixMarket matrix coordinate real general"


def read_sparse_by_lines(path) -> sp.csr_matrix:
    """io.read_sparse_matrix as a loop over the entry lines, each read with
    Python's int and float and checked before the next; ValueError with the
    reader's ParseError message."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        _fail(path, 1, "empty file, expected MatrixMarket header")
    if lines[0].strip().lower().split() != MATRIX_HEADER.lower().split():
        _fail(path, 1, f"bad header {lines[0].strip()!r}, expected {MATRIX_HEADER!r}")
    content = [
        (line_no, text)
        for line_no, text in enumerate(map(str.strip, lines[1:]), start=2)
        if text and not text.startswith("%")
    ]
    if not content:
        _fail(path, len(lines), "missing size line")
    line_no, text = content[0]
    parts = text.split()
    if len(parts) != 3:
        _fail(path, line_no, f"size line needs 3 fields, got {len(parts)}")
    try:
        n, m, nnz = (int(p) for p in parts)
    except ValueError:
        _fail(path, line_no, f"non-integer size line {text!r}")
    if n < 0 or m < 0 or nnz < 0:
        _fail(path, line_no, "matrix dimensions must be non-negative")
    rows, cols, vals, line_nos = [], [], [], []
    for line_no, text in content[1:]:
        if len(vals) >= nnz:
            _fail(path, line_no, f"more than the declared {nnz} entries")
        parts = text.split()
        if len(parts) != 3:
            _fail(path, line_no, f"entry needs 3 fields, got {len(parts)}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            _fail(path, line_no, f"non-numeric entry {text!r}")
        if not (1 <= i <= n and 1 <= j <= m):
            _fail(path, line_no, f"index ({i}, {j}) outside {n}x{m} matrix")
        if not math.isfinite(v):
            _fail(path, line_no, f"non-finite value {parts[2]!r}")
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        line_nos.append(line_no)
    if len(vals) != nnz:
        _fail(path, len(lines), f"declared {nnz} entries but found {len(vals)}")
    summed = sp.coo_matrix((vals, (rows, cols)), shape=(n, m)).tocsr()
    dense = summed.toarray()
    for r, c in zip(*np.nonzero(~np.isfinite(dense))):  # row-major order
        line_no = max(
            no for no, i, j in zip(line_nos, rows, cols) if (i, j) == (r, c)
        )
        _fail(path, line_no,
              f"duplicate entries at ({r + 1}, {c + 1}) sum to a non-finite value")
    return summed


def read_dense_by_cells(path) -> np.ndarray:
    """io.read_dense_matrix as a loop over the rows, each cell read with
    Python's float; a first line with a non-numeric cell is a header.
    ValueError with the reader's ParseError message."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    content = [
        (idx + 1, line.strip()) for idx, line in enumerate(lines) if line.strip()
    ]
    if not content:
        _fail(path, 1, "empty file")

    def parse_row(line_no, text):
        cells = [c.strip() for c in text.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError:
            return None
        if not all(map(math.isfinite, row)):
            c = next(c for c, v in zip(cells, row) if not math.isfinite(v))
            _fail(path, line_no, f"non-finite value {c!r}")
        return row

    first = parse_row(*content[0])
    start = 0 if first is not None else 1
    if first is None and len(content) == 1:
        _fail(path, content[0][0], "no numeric rows after header")
    rows = []
    width = None
    for line_no, text in content[start:]:
        row = parse_row(line_no, text)
        if row is None:
            _fail(path, line_no, f"non-numeric cell in {text!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(path, line_no, f"ragged row: {len(row)} cells, expected {width}")
        rows.append(row)
    return np.asarray(rows, dtype=float)
