"""Independent reference implementations used only by the test suite.

Everything here is deliberately brute force: enumeration, dense algebra,
scalar grid search.  None of it shares code with the package under test, so
agreement between the two is evidence, not tautology.  The three exceptions
are references that faster package paths must match bit for bit, or, for
the image structure, up to rounding: structure_by_item_loop runs the
package's own lasso solver one item at a time on explicit grams, against
the builders' lockstep batches, coefficient_sweep_by_scalar_loop takes
the package's scalar step at every coordinate, against the row scan of
solver.update_coeffs, and rank_by_image_loop ranks one test image at a
time, against the one sort of metrics.rank_predictions.  The two file
readers read_sparse_by_lines and read_dense_by_cells parse one line and one
cell at a time with Python's int and float; io's one-call numpy readers must
return the same bits and raise the same messages.  soft_threshold is the
reference for the one-buffer shrinkage of solver.error_update_value, bit
for bit, and fit_at_full_rank runs the package's coefficient and basis
blocks at the full rank K, with each objective from objective_from_arrays
and the error block by soft_threshold, against solver.fit, which drops dead
factors.  objective_from_arrays sums core's objective terms on raw arrays,
against dense_objective.
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


def coefficient_sweep_by_scalar_loop(basis, coeffs, target, tag_penalty, eta):
    """One cyclic pass of solver.coeff_update_value over every coordinate of
    the coefficient matrix, rows outer, with the covariance updates of
    solver.update_coeffs but no row scan.

    Coordinates whose curvature (U'U)_kk + tag_penalty[m, m] is not positive
    are skipped.  Returns the swept copy of coeffs and the number of skips.
    """
    from tagcomplete.solver import coeff_update_value

    coeffs = np.array(coeffs, dtype=float)
    gram, corr = basis.T @ basis, basis.T @ target
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


def fit_at_full_rank(D, S, T, hp, start=None):
    """solver.fit without dropping dead factors: every block at rank K, every
    objective from objective_from_arrays, and the error block as
    soft_threshold of data - UV by beta/2.  Returns a solver.SolverReport and
    raises solver.NumericalBlowupError as fit does."""
    from tagcomplete.solver import (
        NumericalBlowupError,
        SolverReport,
        SolverWorkspace,
        initial_model,
        update_basis,
        update_coeffs,
    )

    ws = SolverWorkspace(D, S, T, initial_model(D, hp) if start is None else start, hp)

    def objective():
        return objective_from_arrays(
            ws.data, ws.basis, ws.coeffs, ws.error, S.matrix, T.matrix, hp
        )

    with np.errstate(over="ignore", invalid="ignore"):
        trace = [objective()]
    rows, skipped, converged = [], 0, False
    for iteration in range(1, hp.max_outer_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            skipped += update_coeffs(ws)
            after_coeffs = objective()
            skipped += update_basis(ws)
            after_basis = objective()
            ws.error = soft_threshold(ws.data - ws.basis @ ws.coeffs, 0.5 * hp.beta)
            ws.target = ws.data - ws.error
            after_error = objective()
        rows.append((after_coeffs, after_basis, after_error))
        trace.append(after_error)
        if not np.isfinite(rows[-1]).all():
            raise NumericalBlowupError(
                f"objective became non-finite at iteration {iteration}", trace
            )
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
