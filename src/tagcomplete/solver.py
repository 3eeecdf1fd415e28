"""Alternating minimization for the structure-preserving factorization.

The objective (core.objective_from_arrays) is separately convex in each of
the three blocks.  One outer iteration runs a cyclic coordinate sweep over the
coefficients, a projected coordinate sweep over the basis, and the exact
closed-form refresh of the error matrix.  Every scalar step is the exact
minimizer of its one-dimensional restriction, which is what makes the
objective trace non-increasing block by block.  Both sweeps run one kernel,
_sweep, over the rows of V and of U', with covariance updates (Friedman,
Hastie & Tibshirani, JSS 2010): a row's coupling to the others is computed
once per row.  The blocks differ only in their matrices and scalar step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    FactorModel,
    Hyperparams,
    StructureMatrix,
    TagCompleteError,
    TaggingMatrix,
    ValidationError,
    objective_from_arrays,
)


class NumericalBlowupError(TagCompleteError, RuntimeError):
    """The objective became non-finite; carries the trace up to the failure."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = list(trace)


def soft_threshold(x, threshold):
    """sign(x) * max(|x| - threshold, 0), elementwise."""
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def coeff_update_value(p: float, eta: float, denom: float) -> float:
    """Exact minimizer of denom*v^2 - 2*p*v + 2*eta*|v| for denom > 0: the
    scalar soft_threshold(p, eta) / denom, down to the sign of a zero."""
    if -eta <= p <= eta:
        return -0.0 if p < 0.0 else 0.0
    return (p - eta if p > 0.0 else p + eta) / denom


def basis_update_value(q: float, denom: float, radius: float) -> float:
    """Exact minimizer of denom*u^2 - 2*q*u over |u| <= radius, denom > 0."""
    u = q / denom
    if u > radius:
        return radius
    if u < -radius:
        return -radius
    return u


def error_update_value(r, beta: float):
    """Exact minimizer of (r - e)^2 + beta*|e|, elementwise."""
    return soft_threshold(r, 0.5 * beta)


class SolverWorkspace:
    """Dense working state plus the cached quadratic-penalty matrices.

    tag_penalty is the M x M form lambda*(T - I)(T - I)' acting on rows of
    the coefficient matrix; image_penalty is the N x N form
    gamma*(S - I)'(S - I) acting on columns of the basis.  Both are fixed,
    exactly symmetric and row-major, so the sweeps read rows for columns; the
    objective does not read them.  basis/coeffs/error are mutable copies of
    the model; target caches data - error and is refreshed whenever error
    changes.
    """

    def __init__(
        self,
        D: TaggingMatrix,
        S: StructureMatrix,
        T: StructureMatrix,
        model: FactorModel,
        hp: Hyperparams,
    ):
        if S.size != D.n_images:
            raise ValidationError(
                f"image structure is {S.size}x{S.size} but D has {D.n_images} images"
            )
        if T.size != D.n_tags:
            raise ValidationError(
                f"tag structure is {T.size}x{T.size} but D has {D.n_tags} tags"
            )
        model.validate()
        if model.n_images != D.n_images or model.n_tags != D.n_tags:
            raise ValidationError(
                f"model is {model.n_images}x{model.n_tags} "
                f"but D is {D.n_images}x{D.n_tags}"
            )
        self.hp = hp
        self.image_structure = S
        self.tag_structure = T
        self.data = D.to_dense()

        eye_n = sp.identity(D.n_images, format="csr")
        eye_m = sp.identity(D.n_tags, format="csr")
        s_shift = (S.matrix - eye_n).tocsr()
        t_shift = (T.matrix - eye_m).tocsr()
        self.image_penalty = hp.gamma * (s_shift.T @ s_shift).toarray(order="C")
        self.tag_penalty = hp.lambda_ * (t_shift @ t_shift.T).toarray(order="C")

        self.basis = model.U.copy()
        self.coeffs = model.V.toarray()
        self.error = model.E.toarray()
        self.target = self.data - self.error

    @property
    def n_images(self) -> int:
        return self.data.shape[0]

    @property
    def n_tags(self) -> int:
        return self.data.shape[1]

    @property
    def n_factors(self) -> int:
        return self.basis.shape[1]

    def snapshot(self) -> FactorModel:
        return FactorModel(
            U=self.basis.copy(),
            V=sp.csr_matrix(self.coeffs),
            E=sp.csr_matrix(self.error),
        )

    def objective_value(self) -> float:
        """Objective at the current state, via core.objective_from_arrays.

        Never raises on non-finite state, so blow-ups surface as inf/nan for
        fit to catch.
        """
        return objective_from_arrays(
            self.data, self.basis, self.coeffs, self.error,
            self.image_structure.matrix, self.tag_structure.matrix, self.hp,
        )


def _sweep(rows, gram, corr, penalty, step, norm_bound) -> int:
    """One cyclic pass of exact scalar updates over the K x P matrix `rows`.

    Coordinate (k, p) moves to step(q, d, radius), the minimizer of
    d*x^2 - 2*q*x plus the block's own term over |x| <= radius, where
    d = gram[k, k] + penalty[p, p], q is corr[k, p] less the coupling to the
    other entries, and radius keeps the row's norm within norm_bound.  Only
    row k changes while it is swept, so its gram coupling is computed before
    its pass; its penalty coupling, rows[k] @ penalty, is kept current by
    adding rows of the symmetric penalty.  A row that rounding leaves outside
    the bound is scaled back.  Skips coordinates with d <= 0; returns their
    count.
    """
    diag = np.diagonal(penalty).tolist()
    bound_sq = norm_bound * norm_bound
    skipped = 0
    for k in range(rows.shape[0]):
        row = rows[k].tolist()
        gram_kk = float(gram[k, k])
        coupling = (corr[k] - (gram[k] @ rows - gram_kk * rows[k])).tolist()
        penalty_dot = rows[k] @ penalty
        row_sq = float(rows[k] @ rows[k])
        for p, old in enumerate(row):
            denom = gram_kk + diag[p]
            if denom <= 0.0:
                skipped += 1
                continue
            q = coupling[p] - (penalty_dot[p] - diag[p] * old)
            rest = max(row_sq - old * old, 0.0)
            # never shrink the interval past the current point (fp drift guard)
            radius = max(math.sqrt(max(bound_sq - rest, 0.0)), abs(old))
            new = step(q, denom, radius)
            if new != old:
                row[p] = new
                penalty_dot += (new - old) * penalty[p]
                row_sq = rest + new * new
        rows[k] = row
        norm = math.sqrt(float(rows[k] @ rows[k]))
        if norm > norm_bound:
            rows[k] /= norm / norm_bound
    return skipped


def update_coeffs(ws: SolverWorkspace) -> int:
    """One cyclic sweep of exact scalar updates over the coefficient matrix.

    Coordinates whose curvature is zero (basis column identically zero and no
    tag-penalty mass) are skipped; the count of skips is returned.
    """
    eta = ws.hp.eta
    return _sweep(
        ws.coeffs, ws.basis.T @ ws.basis, ws.basis.T @ ws.target, ws.tag_penalty,
        lambda q, denom, radius: coeff_update_value(q, eta, denom), math.inf,
    )


def update_basis(ws: SolverWorkspace) -> int:
    """One cyclic sweep of exact constrained scalar updates over the basis.

    Each coordinate moves to the minimizer of its one-dimensional restriction
    subject to the column staying inside the unit L2 ball, so the objective
    never increases and no column ever leaves the ball.  Zero-curvature
    coordinates are skipped and counted.
    """
    return _sweep(
        ws.basis.T, ws.coeffs @ ws.coeffs.T, ws.coeffs @ ws.target.T,
        ws.image_penalty, basis_update_value, 1.0,
    )


def update_error(ws: SolverWorkspace) -> None:
    """Exact global refresh of the error matrix by elementwise shrinkage."""
    residual = ws.data - ws.basis @ ws.coeffs
    ws.error = error_update_value(residual, ws.hp.beta)
    ws.target = ws.data - ws.error


@dataclass
class SolverReport:
    """Outcome of a fit: final model, per-iteration and per-block objective
    traces, and bookkeeping counters.

    objective_trace[0] is the initial objective; objective_trace[i] is the
    value after outer iteration i.  block_trace[i] holds the values after the
    coefficient, basis, and error updates of iteration i+1, in that order.
    """

    model: FactorModel
    objective_trace: np.ndarray
    block_trace: np.ndarray
    converged: bool
    iterations: int
    skipped_coordinates: int


def initial_model(
    D: TaggingMatrix, hp: Hyperparams, rng: np.random.Generator | None = None
) -> FactorModel:
    """Data-adapted start: leading left singular vectors of the input as the
    basis, zero coefficients, zero error.

    Singular directions carry the input's scale, so the first coefficient
    sweep sees correlations large enough to clear the L1 threshold; a
    scale-free random basis starts every correlation below it and the
    descent can stall at the all-zero model.  Columns are unit-norm, hence
    inside the basis norm ball.  When K exceeds the number of singular
    directions the remainder is filled with seeded random unit columns.
    """
    if rng is None:
        rng = np.random.default_rng(hp.rng_seed)
    n_directions = min(hp.K, D.n_images, D.n_tags)
    left, _, _ = np.linalg.svd(D.to_dense(), full_matrices=False)
    U = np.empty((D.n_images, hp.K))
    U[:, :n_directions] = left[:, :n_directions]
    # fix the sign ambiguity: largest-magnitude entry of each column >= 0
    anchors = np.argmax(np.abs(U[:, :n_directions]), axis=0)
    flip = np.sign(U[anchors, np.arange(n_directions)])
    flip[flip == 0.0] = 1.0
    U[:, :n_directions] *= flip
    if n_directions < hp.K:
        extra = rng.uniform(-1.0, 1.0, size=(D.n_images, hp.K - n_directions))
        norms = np.linalg.norm(extra, axis=0)
        norms[norms == 0.0] = 1.0
        U[:, n_directions:] = extra / norms
    return FactorModel(
        U=U,
        V=sp.csr_matrix((hp.K, D.n_tags)),
        E=sp.csr_matrix((D.n_images, D.n_tags)),
    )


def fit(
    D: TaggingMatrix,
    S: StructureMatrix,
    T: StructureMatrix,
    hp: Hyperparams,
    start: FactorModel | None = None,
) -> SolverReport:
    """Run alternating block minimization to convergence.

    Per outer iteration: coefficient sweep, basis sweep, error refresh (each
    repeated hp.inner_sweeps times for the two coordinate blocks).  Stops when
    the relative objective decrease falls below hp.rel_tol or after
    hp.max_outer_iters iterations.  Deterministic given hp.rng_seed.

    Raises NumericalBlowupError (trace attached) if the objective leaves the
    finite range.
    """
    model = initial_model(D, hp) if start is None else start
    ws = SolverWorkspace(D, S, T, model, hp)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [ws.objective_value()]
    block_rows = []
    skipped = 0
    converged = False
    iterations = 0
    for _ in range(hp.max_outer_iters):
        iterations += 1
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(hp.inner_sweeps):
                skipped += update_coeffs(ws)
            after_coeffs = ws.objective_value()
            for _ in range(hp.inner_sweeps):
                skipped += update_basis(ws)
            after_basis = ws.objective_value()
            update_error(ws)
            after_error = ws.objective_value()
        block_rows.append((after_coeffs, after_basis, after_error))
        trace.append(after_error)
        if not np.isfinite([after_coeffs, after_basis, after_error]).all():
            raise NumericalBlowupError(
                f"objective became non-finite at iteration {iterations}", trace
            )
        prev = trace[-2]
        # every term is non-negative, so an exact 0 is a global minimum
        if after_error == 0.0 or (
            prev - after_error <= hp.rel_tol * max(abs(prev), 1e-30)
        ):
            converged = True
            break
    return SolverReport(
        model=ws.snapshot(),
        objective_trace=np.asarray(trace),
        block_trace=np.asarray(block_rows).reshape(iterations, 3),
        converged=converged,
        iterations=iterations,
        skipped_coordinates=skipped,
    )
