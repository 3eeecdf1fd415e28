"""Alternating minimization for the structure-preserving factorization.

The objective (core.objective_from_terms) is separately convex in each of
the three blocks.  One outer iteration minimizes it exactly over each
coefficient in turn, over each basis column in turn, and over the error
matrix in closed form, so the objective trace is non-increasing block by
block.

fit works at the live rank.  A dead factor, a zero basis column with a zero
coefficient row, is an exact fixed point of all three blocks while the
target and the coefficients are finite, so fit takes such factors out of
the working arrays at the start and after each basis pass, counts the
skips a sweep over them would count, and puts them back, bit for bit, in
the model it returns.  Each state of the blocks forms the product UV once,
and each term of the objective once: the value after the basis pass, the
error refresh and the value after it share one product.

The coefficient sweep, update_coeffs, soft-thresholds one scalar at a time
with covariance updates (Friedman, Hastie & Tibshirani, JSS 2010).  A scan
of each row first finds the zero coordinates that provably stay zero, so the
sweep starts at the row's first coordinate that may move and passes over
rows where none may.  Basis column k, with everything
else fixed, solves the trust-region subproblem (More & Sorensen, SIAM J.
Sci. Stat. Comput. 1983)

    min  g||u||^2 - 2q'u + gamma||Bu||^2   subject to  ||u|| <= 1

with g = (VV')_kk, q the column's coupling to the data and to the other
columns, and the sparse B = S - I.  The minimizer solves
(gI + gamma B'B + sigma I)u = q for the ball's multiplier sigma >= 0.
Shifts leave Krylov spaces unchanged, so one Lanczos process from q on
products with B and B' serves every sigma: the projected subproblem is
tridiagonal and solved exactly (GLTR: Gould, Lucidi, Roma & Toint, SIAM J.
Optim. 1999).  The space grows until the step's residual is within 1e-12 of
||q||, and no N x N array is formed.  Every step is certified by the
optimality conditions of the full subproblem before it is written.
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
    basis_term,
    check_structure_sizes,
    coeff_terms,
    error_term,
    objective_from_terms,
    residual_term,
)

# Stopping rules of the basis step's Lanczos process (residual relative to
# ||q||) and Newton's method (| ||h|| - 1 |, steps), and the tolerance,
# relative to ||q||, of its certificate.
_LANCZOS_RTOL, _NEWTON_TOL, _NEWTON_MAX_ITERS = 1e-12, 1e-10, 50
_CERT_RTOL = 1e-8


class NumericalBlowupError(TagCompleteError, RuntimeError):
    """The objective became non-finite; carries the trace up to the failure."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = list(trace)


def coeff_update_value(p: float, eta: float, denom: float) -> float:
    """Exact minimizer of denom*v^2 - 2*p*v + 2*eta*|v| for denom > 0: p
    shrunk toward 0 by eta, then divided by denom."""
    if -eta <= p <= eta:
        return -0.0 if p < 0.0 else 0.0
    return (p - eta if p > 0.0 else p + eta) / denom


def error_update_value(r, beta: float, out=None):
    """Exact minimizer of (r - e)^2 + beta*|e|, elementwise.

    r shrunk toward 0 by beta/2 in the one buffer out: |r| less beta/2,
    clipped at 0, times the sign of r.  Bit for bit sign(r) * max(|r| -
    beta/2, 0), signed zeros and NaN included.  Given out, r must be a float
    array, and it is left holding its sign; otherwise both are new arrays.
    """
    if out is None:
        r = np.array(r, dtype=float)
        out = np.empty(r.shape)
    np.abs(r, out=out)
    out -= 0.5 * beta
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(r, out=r), out, out=out)


class SolverWorkspace:
    """Dense working state plus the fixed structure-penalty operators.

    tag_penalty is the dense M x M form lambda*(T - I)(T - I)' acting on rows
    of the coefficient matrix; it is exactly symmetric and row-major, so the
    coefficient sweep reads rows for columns.  The basis penalty
    gamma*||(S - I) u||^2 is applied through the sparse image_shift = S - I
    and its transpose image_shift_t, both CSR; the objective reads none of them.
    basis/coeffs/error are mutable copies of the model; target caches
    data - error and is refreshed whenever error changes.

    The working factors are the model's factors at the positions `factors`:
    drop_dead_factors takes dead ones out, and snapshot() puts the others
    back in their places.  The product basis @ coeffs and the objective's
    terms are kept for the current state, so each is formed once per state
    of the blocks it reads; a block update calls changed() to forget them.
    """

    def __init__(
        self,
        D: TaggingMatrix,
        S: StructureMatrix,
        T: StructureMatrix,
        model: FactorModel,
        hp: Hyperparams,
    ):
        check_structure_sizes(D, S, T, model)
        model.validate()
        self.hp = hp
        self.image_structure = S
        self.tag_structure = T
        self.data = D.to_dense()

        eye_n = sp.identity(D.n_images, format="csr")
        eye_m = sp.identity(D.n_tags, format="csr")
        self.image_shift = (S.matrix - eye_n).tocsr()
        self.image_shift_t = self.image_shift.T.tocsr()
        t_shift = (T.matrix - eye_m).tocsr()
        self.tag_penalty = hp.lambda_ * (t_shift @ t_shift.T).toarray(order="C")

        self.basis = model.U.copy()
        self.coeffs = model.V.toarray()
        self.error = model.E.toarray()
        self.target = self.data - self.error
        self.factors = np.arange(model.n_factors)
        # all K columns, until a drop makes basis a new array; the dropped
        # columns here keep the bits they had when they were dropped
        self._model_basis = self.basis
        self._product, self._terms = None, {}

    @property
    def n_images(self) -> int:
        return self.data.shape[0]

    @property
    def n_tags(self) -> int:
        return self.data.shape[1]

    @property
    def n_factors(self) -> int:
        """The number of working factors."""
        return self.basis.shape[1]

    def drop_dead_factors(self) -> None:
        """Take the dead factors, a zero basis column with a zero coefficient
        row, out of the working arrays.  Such a factor is a fixed point of
        all three blocks while target and coeffs are finite, so it is kept
        while they are not (0 * inf is NaN)."""
        live = self.basis.any(axis=0) | self.coeffs.any(axis=1)
        if live.all() or not (
            np.isfinite(self.target).all() and np.isfinite(self.coeffs).all()
        ):
            return
        self._model_basis[:, self.factors[~live]] = self.basis[:, ~live]
        self.factors = self.factors[live]
        self.basis = np.ascontiguousarray(self.basis[:, live])
        self.coeffs = self.coeffs[live]

    def snapshot(self) -> FactorModel:
        """The model: the working factors in their places among the dropped."""
        U = self._model_basis.copy()
        U[:, self.factors] = self.basis
        V = np.zeros((U.shape[1], self.n_tags))
        V[self.factors] = self.coeffs
        return FactorModel(U=U, V=sp.csr_matrix(V), E=sp.csr_matrix(self.error))

    def changed(self, block: str) -> None:
        """Forget the product and terms that read block ("basis", "coeffs" or
        "error"), after it changed."""
        if block != "error":
            self._product = None
        self._terms.pop("residual", None)
        self._terms.pop(block, None)

    def product(self) -> np.ndarray:
        """basis @ coeffs at the current state."""
        if self._product is None:
            self._product = self.basis @ self.coeffs
        return self._product

    def objective_value(self) -> float:
        """Objective at the current state: core.objective_from_terms, with
        each term formed once per state of the blocks it reads.

        Never raises on non-finite state, so blow-ups surface as inf/nan for
        fit to catch.
        """
        terms, hp = self._terms, self.hp
        if "residual" not in terms:
            terms["residual"] = residual_term(self.target - self.product())
        if "basis" not in terms:
            terms["basis"] = basis_term(self.basis, self.image_structure.matrix, hp)
        if "coeffs" not in terms:
            terms["coeffs"] = coeff_terms(self.coeffs, self.tag_structure.matrix, hp)
        if "error" not in terms:
            terms["error"] = error_term(self.error, hp)
        return objective_from_terms(
            terms["residual"], terms["basis"], terms["coeffs"], terms["error"]
        )


def update_coeffs(ws: SolverWorkspace) -> int:
    """One cyclic pass of exact scalar updates over the coefficient matrix.

    Coefficient (k, m) moves to coeff_update_value(q, eta, d), where
    d = (U'U)_kk + tag_penalty[m, m] and q is (U'target)_km less the coupling
    to the other coefficients.  Only row k changes while it is swept, so its
    gram coupling is computed before its pass; its penalty coupling,
    coeffs[k] @ tag_penalty, is kept current by adding rows of the symmetric
    penalty.  Coordinates with d <= 0 (basis column identically zero and no
    tag-penalty mass) are skipped; the count of skips is returned.

    Each row is scanned before its pass, with every q computed at once: a
    zero coordinate whose |q| <= eta stays where it is (a NaN q may move).
    Until a coordinate moves, the pass sees exactly the scanned q, so it
    starts at the first coordinate that may move, and a row where none may
    is not swept at all.
    """
    coeffs, penalty, eta = ws.coeffs, ws.tag_penalty, ws.hp.eta
    gram, corr = ws.basis.T @ ws.basis, ws.basis.T @ ws.target
    diag = np.diagonal(penalty)
    diag_values = diag.tolist()
    skipped = 0
    for k in range(coeffs.shape[0]):
        gram_kk = float(gram[k, k])
        flat = gram_kk + diag <= 0.0
        skipped += int(np.count_nonzero(flat))
        coupling = corr[k] - (gram[k] @ coeffs - gram_kk * coeffs[k])
        penalty_dot = coeffs[k] @ penalty
        q = coupling - (penalty_dot - diag * coeffs[k])
        may_move = ~(flat | ((coeffs[k] == 0.0) & (np.abs(q) <= eta)))
        start = int(may_move.argmax())
        if not may_move[start]:
            continue
        row, coupling = coeffs[k].tolist(), coupling.tolist()
        for m in range(start, len(row)):
            denom = gram_kk + diag_values[m]
            if denom <= 0.0:
                continue
            old = row[m]
            q = coupling[m] - (penalty_dot[m] - diag_values[m] * old)
            new = coeff_update_value(q, eta, denom)
            if new != old:
                row[m] = new
                penalty_dot += (new - old) * penalty[m]
        coeffs[k] = row
    ws.changed("coeffs")
    return skipped


def _basis_step(ws: SolverWorkspace, g: float, q: np.ndarray):
    """Certified minimizer of g||u||^2 - 2q'u + gamma||(S - I)u||^2 over
    ||u|| <= 1, for nonzero q, by the Lanczos method (GLTR).

    Fully reorthogonalized Lanczos from q gives A Q_j = Q_j T_j +
    beta_{j+1} q_{j+1} e_j' for A = gI + gamma B'B, so u = Q_j h, h the step
    projected on Q_j at j = 4, 6, 9, 13, ..., leaves a residual
    beta_{j+1} |h_j|; Q_j grows until that is within _LANCZOS_RTOL * ||q||,
    as it is for every ||h|| <= 1 once beta_{j+1} is, or j = N.  Returns None
    for a non-finite q, g or T_j, and unless the residual and
    sigma*|1 - ||u||| are within _CERT_RTOL * ||q||, sigma >= 0 and
    ||u|| <= 1 + COLUMN_NORM_SLACK.
    """
    shift, shift_t, gamma = ws.image_shift, ws.image_shift_t, ws.hp.gamma
    n, q_norm = q.shape[0], math.sqrt(float(q @ q))
    if not (0.0 < q_norm < math.inf and math.isfinite(g)):
        return None
    lanczos = np.empty((min(n, 8), n))
    lanczos[0] = q / q_norm
    diagonal, off_diagonal, check, sigma = [], [], 4, 0.0
    for j in range(1, n + 1):
        w = gamma * (shift_t @ (shift @ lanczos[j - 1]))
        coeffs = lanczos[:j] @ w
        diagonal.append(g + float(coeffs[-1]))
        w -= coeffs @ lanczos[:j]
        w -= (lanczos[:j] @ w) @ lanczos[:j]  # again, for orthogonality lost to rounding
        beta = math.sqrt(float(w @ w))
        done = not beta > _LANCZOS_RTOL * q_norm or j == n
        if done or j == check:
            h, sigma = _projected_step(diagonal, off_diagonal, q_norm, sigma)
            if h is None:
                return None
            if done or beta * abs(h[-1]) <= _LANCZOS_RTOL * q_norm:
                break
            check = int(1.5 * check)
        if j == len(lanczos):
            lanczos = np.concatenate([lanczos, np.empty((min(n, 2 * j) - j, n))])
        lanczos[j] = w / beta
        off_diagonal.append(beta)
    u = np.array(h) @ lanczos[:j]
    if sigma > 0.0:
        u /= math.sqrt(float(u @ u))
    norm = math.sqrt(float(u @ u))
    residual = (g + sigma) * u + gamma * (shift_t @ (shift @ u)) - q
    tol = _CERT_RTOL * q_norm
    if (
        math.sqrt(float(residual @ residual)) <= tol
        and sigma >= 0.0
        and sigma * abs(1.0 - norm) <= tol
        and norm <= 1.0 + FactorModel.COLUMN_NORM_SLACK
    ):
        return u
    return None


def _projected_step(diagonal, off_diagonal, q_norm, sigma):
    """(h, sigma) minimizing h'Th - 2 q_norm h_1 over ||h|| <= 1, T tridiagonal
    (h None if no sigma tried makes T + sigma I positive definite):
    h = q_norm (T + sigma I)^-1 e_1 by LDL', and sigma = 0 if ||h(0)|| <= 1.
    Else Newton's method on the concave, increasing 1/||h(sigma)|| - 1 climbs
    to its root from two points left of it: q_norm - G, G >= lam_max(T)
    (Gershgorin), and the given sigma, a root for fewer Lanczos steps (||h||
    is a Gauss quadrature from below).

    A sigma where T + sigma I has no positive LDL' lies left of -lam_min(T),
    and so of the root: rounding can leave a start there on columns
    conditioned near 1e14 or worse, and a Newton step from right of the root
    can overshoot there.  It moves halfway to hi, the last sigma with
    ||h|| < 1, at first q_norm + G', G' >= -lam_min(T) (Gershgorin), where
    ||h|| <= 1 and the LDL' is positive.
    """
    radius = 2.0 * max(off_diagonal, default=0.0)  # of every Gershgorin disc
    hi = q_norm + max(radius - min(diagonal), 0.0)
    sigma = max(sigma, q_norm - max(diagonal) - radius)
    step = None, sigma
    for _ in range(_NEWTON_MAX_ITERS):
        pivots, ratios, h = [diagonal[0] + sigma], [], [q_norm]  # h = L^-1 q_norm e_1
        for a, b in zip(diagonal[1:], off_diagonal):
            if not pivots[-1] > 0.0:
                break
            ratios.append(b / pivots[-1])
            pivots.append(a + sigma - b * ratios[-1])
            h.append(-ratios[-1] * h[-1])
        if not pivots[-1] > 0.0:  # sigma < -lam_min(T)
            sigma = 0.5 * (sigma + hi)
            continue
        h = [x / pivot for x, pivot in zip(h, pivots)]  # then h = L'^-1 D^-1 h
        for i in range(len(ratios) - 1, -1, -1):
            h[i] -= ratios[i] * h[i + 1]
        step = h, sigma
        norm = math.sqrt(sum(x * x for x in h))
        if (sigma == 0.0 and norm <= 1.0) or not abs(norm - 1.0) > _NEWTON_TOL:
            break
        y = h[:1]  # slope h'(T + sigma I)^-1 h = y'D^-1 y for L y = h
        for ratio, x in zip(ratios, h[1:]):
            y.append(x - ratio * y[-1])
        slope = sum(x * x / pivot for x, pivot in zip(y, pivots))
        if not slope > 0.0:
            break
        if norm < 1.0:
            hi = sigma
        sigma += (norm - 1.0) * norm * norm / slope
    return step


def update_basis(ws: SolverWorkspace) -> int:
    """One cyclic pass of exact trust-region steps over the basis columns.

    Column k moves to the certified minimizer of the objective over it inside
    the unit ball, all else fixed, when its own objective
    g||u||^2 - 2q'u + gamma||(S - I)u||^2 does not rise; a column with zero
    coupling q moves to 0, its exact minimizer.  Returns the number of
    coordinates left without a step: those of columns whose subproblem is
    constant (g = 0, q = 0, gamma = 0) or whose step failed its certificate.
    """
    basis, shift, gamma = ws.basis, ws.image_shift, ws.hp.gamma
    gram = ws.coeffs @ ws.coeffs.T
    corr = ws.coeffs @ ws.target.T

    def value(g, q, u):
        image = shift @ u
        return float(u @ (g * u - 2.0 * q)) + gamma * float(image @ image)

    skipped = 0
    for k in range(ws.n_factors):
        g, old = float(gram[k, k]), basis[:, k].copy()
        q = corr[k] - (basis @ gram[:, k] - g * old)
        if not q.any():
            if g == 0.0 and gamma == 0.0:
                skipped += ws.n_images
            else:
                basis[:, k] = 0.0
            continue
        u = _basis_step(ws, g, q)
        if u is None:
            skipped += ws.n_images
        elif value(g, q, u) <= value(g, q, old):
            basis[:, k] = u
    ws.changed("basis")
    return skipped


def update_error(ws: SolverWorkspace) -> None:
    """Exact global refresh of the error matrix by elementwise shrinkage of
    data - basis @ coeffs, in the buffers of the old target and error."""
    residual = np.subtract(ws.data, ws.product(), out=ws.target)
    error_update_value(residual, ws.hp.beta, out=ws.error)
    np.subtract(ws.data, ws.error, out=ws.target)
    ws.changed("error")


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


def initial_model(D: TaggingMatrix, hp: Hyperparams) -> FactorModel:
    """Data-adapted start: leading left singular vectors of the input as the
    basis, zero coefficients, zero error.

    Singular directions carry the input's scale, so the first coefficient
    sweep sees correlations large enough to clear the L1 threshold; a
    scale-free random basis starts every correlation below it and the
    descent can stall at the all-zero model.  Columns are unit-norm, hence
    inside the basis norm ball.  When K exceeds the number of singular
    directions the remainder is filled with random unit columns drawn from
    np.random.default_rng(hp.rng_seed).
    """
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
        rng = np.random.default_rng(hp.rng_seed)
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

    Per outer iteration: one coefficient sweep, one basis pass and one error
    refresh.  Stops when the relative objective decrease falls below
    hp.rel_tol or after hp.max_outer_iters iterations.  Deterministic given
    hp.rng_seed.

    The blocks run at the live rank: dead factors leave the working arrays
    at the start and after each basis pass (see drop_dead_factors), and the
    skips of a sweep over them are counted as a full-rank sweep counts them.
    The returned model has all K factors in their places, a dropped basis
    column with the bits it had when it was dropped.  The result equals the
    fit at full rank up to rounding: the products run over fewer terms.

    Raises NumericalBlowupError (trace attached) if the objective leaves the
    finite range.
    """
    model = initial_model(D, hp) if start is None else start
    ws = SolverWorkspace(D, S, T, model, hp)
    # a dropped factor's skips per sweep, as a sweep over it would count
    # them: its coefficients on tags without penalty mass, and its basis
    # column's coordinates when that column's subproblem is constant
    coeff_skips = int(np.count_nonzero(np.diagonal(ws.tag_penalty) <= 0.0))
    basis_skips = ws.n_images if hp.gamma == 0.0 else 0
    K = model.n_factors
    ws.drop_dead_factors()
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [ws.objective_value()]
    block_rows = []
    skipped = 0
    converged = False
    iterations = 0
    for _ in range(hp.max_outer_iters):
        iterations += 1
        with np.errstate(over="ignore", invalid="ignore"):
            skipped += update_coeffs(ws) + (K - ws.n_factors) * coeff_skips
            after_coeffs = ws.objective_value()
            skipped += update_basis(ws) + (K - ws.n_factors) * basis_skips
            ws.drop_dead_factors()
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
