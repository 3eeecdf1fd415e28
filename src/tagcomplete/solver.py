"""Alternating minimization for the structure-preserving factorization.

The objective (core.objective_from_terms) is separately convex in each of
the three blocks.  One outer iteration minimizes it exactly over each
coefficient in turn, over each basis column in turn, and over the error
matrix in closed form, so the objective trace is non-increasing block by
block.

The working state is the model's own form: dense D and factors, and the
sparse E in CSR (Soft-Impute's sparse-plus-low-rank form: Mazumder, Hastie
& Tibshirani, JMLR 2010).  Besides D, no dense N x M array is held: the
blocks read the data through U'D - U'E and VD' - VE', and D - E - UV is
formed only on row blocks of _BLOCK_CELLS cells.  Each state forms UV once
and each term once: update_error's one pass over the row blocks sums the
residual terms of the states before and after it, and shrinks D - UV into
the new E's entries.

fit stops at the first non-finite block value, so every pass starts from
finite E and coefficients: the objective's L1 terms are non-finite with
them, also at a weight of 0 (0 * inf is NaN).  fit works at the live rank.
A dead factor, a zero basis column with a zero coefficient row, is an exact
fixed point of all three blocks, so fit takes such factors out of the
working arrays at the start and after each basis pass, and puts them back,
bit for bit, in the model it returns; the passes count the skips a sweep
over them would count.

The coefficient sweep, update_coeffs, soft-thresholds one scalar at a time
with covariance updates (Friedman, Hastie & Tibshirani, JSS 2010).  A scan
of each row first finds the zero coordinates that provably stay zero, so the
sweep starts at the row's first coordinate that may move and passes over
rows where none may.  Scalar steps crawl where two basis columns nearly
duplicate each other, so fit follows each sweep with one exact feature-sign
step on the face of V's nonzero coefficients (coeff_face_step; its memory
is bounded by D's).  Basis column k, with everything
else fixed, solves the trust-region subproblem (More & Sorensen, SIAM J.
Sci. Stat. Comput. 1983)

    min  g||u||^2 - 2q'u + gamma||Bu||^2   subject to  ||u|| <= 1

with g = (VV')_kk, q the column's coupling to the data and to the other
columns, and the sparse B = S - I.  The minimizer solves
(gI + gamma B'B + sigma I)u = q for the ball's multiplier sigma >= 0.
Shifts leave Krylov spaces unchanged, so one Lanczos process from q on
products with B and B' serves every sigma: the projected subproblem is
tridiagonal and solved exactly (GLTR: Gould, Lucidi, Roma & Toint, SIAM J.
Optim. 1999).  The space grows until the step's residual is within a
hundredth of the certificate's tolerance, 1e-10 of ||q||, and no N x N array
is formed.  Every step is certified by the optimality conditions of the full
subproblem before it is written.  Its products with B and B' call scipy's
CSR kernel, the one behind `@`, into reused buffers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .core import (
    FactorModel,
    Hyperparams,
    StructureMatrix,
    TagCompleteError,
    TaggingMatrix,
    ValidationError,
    basis_term,
    block_residual_term,
    check_structure_sizes,
    coeff_terms,
    error_term,
    objective_from_terms,
)
from .lasso import _SINGULAR_PIVOT, _cholesky

# The tolerance, relative to ||q||, of the basis step's certificate; its
# Lanczos process stops at a residual of _CERT_RTOL / 100 of ||q||.  The
# stopping rule of Newton's method: | ||h|| - 1 |, and steps.
_CERT_RTOL = 1e-8
_NEWTON_TOL, _NEWTON_MAX_ITERS = 1e-10, 50
# Cells per row block of the passes that form D - E - UV.
_BLOCK_CELLS = 1 << 15
# Rows per diagonal block of the face step's triangular solves.
_SOLVE_BLOCK = 128


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


def error_update_value(r, beta: float) -> np.ndarray:
    """Exact minimizer of (r - e)^2 + beta*|e|, elementwise.

    r shrunk toward 0 by beta/2: |r| less beta/2, clipped at 0, times the
    sign of r.  Bit for bit sign(r) * max(|r| - beta/2, 0), signed zeros and
    NaN included, as a new array.
    """
    r = np.array(r, dtype=float)
    out = np.empty(r.shape)
    np.abs(r, out=out)
    out -= 0.5 * beta
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(r, out=r), out, out=out)


def _matvec(matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """matrix @ x into out for a CSR matrix, by the scipy kernel that `@`
    calls, so bit for bit its product, without its dispatch."""
    out.fill(0.0)
    csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, out)
    return out


class SolverWorkspace:
    """The fit's working state plus the fixed structure-penalty operators.

    The state is the dense data D (N x M), the factors basis (U, N x K) and
    coeffs (V, K x M), and the error E as CSR: E is sparse by design, and
    the fit never holds an N x M array besides D.  Each block reads the data
    through its coupling, U'(D - E) = U'D - U'E or V(D - E)' = VD' - VE',
    and D - E - UV is formed only on blocks of rows (residual_blocks).

    tag_penalty is the dense M x M form lambda*(T - I)(T - I)' acting on rows
    of the coefficient matrix; it is exactly symmetric and row-major, so the
    coefficient sweep reads rows for columns.  The basis penalty
    gamma*||(S - I) u||^2 is applied through the sparse image_shift = S - I
    and its transpose image_shift_t, both CSR; the objective reads none of them.

    The working factors are the model's factors at the positions `factors`:
    drop_dead_factors takes dead ones out, and snapshot() puts the others
    back in their places.  The penalty terms are kept for the current state,
    each formed once per state of its block; a block update calls changed()
    to forget its own.
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
        self.error = model.E.copy()
        self.factors = np.arange(model.n_factors)
        # all K columns, until a drop makes basis a new array; the dropped
        # columns here keep the bits they had when they were dropped
        self._model_basis = self.basis
        self._terms = {}
        # (U'U, U'(D - E)) as the last coefficient sweep formed them, until U
        # or E changes; the face step after the sweep reads them
        self.sweep_coupling = None
        # two row blocks of _BLOCK_CELLS cells (one row when a row holds more)
        block_rows = max(min(_BLOCK_CELLS // max(D.n_tags, 1), D.n_images), 1)
        self._blocks = np.empty((2, block_rows, D.n_tags))

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
        row, out of the working arrays.  Such a factor is an exact fixed point
        of all three blocks."""
        live = self.basis.any(axis=0) | self.coeffs.any(axis=1)
        if live.all():
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
        return FactorModel(U=U, V=sp.csr_matrix(V), E=self.error.copy())

    def changed(self, block: str) -> None:
        """Forget the penalty term of block ("basis", "coeffs" or "error"),
        after it changed, and the sweep's coupling after U or E did."""
        self._terms.pop(block, None)
        if block != "coeffs":
            self.sweep_coupling = None

    def coeff_coupling(self) -> np.ndarray:
        """U'(D - E), the coefficient block's coupling to the data, as
        U'D - U'E."""
        corr = self.basis.T @ self.data
        corr -= (self.error.T @ self.basis).T
        return corr

    def basis_coupling(self) -> np.ndarray:
        """V(D - E)', the basis block's coupling to the data, as VD' - VE'."""
        corr = self.coeffs @ self.data.T
        corr -= (self.error @ self.coeffs.T).T
        return corr

    def residual_blocks(self):
        """For each block of rows start:stop, _BLOCK_CELLS // M rows or one
        row when a row alone holds more cells: (start, stop, D - UV on the
        block, a spare buffer of its shape), views of the workspace's two
        block buffers that the next block overwrites."""
        step = self._blocks.shape[1]
        for start in range(0, self.n_images, step):
            stop = min(start + step, self.n_images)
            residual, spare = self._blocks[:, : stop - start]
            np.matmul(self.basis[start:stop], self.coeffs, out=residual)
            np.subtract(self.data[start:stop], residual, out=residual)
            yield start, stop, residual, spare

    def error_entries(self, start: int, stop: int):
        """(flat position in the rows start:stop block, value) of E's stored
        entries on those rows."""
        indptr = self.error.indptr[start : stop + 1]
        rows = np.repeat(np.arange(stop - start), np.diff(indptr))
        lo, hi = indptr[0], indptr[-1]
        return rows * self.n_tags + self.error.indices[lo:hi], self.error.data[lo:hi]

    def objective_value(self, residual: float | None = None) -> float:
        """Objective at the current state: core.objective_from_terms of the
        given residual term, else one summed over row blocks of (D - UV) - E,
        and the penalty terms, each formed once per state of its block.

        Never raises on non-finite state, so blow-ups surface as inf/nan for
        fit to catch.
        """
        terms, hp = self._terms, self.hp
        if residual is None:
            residual = 0.0
            for start, stop, block, square in self.residual_blocks():
                np.multiply(block, block, out=square)
                residual += block_residual_term(
                    square, block, *self.error_entries(start, stop)
                )
        if "basis" not in terms:
            terms["basis"] = basis_term(self.basis, self.image_structure.matrix, hp)
        if "coeffs" not in terms:
            terms["coeffs"] = coeff_terms(self.coeffs, self.tag_structure.matrix, hp)
        if "error" not in terms:
            terms["error"] = error_term(self.error, hp)
        return objective_from_terms(residual, terms["basis"], terms["coeffs"], terms["error"])


def update_coeffs(ws: SolverWorkspace) -> int:
    """One cyclic pass of exact scalar updates over the coefficient matrix.

    Coefficient (k, m) moves to coeff_update_value(q, eta, d), where
    d = (U'U)_kk + tag_penalty[m, m] and q is (U'(D - E))_km less the coupling
    to the other coefficients.  Only row k changes while it is swept, so its
    gram coupling is computed before its pass; its penalty coupling,
    coeffs[k] @ tag_penalty, is kept current by adding rows of the symmetric
    penalty.  Coordinates with d <= 0 (basis column identically zero and no
    tag-penalty mass) are skipped.  Returns the count of skips, with one per
    tag with tag_penalty[m, m] <= 0 for each dropped factor's zero row.

    Each row is scanned before its pass, with every q computed at once: a
    zero coordinate whose |q| <= eta stays where it is (a NaN q may move).
    Until a coordinate moves, the pass sees exactly the scanned q, so it
    starts at the first coordinate that may move, and a row where none may
    is not swept at all.  A row that is all zero when its pass starts has a
    penalty coupling of exactly 0, so that is not formed.  (A penalty that
    overflows has an infinite diagonal entry, where q reads 0 * inf = NaN.)
    """
    coeffs, penalty, eta = ws.coeffs, ws.tag_penalty, ws.hp.eta
    gram, corr = ws.sweep_coupling = ws.basis.T @ ws.basis, ws.coeff_coupling()
    diag = np.diagonal(penalty)
    diag_values = diag.tolist()
    # a row changes only in its own pass, so its state now is its state then
    uncoupled = (~coeffs.any(axis=1)).tolist()
    dropped = ws._model_basis.shape[1] - ws.n_factors
    skipped = dropped * int(np.count_nonzero(diag <= 0.0))
    for k in range(coeffs.shape[0]):
        gram_kk = float(gram[k, k])
        flat = gram_kk + diag <= 0.0
        skipped += int(np.count_nonzero(flat))
        coupling = corr[k] - (gram[k] @ coeffs - gram_kk * coeffs[k])
        penalty_dot = np.zeros(coeffs.shape[1]) if uncoupled[k] else coeffs[k] @ penalty
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


# What coeff_face_step can return: its step was taken, or why it was not.
FACE_OUTCOMES = ("taken", "empty", "non-finite", "singular", "too large", "no descent")


def coeff_face_step(ws: SolverWorkspace) -> str:
    """One feature-sign face step (Lee, Battle, Raina & Ng, NIPS 2006) on the
    coefficient block, after a sweep; returns one of FACE_OUTCOMES.

    On the nonzero coefficients A, with signs theta, the block is the
    quadratic x'Hx - 2(C - eta theta)'x plus a constant, where
    H[(k,m),(l,m')] = (U'U)_kl [m = m'] + tag_penalty[m,m'] [k = l] and
    C = U'(D - E) is the sweep's own coupling.  The step factors H_AA by
    Cholesky, solves H_AA x = C_A - eta theta_A and moves to x, or to the first
    zero crossing on the segment from the current point, with the crossing
    coordinate (and any that rounding flips) set to exactly 0, so that the
    quadratic there is the block's objective.  It keeps the move only if
    that quadratic falls by more than a bound on its rounding.  A coordinate
    joins A only through the sweep.

    It is skipped when A is empty, when H_AA and its factor would hold more
    cells than D (2|A|^2 > N M), when the state is not finite, and when H_AA
    is singular: its Cholesky factor fails or its smallest squared pivot is
    at most lasso._SINGULAR_PIVOT of its largest diagonal entry.
    """
    coeffs = ws.coeffs
    rows, cols = np.nonzero(coeffs)
    size = rows.size
    if not size:
        return "empty"
    if 2 * size * size > ws.n_images * ws.n_tags:
        return "too large"
    if ws.sweep_coupling is None:
        ws.sweep_coupling = ws.basis.T @ ws.basis, ws.coeff_coupling()
    gram, corr = ws.sweep_coupling
    start = coeffs[rows, cols]
    theta = np.sign(start)
    rhs = corr[rows, cols] - ws.hp.eta * theta
    hessian = gram.take(rows, 0).take(rows, 1)
    hessian *= cols[:, None] == cols
    penalty = ws.tag_penalty.take(cols, 0).take(cols, 1)
    penalty *= rows[:, None] == rows
    hessian += penalty
    del penalty
    if not (np.isfinite(hessian).all() and np.isfinite(rhs).all() and np.isfinite(start).all()):
        return "non-finite"
    chol, nonsingular = _cholesky(hessian[None], _SINGULAR_PIVOT * np.diagonal(hessian).max())
    if not nonsingular[0]:
        return "singular"
    # numpy has no triangular solve: a face of one block is solved on H
    # itself, in one call, and a larger one on its factor's blocks
    if size <= _SOLVE_BLOCK:
        point = np.linalg.solve(hessian, rhs)
    else:
        point = _cholesky_solve_by_blocks(chol[0], rhs)
    crossed = theta * point < 0.0
    if crossed.any():
        ratios = np.full(size, np.inf)
        ratios[crossed] = start[crossed] / (start[crossed] - point[crossed])
        point = start + ratios.min() * (point - start)
        point[ratios.argmin()] = 0.0
        point[theta * point < 0.0] = 0.0
    # the quadratic's change, step'(H(point + start) - 2 rhs), and a bound
    # on its rounding from the same sums taken over magnitudes
    step, total = point - start, point + start
    change = float(step @ (hessian @ total - 2.0 * rhs))
    np.abs(hessian, out=hessian)
    rounding = float(np.abs(step) @ (hessian @ np.abs(total) + 2.0 * np.abs(rhs)))
    if not change < -4.0 * size * np.finfo(float).eps * rounding:
        return "no descent"
    coeffs[rows, cols] = point
    ws.changed("coeffs")
    return "taken"


def _cholesky_solve_by_blocks(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with L L' x = rhs for a lower triangular L, by substitution on
    blocks of _SOLVE_BLOCK rows, each diagonal block solved by
    np.linalg.solve, whose cost on the whole of a large face would match
    the factor's."""
    x, block = rhs.copy(), _SOLVE_BLOCK
    starts = range(0, x.size, block)
    for lo in starts:  # L y = rhs
        hi = lo + block
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi], x[lo:hi])
        x[hi:] -= chol[hi:, lo:hi] @ x[lo:hi]
    for lo in reversed(starts):  # L' x = y
        hi = lo + block
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi].T, x[lo:hi])
        x[:lo] -= chol[lo:hi, :lo].T @ x[lo:hi]
    return x


def _basis_step(ws: SolverWorkspace, g: float, q: np.ndarray, rows: int = 8):
    """Certified minimizer u of g||u||^2 - 2q'u + gamma||(S - I)u||^2 over
    ||u|| <= 1, for nonzero q, by the Lanczos method (GLTR), with its image
    (S - I)u.

    Fully reorthogonalized Lanczos from q gives A Q_j = Q_j T_j +
    beta_{j+1} q_{j+1} e_j' for A = gI + gamma B'B, so u = Q_j h, h the step
    projected on Q_j, leaves a residual beta_{j+1} |h_j|; Q_j grows until
    that is within stop = _CERT_RTOL / 100 * ||q||, as it is for every
    ||h|| <= 1 once beta_{j+1} is, or j = N.  h is solved at j = 4, where
    the estimate starts, wherever beta_{j+1} |y_j / d_j| <= stop, d_j and
    y_j the last pivot and lead of the LDL' of T_j + sigma I at the last
    solved sigma, updated as SYMMLQ does (Paige & Saunders, SIAM J. Numer.
    Anal. 1975), and where the process must end; only a solved h's residual
    ends it.  The step fails for a non-finite q, g or T_j, and unless the
    residual and sigma*|1 - ||u||| are within _CERT_RTOL * ||q||, sigma >= 0
    and ||u|| <= 1 + COLUMN_NORM_SLACK.

    Returns (u, image, j), u and image None when the step fails.  The
    Lanczos vectors start in an array of `rows` rows, which grows by half
    when it fills.  A pass starts each step at the j of the step before it,
    so most steps never grow it.
    """
    shift, shift_t, gamma = ws.image_shift, ws.image_shift_t, ws.hp.gamma
    n, q_norm = q.shape[0], math.sqrt(float(q @ q))
    if not (0.0 < q_norm < math.inf and math.isfinite(g)):
        return None, None, rows
    inner, w = np.empty((2, n))  # B v, then gamma B'B v
    lanczos = np.empty((min(n, rows), n))
    lanczos[0] = q / q_norm
    diagonal, off_diagonal, sigma = [], [], 0.0
    stop, pivot, lead = _CERT_RTOL / 100 * q_norm, 0.0, 0.0
    for j in range(1, n + 1):
        _matvec(shift_t, _matvec(shift, lanczos[j - 1], inner), w)
        w *= gamma
        coeffs = lanczos[:j] @ w
        diagonal.append(g + float(coeffs[-1]))
        w -= coeffs @ lanczos[:j]
        w -= (lanczos[:j] @ w) @ lanczos[:j]  # again, for orthogonality lost to rounding
        beta = math.sqrt(float(w @ w))
        if pivot:  # d_j = alpha_j + sigma - beta_j^2 / d_{j-1}, y_j = -(beta_j / d_{j-1}) y_{j-1}
            ratio = off_diagonal[-1] / pivot
            lead, pivot = -ratio * lead, diagonal[-1] + sigma - off_diagonal[-1] * ratio
        done = not beta > stop or j == n
        if done or j == 4 or (pivot and beta * abs(lead) <= stop * abs(pivot)):
            h, sigma, pivot, lead = _projected_step(diagonal, off_diagonal, q_norm, sigma)
            if h is None:
                return None, None, j
            if done or beta * abs(h[-1]) <= stop:
                break
        if j == len(lanczos):
            lanczos = np.concatenate([lanczos, np.empty((min(n - j, max(j // 2, 1)), n))])
        lanczos[j] = w / beta
        off_diagonal.append(beta)
    u = np.array(h) @ lanczos[:j]
    if sigma > 0.0:
        u /= math.sqrt(float(u @ u))
    norm = math.sqrt(float(u @ u))
    image = _matvec(shift, u, np.empty(n))
    residual = (g + sigma) * u + gamma * _matvec(shift_t, image, w) - q
    tol = _CERT_RTOL * q_norm
    if (
        math.sqrt(float(residual @ residual)) <= tol
        and sigma >= 0.0
        and sigma * abs(1.0 - norm) <= tol
        and norm <= 1.0 + FactorModel.COLUMN_NORM_SLACK
    ):
        return u, image, j
    return None, None, j


def _projected_step(diagonal, off_diagonal, q_norm, sigma):
    """(h, sigma, d, y) with h minimizing h'Th - 2 q_norm h_1 over ||h|| <= 1,
    T tridiagonal (h None, d = y = 0 if no sigma tried makes T + sigma I
    positive definite): h = q_norm (T + sigma I)^-1 e_1 by LDL', with last
    pivot d and L^-1 q_norm e_1 ending in y, and sigma = 0 if ||h(0)|| <= 1.
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
    step = None, sigma, 0.0, 0.0
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
        lead = h[-1]
        h = [x / pivot for x, pivot in zip(h, pivots)]  # then h = L'^-1 D^-1 h
        for i in range(len(ratios) - 1, -1, -1):
            h[i] -= ratios[i] * h[i + 1]
        step = h, sigma, pivots[-1], lead
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


@np.errstate(over="ignore", invalid="ignore")
def update_basis(ws: SolverWorkspace) -> int:
    """One cyclic pass of exact trust-region steps over the basis columns.

    Column k moves to the certified minimizer of the objective over it inside
    the unit ball, all else fixed, when its own objective
    g||u||^2 - 2q'u + gamma||(S - I)u||^2 does not rise; a column with zero
    coupling q moves to 0, its exact minimizer.  Returns the number of
    coordinates left without a step: those of columns, dropped ones included,
    whose subproblem is constant (g = 0, q = 0, gamma = 0) or whose step
    failed its certificate.

    A column whose coefficient row is all zero has g = 0 and q exactly 0,
    so its q is not formed.  The pass ignores floating-point overflow and
    invalid values, as fit does: a gamma near the float maximum fails the
    steps it reaches, and they are counted as skips.
    """
    basis, shift, gamma = ws.basis, ws.image_shift, ws.hp.gamma
    old_image = np.empty(ws.n_images)
    gram = ws.coeffs @ ws.coeffs.T
    corr = ws.basis_coupling()
    coupled = ws.coeffs.any(axis=1)

    def value(g, q, u, image):
        return float(u @ (g * u - 2.0 * q)) + gamma * float(image @ image)

    rows = 8
    dropped = ws._model_basis.shape[1] - ws.n_factors
    skipped = dropped * ws.n_images if gamma == 0.0 else 0
    for k in range(ws.n_factors):
        g, old = float(gram[k, k]), basis[:, k].copy()
        q = corr[k] - (basis @ gram[:, k] - g * old) if coupled[k] else None
        if q is None or not q.any():
            if g == 0.0 and gamma == 0.0:
                skipped += ws.n_images
            else:
                basis[:, k] = 0.0
            continue
        u, image, rows = _basis_step(ws, g, q, rows)
        if u is None:
            skipped += ws.n_images
        elif value(g, q, u, image) <= value(g, q, old, _matvec(shift, old, old_image)):
            basis[:, k] = u
    ws.changed("basis")
    return skipped


def update_error(ws: SolverWorkspace) -> tuple[float, float]:
    """Exact global refresh of the error matrix, E = error_update_value of
    D - UV, that returns the objective at the states before and after it.

    One pass over the row blocks forms R = D - UV once per block and, from
    it, the residual term with the old E, the new E's entries and the
    residual term with them.  The new E is stored on the support of the
    shrinkage, the entries of R beyond beta/2 in magnitude or NaN, and is
    +-0 elsewhere.
    """
    half_beta = 0.5 * ws.hp.beta
    before = after = 0.0
    counts, columns, values = [np.zeros(1, dtype=np.int64)], [], []
    for start, stop, residual, magnitude in ws.residual_blocks():
        np.abs(residual, out=magnitude)
        support = np.flatnonzero(~(magnitude <= half_beta))
        shrunk = error_update_value(residual.ravel()[support], ws.hp.beta)
        square = np.multiply(residual, residual, out=magnitude)
        before += block_residual_term(square, residual, *ws.error_entries(start, stop))
        after += block_residual_term(square, residual, support, shrunk)
        rows, cols = np.divmod(support, ws.n_tags)
        counts.append(np.bincount(rows, minlength=stop - start))
        columns.append(cols)
        values.append(shrunk)
    value_before = ws.objective_value(before)
    ws.error = sp.csr_matrix(
        (np.concatenate(values), np.concatenate(columns), np.cumsum(np.concatenate(counts))),
        shape=(ws.n_images, ws.n_tags),
    )
    ws.changed("error")
    return value_before, ws.objective_value(after)


@dataclass
class SolverReport:
    """Outcome of a fit: final model, per-iteration and per-block objective
    traces, and bookkeeping counters.

    objective_trace[0] is the initial objective; objective_trace[i] is the
    value after outer iteration i.  block_trace[i] holds the values after the
    coefficient, basis, and error updates of iteration i+1, in that order.
    live_rank[0] is the number of live factors after the start's dead ones
    are dropped; live_rank[i] is the number after the basis pass of
    iteration i; no update after the last basis pass changes U or V, so
    live_rank[-1] also counts the final model's factors with a nonzero basis
    column or coefficient row.  face_steps counts the coefficient face steps
    by outcome, one per iteration: "taken", or why a step was skipped (see
    FACE_OUTCOMES).  empty_tags counts the final model's tags with an
    all-zero column of V; max_basis_cosine and near_duplicate_pairs describe
    its nonzero basis columns.
    """

    model: FactorModel
    objective_trace: np.ndarray
    block_trace: np.ndarray
    converged: bool
    iterations: int
    skipped_coordinates: int
    live_rank: list[int]
    face_steps: dict[str, int]

    # |cosine| above which two basis columns count as a near-duplicate pair
    NEAR_DUPLICATE_COSINE = 0.99

    @property
    def empty_tags(self) -> int:
        """Tags with an all-zero column of V, on which every image scores 0."""
        return self.model.n_tags - np.unique(self.model.V.nonzero()[1]).size

    def _basis_cosines(self) -> np.ndarray:
        """|cosine| of each pair of nonzero basis columns, one entry a pair."""
        U = self.model.U[:, self.model.U.any(axis=0)]
        U = U / np.linalg.norm(U, axis=0)
        return np.abs(U.T @ U)[np.triu_indices(U.shape[1], 1)]

    @property
    def max_basis_cosine(self) -> float:
        """The largest |cosine| between two nonzero basis columns (0 with
        fewer than two): near 1, the fit keeps a near-duplicate factor pair."""
        return float(self._basis_cosines().max(initial=0.0))

    @property
    def near_duplicate_pairs(self) -> int:
        """Pairs of nonzero basis columns with |cosine| above
        NEAR_DUPLICATE_COSINE."""
        return int(np.count_nonzero(self._basis_cosines() > self.NEAR_DUPLICATE_COSINE))


def initial_model(D: TaggingMatrix, hp: Hyperparams) -> FactorModel:
    """Data-adapted start: leading left singular vectors of the input as the
    basis, zero coefficients, zero error.

    Singular directions carry the input's scale, so the first coefficient
    sweep sees correlations large enough to clear the L1 threshold; a
    scale-free random basis starts every correlation below it and the
    descent can stall at the all-zero model.  Columns are unit-norm, hence
    inside the basis norm ball.

    The directions are the top min(K, N, M) eigenvectors of the gram on the
    smaller side of D: of D'D, mapped to U = DV with unit columns, when
    N >= M, and else of DD', whose eigenvectors are U.  D is first scaled by
    a power of two, exactly, to a largest magnitude below 1, so that the
    gram cannot overflow.  A direction whose eigenvalue is at most
    max(N, M) * eps * lambda_max lies in the gram's rounding and takes the
    random fill, as do the columns past min(N, M): random unit columns drawn
    from np.random.default_rng(hp.rng_seed).
    """
    data = D.to_dense()
    peak = float(np.abs(D.matrix.data).max(initial=0.0))
    if peak > 0.0:
        np.ldexp(data, -math.frexp(peak)[1], out=data)
    tall = D.n_images >= D.n_tags
    values, vectors = np.linalg.eigh(data.T @ data if tall else data @ data.T)
    floor = max(D.n_images, D.n_tags) * np.finfo(float).eps * values.max(initial=0.0)
    top = np.flatnonzero(values > floor)[::-1][: hp.K]
    n_directions = top.size
    U = np.empty((D.n_images, hp.K))
    if tall:
        left = data @ vectors[:, top]
        del data  # before the N x K temporaries of the norms and the division
        U[:, :n_directions] = left / np.linalg.norm(left, axis=0)
    else:
        U[:, :n_directions] = vectors[:, top]
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

    Per outer iteration: one coefficient sweep and its face step
    (coeff_face_step), one basis pass and one error refresh, which returns
    the values after the basis pass and after itself.
    Stops when the relative objective decrease falls below hp.rel_tol or
    after hp.max_outer_iters iterations.  Deterministic given hp.rng_seed.

    The blocks run at the live rank: dead factors leave the working arrays
    at the start and after each basis pass (see drop_dead_factors); the passes
    count their skips as a full-rank sweep counts them.
    The returned model has all K factors in their places, a dropped basis
    column with the bits it had when it was dropped.  The result equals the
    fit at full rank up to rounding: the products run over fewer terms.

    Warns when the fit ends with no live factor, naming the iteration whose
    basis pass left none: dead factors stay dead, so the completion is then
    all zero.  Raises ValidationError if D has no images or no tags, and
    NumericalBlowupError, naming the block and the iteration, at the first
    non-finite value after a coefficient pass or from update_error; its
    trace is the objective trace so far plus that value.  The initial
    objective is not checked: the first coefficient pass can recover.
    """
    for count, name in ((D.n_images, "images"), (D.n_tags, "tags")):
        if count == 0:
            raise ValidationError(
                f"tagging matrix has no {name} ({D.n_images}x{D.n_tags}): nothing to complete"
            )
    ws = SolverWorkspace(D, S, T, initial_model(D, hp) if start is None else start, hp)
    ws.drop_dead_factors()
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [ws.objective_value()]
    block_rows, skipped, converged, live_rank = [], 0, False, [ws.n_factors]
    face_steps = dict.fromkeys(FACE_OUTCOMES, 0)

    def checked(value, block):
        if not math.isfinite(value):
            raise NumericalBlowupError(
                f"objective became non-finite after the {block} of iteration {iterations}",
                [*trace, value],
            )
        return value

    for iterations in range(1, hp.max_outer_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            skipped += update_coeffs(ws)
            face_steps[coeff_face_step(ws)] += 1
            after_coeffs = checked(ws.objective_value(), "coefficient pass")
            skipped += update_basis(ws)
            ws.drop_dead_factors()
            after_basis, after_error = update_error(ws)
        checked(after_basis, "basis pass")
        checked(after_error, "error refresh")
        live_rank.append(ws.n_factors)
        block_rows.append((after_coeffs, after_basis, after_error))
        trace.append(after_error)
        prev = trace[-2]
        # every term is non-negative, so an exact 0 is a global minimum
        if after_error == 0.0 or (
            prev - after_error <= hp.rel_tol * max(abs(prev), 1e-30)
        ):
            converged = True
            break
    if not live_rank[-1]:
        died = live_rank.index(0)  # dead factors stay dead
        warnings.warn(
            "fit ended with no live factor, so U = 0, V = 0 and every score is 0: "
            + (f"the last one died in iteration {died}" if died else "the start had none"),
            stacklevel=2,
        )
    return SolverReport(
        model=ws.snapshot(),
        objective_trace=np.asarray(trace),
        block_trace=np.asarray(block_rows).reshape(iterations, 3),
        converged=converged,
        iterations=iterations,
        skipped_coordinates=skipped,
        live_rank=live_rank,
        face_steps=face_steps,
    )
