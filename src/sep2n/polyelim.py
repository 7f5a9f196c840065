"""Bivariate polynomials in a complex variable and its conjugate.

A ``BivariatePoly`` stores a coefficient grid ``c[j, k]`` for the monomial
``alpha**j * conj(alpha)**k``.  A genuine root is an ``alpha`` with
``P(alpha, conj(alpha)) == 0``.  Treating the conjugate as an independent
second variable, repeated cross-multiplication of leading/trailing
coefficients eliminates one variable and yields a univariate polynomial
whose root set contains every genuine root; candidates are then filtered by
back-substitution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "BivariatePoly",
    "UnivariatePoly",
    "RootSet",
    "DegenerateElimination",
    "NonFinite",
    "conjugate_poly",
    "eliminate_single",
    "eliminate_pair",
    "reduce_univariate_pair",
    "univariate_roots",
    "verify_roots",
    "single_elimination_bound",
    "pair_elimination_bound",
    "MERGE_RADIUS",
]

logger = logging.getLogger(__name__)

# Relative threshold below which coefficients are trimmed away.
TRIM_REL_TOL = 1e-12
# Verified roots closer than this are merged; product vectors built from
# closer roots are indistinguishable at rank tolerance.
MERGE_RADIUS = 1e-6


class DegenerateElimination(Exception):
    """An elimination step collapsed to the zero polynomial.

    Signals a possible infinite family of genuine roots, which the finite
    elimination cannot enumerate.
    """


class NonFinite(Exception):
    """Coefficients overflowed or degenerated to NaN during a reduction."""


# ---------------------------------------------------------------------------
# coefficient-grid helpers (rows indexed by the alpha power, columns by the
# conjugate power)
# ---------------------------------------------------------------------------

def _trim(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=complex)
    if g.ndim != 2:
        g = np.atleast_2d(g)
    top = np.max(np.abs(g)) if g.size else 0.0
    if top <= 0.0:
        return np.zeros((1, 1), dtype=complex)
    mask = np.abs(g) > TRIM_REL_TOL * top
    g = np.where(mask, g, 0.0)
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    return g[: rows[-1] + 1, : cols[-1] + 1]


def _is_zero(grid: np.ndarray) -> bool:
    return grid.size == 0 or np.max(np.abs(grid)) <= 0.0


def _normalize(grid: np.ndarray) -> np.ndarray:
    top = np.max(np.abs(grid)) if grid.size else 0.0
    if not np.isfinite(top):
        raise NonFinite("coefficient overflow during elimination")
    if top <= 0.0:
        return grid
    return grid / top


def _mul_beta(grid: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply by a polynomial in the conjugate variable (row-wise convolution)."""
    out = np.zeros((grid.shape[0], grid.shape[1] + b.size - 1), dtype=complex)
    for j in range(grid.shape[0]):
        out[j] = np.convolve(grid[j], b)
    return out


def _shift_alpha(grid: np.ndarray, s: int) -> np.ndarray:
    if s == 0:
        return grid
    pad = np.zeros((s, grid.shape[1]), dtype=complex)
    return np.vstack([pad, grid])


def _sub(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    rows = max(g1.shape[0], g2.shape[0])
    cols = max(g1.shape[1], g2.shape[1])
    out = np.zeros((rows, cols), dtype=complex)
    out[: g1.shape[0], : g1.shape[1]] = g1
    out[: g2.shape[0], : g2.shape[1]] -= g2
    return out


def _scalar_proportional(g1: np.ndarray, g2: np.ndarray) -> bool:
    a, b = _trim(g1), _trim(g2)
    if a.shape != b.shape:
        return False
    i = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(b[i]) <= 0.0:
        return False
    c = a[i] / b[i]
    return np.max(np.abs(a - c * b)) <= 1e-9 * max(np.max(np.abs(a)), np.max(np.abs(c * b)))


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

@dataclass
class BivariatePoly:
    """Polynomial ``sum_jk c[j,k] alpha^j conj(alpha)^k`` with tight degrees."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _trim(np.asarray(self.coeffs, dtype=complex))
        if not np.all(np.isfinite(self.coeffs)):
            raise NonFinite("non-finite coefficients")

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], complex]) -> "BivariatePoly":
        da = max(j for j, _ in terms)
        dc = max(k for _, k in terms)
        grid = np.zeros((da + 1, dc + 1), dtype=complex)
        for (j, k), c in terms.items():
            grid[j, k] = c
        return cls(grid)

    @property
    def deg_alpha(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg_conj(self) -> int:
        return self.coeffs.shape[1] - 1

    def is_zero(self) -> bool:
        return _is_zero(self.coeffs)

    def __call__(self, alpha, conj_val=None):
        if conj_val is None:
            conj_val = np.conj(alpha)
        return npoly.polyval2d(alpha, conj_val, self.coeffs)

    def conjugate(self) -> "BivariatePoly":
        return conjugate_poly(self)

    def diagonal(self) -> "UnivariatePoly":
        """Restriction to conj(alpha) -> alpha (real-line slice)."""
        da, dc = self.deg_alpha, self.deg_conj
        out = np.zeros(da + dc + 1, dtype=complex)
        for j in range(da + 1):
            for k in range(dc + 1):
                out[j + k] += self.coeffs[j, k]
        return UnivariatePoly(out)


@dataclass
class UnivariatePoly:
    """Complex polynomial, coefficients in ascending degree, trimmed."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if not np.all(np.isfinite(c)):
            raise NonFinite("non-finite coefficients")
        top = np.max(np.abs(c)) if c.size else 0.0
        if top <= 0.0:
            c = np.zeros(1, dtype=complex)
        else:
            mask = np.abs(c) > TRIM_REL_TOL * top
            c = np.where(mask, c, 0.0)
            c = c[: np.nonzero(mask)[0][-1] + 1]
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    def __call__(self, alpha):
        return npoly.polyval(alpha, self.coeffs)

    def derivative(self) -> "UnivariatePoly":
        if self.degree == 0:
            return UnivariatePoly(np.zeros(1, dtype=complex))
        return UnivariatePoly(npoly.polyder(self.coeffs))


@dataclass
class RootSet:
    """Verified roots plus bookkeeping about the bound they were tested against."""

    roots: list[complex] = field(default_factory=list)
    bound_used: int | None = None


def conjugate_poly(p: BivariatePoly) -> BivariatePoly:
    """Swap the variable roles with conjugated coefficients.

    The result satisfies ``pbar(a, conj(a)) == conj(p(a, conj(a)))`` for
    every complex a, so the genuine root set is unchanged.
    """
    return BivariatePoly(p.coeffs.conj().T)


def single_elimination_bound(deg_alpha: int, deg_conj: int) -> int:
    """Root-count bound for single-polynomial elimination (larger degree on conj)."""
    x, y = min(deg_alpha, deg_conj), max(deg_alpha, deg_conj)
    return 2 ** max(x - 1, 0) * (x + y * (y - x + 1))


def pair_elimination_bound(deg_alpha: int, deg_conj: int) -> int:
    """Common-root bound for a pair of polynomials of matching degrees."""
    x, y = min(deg_alpha, deg_conj), max(deg_alpha, deg_conj)
    return 2 ** x * y


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------

def _alpha_divisible(grid: np.ndarray) -> bool:
    top = np.max(np.abs(grid))
    return bool(np.all(np.abs(grid[0]) <= TRIM_REL_TOL * top))


def _divide_alpha(grid: np.ndarray) -> np.ndarray:
    return _trim(grid[1:]) if grid.shape[0] > 1 else np.zeros((1, 1), dtype=complex)


def _pair_reduce(f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cross-multiply a pair until one derived polynomial is free of alpha.

    Returns the univariate-in-conjugate grid (single row) and a flag meaning
    "alpha = 0 must be added as a candidate" (set when a common alpha factor
    was divided out).  Raises DegenerateElimination when the pair collapses.
    """
    zero_candidate = False
    f, g = _trim(f), _trim(g)
    for _ in range(200):
        if _is_zero(f) or _is_zero(g):
            raise DegenerateElimination("elimination step produced the zero polynomial")
        if f.shape[0] == 1:
            return f, zero_candidate
        if g.shape[0] == 1:
            return g, zero_candidate
        if _alpha_divisible(f) and _alpha_divisible(g):
            zero_candidate = True
            f, g = _divide_alpha(f), _divide_alpha(g)
            continue
        df, dg = f.shape[0] - 1, g.shape[0] - 1
        if df < dg:
            f, g = g, f
            df, dg = dg, df
        if df > dg:
            derived = _sub(_mul_beta(f, g[dg]), _mul_beta(_shift_alpha(g, df - dg), f[df]))
            derived = _trim(derived)
            if _is_zero(derived):
                if _scalar_proportional(f, _shift_alpha(g, df - dg)):
                    raise DegenerateElimination("pair is proportional up to a power of alpha")
                raise DegenerateElimination("derived polynomial vanished identically")
            f = _normalize(derived)
        else:
            lead = _trim(_sub(_mul_beta(f, g[df]), _mul_beta(g, f[df])))
            trail_raw = _sub(_mul_beta(f, g[0]), _mul_beta(g, f[0]))
            trail = _divide_alpha(trail_raw)
            lead_zero, trail_zero = _is_zero(lead), _is_zero(trail)
            if lead_zero and trail_zero:
                raise DegenerateElimination("pair is proportional; no finite reduction")
            if lead_zero:
                f, g = _normalize(g), _normalize(trail)
            elif trail_zero:
                f, g = _normalize(g), _normalize(lead)
            else:
                f, g = _normalize(lead), _normalize(trail)
    raise DegenerateElimination("pair reduction failed to terminate")


def _finish(univariate_row: np.ndarray, zero_candidate: bool) -> UnivariatePoly:
    """Conjugate the final conjugate-variable polynomial back to alpha."""
    coeffs = np.conj(univariate_row[0])
    if zero_candidate:
        coeffs = np.concatenate([[0.0 + 0.0j], coeffs])
    return UnivariatePoly(coeffs)


def eliminate_single(p: BivariatePoly) -> UnivariatePoly:
    """Reduce one bivariate polynomial to a univariate root superset.

    Pairs the polynomial with its conjugate-swapped twin, lowers the twin's
    alpha degree by repeated cross-multiplication, then reduces the pair.
    Every genuine root of ``p(alpha, conj(alpha)) = 0`` is a root of the
    returned polynomial.

    Raises
    ------
    DegenerateElimination
        If the polynomial equals its conjugate twin up to a scalar and its
        real-line slice vanishes identically (a sign of an infinite root
        family), or a reduction step collapses to zero.
    """
    if p.is_zero():
        raise DegenerateElimination("zero polynomial has an infinite root family")
    work = p if p.deg_conj >= p.deg_alpha else conjugate_poly(p)
    twin = conjugate_poly(work)
    x = work.deg_alpha

    if _scalar_proportional(work.coeffs, twin.coeffs):
        # Self-conjugate input: the twin adds no information.  The genuine
        # equation is a single real condition; the real-line slice still
        # bounds every real root, and an identically-zero slice flags the
        # infinite-family case.
        diag = work.diagonal()
        if diag.is_zero():
            raise DegenerateElimination("self-conjugate polynomial with vanishing real slice")
        return diag

    f = _normalize(work.coeffs.copy())
    g = _normalize(twin.coeffs.copy())
    # stage 1: lower the twin's alpha degree to x using the original
    for _ in range(200):
        g = _trim(g)
        if g.shape[0] - 1 <= x:
            break
        dg = g.shape[0] - 1
        g = _sub(_mul_beta(g, f[x]), _mul_beta(_shift_alpha(f, dg - x), g[dg]))
        g = _trim(g)
        if _is_zero(g):
            raise DegenerateElimination("conjugate twin reduced to zero")
        g = _normalize(g)
    row, zero_candidate = _pair_reduce(f, g)
    return _finish(row, zero_candidate)


def eliminate_pair(p1: BivariatePoly, p2: BivariatePoly) -> UnivariatePoly:
    """Univariate superset of the common genuine roots of two polynomials."""
    if p1.is_zero() or p2.is_zero():
        raise DegenerateElimination("zero polynomial in pair")
    if p1.deg_conj == 0 and p2.deg_conj == 0:
        # both univariate in alpha already; the lower-degree one bounds the
        # common roots and verification applies the other constraint
        low = p1 if p1.deg_alpha <= p2.deg_alpha else p2
        return UnivariatePoly(low.coeffs[:, 0])
    if p1.deg_alpha == 0 and p2.deg_alpha == 0:
        # no alpha dependence: constraints on the conjugate alone
        low = p1 if p1.deg_conj <= p2.deg_conj else p2
        return UnivariatePoly(np.conj(low.coeffs[0]))
    if _scalar_proportional(p1.coeffs, p2.coeffs):
        return eliminate_single(p1)
    if max(p1.deg_conj, p2.deg_conj) < max(p1.deg_alpha, p2.deg_alpha):
        # conjugating both swaps the degree roles without changing the
        # common genuine root set
        p1, p2 = conjugate_poly(p1), conjugate_poly(p2)
    row, zero_candidate = _pair_reduce(p1.coeffs.copy(), p2.coeffs.copy())
    return _finish(row, zero_candidate)


def reduce_univariate_pair(q1: UnivariatePoly, q2: UnivariatePoly) -> UnivariatePoly:
    """One leading-coefficient cross-elimination step on two univariate polys.

    The result has degree strictly below ``max(deg q1, deg q2)`` and keeps
    every common root.  Returns the lower-degree input unchanged when the
    two are proportional.
    """
    a, b = q1.coeffs, q2.coeffs
    if a.size < b.size:
        a, b = b, a
    shifted = np.concatenate([np.zeros(a.size - b.size, dtype=complex), b])
    derived = a * shifted[-1] - shifted * a[-1]
    out = UnivariatePoly(derived)
    if out.is_zero():
        return UnivariatePoly(b)
    top = np.max(np.abs(out.coeffs))
    return UnivariatePoly(out.coeffs / top)


# ---------------------------------------------------------------------------
# univariate roots, polishing and verification
# ---------------------------------------------------------------------------

def univariate_roots(q: UnivariatePoly, tol=None) -> np.ndarray:
    """All complex roots via companion-matrix eigenvalues, Newton-polished."""
    from .matrixcore import ToleranceConfig

    tol = tol or ToleranceConfig()
    c = q.coeffs
    if not np.all(np.isfinite(c)):
        raise NonFinite("non-finite polynomial coefficients")
    if q.degree < 1:
        return np.zeros(0, dtype=complex)
    roots = np.roots(c[::-1])
    dq = q.derivative()
    scale = np.linalg.norm(c)
    for i, r in enumerate(roots):
        roots[i] = _newton_polish(q, dq, r)
    resid = np.abs(q(roots))
    bound = tol.root_residual_tol * (1.0 + np.abs(roots)) ** q.degree * scale
    if np.any(~np.isfinite(roots)):
        raise NonFinite("root finding produced non-finite values")
    if np.any(resid > bound):
        worst = float(np.max(resid / bound))
        logger.debug("root residuals above bound by factor %.3g", worst)
    return roots


def _newton_polish(q: UnivariatePoly, dq: UnivariatePoly, r: complex, steps: int = 6) -> complex:
    best, best_res = r, abs(q(r))
    for _ in range(steps):
        d = dq(r)
        if abs(d) == 0.0:
            break
        step = q(r) / d
        damp = 1.0
        for _ in range(4):
            cand = r - damp * step
            res = abs(q(cand))
            if res < best_res:
                r, best, best_res = cand, cand, res
                break
            damp /= 2
        else:
            break
    return best


# Gauss-Newton polish of candidate roots: steps per candidate and step
# halvings per line search.
POLISH_STEPS = 8
POLISH_HALVINGS = 5


def _stack_grids(grids: list[np.ndarray]) -> np.ndarray:
    """Zero-pad coefficient grids into one ``(A, B, K)`` stack."""
    rows = max(g.shape[0] for g in grids)
    cols = max(g.shape[1] for g in grids)
    out = np.zeros((rows, cols, len(grids)), dtype=grids[0].dtype)
    for k, g in enumerate(grids):
        out[: g.shape[0], : g.shape[1], k] = g
    return out


def _eval_stack(stack: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every grid of an ``(A, B, K)`` stack at the points ``(x[i], y[i])``.

    Horner over the alpha rows, then over the conjugate columns, in the
    order ``polyval2d`` uses; returns shape ``(len(x), K)``.
    """
    v = np.broadcast_to(stack[-1], (x.size,) + stack.shape[1:])
    for row in stack[-2::-1]:
        v = row + v * x[:, None, None]
    w = v[:, -1]
    for j in range(stack.shape[1] - 2, -1, -1):
        w = v[:, j] + w * y[:, None]
    return w


def _polish(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the genuine-root residuals of every point at once.

    ``values`` is the ``(A, B, K)`` stack of the system's grids.  Each point
    takes the least-squares step in (re, im), halved until the residual norm
    drops strictly below its best so far; a point whose step is not finite,
    or that no halving improves, stops there.
    """
    rows, cols, k = values.shape
    d_alpha = np.zeros_like(values)
    d_alpha[:-1] = values[1:] * np.arange(1, rows)[:, None, None]
    d_conj = np.zeros_like(values)
    d_conj[:, :-1] = values[:, 1:] * np.arange(1, cols)[:, None]
    stack = np.concatenate([values, d_alpha, d_conj], axis=2)
    a = points.copy()
    best_res = np.linalg.norm(_eval_stack(values, a, a.conj()), axis=1)
    live = np.arange(a.size)
    damps = 0.5 ** np.arange(POLISH_HALVINGS)
    for _ in range(POLISH_STEPS):
        if live.size == 0:
            break
        x = a[live]
        ev = _eval_stack(stack, x, x.conj())
        r, ja, jb = ev[:, :k], ev[:, k:2 * k], ev[:, 2 * k:]
        # d/dx and d/dy of each complex residual (alpha = x + iy)
        jx = ja + jb
        jy = 1j * (ja - jb)
        m = np.empty((x.size, 2 * k, 2))
        rhs = np.empty((x.size, 2 * k))
        m[:, 0::2, 0], m[:, 0::2, 1] = jx.real, jy.real
        m[:, 1::2, 0], m[:, 1::2, 1] = jx.imag, jy.imag
        rhs[:, 0::2], rhs[:, 1::2] = -r.real, -r.imag
        # lstsq per point, not one batched SVD: on the rank-deficient
        # Jacobians of self-conjugate polynomials the rounding of the
        # minimum-norm step decides where the polish stops on a curve of
        # roots, and a batched solve moved accepted roots there
        step = np.full(x.size, np.nan, dtype=complex)
        for i in range(x.size):
            try:
                delta, *_ = np.linalg.lstsq(m[i], rhs[i], rcond=None)
            except np.linalg.LinAlgError:
                continue
            step[i] = delta[0] + 1j * delta[1]
        finite = np.isfinite(step)
        live, x, step = live[finite], x[finite], step[finite]
        trial = x[:, None] + damps * step[:, None]
        res = np.linalg.norm(_eval_stack(values, trial.ravel(), trial.ravel().conj()),
                             axis=1).reshape(trial.shape)
        better = res < best_res[live, None]
        hit = better.any(axis=1)
        first = better.argmax(axis=1)[hit]
        live = live[hit]
        a[live] = trial[hit, first]
        best_res[live] = res[hit, first]
    return a


def verify_roots(candidates, system: list[BivariatePoly], tol=None,
                 polish: bool = True, bound_used: int | None = None) -> RootSet:
    """Back-substitute candidates into the originating system.

    With ``polish`` every finite candidate is first refined by Gauss-Newton
    on the system's residuals (8 steps, 5 step halvings each).  The K grids
    and their derivative grids are zero-padded into one stack, and each step
    evaluates residuals, Jacobians and all line-search points for every
    candidate at once, by Horner over an array of points; candidates keep
    their own state (current point, best residual, still moving or not) and
    only the 2-unknown least-squares step is solved per candidate.  A
    candidate survives when every polynomial evaluates below the residual
    tolerance, scaled by that polynomial's absolute-coefficient value at
    ``|alpha|``.  Survivors within MERGE_RADIUS of each other are merged and
    the result is sorted by (re, im).

    Array products may round differently from the scalar ones of
    ``polyval2d``, so roots can differ from a one-candidate-at-a-time polish
    in the last bits.
    """
    from .matrixcore import ToleranceConfig

    tol = tol or ToleranceConfig()
    if not system:
        raise ValueError("verify_roots needs a nonempty system")
    points = np.asarray(candidates, dtype=complex).ravel()
    points = points[np.isfinite(points)]
    grids = [p.coeffs for p in system]
    values = _stack_grids(grids)
    if polish:
        points = _polish(points, values)
    resid = np.abs(_eval_stack(values, points, points.conj()))
    mag = np.abs(points)
    scale = np.maximum(1.0, _eval_stack(_stack_grids([np.abs(g) for g in grids]), mag, mag))
    kept = points[np.all(resid <= tol.root_residual_tol * scale, axis=1)]
    merged: list[complex] = []
    for a in sorted(kept.tolist(), key=lambda z: (z.real, z.imag)):
        if merged and abs(a - merged[-1]) <= MERGE_RADIUS:
            continue
        if any(abs(a - m) <= MERGE_RADIUS for m in merged):
            continue
        merged.append(a)
    if bound_used is not None and len(merged) > bound_used:
        logger.debug("verified roots (%d) exceed the nominal bound (%d)",
                     len(merged), bound_used)
    return RootSet(roots=merged, bound_used=bound_used)
