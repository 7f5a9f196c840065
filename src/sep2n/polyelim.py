"""Bivariate polynomials in a complex variable and its conjugate.

A ``BivariatePoly`` stores a coefficient grid ``c[j, k]`` for the monomial
``alpha**j * conj(alpha)**k``.  A genuine root is an ``alpha`` with
``P(alpha, conj(alpha)) == 0``.  Treating the conjugate as an independent
second variable, repeated cross-multiplication of leading/trailing
coefficients eliminates one variable and yields a univariate polynomial
whose root set contains every genuine root; candidates are then filtered by
back-substitution.

All determinant and elimination code lives here, with the determinants of a
paired search's constraints (``_paired_dets``); no search of the library
calls any of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .matrixcore import DEFAULT_TOL, ToleranceConfig

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
    "eliminate_paired",
    "univariate_roots",
    "verify_roots",
    "single_elimination_bound",
    "pair_elimination_bound",
    "MERGE_RADIUS",
]

# Relative threshold below which coefficients are trimmed away.
TRIM_REL_TOL = 1e-12
# Identically-zero threshold for interpolated determinant coefficients
# (complement bases are orthonormal, so coefficients are O(1)).
DET_ZERO_TOL = 1e-10
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
    mags = np.abs(g)
    top = mags.max() if g.size else 0.0
    if not np.isfinite(top):  # a non-finite entry, or a modulus overflowing from finite parts
        raise NonFinite("non-finite coefficients")
    if top <= 0.0:
        return np.zeros((1, 1), dtype=complex)
    mask = mags > TRIM_REL_TOL * top
    rows = np.nonzero(mask.any(axis=1))[0][-1] + 1
    cols = np.nonzero(mask.any(axis=0))[0][-1] + 1
    return np.where(mask[:rows, :cols], g[:rows, :cols], 0.0)


def _is_zero(grid: np.ndarray) -> bool:
    # NaN counts as nonzero and -0.0 as zero, as under ``max|c| <= 0``
    return not grid.any()


def _normalize(grid: np.ndarray) -> np.ndarray:
    top = np.abs(grid).max() if grid.size else 0.0
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
    mags = np.abs(a)
    i = np.unravel_index(mags.argmax(), a.shape)
    if abs(b[i]) <= 0.0:
        return False
    cb = a[i] / b[i] * b
    return np.abs(a - cb).max() <= 1e-9 * max(mags.max(), np.abs(cb).max())


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

@dataclass
class BivariatePoly:
    """Polynomial ``sum_jk c[j,k] alpha^j conj(alpha)^k`` with tight degrees."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _trim(self.coeffs)

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
        self.coeffs = _trim(self.coeffs)[0]  # one row: trailing zeros trimmed

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    def __call__(self, alpha):
        return npoly.polyval(alpha, self.coeffs)


@dataclass
class RootSet:
    """Verified roots of a polynomial system, merged and sorted by (re, im)."""

    roots: list[complex] = field(default_factory=list)


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
    mags = np.abs(grid)
    return bool((mags[0] <= TRIM_REL_TOL * mags.max()).all())


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
# determinants of a paired constraint system and their elimination
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _inv_dft(deg: int) -> tuple[np.ndarray, np.ndarray]:
    """The deg + 1 roots of unity and the inverse of their Vandermonde matrix, read-only."""
    nodes = np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    vand = nodes[:, None] ** np.arange(deg + 1)[None, :]
    inv = vand.conj().T / (deg + 1)
    nodes.flags.writeable = inv.flags.writeable = False
    return nodes, inv


def det_poly_bivariate(rows_alpha: tuple[np.ndarray, np.ndarray],
                       rows_conj: tuple[np.ndarray, np.ndarray]) -> BivariatePoly:
    """Bivariate determinant of a stack of alpha-affine and conjugate-affine rows."""
    da = rows_alpha[0].shape[0]
    db = rows_conj[0].shape[0]
    nodes_a, inv_a = _inv_dft(da)
    nodes_b, inv_b = _inv_dft(db)
    top = nodes_a[:, None, None] * rows_alpha[0] + rows_alpha[1]
    bottom = nodes_b[:, None, None] * rows_conj[0] + rows_conj[1]
    m = np.empty((da + 1, db + 1, da + db, top.shape[2]), dtype=complex)
    m[:, :, :da] = top[:, None]
    m[:, :, da:] = bottom[None]
    return BivariatePoly(inv_a @ np.linalg.det(m) @ inv_b.T)


def _block_rows_independent(ac, bc, probe: complex) -> bool:
    if ac.shape[0] == 0:
        return True
    # one SVD gives both the 2-norm and the rank
    s = np.linalg.svd(probe * ac + bc, compute_uv=False)
    tol = 1e-10 * max(1.0, float(s.max(initial=0)))
    return np.count_nonzero(s > tol) == ac.shape[0]


def _row_selections(r1: int, r2: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    all1 = tuple(range(r1))
    all2 = tuple(range(r2))
    if r1 + r2 == n:
        return [(all1, all2)]
    if r2 >= r1 and r2 <= n:
        return [(c, all2) for c in combinations(all1, n - r2)]
    if r1 > r2 and r1 <= n:
        return [(all1, c) for c in combinations(all2, n - r1)]
    # neither block fits whole: enumerate mixed splits (capped)
    return _mixed_selections(r1, r2, n, cap=100)


def _mixed_selections(r1: int, r2: int, n: int, cap: int | None = None):
    sels = []
    for k1 in range(max(0, n - r2), min(r1, n) + 1):
        for c1 in combinations(range(r1), k1):
            for c2 in combinations(range(r2), n - k1):
                sels.append((c1, c2))
                if len(sels) == cap:
                    return sels
    return sels


def _paired_dets(cs) -> list[BivariatePoly]:
    """The N-row determinant polynomials of a paired system that do not vanish identically."""
    n = cs.n
    ac1, bc1, ac2, bc2 = cs.conj_blocks
    r1, r2 = ac1.shape[0], ac2.shape[0]
    dets: list[BivariatePoly] = []
    if r1 + r2 >= n:
        sels = _row_selections(r1, r2, n)
        # the fixed whole block must stay independent for the shortcut to be
        # exhaustive; fall back to a full mixed enumeration otherwise
        if sels and r1 + r2 > n:
            fixed_conj = all(s[1] == tuple(range(r2)) for s in sels)
            fixed_alpha = all(s[0] == tuple(range(r1)) for s in sels)
            probe = 0.6180339887 + 0.7548776662j
            ok = True
            if fixed_conj and r2:
                ok = _block_rows_independent(ac2, bc2, np.conj(probe))
            elif fixed_alpha and r1:
                ok = _block_rows_independent(ac1, bc1, probe)
            if not ok:
                sels = _mixed_selections(r1, r2, n)
        for sel1, sel2 in sels:
            det = det_poly_bivariate((ac1[list(sel1)], bc1[list(sel1)]),
                                     (ac2[list(sel2)], bc2[list(sel2)]))
            if np.max(np.abs(det.coeffs)) > DET_ZERO_TOL:
                dets.append(det)
    return dets


def eliminate_paired(cs) -> UnivariatePoly | None:
    """Reduce the determinants of a paired search to one univariate polynomial.

    Reads only ``n`` and ``conj_blocks`` of the ``productfinder.ConstraintSystem``
    ``cs``.  Returns None when every determinant vanished identically (rank
    deficiency for all alpha).  Tests check ``productfinder._pencil_roots`` against it.
    """
    dets = _paired_dets(cs)
    if not dets:
        return None
    if len(dets) == 1:
        d = dets[0]
        if d.deg_alpha == 0:
            return UnivariatePoly(np.conj(d.coeffs[0]))
        if d.deg_conj == 0:
            return UnivariatePoly(d.coeffs[:, 0])
        return eliminate_single(d)
    reduced = [eliminate_pair(dets[0], dj) for dj in dets[1:]]
    q = reduced[0]
    for u in reduced[1:]:
        q = reduce_univariate_pair(q, u)
    return q


# ---------------------------------------------------------------------------
# univariate roots and their verification
# ---------------------------------------------------------------------------

def univariate_roots(q: UnivariatePoly) -> np.ndarray:
    """All complex roots, as companion-matrix eigenvalues (``np.roots``).

    The roots are not refined here.  They are only a superset of the
    genuine roots, so each caller refines them once on the system they came
    from: ``verify_roots`` on the determinants, or the fixed-alpha refinement
    of ``productfinder`` on the constraint matrices.
    """
    c = q.coeffs
    if not np.all(np.isfinite(c)):
        raise NonFinite("non-finite polynomial coefficients")
    if q.degree < 1:
        return np.zeros(0, dtype=complex)
    roots = np.roots(c[::-1])
    if np.any(~np.isfinite(roots)):
        raise NonFinite("root finding produced non-finite values")
    return roots


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
    xs, ys = x[:, None, None], y[:, None]
    if stack.shape[0] == 1:
        v = np.broadcast_to(stack[-1], (x.size,) + stack.shape[1:])
    else:
        v = stack[-2] + stack[-1] * xs
    for row in stack[-3::-1]:
        v = row + v * xs
    w = v[:, -1]
    for j in range(stack.shape[1] - 2, -1, -1):
        w = v[:, j] + w * ys
    return w


def _min_norm_steps(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a ``(P, R, 2)`` stack, as ``x + iy``.

    One SVD over the stack; singular values at or below ``eps * max(R, 2)``
    times the largest are dropped, the cutoff of ``lstsq(rcond=None)``.  A
    point with a non-finite entry gets NaN without entering the SVD; every
    point does when the SVD fails.
    """
    step = np.full(m.shape[0], np.nan, dtype=complex)
    ok = np.isfinite(m).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    if not ok.any():
        return step
    try:
        u, s, vt = np.linalg.svd(m[ok], full_matrices=False)
    except np.linalg.LinAlgError:
        return step
    cut = np.finfo(float).eps * max(m.shape[1:]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
    coef = (rhs[ok, None, :] @ u)[:, 0] * inv
    delta = (coef[:, None, :] @ vt)[:, 0]
    step[ok] = delta[:, 0] + 1j * delta[:, 1]
    return step


def _polish(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the genuine-root residuals of every point at once.

    ``values`` is the ``(A, B, K)`` stack of the system's grids.  Each point
    takes the minimum-norm least-squares step in (re, im), from one SVD of
    the Jacobians of every moving point (``_min_norm_steps``), halved until
    the residual norm drops strictly below its best so far; a point whose
    step is not finite, or that no halving improves, stops there.
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
        step = _min_norm_steps(m, rhs)
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


def verify_roots(candidates, system: list[BivariatePoly],
                 tol: ToleranceConfig | None = None) -> RootSet:
    """Polish candidates on the originating system and keep its genuine roots.

    The candidates are usually the unrefined companion roots of the
    eliminated polynomial (``univariate_roots``).  Every finite one is first
    refined by Gauss-Newton on the system's residuals (8 steps, 5 step
    halvings each).  The K grids and
    their derivative grids are zero-padded into one stack, and each step
    evaluates residuals, Jacobians and all line-search points for every
    candidate at once, by Horner over an array of points, and solves every
    candidate's 2-unknown least-squares step with one stacked SVD that drops
    singular values at or below ``eps * max(2K, 2)`` times the largest, as
    ``lstsq(rcond=None)`` does.  Candidates keep their own state (current
    point, best residual, still moving or not).  A candidate survives when
    every polynomial evaluates below the residual tolerance, scaled by that
    polynomial's absolute-coefficient value at ``|alpha|``.  Survivors within
    MERGE_RADIUS of each other are merged and the result is sorted by
    (re, im).

    Array products may round differently from the scalar ones of
    ``polyval2d``, so roots can differ from a one-candidate-at-a-time polish
    in the last bits.  On the rank-one Jacobians of a self-conjugate system
    rounding decides whether the second singular value is kept, so there a
    root can move along its curve of roots and the accepted set can change.
    """
    tol = tol or DEFAULT_TOL
    if not system:
        raise ValueError("verify_roots needs a nonempty system")
    points = np.asarray(candidates, dtype=complex).ravel()
    points = points[np.isfinite(points)]
    grids = [p.coeffs for p in system]
    values = _stack_grids(grids)
    points = _polish(points, values)
    resid = np.abs(_eval_stack(values, points, points.conj()))
    mag = np.abs(points)
    scale = np.maximum(1.0, _eval_stack(_stack_grids([np.abs(g) for g in grids]), mag, mag))
    kept = points[np.all(resid <= tol.root_residual_tol * scale, axis=1)]
    merged: list[complex] = []
    for a in sorted(kept.tolist(), key=lambda z: (z.real, z.imag)):
        if any(abs(a - m) <= MERGE_RADIUS for m in merged):
            continue
        merged.append(a)
    return RootSet(roots=merged)
