"""Locating product vectors inside subspaces of C2 x CN.

A product vector ``(alpha|0> + |1>) (x) f`` lies in a subspace H exactly
when ``(alpha A* + B*) f = 0``, where the rows of A and B collect the
components of an orthonormal basis of the orthogonal complement of H.  The
paired search additionally constrains the conjugate partner ``|e*, f>`` to a
second subspace, which brings in the conjugate variable and leads to the
bivariate determinant systems handled by :mod:`sep2n.polyelim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .matrixcore import ToleranceConfig, numerical_rank_kernel
from .polyelim import (
    BivariatePoly,
    DegenerateElimination,
    UnivariatePoly,
    eliminate_pair,
    eliminate_single,
    pair_elimination_bound,
    reduce_univariate_pair,
    single_elimination_bound,
    univariate_roots,
    verify_roots,
)

__all__ = [
    "ProductVector",
    "InfiniteFamily",
    "ConstraintSystem",
    "NonGenericInput",
    "products_in_subspace",
    "paired_products",
    "real_e_products",
    "kernel_product_vector",
    "kernel_contractions_independent",
    "build_paired_system",
    "eliminate_paired",
]


class NonGenericInput(Exception):
    """The instance violates the genericity the finite enumeration relies on."""


# Deterministic sample parameters used when a search hits an infinite family:
# four fixed complex values and four real ones, plus the e = |0> chart.
SAMPLE_COMPLEX_ALPHAS = (0.437 + 0.821j, -1.133 + 0.294j, 0.512 - 0.668j, -0.274 - 1.147j)
SAMPLE_REAL_ALPHAS = (0.0, 1.0, -1.0, 0.5)
REAL_ALPHA_GRID = (0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0 / 3.0)

# Identically-zero threshold for interpolated determinant coefficients
# (complement bases are orthonormal, so coefficients are O(1)).
DET_ZERO_TOL = 1e-10
# Relative smallest-singular-value threshold accepting a rank drop at a root.
NULL_ACCEPT = 1e-6


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero vector")
    v = v / nrm
    i = int(np.argmax(np.abs(v)))
    phase = v[i] / abs(v[i])
    return v / phase


@dataclass(frozen=True, eq=False)
class ProductVector:
    """Pair (e in C2, f in CN), stored unit-normalized with fixed phases.

    ``alpha`` parametrizes ``e = (alpha|0> + |1>)/norm``; ``None`` marks the
    chart point e = |0> that the affine parametrization misses.
    """

    e: np.ndarray
    f: np.ndarray
    alpha: complex | None

    @classmethod
    def from_alpha(cls, alpha: complex | None, f) -> "ProductVector":
        if alpha is None:
            e = np.array([1.0, 0.0], dtype=complex)
        else:
            e = _phase_normalize(np.array([alpha, 1.0], dtype=complex))
        return cls(e=e, f=_phase_normalize(f), alpha=alpha)

    @classmethod
    def from_e_f(cls, e, f) -> "ProductVector":
        e = _phase_normalize(e)
        if abs(e[1]) <= 1e-12:
            alpha = None
        else:
            alpha = complex(e[0] / e[1])
        return cls(e=e, f=_phase_normalize(f), alpha=alpha)

    @property
    def vector(self) -> np.ndarray:
        return np.kron(self.e, self.f)

    @property
    def conjugate_partner(self) -> "ProductVector":
        alpha = None if self.alpha is None else np.conj(self.alpha)
        return ProductVector(e=np.conj(self.e), f=self.f, alpha=alpha)

    def projector(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())

    def __repr__(self):
        a = "inf" if self.alpha is None else f"{self.alpha:.6g}"
        return f"ProductVector(alpha={a}, n={self.f.size})"


@dataclass
class InfiniteFamily:
    """Marker for an infinite product-vector family, with a finite sample."""

    samples: list[ProductVector] = field(default_factory=list)
    note: str = ""


@dataclass
class ConstraintSystem:
    """Orthocomplement blocks of a paired search plus its determinant polynomials."""

    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    n: int
    m1: int
    m2: int
    dets: list[BivariatePoly]
    selections: list[tuple[tuple[int, ...], tuple[int, ...]]]

    @property
    def rows1(self) -> int:
        return self.a1.shape[0]

    @property
    def rows2(self) -> int:
        return self.a2.shape[0]

    def stacked(self, alpha: complex) -> np.ndarray:
        top = alpha * np.conj(self.a1) + np.conj(self.b1)
        bottom = np.conj(alpha) * np.conj(self.a2) + np.conj(self.b2)
        return np.vstack([top, bottom])


# ---------------------------------------------------------------------------
# subspace plumbing
# ---------------------------------------------------------------------------

def _orthonormalize(h) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError("subspace basis must be a 2-D array of column vectors")
    return numerical_rank_kernel(h).range_basis


def orthonormal_complement(h: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of span(h)."""
    if h.shape[1] == 0:
        return np.eye(h.shape[0], dtype=complex)
    return numerical_rank_kernel(h.conj().T).kernel_basis


def _blocks(comp: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows A[i] and B[i] of each complement vector split by the qubit index."""
    return comp[:n, :].T.copy(), comp[n:, :].T.copy()


def _membership_residual(h: np.ndarray, v: np.ndarray) -> float:
    return float(np.linalg.norm(v - h @ (h.conj().T @ v)))


def _membership_tol(tol: ToleranceConfig) -> float:
    return 10.0 * tol.root_residual_tol


def _smallest_null_vector(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right singular vector of the smallest singular value, plus all sigmas."""
    _u, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[-1].conj(), s


def _sort_key(v: ProductVector):
    if v.alpha is None:
        return (1, 0.0, 0.0)
    return (0, v.alpha.real, v.alpha.imag)


# ---------------------------------------------------------------------------
# determinant-polynomial extraction by interpolation
# ---------------------------------------------------------------------------

def _inv_dft(deg: int) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    vand = nodes[:, None] ** np.arange(deg + 1)[None, :]
    return nodes, vand.conj().T / (deg + 1)


def det_poly_univariate(ac: np.ndarray, bc: np.ndarray) -> UnivariatePoly:
    """Coefficients of det(alpha*ac + bc) from evaluations at roots of unity."""
    n = ac.shape[0]
    nodes, inv = _inv_dft(n)
    vals = np.array([np.linalg.det(x * ac + bc) for x in nodes])
    return UnivariatePoly(inv @ vals)


def det_poly_bivariate(rows_alpha: tuple[np.ndarray, np.ndarray],
                       rows_conj: tuple[np.ndarray, np.ndarray]) -> BivariatePoly:
    """Bivariate determinant of a stack of alpha-affine and conjugate-affine rows."""
    da = rows_alpha[0].shape[0]
    db = rows_conj[0].shape[0]
    nodes_a, inv_a = _inv_dft(da)
    nodes_b, inv_b = _inv_dft(db)
    grid = np.zeros((da + 1, db + 1), dtype=complex)
    for i, x in enumerate(nodes_a):
        for j, y in enumerate(nodes_b):
            m = np.vstack([x * rows_alpha[0] + rows_alpha[1],
                           y * rows_conj[0] + rows_conj[1]])
            grid[i, j] = np.linalg.det(m)
    return BivariatePoly(inv_a @ grid @ inv_b.T)


# ---------------------------------------------------------------------------
# single-subspace search
# ---------------------------------------------------------------------------

def _family_samples_single(ac: np.ndarray, bc: np.ndarray, h: np.ndarray,
                           n: int, tol: ToleranceConfig) -> list[ProductVector]:
    samples = []
    for alpha in SAMPLE_COMPLEX_ALPHAS + SAMPLE_REAL_ALPHAS:
        v = _solve_f_single(ac, bc, alpha, n)
        if v is not None and _membership_residual(h, v.vector) <= _membership_tol(tol):
            samples.append(v)
    inf_v = _alpha_infinity_single(ac, n, tol)
    if inf_v is not None and _membership_residual(h, inf_v.vector) <= _membership_tol(tol):
        samples.append(inf_v)
    return samples


def _null_scale(s: np.ndarray, alpha: complex) -> float:
    # constraint rows come from orthonormal complements, so the matrix scale
    # is O(1 + |alpha|); anchoring there keeps the test meaningful when the
    # whole matrix nearly vanishes (e.g. at repeated roots)
    top = float(s[0]) if s.size else 0.0
    return max(top, 1.0 + abs(alpha))


def _refine_alpha_f(ac1, bc1, ac2, bc2, alpha: complex, rounds: int = 3):
    """Alternate between the best alpha for f and the best f for alpha.

    The joint least-squares alpha given f is closed-form; this repairs the
    sqrt-of-epsilon splitting that companion eigenvalues suffer at repeated
    roots.
    """
    f = None
    for _ in range(rounds):
        m = np.vstack([alpha * ac1 + bc1, np.conj(alpha) * ac2 + bc2])
        f, _s = _smallest_null_vector(m)
        x1, y1 = ac1 @ f, bc1 @ f
        x2, y2 = ac2 @ f, bc2 @ f
        denom = float(np.real(np.vdot(x1, x1) + np.vdot(x2, x2)))
        if denom <= 1e-14:
            break
        alpha = complex(-(np.vdot(x1, y1) + np.conj(np.vdot(x2, y2))) / denom)
    return alpha, f


def _solve_f_single(ac, bc, alpha, n) -> ProductVector | None:
    m = alpha * ac + bc
    if m.shape[0] == 0:
        f = np.zeros(n, dtype=complex)
        f[0] = 1.0
        return ProductVector.from_alpha(alpha, f)
    f, s = _smallest_null_vector(m)
    if s.size and m.shape[0] >= n and s[min(n, s.size) - 1] > NULL_ACCEPT * _null_scale(s, alpha):
        return None
    return ProductVector.from_alpha(alpha, f)


def _alpha_infinity_single(ac, n, tol) -> ProductVector | None:
    if ac.shape[0] == 0:
        f = np.zeros(n, dtype=complex)
        f[0] = 1.0
        return ProductVector.from_alpha(None, f)
    info = numerical_rank_kernel(ac, tol)
    if info.kernel_basis.shape[1] == 0:
        return None
    return ProductVector.from_alpha(None, info.kernel_basis[:, 0])


def products_in_subspace(h, tol: ToleranceConfig | None = None):
    """All product vectors in a subspace, or an InfiniteFamily marker.

    For dim(H) > N every e admits a matching f (infinite family, sampled);
    for dim(H) = N the determinant of the constraint matrix is a degree-N
    polynomial whose roots give the finitely many solutions; below N the
    system is overdetermined and the verified solution set may be empty.
    """
    tol = tol or ToleranceConfig()
    h = _orthonormalize(h)
    two_n, m = h.shape
    n = two_n // 2
    if m == 0:
        return []
    comp = orthonormal_complement(h)
    a, b = _blocks(comp, n)
    ac, bc = np.conj(a), np.conj(b)

    if m > n:
        return InfiniteFamily(samples=_family_samples_single(ac, bc, h, n, tol),
                              note="subspace dimension exceeds N")

    if m == n:
        det = det_poly_univariate(ac, bc)
        if np.max(np.abs(det.coeffs)) <= DET_ZERO_TOL:
            return InfiniteFamily(samples=_family_samples_single(ac, bc, h, n, tol),
                                  note="determinant vanishes identically")
        candidates = list(univariate_roots(det, tol)) if det.degree >= 1 else []
        found = _collect_single(candidates, ac, bc, h, n, tol)
        inf_v = _alpha_infinity_single(ac, n, tol)
        if inf_v is not None and _membership_residual(h, inf_v.vector) <= _membership_tol(tol):
            found.append(inf_v)
        return sorted(found, key=_sort_key)

    # m < n: overdetermined; candidates from the first non-degenerate
    # N-row determinant, verified against the full stack
    rows = ac.shape[0]
    candidates: list[complex] = []
    for sel in combinations(range(rows), n):
        det = det_poly_univariate(ac[list(sel)], bc[list(sel)])
        if np.max(np.abs(det.coeffs)) <= DET_ZERO_TOL:
            continue
        if det.degree >= 1:
            candidates = list(univariate_roots(det, tol))
        break
    found = _collect_single(candidates, ac, bc, h, n, tol)
    if np.linalg.matrix_rank(ac) < n:
        inf_v = _alpha_infinity_single(ac, n, tol)
        if inf_v is not None and _membership_residual(h, inf_v.vector) <= _membership_tol(tol):
            found.append(inf_v)
    return sorted(found, key=_sort_key)


def _collect_single(candidates, ac, bc, h, n, tol) -> list[ProductVector]:
    found = []
    seen: list[complex] = []
    empty = np.zeros((0, n), dtype=complex)
    for alpha in candidates:
        alpha = complex(alpha)
        if any(abs(alpha - s) <= 1e-6 for s in seen):
            continue
        alpha, f = _refine_alpha_f(ac, bc, empty, empty, alpha)
        if f is None or any(abs(alpha - s) <= 1e-6 for s in seen):
            continue
        m = alpha * ac + bc
        s = np.linalg.svd(m, compute_uv=False)
        if m.shape[0] >= n and s[min(n, s.size) - 1] > NULL_ACCEPT * _null_scale(s, alpha):
            continue
        v = ProductVector.from_alpha(alpha, f)
        if _membership_residual(h, v.vector) <= _membership_tol(tol):
            found.append(v)
            seen.append(alpha)
    return found


# ---------------------------------------------------------------------------
# paired search
# ---------------------------------------------------------------------------

def _block_rows_independent(ac, bc, probe: complex) -> bool:
    if ac.shape[0] == 0:
        return True
    m = probe * ac + bc
    return np.linalg.matrix_rank(m, tol=1e-10 * max(1.0, float(np.linalg.norm(m, 2)))) == ac.shape[0]


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
    sels = []
    for k1 in range(max(0, n - r2), min(r1, n) + 1):
        for c1 in combinations(all1, k1):
            for c2 in combinations(all2, n - k1):
                sels.append((c1, c2))
                if len(sels) >= 100:
                    return sels
    return sels


def build_paired_system(h1, h2, tol: ToleranceConfig | None = None) -> ConstraintSystem:
    """Constraint blocks and determinant polynomials for the paired search."""
    tol = tol or ToleranceConfig()
    h1 = _orthonormalize(h1)
    h2 = _orthonormalize(h2)
    if h1.shape[0] != h2.shape[0]:
        raise ValueError("subspaces live in different ambient spaces")
    n = h1.shape[0] // 2
    m1, m2 = h1.shape[1], h2.shape[1]
    comp1 = orthonormal_complement(h1)
    comp2 = orthonormal_complement(h2)
    a1, b1 = _blocks(comp1, n)
    a2, b2 = _blocks(comp2, n)
    r1, r2 = a1.shape[0], a2.shape[0]

    dets: list[BivariatePoly] = []
    selections: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if r1 + r2 >= n:
        ac1, bc1 = np.conj(a1), np.conj(b1)
        ac2, bc2 = np.conj(a2), np.conj(b2)
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
                sels = []
                for k1 in range(max(0, n - r2), min(r1, n) + 1):
                    for c1 in combinations(range(r1), k1):
                        for c2 in combinations(range(r2), n - k1):
                            sels.append((c1, c2))
        for sel1, sel2 in sels:
            det = det_poly_bivariate((ac1[list(sel1)], bc1[list(sel1)]),
                                     (ac2[list(sel2)], bc2[list(sel2)]))
            if np.max(np.abs(det.coeffs)) <= DET_ZERO_TOL:
                continue
            dets.append(det)
            selections.append((sel1, sel2))
    return ConstraintSystem(a1=a1, b1=b1, a2=a2, b2=b2, n=n, m1=m1, m2=m2,
                            dets=dets, selections=selections)


def eliminate_paired(cs: ConstraintSystem, tol: ToleranceConfig | None = None):
    """Reduce the determinant system to one univariate polynomial.

    Returns ``(poly, diagnostics)``; the polynomial is None when every
    determinant vanished identically (rank deficiency for all alpha).
    """
    tol = tol or ToleranceConfig()
    if not cs.dets:
        return None, {"all_determinants_zero": True, "final_degree": None, "bound": None}
    det_degrees = [(d.deg_alpha, d.deg_conj) for d in cs.dets]
    if len(cs.dets) == 1:
        d = cs.dets[0]
        x, y = d.deg_alpha, d.deg_conj
        if x == 0:
            q = UnivariatePoly(np.conj(d.coeffs[0]))
            bound = y
        elif y == 0:
            q = UnivariatePoly(d.coeffs[:, 0])
            bound = x
        else:
            q = eliminate_single(d)
            bound = single_elimination_bound(x, y)
    else:
        base = cs.dets[0]
        reduced = [eliminate_pair(base, dj) for dj in cs.dets[1:]]
        q = reduced[0]
        for u in reduced[1:]:
            q = reduce_univariate_pair(q, u)
        x = max(min(dd) for dd in det_degrees)
        y = max(max(dd) for dd in det_degrees)
        bound = max(1, pair_elimination_bound(x, y) - (len(cs.dets) - 2))
    return q, {"all_determinants_zero": False,
               "final_degree": q.degree,
               "det_degrees": det_degrees,
               "bound": bound}


def _family_samples_paired(cs: ConstraintSystem, h1, h2, tol) -> list[ProductVector]:
    samples = []
    for alpha in SAMPLE_COMPLEX_ALPHAS + SAMPLE_REAL_ALPHAS:
        m = cs.stacked(alpha)
        if m.shape[0] == 0:
            f = np.zeros(cs.n, dtype=complex)
            f[0] = 1.0
            v = ProductVector.from_alpha(alpha, f)
        else:
            f, _ = _smallest_null_vector(m)
            v = ProductVector.from_alpha(alpha, f)
        if (_membership_residual(h1, v.vector) <= _membership_tol(tol)
                and _membership_residual(h2, v.conjugate_partner.vector) <= _membership_tol(tol)):
            samples.append(v)
    return samples


def _alpha_infinity_paired(cs: ConstraintSystem, tol) -> ProductVector | None:
    stack = np.vstack([np.conj(cs.a1), np.conj(cs.a2)])
    if stack.shape[0] == 0:
        f = np.zeros(cs.n, dtype=complex)
        f[0] = 1.0
        return ProductVector.from_alpha(None, f)
    info = numerical_rank_kernel(stack, tol)
    null_dim = info.kernel_basis.shape[1]
    if null_dim == 0:
        return None
    if null_dim > 1:
        raise NonGenericInput("alpha-infinity solution space has dimension > 1")
    return ProductVector.from_alpha(None, info.kernel_basis[:, 0])


def paired_products(h1, h2, tol: ToleranceConfig | None = None):
    """Product vectors with |e,f> in H1 and the conjugate partner in H2.

    Returns an InfiniteFamily (with deterministic samples) when the
    dimension count guarantees solutions for every e, otherwise the finite
    verified list sorted by alpha.

    Raises
    ------
    NonGenericInput
        When the elimination degenerates or a root carries a solution space
        of dimension > 1, i.e. the instance is outside the generic case.
    """
    tol = tol or ToleranceConfig()
    h1 = _orthonormalize(h1)
    h2 = _orthonormalize(h2)
    n = h1.shape[0] // 2
    cs = build_paired_system(h1, h2, tol)
    if cs.m1 + cs.m2 > 3 * n:
        return InfiniteFamily(samples=_family_samples_paired(cs, h1, h2, tol),
                              note="dimension count exceeds 3N")
    if not cs.dets:
        return InfiniteFamily(samples=_family_samples_paired(cs, h1, h2, tol),
                              note="all determinants vanish identically")
    try:
        q, diag = eliminate_paired(cs, tol)
    except DegenerateElimination as exc:
        raise NonGenericInput(f"degenerate elimination: {exc}") from exc
    candidates = list(univariate_roots(q, tol)) if q.degree >= 1 else []
    rootset = verify_roots(candidates, cs.dets, tol, bound_used=diag.get("bound"))

    found: list[ProductVector] = []
    for alpha in rootset.roots:
        v = _vector_at_root(cs, alpha, tol)
        if v is None:
            continue
        if (_membership_residual(h1, v.vector) <= _membership_tol(tol)
                and _membership_residual(h2, v.conjugate_partner.vector) <= _membership_tol(tol)):
            found.append(v)
    inf_v = _alpha_infinity_paired(cs, tol)
    if inf_v is not None:
        if (_membership_residual(h1, inf_v.vector) <= _membership_tol(tol)
                and _membership_residual(h2, inf_v.conjugate_partner.vector) <= _membership_tol(tol)):
            found.append(inf_v)
    return sorted(found, key=_sort_key)


def _vector_at_root(cs: ConstraintSystem, alpha: complex, tol) -> ProductVector | None:
    alpha, f = _refine_alpha_f(np.conj(cs.a1), np.conj(cs.b1),
                               np.conj(cs.a2), np.conj(cs.b2), alpha)
    if f is None:
        return None
    m = cs.stacked(alpha)
    s = np.linalg.svd(m, compute_uv=False)
    scale = _null_scale(s, alpha)
    sigmas = np.concatenate([s, np.zeros(max(0, cs.n - s.size))])
    if sigmas[cs.n - 1] > NULL_ACCEPT * scale:
        return None
    if cs.n >= 2 and sigmas[cs.n - 2] <= NULL_ACCEPT * scale:
        raise NonGenericInput(
            f"solution space at alpha={alpha:.6g} has dimension > 1")
    return ProductVector.from_alpha(alpha, f)


# ---------------------------------------------------------------------------
# real-e and kernel searches
# ---------------------------------------------------------------------------

def real_e_products(h, tol: ToleranceConfig | None = None) -> list[ProductVector]:
    """Product vectors with real e inside a subspace of dimension > N.

    For each real alpha the constraint rows number fewer than N, so a
    nontrivial f always exists; the result is never empty.
    """
    tol = tol or ToleranceConfig()
    h = _orthonormalize(h)
    two_n, m = h.shape
    n = two_n // 2
    if m <= n:
        raise ValueError(f"real-e search needs dim(H) > N, got dim {m} with N={n}")
    comp = orthonormal_complement(h)
    a, b = _blocks(comp, n)
    ac, bc = np.conj(a), np.conj(b)
    found = []
    for alpha in REAL_ALPHA_GRID:
        v = _solve_f_single(ac, bc, alpha, n)
        if v is not None and _membership_residual(h, v.vector) <= _membership_tol(tol):
            found.append(v)
    inf_v = _alpha_infinity_single(ac, n, tol)
    if inf_v is not None and _membership_residual(h, inf_v.vector) <= _membership_tol(tol):
        found.append(inf_v)
    return found


def kernel_product_vector(state, tol: ToleranceConfig | None = None) -> ProductVector | None:
    """First product vector found in the kernel of a PPT state, if any.

    Guaranteed to exist when the kernel dimension reaches N.  Any returned
    vector is cross-checked to be annihilated by the partial transpose via
    its conjugate partner.
    """
    tol = tol or state.tol
    kernel = state.kernel_basis
    if kernel.shape[1] == 0:
        return None
    res = products_in_subspace(kernel, tol)
    if isinstance(res, InfiniteFamily):
        vectors = res.samples
    else:
        vectors = res
    pt_norm = max(state.norm, 1e-300)
    for v in vectors:
        partner = v.conjugate_partner.vector
        if np.linalg.norm(state.pt_matrix @ partner) <= 1e-6 * pt_norm:
            return v
    return None


def kernel_contractions_independent(state, e) -> bool:
    """Check that the qubit contractions of the kernel basis stay independent.

    Contracting each kernel vector with a fixed e in C2 yields k(rho)
    vectors in CN; their independence (for every e) is what licenses fixing
    a whole constraint block during the paired search.  Vacuously true for
    trivial kernels.
    """
    kernel = state.kernel_basis
    k = kernel.shape[1]
    if k == 0:
        return True
    e = np.asarray(e, dtype=complex)
    e = e / np.linalg.norm(e)
    n = state.n
    contracted = np.conj(e[0]) * kernel[:n, :] + np.conj(e[1]) * kernel[n:, :]
    # kernel columns are orthonormal and e is unit, so the singular values
    # live on an O(1) scale; a relative cutoff would misread a near-zero
    # contraction as full rank
    s = np.linalg.svd(contracted, compute_uv=False)
    return int(np.count_nonzero(s > state.tol.rank_rel_tol * max(1.0, float(s[0])))) == k
