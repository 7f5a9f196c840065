"""Locating product vectors inside subspaces of C2 x CN.

A product vector ``(alpha|0> + |1>) (x) f`` lies in a subspace H exactly
when ``(alpha A* + B*) f = 0``, where the rows of A and B collect the
components of an orthonormal basis of the orthogonal complement of H.  The
paired search additionally constrains the conjugate partner ``|e*, f>`` to a
second subspace, which brings in the conjugate variable and leads to the
bivariate determinant systems handled by :mod:`sep2n.polyelim`.

Candidates are screened as stacks, and each stacked numpy form used here
gives the bits of the single-vector call it replaces: a mat-vec as a matmul
with a unit column (``M @ V[:, :, None]``), row norms and ``np.vdot``s as
``(K, 1, d) @ (K, d, 1)`` matmuls, and plain elementwise broadcasting;
``einsum`` row norms and gemm mat-vecs (``M @ V.T``) do not, nor does
array complex division against numpy's scalar one, so phases are taken
one scalar at a time.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .matrixcore import DEFAULT_TOL, ToleranceConfig, numerical_rank_kernel
from .polyelim import (
    MERGE_RADIUS,
    BivariatePoly,
    DegenerateElimination,
    UnivariatePoly,
    _scalar_proportional,
    conjugate_poly,
    eliminate_pair,
    eliminate_single,
    reduce_univariate_pair,
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
    "kernel_product_vectors",
    "build_paired_system",
    "eliminate_paired",
]


class NonGenericInput(Exception):
    """The instance violates the genericity the finite enumeration relies on."""


# Deterministic sample parameters used when a search hits an infinite family:
# four fixed complex values and four real ones.
SAMPLE_ALPHAS = (0.437 + 0.821j, -1.133 + 0.294j, 0.512 - 0.668j, -0.274 - 1.147j,
                 0.0, 1.0, -1.0, 0.5)
REAL_ALPHA_GRID = (0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0 / 3.0)

# Identically-zero threshold for interpolated determinant coefficients
# (complement bases are orthonormal, so coefficients are O(1)).
DET_ZERO_TOL = 1e-10
# Relative smallest-singular-value threshold accepting a rank drop at a root.
NULL_ACCEPT = 1e-6
# Relative residual under which the partial transpose annihilates a kernel vector's
# partner; as loose as NULL_ACCEPT, the rank-drop test that accepted the vector.
KERNEL_PARTNER_REL_TOL = 1e-6
# Alternation rounds of the fixed-alpha refinement (``_refine_alpha_f``).
REFINE_ROUNDS = 3


# Modulus of the second entry of a unit e at or below which e is the chart
# point e = |0>, alpha = infinity.
CHART_INFINITY_TOL = 1e-12


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a (K, d) stack, to the bit."""
    re, im = x.real, x.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.vdot`` of each pair of (K, r, 1) column stacks, shape (K,)."""
    return (x.conj().swapaxes(1, 2) @ y)[:, 0, 0]


def _phase_normalize(rows) -> np.ndarray:
    """Each row of a (K, d) stack unit-normalized, its largest entry made real positive."""
    v = np.ascontiguousarray(rows, dtype=complex)
    nrm = _row_norms(v)
    if np.any(nrm == 0):
        raise ValueError("zero vector")
    v = v / nrm[:, None]
    # numpy's scalar complex division rounds unlike its array division
    phases = np.array([row[i] / abs(row[i]) for row, i in zip(v, np.argmax(np.abs(v), axis=1))],
                      dtype=complex)
    return v / phases[:, None]


def _kron_rows(es: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """``np.kron(e, f)`` of each pair of rows, without its reshaping overhead."""
    return (es[:, :, None] * fs[:, None, :]).reshape(len(es), es.shape[1] * fs.shape[1])


def _partner_rows(es: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """The stack of the partners |e*, f> of rows of e and f."""
    return _kron_rows(np.conj(es), fs)


def _assemble(es: np.ndarray, fs: np.ndarray, alphas) -> tuple[list["ProductVector"], np.ndarray]:
    """ProductVectors from normalized rows of e and f, and the stack of their vectors.

    The vectors' e, f and vector are rows of shared stacks, so all are read-only.
    """
    vecs = _kron_rows(es, fs)
    for stack in (es, fs, vecs):
        stack.flags.writeable = False
    return [ProductVector(e, f, a, v) for e, f, a, v in zip(es, fs, alphas, vecs)], vecs


def _products_at(alphas, fs) -> tuple[list["ProductVector"], np.ndarray, np.ndarray]:
    """Product vectors at K >= 1 rows of (alpha, f), with the stacks of vectors and partners."""
    es = np.array([[1.0, 0.0] if a is None else [a, 1.0] for a in alphas], dtype=complex)
    finite = [k for k, a in enumerate(alphas) if a is not None]
    es[finite] = _phase_normalize(es[finite])
    fs = _phase_normalize(fs)
    vectors, vecs = _assemble(es, fs, alphas)
    return vectors, vecs, _partner_rows(es, fs)


def products_of(es, fs) -> list["ProductVector"]:
    """The product vectors of rows of e and f, normalized with fixed phases."""
    es, fs = _phase_normalize(es), _phase_normalize(fs)
    alphas = [None if abs(e[1]) <= CHART_INFINITY_TOL else complex(e[0] / e[1]) for e in es]
    return _assemble(es, fs, alphas)[0]


def vector_stacks(vectors) -> tuple[np.ndarray, np.ndarray]:
    """The (K, 2N) stacks of |e,f> and of the partners |e*,f> of K >= 1 product vectors."""
    es = np.array([v.e for v in vectors])
    fs = np.array([v.f for v in vectors])
    return np.array([v.vector for v in vectors]), _partner_rows(es, fs)


@dataclass(frozen=True, eq=False)
class ProductVector:
    """Pair (e in C2, f in CN), stored unit-normalized with fixed phases.

    ``alpha`` parametrizes ``e = (alpha|0> + |1>)/norm``; ``None`` marks the
    chart point e = |0> that the affine parametrization misses.  The
    read-only ``vector`` e (x) f is built at construction unless given; the
    ``conjugate_partner`` is built once, on first read.
    """

    e: np.ndarray
    f: np.ndarray
    alpha: complex | None
    vector: InitVar[np.ndarray | None] = None

    def __post_init__(self, vector):
        if vector is None:
            vector = (self.e[:, None] * self.f[None, :]).ravel()
            vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "_partner", None)

    @classmethod
    def from_alpha(cls, alpha: complex | None, f) -> "ProductVector":
        return _products_at([alpha], [f])[0][0]

    @classmethod
    def from_e_f(cls, e, f) -> "ProductVector":
        return products_of([e], [f])[0]

    @property
    def conjugate_partner(self) -> "ProductVector":
        if self._partner is None:
            alpha = None if self.alpha is None else np.conj(self.alpha)
            object.__setattr__(self, "_partner", ProductVector(np.conj(self.e), self.f, alpha))
        return self._partner

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
    """Orthocomplement blocks of a paired search plus its determinant polynomials.

    A single-subspace search is the system whose partner block is empty.
    """

    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    n: int
    m1: int
    m2: int
    dets: list[BivariatePoly]

    def __post_init__(self):
        # the constraint rows at alpha are alpha * A* + B*
        self.conj_blocks = tuple(np.conj(x) for x in (self.a1, self.b1, self.a2, self.b2))

    def stacked(self, alphas: np.ndarray, conj_alphas: np.ndarray | None = None) -> np.ndarray:
        """The (K, rows, N) stack of constraint matrices; conj_alphas defaults to conj(alphas)."""
        ac1, bc1, ac2, bc2 = self.conj_blocks
        top = alphas[:, None, None] * ac1 + bc1
        if not ac2.shape[0]:
            return top
        conj = np.conj(alphas) if conj_alphas is None else conj_alphas
        return np.concatenate([top, conj[:, None, None] * ac2 + bc2], axis=1)


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


def _single_system(h: np.ndarray, n: int) -> ConstraintSystem:
    """Constraints of |e,f> in H alone: a paired system with no partner rows."""
    a, b = _blocks(orthonormal_complement(h), n)
    empty = np.zeros((0, n), dtype=complex)
    return ConstraintSystem(a1=a, b1=b, a2=empty, b2=empty, n=n, m1=h.shape[1], m2=2 * n,
                            dets=[])


def in_range(basis: np.ndarray, vecs: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Which rows of the (K, 2N) stack ``vecs`` lie in the span of basis's orthonormal columns."""
    projected = (basis @ (basis.conj().T @ vecs[:, :, None]))[:, :, 0]
    return _row_norms(vecs - projected) <= 10.0 * tol.root_residual_tol


def _sort_key(v: ProductVector):
    if v.alpha is None:
        return (1, 0.0, 0.0)
    return (0, v.alpha.real, v.alpha.imag)


# ---------------------------------------------------------------------------
# determinant-polynomial extraction by interpolation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _inv_dft(deg: int) -> tuple[np.ndarray, np.ndarray]:
    """The deg + 1 roots of unity and the inverse of their Vandermonde matrix, read-only."""
    nodes = np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    vand = nodes[:, None] ** np.arange(deg + 1)[None, :]
    inv = vand.conj().T / (deg + 1)
    nodes.flags.writeable = inv.flags.writeable = False
    return nodes, inv


def det_poly_univariate(ac: np.ndarray, bc: np.ndarray) -> UnivariatePoly:
    """Coefficients of det(alpha*ac + bc) from evaluations at roots of unity."""
    nodes, inv = _inv_dft(ac.shape[0])
    return UnivariatePoly(inv @ np.linalg.det(nodes[:, None, None] * ac + bc))


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


# ---------------------------------------------------------------------------
# fixed-alpha solves
# ---------------------------------------------------------------------------

def _has_null(s: np.ndarray, k: int, alpha: complex) -> bool:
    """Whether the k-th largest singular value of a constraint matrix is numerically zero.

    ``s`` holds the singular values of the N-column matrix; those past
    ``s.size`` (fewer rows than k) are zero.  Constraint rows come from
    orthonormal complements, so the matrix scale is O(1 + |alpha|); anchoring
    there keeps the test meaningful when the whole matrix nearly vanishes
    (e.g. at repeated roots).
    """
    return k > s.size or not s[k - 1] > NULL_ACCEPT * max(float(s[0]), 1.0 + abs(alpha))


def _refine_alpha_f(cs: ConstraintSystem, alphas):
    """Alternate between the best alpha for f and the best f for alpha, for every alpha.

    The joint least-squares alpha given f is closed-form; this repairs the
    sqrt-of-epsilon splitting that companion eigenvalues suffer at repeated
    roots.  Each of the ``REFINE_ROUNDS`` rounds is one SVD over the alphas
    still moving.  Returns the alphas, their f's as rows and the singular
    values at the new alphas.
    """
    alphas = np.array(alphas, dtype=complex)
    fs = np.empty((alphas.size, cs.n), dtype=complex)
    live = np.arange(alphas.size)
    for _ in range(REFINE_ROUNDS):
        if not live.size:
            break
        f = np.linalg.svd(cs.stacked(alphas[live]), full_matrices=True)[2][:, -1].conj()
        fs[live] = f
        # stacked matmul with a unit column gives the bits of ``ac @ f`` and
        # of ``np.vdot``; einsum would not
        x1, y1, x2, y2 = (block @ f[..., None] for block in cs.conj_blocks)
        denom = (_inner(x1, x1) + _inner(x2, x2)).real
        moving = ~(denom <= 1e-14)
        live, x1, y1, x2, y2 = (a[moving] for a in (live, x1, y1, x2, y2))
        alphas[live] = -(_inner(x1, y1) + np.conj(_inner(x2, y2))) / denom[moving]
    return alphas, fs, np.linalg.svd(cs.stacked(alphas), compute_uv=False)


def _in_subspaces(alphas, fs, h1: np.ndarray, h2: np.ndarray | None,
                  tol: ToleranceConfig) -> tuple[list[ProductVector], np.ndarray]:
    """Product vectors at rows of (alpha, f), and which of them lie in the subspaces.

    A vector passes when |e,f> lies in H1 and, unless ``h2`` is None, |e*,f>
    lies in H2: one range test per subspace over the whole stack.
    """
    vectors, vecs, partners = _products_at(alphas, fs)
    inside = in_range(h1, vecs, tol)
    if h2 is not None:
        inside &= in_range(h2, partners, tol)
    return vectors, inside


def _chart_products(cs: ConstraintSystem, alphas, h1: np.ndarray, h2: np.ndarray | None,
                    tol: ToleranceConfig) -> list[ProductVector]:
    """Product vectors at e = e(alpha), one solve for each alpha in ``alphas``.

    A vector is kept when |e,f> lies in H1 and, unless ``h2`` is None,
    |e*,f> lies in H2.  At finite alpha f is the smallest right singular
    vector of the stacked constraints (one SVD for all), kept only where
    they drop rank; at None (e = |0>) it is the first kernel vector of the
    alpha-coefficient rows.  With no constraint rows f is the first basis
    vector.  A paired chart point whose f is not unique is outside the
    generic case.
    """
    first = np.eye(cs.n, 1, dtype=complex)
    finite = [a for a in alphas if a is not None]
    solves = iter(())
    if finite and sum(b.shape[0] for b in cs.conj_blocks[::2]):
        # np.conj of a real sample keeps its zero imaginary part positive
        conj = np.array([np.conj(a) for a in finite], dtype=complex)
        _u, sigmas, vh = np.linalg.svd(cs.stacked(np.array(finite, dtype=complex), conj),
                                       full_matrices=True)
        solves = zip(sigmas, vh[:, -1].conj())
    picked, fs = [], []
    for alpha in alphas:
        if alpha is None:
            rows = np.vstack(cs.conj_blocks[::2])
            kernel = numerical_rank_kernel(rows, tol).kernel_basis if rows.shape[0] else first
            if kernel.shape[1] == 0:
                continue
            if h2 is not None and kernel.shape[1] > 1:
                raise NonGenericInput("alpha-infinity solution space has dimension > 1")
            f = kernel[:, 0]
        else:
            s, f = next(solves, (None, first[:, 0]))
            if s is not None and not _has_null(s, cs.n, alpha):
                continue
        picked.append(alpha)
        fs.append(f)
    if not picked:
        return []
    vectors, inside = _in_subspaces(picked, fs, h1, h2, tol)
    return [v for v, ok in zip(vectors, inside) if ok]


def _root_products(roots, cs: ConstraintSystem, h1: np.ndarray, h2: np.ndarray | None,
                   tol: ToleranceConfig) -> list[ProductVector]:
    """Product vectors at candidate roots, refined together, then kept in order.

    The range tests are those of ``_chart_products``.  A single search skips a
    root within ``MERGE_RADIUS`` of a kept one, before or after refinement, as
    ``verify_roots`` merges roots; in a paired search the first root whose
    solution space has dimension > 1 raises.
    """
    starts = [complex(a) for a in roots]
    alphas, fs, sigmas = _refine_alpha_f(cs, starts)
    alphas = alphas.tolist()
    gated = []
    for k, (alpha, s) in enumerate(zip(alphas, sigmas)):
        if not _has_null(s, cs.n, alpha):
            continue
        if h2 is not None and cs.n >= 2 and _has_null(s, cs.n - 1, alpha):
            raise NonGenericInput(f"solution space at alpha={alpha:.6g} has dimension > 1")
        gated.append(k)
    if not gated:
        return []
    vectors, inside = _in_subspaces([alphas[k] for k in gated], fs[gated], h1, h2, tol)
    found, seen = [], []
    for k, v, ok in zip(gated, vectors, inside):
        start, alpha = starts[k], alphas[k]
        if h2 is None and any(abs(start - x) <= MERGE_RADIUS or abs(alpha - x) <= MERGE_RADIUS
                               for x in seen):
            continue
        if ok:
            found.append(v)
            seen.append(alpha)
    return found


# ---------------------------------------------------------------------------
# single-subspace search
# ---------------------------------------------------------------------------

def products_in_subspace(h, tol: ToleranceConfig | None = None):
    """All product vectors in a subspace, or an InfiniteFamily marker.

    For dim(H) > N every e admits a matching f (infinite family, sampled);
    for dim(H) = N the determinant of the constraint matrix is a degree-N
    polynomial whose roots give the finitely many solutions; below N the
    system is overdetermined and the verified solution set may be empty.
    """
    tol = tol or DEFAULT_TOL
    h = _orthonormalize(h)
    two_n, m = h.shape
    n = two_n // 2
    if m == 0:
        return []
    cs = _single_system(h, n)
    samples = SAMPLE_ALPHAS + (None,)
    if m > n:
        return InfiniteFamily(samples=_chart_products(cs, samples, h, None, tol),
                              note="subspace dimension exceeds N")

    # m = n has one N-row determinant; m < n is overdetermined, with
    # candidates from the first non-degenerate N-row determinant, verified
    # against the full stack
    ac, bc = cs.conj_blocks[:2]
    candidates: list[complex] = []
    for sel in combinations(range(ac.shape[0]), n):
        det = det_poly_univariate(ac[list(sel)], bc[list(sel)])
        if np.max(np.abs(det.coeffs)) > DET_ZERO_TOL:
            candidates = list(univariate_roots(det)) if det.degree >= 1 else []
            break
        if m == n:
            return InfiniteFamily(samples=_chart_products(cs, samples, h, None, tol),
                                  note="determinant vanishes identically")
    found = _root_products(candidates, cs, h, None, tol)
    if m == n or np.linalg.matrix_rank(ac) < n:
        found += _chart_products(cs, (None,), h, None, tol)
    return sorted(found, key=_sort_key)


# ---------------------------------------------------------------------------
# paired search
# ---------------------------------------------------------------------------

def _block_rows_independent(ac, bc, probe: complex) -> bool:
    if ac.shape[0] == 0:
        return True
    # one SVD gives both the 2-norm and the rank that ``matrix_rank`` would count
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


def build_paired_system(h1, h2) -> ConstraintSystem:
    """Constraint blocks and determinant polynomials for the paired search."""
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
    cs = ConstraintSystem(a1=a1, b1=b1, a2=a2, b2=b2, n=n, m1=m1, m2=m2, dets=[])
    if r1 + r2 >= n:
        ac1, bc1, ac2, bc2 = cs.conj_blocks
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
            if np.max(np.abs(det.coeffs)) <= DET_ZERO_TOL:
                continue
            cs.dets.append(det)
    return cs


def eliminate_paired(cs: ConstraintSystem) -> UnivariatePoly | None:
    """Reduce the determinant system to one univariate polynomial.

    Returns None when every determinant vanished identically (rank
    deficiency for all alpha).
    """
    if not cs.dets:
        return None
    if len(cs.dets) == 1:
        d = cs.dets[0]
        if d.deg_alpha == 0:
            return UnivariatePoly(np.conj(d.coeffs[0]))
        if d.deg_conj == 0:
            return UnivariatePoly(d.coeffs[:, 0])
        return eliminate_single(d)
    base = cs.dets[0]
    reduced = [eliminate_pair(base, dj) for dj in cs.dets[1:]]
    q = reduced[0]
    for u in reduced[1:]:
        q = reduce_univariate_pair(q, u)
    return q


def paired_products(h1, h2, tol: ToleranceConfig | None = None):
    """Product vectors with |e,f> in H1 and the conjugate partner in H2.

    Returns an InfiniteFamily (with deterministic samples) when the
    dimension count guarantees solutions for every e, otherwise the finite
    verified list sorted by alpha.

    Raises
    ------
    NonGenericInput
        When the only determinant equals its conjugate twin up to a scalar
        (its zeros form a curve, touching points or nothing, which no
        finite enumeration covers), the elimination degenerates, or a root
        carries a solution space of dimension > 1: a non-generic instance.
    """
    tol = tol or DEFAULT_TOL
    h1 = _orthonormalize(h1)
    h2 = _orthonormalize(h2)
    n = h1.shape[0] // 2
    cs = build_paired_system(h1, h2)
    if cs.m1 + cs.m2 > 3 * n:
        return InfiniteFamily(samples=_chart_products(cs, SAMPLE_ALPHAS, h1, h2, tol),
                              note="dimension count exceeds 3N")
    if not cs.dets:
        return InfiniteFamily(samples=_chart_products(cs, SAMPLE_ALPHAS, h1, h2, tol),
                              note="all determinants vanish identically")
    d = cs.dets[0]  # a self-conjugate one may vanish on a curve, which no finite list covers
    if len(cs.dets) == 1 and _scalar_proportional(d.coeffs, conjugate_poly(d).coeffs):
        raise NonGenericInput("the only determinant is self-conjugate")
    try:
        q = eliminate_paired(cs)
    except DegenerateElimination as exc:
        raise NonGenericInput(f"degenerate elimination: {exc}") from exc
    candidates = list(univariate_roots(q)) if q.degree >= 1 else []
    rootset = verify_roots(candidates, cs.dets, tol)

    found = _root_products(rootset.roots, cs, h1, h2, tol)
    found += _chart_products(cs, (None,), h1, h2, tol)
    return sorted(found, key=_sort_key)


# ---------------------------------------------------------------------------
# real-e and kernel searches
# ---------------------------------------------------------------------------

def real_e_products(h, tol: ToleranceConfig | None = None) -> list[ProductVector]:
    """Product vectors with real e inside a subspace of dimension > N.

    For each real alpha the constraint rows number fewer than N, so a
    nontrivial f always exists; the result is never empty.
    """
    tol = tol or DEFAULT_TOL
    h = _orthonormalize(h)
    two_n, m = h.shape
    n = two_n // 2
    if m <= n:
        raise ValueError(f"real-e search needs dim(H) > N, got dim {m} with N={n}")
    return _chart_products(_single_system(h, n), REAL_ALPHA_GRID + (None,), h, None, tol)


def kernel_product_vectors(state):
    """Every product vector found in the kernel of a PPT state, in the search's order.

    Only vectors whose conjugate partner the partial transpose annihilates
    are kept.  An infinite kernel family comes back as an InfiniteFamily
    holding the samples that pass.  The search uses the state's tolerances.
    """
    kernel = state.kernel_basis
    if kernel.shape[1] == 0:
        return []
    res = products_in_subspace(kernel, state.tol)
    vectors = res.samples if isinstance(res, InfiniteFamily) else res
    kept = []
    if vectors:
        images = (state.pt_matrix @ vector_stacks(vectors)[1][:, :, None])[:, :, 0]
        passing = _row_norms(images) <= KERNEL_PARTNER_REL_TOL * max(state.norm, 1e-300)
        kept = [v for v, ok in zip(vectors, passing) if ok]
    return InfiniteFamily(samples=kept, note=res.note) if isinstance(res, InfiniteFamily) else kept


def kernel_product_vector(state) -> ProductVector | None:
    """First product vector of ``kernel_product_vectors``, if any.

    Guaranteed to exist when the kernel dimension reaches N.
    """
    found = kernel_product_vectors(state)
    vectors = found.samples if isinstance(found, InfiniteFamily) else found
    return vectors[0] if vectors else None
