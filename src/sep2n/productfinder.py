"""Locating product vectors inside subspaces of C2 x CN.

A product vector ``(alpha|0> + |1>) (x) f`` lies in a subspace H exactly
when ``(alpha A* + B*) f = 0``, where the rows of A and B collect the
components of an orthonormal basis of the orthogonal complement of H; a
``ConstraintSystem`` is built from such complements alone.  A single
subspace of dimension at most N is searched through the eigenvalues of the
N x N pencil of these rows.  The paired search additionally constrains the
conjugate partner ``|e*, f>`` to a second subspace, which brings in the
conjugate variable; with beta standing for conj(alpha) the two constraint
sets form a two-parameter eigenvalue problem, whose candidate roots are the
eigenvalues of one operator-determinant pencil (``_pencil_roots``).  Both
searches solve their pencil by one shift-invert (``_shift_invert``) and
polish the candidates the same way (``_gate_and_polish``), each until it
converges.  Every chart point turns into a product vector in
``_chart_products`` under one rank-drop rule (``_has_null``), f from one
stacked SVD: the samples' own, or the polish's for roots and e = |0>
(alpha None).  Where the solutions form an infinite family, a search
returns the list of its samples at fixed chart points, an
``InfiniteFamily`` built by ``_family``.

Candidates are screened as stacks, and each stacked numpy form used here
gives the bits of the single-vector call it replaces: a mat-vec as a matmul
with a unit column (``M @ V[:, :, None]``), row norms and ``np.vdot``s as
``(K, 1, d) @ (K, d, 1)`` matmuls, and plain elementwise broadcasting;
``einsum`` row norms and gemm mat-vecs (``M @ V.T``) do not, nor does
array complex division against numpy's scalar one, so phases are taken
one scalar at a time.
"""

from __future__ import annotations

import copy
import math
from dataclasses import InitVar, dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .matrixcore import _SQUARE_SAFE, DEFAULT_TOL, ToleranceConfig, numerical_rank_kernel
from .polyelim import eliminate_paired  # noqa: F401 (traced by perfbench)

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
]


class NonGenericInput(Exception):
    """The instance violates the genericity the finite enumeration relies on."""


# Deterministic sample parameters used when a search hits an infinite family:
# four fixed complex values and four real ones.
SAMPLE_ALPHAS = (0.437 + 0.821j, -1.133 + 0.294j, 0.512 - 0.668j, -0.274 - 1.147j,
                 0.0, 1.0, -1.0, 0.5)
REAL_ALPHA_GRID = (0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0 / 3.0)

# Relative smallest-singular-value threshold accepting a rank drop at a root; also
# the relative residual under which a state (its transpose) annihilates a kernel vector (partner).
NULL_ACCEPT = 1e-6
# Distance below 1 that a subspace's largest overlap with product vectors must
# keep on the whole Bloch sphere for ``_far_from_products`` to prove it holds
# none: 50 times the 2 * NULL_ACCEPT**2 that the root gate can still accept.
PRODUCT_FREE_MARGIN = 100 * NULL_ACCEPT ** 2
# Subdivision levels of the icosahedral cover, and the most cells one level may
# leave undecided, before ``_far_from_products`` gives up.
PRODUCT_FREE_DEPTH = 6
PRODUCT_FREE_MAX_CELLS = 256
# The root solve of both finite searches (``_shift_invert``,
# ``_gate_and_polish``; the paired one also ``_pencil_roots``): the angles of
# the real qubit rotations of the paired chart, tried in turn; the mixing
# coefficient gamma (|gamma| != 1) of the paired pencil Delta_1 + gamma
# Delta_2 - eta Delta_0; the two shifts a pencil is inverted at; the inverse
# growth of a probe column past which a shifted matrix counts as singular
# (also the relative determinant below which a polish step's normal
# equations count as singular); the modulus, relative to the largest, below
# which an eigenvalue nu of the inverted pencil counts as 0 (an infinite
# eigenvalue); the relative sigma_N under which a candidate is polished, and
# at or under which, at rounding level, it has converged; and the most
# Gauss-Newton steps of the polish.
PENCIL_CHART_ANGLES = (0.5, 1.9, 2.8)
PENCIL_GAMMA = 0.4 + 0.3j
PENCIL_SHIFTS = (0.3183 - 0.5772j, -0.7071 + 0.2718j)
PENCIL_SINGULAR_TOL = 1e-12
PENCIL_INFINITE_TOL = 1e-12
PENCIL_GATE = 1e-4
PENCIL_CONVERGED = 8 * np.finfo(float).eps
PENCIL_POLISH_STEPS = 3
# Polished roots closer than this are merged; product vectors built from
# closer roots are indistinguishable at rank tolerance.
MERGE_RADIUS = 1e-6


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


# ``_row_norms`` squares a row of d entries safely when its largest |re| or
# |im| lies in [LO, HI / sqrt(2d)] for (LO, HI) = ``_SQUARE_SAFE``: that
# square does not underflow, and the sum of the 2d squares does not overflow.
# Row norms at or above this come from no row with a component below LO.
_NORM_SAFE_LO = 2.0 ** -500


def _square_safe(v: np.ndarray) -> np.ndarray:
    """``v`` with each row whose largest component lies outside the safe range rescaled.

    The scale is a power of two that takes that component to [1/2, 1); the
    other rows keep their bits.
    """
    top = np.abs(v.view(float)).max(axis=1)
    far = (top < _SQUARE_SAFE[0]) | (top > _SQUARE_SAFE[1] / math.sqrt(2 * v.shape[1]))
    if not far.any():
        return v
    v = v.copy()
    v[far] = np.ldexp(v[far].view(float), -np.frexp(top[far])[1][:, None]).view(complex)
    return v


def _phase_normalize(rows) -> np.ndarray:
    """Each row of a (K, d) stack unit-normalized, its largest entry made real positive.

    A row whose squares would under- or overflow is first rescaled
    (``_square_safe``); two cheap tests, on the components before the norm
    and on the norms after, skip that for every other stack.
    """
    v = np.ascontiguousarray(rows, dtype=complex)
    parts = v.view(float)
    hi = _SQUARE_SAFE[1] / math.sqrt(max(parts.shape[1], 1))
    if parts.size and not (parts.max() <= hi and parts.min() >= -hi):
        v = _square_safe(v)
    nrm = _row_norms(v)
    if not nrm.min(initial=1.0) >= _NORM_SAFE_LO:
        v = _square_safe(v)
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
    return vectors, vecs, _kron_rows(np.conj(es), fs)


def products_of(es, fs) -> list["ProductVector"]:
    """The product vectors of rows of e and f, normalized with fixed phases."""
    es, fs = _phase_normalize(es), _phase_normalize(fs)
    alphas = [None if abs(e[1]) <= CHART_INFINITY_TOL else complex(e[0] / e[1]) for e in es]
    return _assemble(es, fs, alphas)[0]


def vector_stacks(vectors) -> tuple[np.ndarray, np.ndarray]:
    """The (K, 2N) stacks of |e,f> and of the partners |e*,f> of K >= 1 product vectors."""
    es = np.array([v.e for v in vectors])
    fs = np.array([v.f for v in vectors])
    return np.array([v.vector for v in vectors]), _kron_rows(np.conj(es), fs)


@dataclass(frozen=True, eq=False)
class ProductVector:
    """Pair (e in C2, f in CN), stored unit-normalized with fixed phases.

    ``alpha`` parametrizes ``e = (alpha|0> + |1>)/norm``; ``None`` marks the
    chart point e = |0> that the affine parametrization misses.  The
    read-only ``vector`` e (x) f is built at construction unless given.
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

    @classmethod
    def from_alpha(cls, alpha: complex | None, f) -> "ProductVector":
        return _products_at([alpha], [f])[0][0]

    @classmethod
    def from_e_f(cls, e, f) -> "ProductVector":
        return products_of([e], [f])[0]

    @property
    def conjugate_partner(self) -> "ProductVector":
        alpha = None if self.alpha is None else np.conj(self.alpha)
        return ProductVector(np.conj(self.e), self.f, alpha)

    def projector(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())

    def __repr__(self):
        a = "inf" if self.alpha is None else f"{self.alpha:.6g}"
        return f"ProductVector(alpha={a}, n={self.f.size})"


class InfiniteFamily(list):
    """An infinite product-vector family as the list of its samples; ``note`` says why it is one."""

    def __init__(self, samples=(), note: str = ""):
        super().__init__(samples)
        self.note = note


class ConstraintSystem:
    """The constraint blocks of a search, from orthonormal complements of H1 and H2.

    A complement's top and bottom N rows, transposed, are its blocks A and B;
    the rows at alpha are alpha A* + B* for H1 and conj(alpha) A* + B* for H2,
    so only the (C-contiguous) conjugates are kept.  A single-subspace search
    passes a ``c2`` with no columns.
    """

    def __init__(self, c1: np.ndarray, c2: np.ndarray):
        n = self.n = c1.shape[0] // 2
        self.conj_blocks = tuple(np.conj(half) for c in (c1, c2)
                                 for half in (c[:n].T.copy(), c[n:].T.copy()))

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

def _basis(h) -> np.ndarray:
    """``h`` as a complex array of column vectors in C2 x CN."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] % 2 or not h.shape[0]:
        raise ValueError("subspace basis must be a 2-D array of column vectors in C2 x CN, "
                         f"2N rows with N >= 1; got shape {h.shape}")
    return h


def _orthonormalize(h, tol: ToleranceConfig | None = None) -> np.ndarray:
    return numerical_rank_kernel(_basis(h), tol).range_basis


def _basis_and_complement(h, comp) -> tuple[np.ndarray, np.ndarray]:
    """Bases of a subspace and of its complement as complex arrays, only their shapes checked."""
    h, comp = _basis(h), np.asarray(comp, dtype=complex)
    if comp.shape != (h.shape[0], h.shape[0] - h.shape[1]):
        raise ValueError(f"complement of shape {comp.shape} does not fit a basis of shape {h.shape}")
    return h, comp


def orthonormal_complement(h: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of span(h)."""
    if h.shape[1] == 0:
        return np.eye(h.shape[0], dtype=complex)
    return numerical_rank_kernel(h.conj().T).kernel_basis


def in_range(basis: np.ndarray, vecs: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Which rows of the (K, 2N) stack ``vecs`` lie in the span of basis's orthonormal columns."""
    projected = (basis @ (basis.conj().T @ vecs[:, :, None]))[:, :, 0]
    return _row_norms(vecs - projected) <= 10.0 * tol.root_residual_tol


# ---------------------------------------------------------------------------
# fixed-alpha solves
# ---------------------------------------------------------------------------

def _has_null(s: np.ndarray, k: int, scale: float) -> bool:
    """Whether the k-th largest singular value of a constraint matrix is numerically zero.

    The one rank-drop rule at chart points.  ``s`` holds the singular values
    of the N-column matrix; those past ``s.size`` (fewer rows than k) are
    zero.  Constraint rows come from orthonormal complements, so ``scale``
    is 1 + |alpha| at alpha and 1 at e = |0>; anchoring there keeps the test
    meaningful when the whole matrix nearly vanishes (e.g. at repeated
    roots).
    """
    return k > s.size or not s[k - 1] > NULL_ACCEPT * max(float(s[0]), scale)


def _rank_drops(cs: ConstraintSystem, alphas) -> list[bool]:
    """Whether the constraints drop rank (``_has_null``) at each finite alpha, from one SVD."""
    alphas = np.array(alphas, dtype=complex)
    sigmas = np.linalg.svd(cs.stacked(alphas), compute_uv=False)
    return [_has_null(s, cs.n, 1.0 + abs(a)) for s, a in zip(sigmas, alphas)]


def _chart_svd(cs: ConstraintSystem, alphas: list) -> tuple[np.ndarray, np.ndarray]:
    """The singular values and f of the constraint matrix at each chart point, from one SVD.

    The matrix at None, e = |0>, is the alpha-coefficient rows [A1*; A2*];
    f is its last right singular vector, or with no rows the first basis one.
    """
    ac1, ac2 = cs.conj_blocks[::2]
    fs = np.zeros((len(alphas), cs.n), dtype=complex)
    fs[:, 0] = 1.0
    if not (alphas and ac1.shape[0] + ac2.shape[0]):
        return np.zeros((len(alphas), 0)), fs
    # np.conj of a real sample keeps its zero imaginary part positive
    mats = cs.stacked(np.array([0 if a is None else a for a in alphas], dtype=complex),
                      np.array([0 if a is None else np.conj(a) for a in alphas], dtype=complex))
    mats[[a is None for a in alphas]] = np.concatenate([ac1, ac2])
    _u, sigmas, vh = np.linalg.svd(mats, full_matrices=True)
    return sigmas, vh[:, -1].conj()


def _chart_products(cs: ConstraintSystem, alphas, h1: np.ndarray, h2: np.ndarray | None,
                    tol: ToleranceConfig, unique: bool = False,
                    svd: tuple[np.ndarray, np.ndarray] | None = None) -> list[ProductVector]:
    """Product vectors at the chart points ``alphas``, kept in order.

    A point is a finite alpha, e = (alpha, 1), or None, e = |0>; ``svd`` is
    ``_chart_svd``'s result at them, computed when None.  A point is kept
    where its matrix drops rank (``_has_null``), |e,f> lies in H1 and, unless
    ``h2`` is None, |e*,f> lies in H2.  With ``unique`` the first point past
    the rank test whose f is not unique raises.  A kept root within
    MERGE_RADIUS of e = |0> (|alpha| MERGE_RADIUS >= 1) is the more accurate
    vector there, so the one at None is then dropped.
    """
    alphas = list(alphas)
    n = cs.n
    sigmas, fs = _chart_svd(cs, alphas) if svd is None else svd
    picked = []
    for k, (alpha, s) in enumerate(zip(alphas, sigmas)):
        scale = 1.0 if alpha is None else 1.0 + abs(alpha)
        if not _has_null(s, n, scale):
            continue
        if unique and n >= 2 and _has_null(s, n - 1, scale):
            space = ("alpha-infinity solution space" if alpha is None
                     else f"solution space at alpha={alpha:.6g}")
            raise NonGenericInput(f"{space} has dimension > 1")
        picked.append(k)
    if not picked:
        return []
    vectors, vecs, partners = _products_at([alphas[k] for k in picked], fs[picked])
    inside = in_range(h1, vecs, tol)
    if h2 is not None:
        inside &= in_range(h2, partners, tol)
    kept = [v for v, ok in zip(vectors, inside) if ok]
    if any(v.alpha is not None and abs(v.alpha) * MERGE_RADIUS >= 1 for v in kept):
        kept = [v for v in kept if v.alpha is not None]
    return kept


# ---------------------------------------------------------------------------
# product-free proof on the Bloch sphere
# ---------------------------------------------------------------------------

def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """The 12 unit corners of an icosahedron and its 20 faces as corner-index triples."""
    t = (1 + 5 ** 0.5) / 2
    corners = np.array([(s1, s2 * t, 0) for s1 in (-1, 1) for s2 in (-1, 1)], dtype=float)
    corners = np.concatenate([np.roll(corners, k, axis=1) for k in range(3)])
    # faces are the corner triples at pairwise distance 2, the edge length
    faces = [f for f in combinations(range(12), 3)
             if all(abs(np.linalg.norm(corners[i] - corners[j]) - 2) < 1e-9
                    for i, j in combinations(f, 2))]
    return corners / np.linalg.norm(corners, axis=1)[:, None], np.array(faces)


# the four children of a cell whose corners 0, 1, 2 are followed by its edge
# midpoints 3 = (0, 1), 4 = (1, 2) and 5 = (2, 0)
_CHILDREN = ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5))


def _midpoints(cells: np.ndarray) -> np.ndarray:
    """The normalized edge midpoints (0, 1), (1, 2), (2, 0) of a (K, 3, 3) corner stack."""
    mids = cells + cells[:, (1, 2, 0)]
    return mids / np.sqrt(np.sum(mids ** 2, axis=2))[:, :, None]


def _children(parents: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Per-corner data of the 4K children from that of K parents' corners and midpoints."""
    return np.concatenate([parents, mids], axis=1)[:, _CHILDREN].reshape(-1, 3, *parents.shape[2:])


def _level_distances(face: np.ndarray) -> tuple[float, ...]:
    """Per subdivision level, the least distance from 0 to the plane of a cell of ``face``.

    The icosahedron's rotations carry each face and its subdivision onto every
    other, so one face gives the bound for all.
    """
    cells, out = face[None], []
    for _ in range(PRODUCT_FREE_DEPTH + 1):
        normals = np.cross(cells[:, 1] - cells[:, 0], cells[:, 2] - cells[:, 0])
        out.append(float(np.min(np.abs(np.sum(normals * cells[:, 0], axis=1))
                                / np.linalg.norm(normals, axis=1))))
        cells = _children(cells, _midpoints(cells))
    return tuple(out)


_ICO_CORNERS, _ICO_FACES = _icosahedron()
_LEVEL_DISTANCES = _level_distances(_ICO_CORNERS[_ICO_FACES[0]])


def _bloch_pencil(h: np.ndarray, n: int) -> np.ndarray:
    """D_1, D_2, D_3 of ``_far_from_products`` as the rows of a (3, m*m) array."""
    m = h.shape[1]
    g00, g01 = h[:n].conj().T @ h.reshape(2, n, m)
    g10 = g01.conj().T
    pencil = np.empty((3, m, m), dtype=complex)
    pencil[0] = (g01 + g10) / 2
    pencil[1] = 0.5j * (g10 - g01)
    pencil[2] = g00 - np.eye(m) / 2  # (G_00 - G_11) / 2, as G_00 + G_11 = I
    return pencil.reshape(3, m * m)


def _far_from_products(h: np.ndarray, n: int) -> bool:
    """Whether the orthonormal 2N x m basis ``h`` provably spans no product vector.

    For a unit e in C2 with Bloch vector x (e e^dag = (I + x.sigma)/2), the
    largest |<e,f|v>|^2 over unit f and unit v in H is lambda_max(K(x)) with
    K(x) = H^dag (e e^dag (x) I) H = I/2 + x_1 D_1 + x_2 D_2 + x_3 D_3, where
    for the top and bottom N rows H_0, H_1 of h and G_ij = H_i^dag H_j,
    D_1 = (G_01 + G_10)/2, D_2 = i (G_10 - G_01)/2 and D_3 = (G_00 - G_11)/2.

    Why True means the full search returns []: with the blocks A, B of H's
    orthonormal complement (``ConstraintSystem``) and e proportional to (alpha, 1),
    the constraint matrix M = alpha A* + B* has sigma_N(M)^2 = (1 +
    |alpha|^2)(1 - lambda_max(K)).
    Since ||[A B]|| = 1, sigma_1(M) <= 1 + |alpha|, so the ``_has_null`` gate
    that every refined root must pass accepts only where 1 - lambda_max(K) <=
    2 NULL_ACCEPT^2.  At e = |0> the same identity gives sigma_N(A)^2 =
    1 - lambda_max(K), and with sigma_1(A) <= 1 the same gate accepts only
    where 1 - lambda_max(K) <= NULL_ACCEPT^2.  True is returned only when
    lambda_max(K) stays below 1 - PRODUCT_FREE_MARGIN on the whole sphere,
    50 times further than the gate reaches, which also absorbs the rounding
    of both computations.

    The cover: phi(x) = lambda_max(sum_k x_k D_k) is convex and positively
    homogeneous, so on the spherical triangle over corners u_1, u_2, u_3 it
    is at most max phi(u_i) / d when that is positive, for any d up to the
    distance from 0 to the flat face; d is the least such distance over the
    cells of the level.  A cell is decided when max phi(u_i) <
    (1/2 - PRODUCT_FREE_MARGIN) d.  The cells start as the faces of an
    icosahedron; each level splits the undecided ones into four at their
    normalized edge midpoints, evaluating only the new corners in one stacked
    ``eigvalsh``.  A corner at or above the bound, more than
    PRODUCT_FREE_MAX_CELLS undecided cells, or undecided cells after
    PRODUCT_FREE_DEPTH levels of splitting give False: the proof declines.
    For m = 1, K is the scalar 1/2 + x.d, whose maximum 1/2 + |d| is exact.
    """
    m = h.shape[1]
    pencil = _bloch_pencil(h, n)
    limit = 0.5 - PRODUCT_FREE_MARGIN
    if m == 1:
        return float(np.linalg.norm(pencil)) < limit

    def phi(points):
        return np.linalg.eigvalsh((points @ pencil).reshape(-1, m, m))[:, -1]

    cells = _ICO_CORNERS[_ICO_FACES]
    values = phi(_ICO_CORNERS)[_ICO_FACES]
    for level, distance in enumerate(_LEVEL_DISTANCES):
        if level:
            mids = _midpoints(cells)
            cells = _children(cells, mids)
            values = _children(values, phi(mids.reshape(-1, 3)).reshape(-1, 3))
        top = values.max(axis=1)
        if top.max() >= limit:
            return False
        undecided = ~(top < limit * distance)
        count = np.count_nonzero(undecided)
        if not count:
            return True
        if count > PRODUCT_FREE_MAX_CELLS:
            return False
        cells, values = cells[undecided], values[undecided]
    return False


# ---------------------------------------------------------------------------
# the root solve of both finite searches
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _seeded_columns(rows: int, cols: int) -> np.ndarray:
    """A fixed seeded complex rows x cols matrix with unit columns, read-only."""
    rng = np.random.default_rng([rows, cols])
    v = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    v /= np.linalg.norm(v, axis=0)
    v.flags.writeable = False
    return v


@lru_cache(maxsize=None)
def _compression(rows: int, n: int) -> np.ndarray:
    """A fixed seeded n x rows matrix with orthonormal rows, read-only.

    It compresses a pencil's rows to n and keeps every root.
    """
    q = np.linalg.qr(_seeded_columns(rows, n))[0].conj().T
    q.flags.writeable = False
    return q


def _compressed(blocks, k: int):
    """Row blocks of one height multiplied by ``_compression`` to k rows, unless already k."""
    rows = blocks[0].shape[0]
    if rows == k:
        return blocks
    q = _compression(rows, k)
    return [q @ x for x in blocks]


def _shift_invert(m: np.ndarray, d: np.ndarray,
                  rows: np.ndarray | None = None) -> np.ndarray | None:
    """The finite eigenvalues eta of the square pencil M - eta D, or None if it is singular.

    eta = s + 1/nu for the eigenvalues nu != 0 of (M - s D)^-1 D, at the
    first of ``PENCIL_SHIFTS`` s where M - s D is regular: its inverse must
    not blow a fixed probe column up past 1 / PENCIL_SINGULAR_TOL relative to
    its norm.  A nu below PENCIL_INFINITE_TOL of the largest is an infinite
    eta and is dropped.  When D is zero outside the k rows ``rows``, it is
    E D[rows] with E the unit columns at those rows, and since XY and YX
    share their nonzero spectrum the nu are taken from the k x k matrix
    D[rows] (M - s D)^-1 E: only k unit columns and the probe are solved for.
    """
    cols = d if rows is None else np.eye(d.shape[0], dtype=complex)[:, rows]
    rhs = np.column_stack([cols, _seeded_columns(d.shape[0], 1)])
    for shift in PENCIL_SHIFTS:
        shifted = m - shift * d
        try:
            x = np.linalg.solve(shifted, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.norm(x[:, -1]) * np.linalg.norm(shifted) * PENCIL_SINGULAR_TOL < 1.0:
            break
    else:
        return None
    nu = np.linalg.eigvals(x[:, :-1] if rows is None else d[rows] @ x[:, :-1])
    nu = nu[np.abs(nu) > PENCIL_INFINITE_TOL * np.abs(nu).max(initial=0.0)]
    return shift + 1.0 / nu


def _gate_and_polish(cs: ConstraintSystem, candidates: np.ndarray
                     ) -> tuple[list, tuple[np.ndarray, np.ndarray]]:
    """The candidates at a rank drop of the full stack, polished and merged, then e = |0>.

    A candidate is kept when sigma_N of its stacked constraint matrix W is at
    most PENCIL_GATE times max(sigma_1, 1 + |alpha|), and takes Gauss-Newton
    steps on alpha with f projected out until that ratio is at most
    PENCIL_CONVERGED, or PENCIL_POLISH_STEPS steps and a final SVD.  With v
    the last right singular vector of W and L the left singular vectors past
    the first N - 1, the residual r = L^dag W v moves by delta L^dag A v +
    conj(delta) L^dag C v (A the A1* rows over zeros, C zeros over the A2*
    rows), and delta solves that real 2-unknown least-squares problem by its
    normal equations, unless they are singular (a double root).  One stacked
    SVD per step serves every moving candidate, the first also e = |0>.  Of
    roots within MERGE_RADIUS of each other the most converged is kept, and
    a root stopped unconverged at the step cap is dropped when a converged
    root lies within its last step: the polish was carrying it there, as it
    carries a spurious eigenvalue that passed the gate beside a close pair.
    Returns the roots sorted by (re, im), then None, and the singular values
    and f of each point's last SVD.
    """
    n, (ac1, ac2) = cs.n, cs.conj_blocks[::2]
    r1 = ac1.shape[0]
    w = np.concatenate([cs.stacked(candidates), np.concatenate([ac1, ac2])[None]])
    u, s, vh = np.linalg.svd(w, full_matrices=True)
    # e = |0>, the stack's last point, is neither gated nor polished
    roots, sigmas, fs, resids = [], [s[-1:]], [vh[-1:, -1].conj()], []
    reach = {}  # the last step of each root, by index, that the cap stopped unconverged
    alphas, w, u, s, vh = candidates, w[:-1], u[:-1], s[:-1], vh[:-1]
    for step in range(PENCIL_POLISH_STEPS + 1):
        resid = s[:, n - 1] / np.maximum(s[:, 0], 1.0 + np.abs(alphas))
        if not step:
            keep = resid <= PENCIL_GATE
            alphas, w, u, s, vh, resid = (x[keep] for x in (alphas, w, u, s, vh, resid))
        converged = resid <= PENCIL_CONVERGED
        stop = converged | (step == PENCIL_POLISH_STEPS)
        if step and step == PENCIL_POLISH_STEPS:
            reach = {len(roots) + i: d for i, d in enumerate(np.abs(delta).tolist())
                     if not converged[i]}
        roots += alphas[stop].tolist()
        resids += resid[stop].tolist()
        sigmas.append(s[stop])
        fs.append(vh[stop, -1].conj())
        if stop.all():
            break
        alphas, w, u, vh = (x[~stop] for x in (alphas, w, u, vh))
        v = vh[:, -1:].conj().swapaxes(1, 2)  # (K, N, 1)
        left = u[:, :, n - 1:].conj().swapaxes(1, 2)  # (K, rows - N + 1, rows)
        res = (left @ (w @ v))[:, :, 0]
        da = (left[:, :, :r1] @ (ac1 @ v))[:, :, 0]
        dc = (left[:, :, r1:] @ (ac2 @ v))[:, :, 0]
        # the real and imaginary parts of r + x (da + dc) + y i (da - dc) = 0
        jx, jy = da + dc, 1j * (da - dc)
        g11 = np.sum(jx.real ** 2 + jx.imag ** 2, axis=1)
        g22 = np.sum(jy.real ** 2 + jy.imag ** 2, axis=1)
        g12 = np.sum(jx.real * jy.real + jx.imag * jy.imag, axis=1)
        b1 = -np.sum(jx.real * res.real + jx.imag * res.imag, axis=1)
        b2 = -np.sum(jy.real * res.real + jy.imag * res.imag, axis=1)
        det = g11 * g22 - g12 ** 2
        ok = det > PENCIL_SINGULAR_TOL * (g11 + g22) ** 2
        det = np.where(ok, det, 1.0)
        delta = np.where(ok, (g22 * b1 - g12 * b2 + 1j * (g11 * b2 - g12 * b1)) / det, 0.0)
        alphas = alphas + delta
        w = cs.stacked(alphas)
        u, s, vh = np.linalg.svd(w, full_matrices=True)
    # the stacks' rows are e = |0>, then the roots in stopping order; of
    # roots within MERGE_RADIUS of each other the most converged is kept
    points = [None] + roots
    kept = []
    for k in sorted(range(1, len(points)), key=lambda k: resids[k - 1]):
        if not any(abs(points[k] - points[j]) <= MERGE_RADIUS for j in kept):
            kept.append(k)
    # a root still moving at the cap goes when a converged root lies within its last step
    if reach:
        anchors = [points[j] for j in kept if resids[j - 1] <= PENCIL_CONVERGED]
        kept = [k for k in kept if k - 1 not in reach
                or all(abs(points[k] - a) > reach[k - 1] for a in anchors)]
    kept = sorted(kept, key=lambda k: (points[k].real, points[k].imag)) + [0]
    return [points[k] for k in kept], (np.concatenate(sigmas)[kept], np.concatenate(fs)[kept])


def _family(cs: ConstraintSystem, alphas, h1, h2, tol, note: str) -> InfiniteFamily:
    """The infinite family of a search, sampled at the chart points ``alphas``."""
    return InfiniteFamily(_chart_products(cs, alphas, h1, h2, tol), note)


# ---------------------------------------------------------------------------
# single-subspace search
# ---------------------------------------------------------------------------

def _single_roots(cs: ConstraintSystem) -> np.ndarray | None:
    """Candidate roots alpha of a single system, or None if its pencil is singular.

    The roots of det(alpha A* + B*) are the eigenvalues of the pencil
    B* - alpha (-A*), its rows beyond N compressed first by ``_compression``.
    """
    ac, bc = _compressed(cs.conj_blocks[:2], cs.n)
    return _shift_invert(bc, -ac)


def products_in_subspace(h, comp, tol: ToleranceConfig | None = None):
    """All product vectors in a subspace, or an InfiniteFamily marker.

    ``h`` is an orthonormal basis of H and ``comp`` one of its orthogonal
    complement, both taken as given: only their shapes are checked.
    For dim(H) > N every e admits a matching f (infinite family, sampled);
    for dim(H) = N the roots of det(alpha A* + B*) give the finitely many
    solutions; below N the system is overdetermined and a generic H holds
    no product vector.  There ``_far_from_products`` first tries to prove H
    product-free from the Bloch sphere; it succeeds only where no root could
    pass the search's rank-drop gate, so returning [] then gives the
    search's own result.  Otherwise the candidates are the eigenvalues of
    the constraint pencil, its rows compressed to N, kept where the full
    stack drops rank and polished (``_gate_and_polish``), then turned into
    vectors with the chart point e = |0> by ``_chart_products``.  A pencil
    singular at both shifts means the determinant vanishes identically: an
    infinite family at m = N, and below N one where the constraints drop
    rank at two sample alphas (H holds C2 (x) f0), no candidates otherwise.
    """
    tol = tol or DEFAULT_TOL
    h, comp = _basis_and_complement(h, comp)
    n, m = h.shape[0] // 2, h.shape[1]
    if m == 0 or (m < n and _far_from_products(h, n)):
        return []
    cs = ConstraintSystem(comp, comp[:, :0])  # no partner rows
    samples = SAMPLE_ALPHAS + (None,)
    if m > n:
        return _family(cs, samples, h, None, tol, "subspace dimension exceeds N")

    # a singular pencil has a vanishing determinant; for m < n that is a
    # family only where the constraints drop rank at every alpha, and
    # leaves no candidates otherwise
    candidates = _single_roots(cs)
    if candidates is None:
        if m == n:
            return _family(cs, samples, h, None, tol, "determinant vanishes identically")
        if all(_rank_drops(cs, SAMPLE_ALPHAS[:2])):
            return _family(cs, samples, h, None, tol, "all determinants vanish identically")
        candidates = np.zeros(0, dtype=complex)
    points, svd = _gate_and_polish(cs, candidates)
    return _chart_products(cs, points, h, None, tol, svd=svd)


# ---------------------------------------------------------------------------
# paired search
# ---------------------------------------------------------------------------

def build_paired_system(h1, h2) -> ConstraintSystem:
    """Constraint blocks of the paired search on raw bases, each orthonormalized and complemented.

    The sampled branch of ``paired_products`` (dimension count above 3N)
    builds its system here.
    """
    h1 = _orthonormalize(h1)
    h2 = _orthonormalize(h2)
    if h1.shape[0] != h2.shape[0]:
        raise ValueError("subspaces live in different ambient spaces")
    return ConstraintSystem(orthonormal_complement(h1), orthonormal_complement(h2))


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.kron`` of two N x N matrices, without its reshaping overhead."""
    n = x.shape[0]
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(n * n, n * n)


def _chart_pencil(cs: ConstraintSystem, cos: float,
                  sin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The mixed pencil of a paired system in the chart e = R (alpha', 1), and Delta_0's rows.

    Returns Delta_1 + gamma Delta_2, Delta_0 and the indices of the rows
    outside which Delta_0 vanishes (see ``_pencil_roots``), or None for
    those when they are all N^2 rows.
    """
    n = cs.n
    ac1, bc1, ac2, bc2 = cs.conj_blocks
    k1 = min(ac1.shape[0], max(n - ac2.shape[0], n // 2))
    a1, b1 = _compressed([cos * ac1 + sin * bc1, cos * bc1 - sin * ac1], k1)
    a2, b2 = _compressed([cos * ac2 + sin * bc2, cos * bc2 - sin * ac2], n - k1)
    a = np.zeros((n, n), dtype=complex)
    c = np.zeros((n, n), dtype=complex)
    a[:k1], c[k1:] = a1, a2
    b = np.concatenate([b1, b2])
    ca, cb, cc = a.conj(), b.conj(), c.conj()
    delta0 = _kron(a, ca) - _kron(c, cc)
    # Delta_1 + gamma Delta_2, the Kronecker products grouped by their left factor
    mixed = _kron(c, cb) + _kron(b, PENCIL_GAMMA * cc - ca) - _kron(a, PENCIL_GAMMA * cb)
    side = np.arange(n) >= k1
    rows = np.flatnonzero(side[:, None] == side[None, :])
    return mixed, delta0, (rows if rows.size < n * n else None)


def _pencil_roots(cs: ConstraintSystem) -> np.ndarray | None:
    """Candidate roots alpha of a finite paired system, or None if its pencil is singular.

    With beta standing for conj(alpha), the constraints are W1 f = 0 with
    W1 = B + alpha A + beta C, where A stacks the A1* rows over zero rows, C
    zero rows over the A2* rows and B the B1* rows over the B2* rows; their
    conjugate reads W2 g = 0 with W2 = conj(B) + beta conj(A) + alpha conj(C)
    and g = conj(f).  The r1 alpha-rows are compressed to k1 and the r2
    conjugate rows to k2 = N - k1, k1 = min(r1, max(N - r2, floor(N/2))),
    each block by its own fixed seeded matrix with orthonormal rows (a block
    of the right height is kept); Q W f = 0 wherever W f = 0, so every root
    survives.  This is a two-parameter eigenvalue problem (Atkinson 1972):
    z = f (x) g satisfies Delta_1 z = alpha Delta_0 z and Delta_2 z = beta
    Delta_0 z for the N^2 x N^2 operator determinants

        Delta_0 = A (x) conj(A) - C (x) conj(C),
        Delta_1 = C (x) conj(B) - B (x) conj(A),
        Delta_2 = B (x) conj(C) - A (x) conj(B).

    As A = [A~1; 0] and C = [0; A~2], Delta_0 vanishes outside the k =
    k1^2 + k2^2 rows whose two indices lie on the same side of k1; k < N^2
    unless one block is empty.  Delta_1 - s Delta_0 is singular for every
    s, so the mixed pencil Delta_1 + gamma Delta_2 - eta Delta_0, eta =
    alpha + gamma beta, is solved instead, by ``_shift_invert`` on those k
    rows: at most k finite eta.  A genuine root has beta = conj(alpha), so
    alpha = (eta - gamma conj(eta)) / (1 - |gamma|^2); other eigenvalues
    give candidates that the caller's rank gate drops.

    A product pair at the chart's point at infinity (A f = C f = 0) makes
    every Delta annihilate f (x) conj(f) and the pencil singular.  So the
    pencil is set up in the chart e = R (alpha', 1) of a real rotation R by
    the first of ``PENCIL_CHART_ANGLES`` whose point at infinity, e = (cos,
    sin) or alpha = cot(angle), carries no solution by the rank-drop test of
    ``_has_null``; this keeps beta' = conj(alpha'), and the roots are mapped
    back.  The points passed over are candidates themselves, and e = |0> is
    left to the chart point None of ``_chart_products``.  When every angle's
    point carries a solution, pairs likely sit at every real e or the
    constraints drop rank everywhere, and the pencil counts as singular, as
    it does when ``_shift_invert`` finds it singular at both shifts.
    """
    cots = np.array([np.cos(t) / np.sin(t) for t in PENCIL_CHART_ANGLES], dtype=complex)
    drops = _rank_drops(cs, cots)
    if all(drops):
        return None
    passed = drops.index(False)
    angle = PENCIL_CHART_ANGLES[passed]
    cos, sin = np.cos(angle), np.sin(angle)
    eta = _shift_invert(*_chart_pencil(cs, cos, sin))
    if eta is None:
        return None
    rotated = (eta - PENCIL_GAMMA * eta.conj()) / (1.0 - abs(PENCIL_GAMMA) ** 2)
    # back to the chart e = (alpha, 1); e = |0> is left to the chart point None
    e1 = sin * rotated + cos
    keep = np.abs(e1) > CHART_INFINITY_TOL * np.abs(rotated)
    return np.concatenate([(cos * rotated[keep] - sin) / e1[keep], cots[:passed]])


def paired_products(h1, c1, h2, c2, tol: ToleranceConfig | None = None):
    """Product vectors with |e,f> in H1 and the conjugate partner in H2.

    ``h1`` and ``h2`` are orthonormal bases of H1 and H2, and ``c1`` and
    ``c2`` of their orthogonal complements, all taken as given as in
    ``products_in_subspace``: only their shapes are checked.  Returns an
    InfiniteFamily (with deterministic samples) when the dimension count
    guarantees solutions for every e, or when the constraints drop rank at
    every alpha; otherwise the finite list of roots, sorted by alpha.  The
    finite roots are the eigenvalues of an operator-determinant pencil
    (``_pencil_roots``) on the complements' blocks, kept where the full
    constraint stack drops rank, polished and merged (``_gate_and_polish``),
    then range-tested by ``_chart_products``, where the chart point e = |0>
    joins the roots.

    Raises
    ------
    NonGenericInput
        When the pencil is singular although the constraints keep full rank
        at generic alpha (the determinants share a self-conjugate factor,
        whose zeros may form a curve, which no finite enumeration covers;
        a pair at every real e is one such curve), or a root or e = |0>
        carries a solution space of dimension > 1.
    """
    tol = tol or DEFAULT_TOL
    h1, c1 = _basis_and_complement(h1, c1)
    h2, c2 = _basis_and_complement(h2, c2)
    if h1.shape[0] != h2.shape[0]:
        raise ValueError("subspaces live in different ambient spaces")
    n = h1.shape[0] // 2
    if h1.shape[1] + h2.shape[1] > 3 * n:
        # A sample's f is one vector of a solution space of dimension > 1, so
        # which one comes back depends on the bases; on the stalling families
        # the verdicts after a sampled subtraction moved with them (CHANGES.md).
        # The samples are therefore still taken on re-orthonormalized bases and
        # SVD complements, until the fit of ROADMAP item 2 makes those exits
        # basis-independent.  The finite roots below are intrinsic.
        h1, h2 = _orthonormalize(h1, tol), _orthonormalize(h2, tol)
        return _family(build_paired_system(h1, h2), SAMPLE_ALPHAS, h1, h2, tol,
                       "dimension count exceeds 3N")
    cs = ConstraintSystem(c1, c2)
    candidates = _pencil_roots(cs)
    if candidates is None:
        if all(_rank_drops(cs, SAMPLE_ALPHAS[:2])):
            return _family(cs, SAMPLE_ALPHAS, h1, h2, tol, "all determinants vanish identically")
        raise NonGenericInput("singular pencil: the determinants share a self-conjugate "
                              "factor, whose zeros may form a curve")
    points, svd = _gate_and_polish(cs, candidates)
    return _chart_products(cs, points, h1, h2, tol, unique=True, svd=svd)


# ---------------------------------------------------------------------------
# real-e and kernel searches
# ---------------------------------------------------------------------------

def real_e_products(h, comp, tol: ToleranceConfig | None = None) -> list[ProductVector]:
    """Product vectors with real e inside a subspace of dimension > N.

    ``h`` and ``comp`` are taken as in ``products_in_subspace``.  For each
    real alpha the constraint rows number fewer than N, so a nontrivial f
    always exists; the result is never empty.
    """
    tol = tol or DEFAULT_TOL
    h, comp = _basis_and_complement(h, comp)
    n, m = h.shape[0] // 2, h.shape[1]
    if m <= n:
        raise ValueError(f"real-e search needs dim(H) > N, got dim {m} with N={n}")
    return _chart_products(ConstraintSystem(comp, comp[:, :0]), REAL_ALPHA_GRID + (None,),
                           h, None, tol)


def kernel_product_vectors(state):
    """Every product vector found in the kernel of a PPT state, in the search's order.

    The search runs on the state's own kernel and range bases and
    tolerances, so the state's rank decision is the only one.  Only vectors
    whose conjugate partner the partial transpose annihilates are kept; an
    infinite kernel family comes back as an InfiniteFamily of those samples.
    """
    kernel = state.kernel_basis
    if kernel.shape[1] == 0:
        return []
    res = products_in_subspace(kernel, state.range_basis, state.tol)
    kept = copy.copy(res)  # a family stays one, with its note
    if res:
        images = (state.pt_matrix @ vector_stacks(res)[1][:, :, None])[:, :, 0]
        kept[:] = [v for v, ok in zip(res, _row_norms(images) <= NULL_ACCEPT * state.norm) if ok]
    return kept


def kernel_product_vector(state) -> ProductVector | None:
    """First product vector of ``kernel_product_vectors``, if any.

    Guaranteed to exist when the kernel dimension reaches N.
    """
    found = kernel_product_vectors(state)
    return found[0] if found else None
