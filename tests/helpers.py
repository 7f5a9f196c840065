"""Shared constructions and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
ranks are counted from eigenvalues, norms come from power iteration, and
PSD ordering from the spectrum of the difference.  The fixed-alpha solves
have one-alpha references for the stacked calls that replaced them, and the
candidate screens (phase normalization, range tests, the partner filter,
the subtraction bounds and the kernel terms) one-vector references.  The
per-call primitives whose validation, allocation and Python loops were cut
(input checks, the rank split and the Hermitian part) keep their former
forms here, as bitwise references.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from sep2n import sepengine
from sep2n.matrixcore import hermitize, numerical_rank_kernel, partial_transpose_matrix
from sep2n.productfinder import (
    CHART_INFINITY_TOL,
    NULL_ACCEPT,
    SAMPLE_ALPHAS,
    ConstraintSystem,
    NonGenericInput,
    ProductVector,
    _chart_products,
    _orthonormalize,
    orthonormal_complement,
)
from sep2n.sepengine import (
    PRODUCT_LINE_REL_TOL,
    SupportViolation,
)


# ---------------------------------------------------------------------------
# state constructions
# ---------------------------------------------------------------------------

def random_product_vector(rng, n):
    e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ProductVector.from_e_f(e, f)


def build_separable(rng, n, count, unit_trace=True):
    """Random mixture of product projectors; returns (matrix, generators, weights)."""
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    gens, weights = [], []
    for _ in range(count):
        pv = random_product_vector(rng, n)
        w = rng.uniform(0.5, 1.5)
        m += w * pv.projector()
        gens.append(pv)
        weights.append(w)
    if unit_trace:
        tr = np.real(np.trace(m))
        m /= tr
        weights = [w / tr for w in weights]
    return m, gens, weights


def random_pt_invariant(rng, n, margin=0.1):
    dim = 2 * n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = hermitize(g)
    h = (h + partial_transpose_matrix(h, n)) / 2
    wmin = float(np.min(np.linalg.eigvalsh(h)))
    m = h + (abs(wmin) + margin * np.linalg.norm(h, 2)) * np.eye(dim)
    return m / np.real(np.trace(m))


def werner(p):
    """Two-qubit Werner state p |psi-><psi-| + (1 - p) I / 4; separable iff p <= 1/3."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4


def embedded_max_entangled(n):
    """|0>|1st> + |1>|2nd> projector on C2 x CN, unit trace."""
    vec = np.zeros(2 * n, dtype=complex)
    vec[0] = 1.0
    vec[n + 1] = 1.0
    m = np.outer(vec, vec.conj())
    return m / np.real(np.trace(m))


def horodecki_2x4(b):
    """P. Horodecki's PPT-entangled state on C2 x C4, 0 < b < 1."""
    m = np.zeros((8, 8))
    for k in range(4):
        m[k, k] = b
    for k in range(3):
        m[k, 5 + k] = m[5 + k, k] = b
        m[5 + k, 5 + k] = b
    s = np.sqrt(1 - b * b) / 2
    m[4, 4] = m[7, 7] = (1 + b) / 2
    m[4, 7] = m[7, 4] = s
    return m.astype(complex) / (7 * b + 1)


def transformed_pt_invariant(rng, n, defect=0.0):
    """(A^-1 x I) sigma (A^-1 x I)^dag for a random PT-invariant sigma and random A.

    ``defect`` adds an off-diagonal block of that relative size, breaking
    the invariance of sigma.
    """
    sigma = random_pt_invariant(rng, n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sigma[:n, n:] += defect * np.linalg.norm(sigma, 2) * x / np.linalg.norm(x, 2)
    sigma[n:, :n] = sigma[:n, n:].conj().T
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w = np.kron(np.linalg.inv(a), np.eye(n))
    m = w @ sigma @ w.conj().T
    return m / np.real(np.trace(m))


def random_psd(rng, dim, rank=None):
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def split_premise_state(rng, n, target=0.8):
    """Full-range state with ||(rho+rho^TA)^-1|| * ||rho-rho^TA|| == target."""
    dim = 2 * n
    rho_s = hermitize(random_psd(rng, dim))
    rho_s = (rho_s + partial_transpose_matrix(rho_s, n)) / 2
    # the transpose-symmetrized part of a PSD draw may dip negative; shift
    # it well inside the cone so the premise scale is meaningful
    wmin = float(np.min(np.linalg.eigvalsh(rho_s)))
    rho_s += (max(0.0, -wmin) + 0.05 * np.linalg.norm(rho_s, 2)) * np.eye(dim)
    rho_s /= np.real(np.trace(rho_s))
    wmin = float(np.min(np.linalg.eigvalsh(rho_s)))
    b = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    b *= target * wmin / np.linalg.norm(b, 2)
    sy = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    return rho_s + np.kron(sy, b)


def random_ppt_mixture(rng, n):
    dim = 2 * n
    raw = random_psd(rng, dim)
    raw /= np.real(np.trace(raw))
    pt_min = float(np.min(np.linalg.eigvalsh(partial_transpose_matrix(raw, n))))
    mix = 0.0
    if pt_min < 0:
        mix = min(1.0, 1.05 * (-pt_min) / (-pt_min + 1.0 / dim))
    return (1 - mix) * raw + mix * np.eye(dim) / dim


def basis_and_complement(h, tol=None):
    """The orthonormal basis of span(h) and of its complement that a raw basis is searched on.

    The searches take both bases as given; these are the ones
    ``_orthonormalize`` (under ``tol``'s rank cutoff) and
    ``orthonormal_complement`` derive from ``h``.
    """
    h = _orthonormalize(h, tol)
    return h, orthonormal_complement(h)


def paired_bases(h1, h2, tol=None):
    """``paired_products``'s first four arguments for raw bases h1 and h2: each basis, then its complement."""
    return (*basis_and_complement(h1, tol), *basis_and_complement(h2, tol))


def reference_sampled_paired(h1, h2, tol):
    """The samples of a paired search past 3N as the raw-basis search took them.

    Each basis is orthonormalized by SVD under ``tol``'s cutoff, then again
    under the default one, and each complement is the SVD kernel of that
    basis's adjoint; the constraint rows are those complements' halves.
    """
    h1, h2 = (numerical_rank_kernel(h, tol).range_basis for h in (h1, h2))
    c1, c2 = (numerical_rank_kernel(numerical_rank_kernel(h).range_basis.conj().T).kernel_basis
              for h in (h1, h2))
    return _chart_products(ConstraintSystem(c1, c2), SAMPLE_ALPHAS, h1, h2, tol)


def perfbench_corpus():
    """The benchmark's labelled corpus, ``perfbench/corpus.py``, as a module loaded once."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)  # its dataclass looks it up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# ---------------------------------------------------------------------------
# linear-algebra oracles
# ---------------------------------------------------------------------------

def count_svd_stacks(monkeypatch):
    """A list that gains the shape of every stacked (3-D) ``np.linalg.svd`` input from now on."""
    stacks, svd = [], np.linalg.svd

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return stacks


def partial_expectation(m, n, e_left, e_right):
    """N x N block <e_left| M |e_right>, contracting only the qubit factor."""
    el = np.conj(np.asarray(e_left, dtype=complex))
    er = np.asarray(e_right, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    for a in range(2):
        for b in range(2):
            out += el[a] * er[b] * m[a * n:(a + 1) * n, b * n:(b + 1) * n]
    return out


def eig_rank(m, rel_cutoff=1e-9):
    """Rank by counting eigenvalue magnitudes (Hermitian input)."""
    w = np.abs(np.linalg.eigvalsh(hermitize(np.asarray(m, dtype=complex))))
    top = w.max() if w.size else 0.0
    if top <= 0:
        return 0
    return int(np.count_nonzero(w > rel_cutoff * top))


def power_iteration_norm(m, rng, iters=500):
    m = np.asarray(m, dtype=complex)
    h = m.conj().T @ m
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = h @ v
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(np.sqrt(np.real(np.vdot(v, h @ v))))


def psd_difference_oracle(x, y, rel_tol=1e-9):
    """X - Y >= 0 decided directly from the difference spectrum."""
    x = hermitize(np.asarray(x, dtype=complex))
    y = hermitize(np.asarray(y, dtype=complex))
    wmin = float(np.min(np.linalg.eigvalsh(x - y)))
    scale = float(np.linalg.norm(x, 2))
    return wmin >= -rel_tol * max(scale, 1e-300)


def min_eig(m):
    return float(np.min(np.linalg.eigvalsh(hermitize(np.asarray(m, dtype=complex)))))


def sets_match(a, b, radius=1e-6):
    """Set equality of complex collections within a matching radius."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for x in a:
        hit = None
        for i, y in enumerate(b):
            if not used[i] and abs(x - y) <= radius:
                hit = i
                break
        if hit is None:
            return False
        used[hit] = True
    return True


# ---------------------------------------------------------------------------
# one-vector candidate screens: the loops that the stacked screens in
# ``productfinder`` and ``sepengine`` replaced, kept as their bitwise references
# ---------------------------------------------------------------------------

def scalar_phase_normalize(v):
    """Unit-normalize one vector and divide out the phase of its largest entry."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero vector")
    v = v / nrm
    i = int(np.argmax(np.abs(v)))
    phase = v[i] / abs(v[i])
    return v / phase


def scalar_from_alpha(alpha, f):
    e = (np.array([1.0, 0.0], dtype=complex) if alpha is None
         else scalar_phase_normalize(np.array([alpha, 1.0], dtype=complex)))
    return ProductVector(e=e, f=scalar_phase_normalize(f), alpha=alpha)


def scalar_from_e_f(e, f):
    e = scalar_phase_normalize(e)
    alpha = None if abs(e[1]) <= CHART_INFINITY_TOL else complex(e[0] / e[1])
    return ProductVector(e=e, f=scalar_phase_normalize(f), alpha=alpha)


def scalar_in_range(basis, vec, tol):
    """Whether one vector lies in the span of the orthonormal columns of basis."""
    residual = float(np.linalg.norm(vec - basis @ (basis.conj().T @ vec)))
    return residual <= 10.0 * tol.root_residual_tol


def scalar_partner_filter(state, vectors):
    """The vectors whose partner the partial transpose annihilates, one norm each."""
    pt_norm = max(state.norm, 1e-300)
    return [v for v in vectors
            if np.linalg.norm(state.pt_matrix @ v.conjugate_partner.vector)
            <= NULL_ACCEPT * pt_norm]


class VectorOutsideRange(Exception):
    """``scalar_lambda_bounds`` has no weights for this vector."""


def scalar_lambda_bounds(state, v):
    """The weights ``(lam0, lam0bar)`` of one vector, the bounds that ``subtract`` screens."""
    vec = v.vector
    partner = v.conjugate_partner.vector
    if not scalar_in_range(state.range_basis, vec, state.tol):
        raise VectorOutsideRange("|e,f> is not in the range of the state")
    if not scalar_in_range(state.pt_range_basis, partner, state.tol):
        raise VectorOutsideRange("|e*,f> is not in the range of the partial transpose")
    q = float(np.real(np.vdot(vec, state.pseudoinverse() @ vec)))
    qbar = float(np.real(np.vdot(partner, state.pt_pseudoinverse() @ partner)))
    if q <= 0 or qbar <= 0:
        raise VectorOutsideRange("nonpositive pseudoinverse quadratic form")
    return 1.0 / q, 1.0 / qbar


def scalar_best_subtraction(state, candidates):
    best, best_lam = None, -1.0
    for v in candidates:
        try:
            lam0, lamb0 = scalar_lambda_bounds(state, v)
        except VectorOutsideRange:
            continue
        lam = min(lam0, lamb0)
        if lam > best_lam:
            best, best_lam = v, lam
    return best


def scalar_kernel_term(state, v):
    """``(lam, sub_vec, (weight, pv))`` of one kernel product vector, or the first failed check."""
    n, norm = state.n, max(state.norm, 1e-300)
    if np.linalg.norm(state.matrix @ v.vector) > NULL_ACCEPT * norm:
        raise ValueError("vector is not in the kernel of the state")
    e = v.e
    ehat = np.array([-np.conj(e[1]), np.conj(e[0])], dtype=complex)
    w = state.matrix @ (ehat[:, None] * v.f[None, :]).ravel()
    wn = np.linalg.norm(w)
    if wn <= state.tol.rank_rel_tol * norm:
        raise SupportViolation("state annihilates |e_hat, f>; strip the support first")
    g = np.conj(ehat[0]) * w[:n] + np.conj(ehat[1]) * w[n:]
    sub_vec = (ehat[:, None] * g[None, :]).ravel()
    if np.linalg.norm(w - sub_vec) > PRODUCT_LINE_REL_TOL * wn:
        raise NonGenericInput("kernel image is not a product line")
    gf = float(np.real(np.vdot(g, v.f)))
    if gf <= 0:
        raise NonGenericInput("nonpositive overlap between g and f")
    lam = 1.0 / gf
    return lam, sub_vec, (lam * float(np.vdot(g, g).real), scalar_from_e_f(ehat, g))


# ---------------------------------------------------------------------------
# scalar fixed-alpha solves: the one-alpha loops that the stacked numpy
# calls in ``productfinder`` replaced, kept as their bitwise references
# ---------------------------------------------------------------------------

def scalar_stacked(cs, alpha):
    """Constraint matrix of a ``ConstraintSystem`` at one alpha."""
    ac1, bc1, ac2, bc2 = cs.conj_blocks
    top = alpha * ac1 + bc1
    if not ac2.shape[0]:
        return top
    return np.vstack([top, np.conj(alpha) * ac2 + bc2])


def _scalar_has_null(s, k, alpha):
    return k > s.size or not s[k - 1] > NULL_ACCEPT * max(float(s[0]), 1.0 + abs(alpha))


def scalar_vector_at_root(cs, alpha, paired=True):
    """Product vector at one root from its own SVD, None past the rank gate."""
    _u, s, vh = np.linalg.svd(scalar_stacked(cs, alpha), full_matrices=False)
    if not _scalar_has_null(s, cs.n, alpha):
        return None
    if paired and cs.n >= 2 and _scalar_has_null(s, cs.n - 1, alpha):
        raise NonGenericInput(f"solution space at alpha={alpha:.6g} has dimension > 1")
    return scalar_from_alpha(alpha, vh[-1].conj())


def scalar_root_products(roots, cs, h1, h2, tol):
    """Root loop: one vector per root, kept when its range tests pass (H2 unless None)."""
    found = []
    for alpha in roots:
        v = scalar_vector_at_root(cs, complex(alpha), h2 is not None)
        if (v is not None and scalar_in_range(h1, v.vector, tol)
                and (h2 is None or scalar_in_range(h2, v.conjugate_partner.vector, tol))):
            found.append(v)
    return found


def scalar_chart_products(cs, alphas, h1, h2, tol):
    """Fixed-alpha sample search at finite alphas, one SVD per alpha."""
    found = []
    for alpha in alphas:
        m = scalar_stacked(cs, alpha)
        f = np.eye(cs.n, 1, dtype=complex)[:, 0]
        if m.shape[0]:
            _u, s, vh = np.linalg.svd(m, full_matrices=True)
            f = vh[-1].conj()
            if not _scalar_has_null(s, cs.n, alpha):
                continue
        v = scalar_from_alpha(alpha, f)
        if scalar_in_range(h1, v.vector, tol) and (
                h2 is None or scalar_in_range(h2, v.conjugate_partner.vector, tol)):
            found.append(v)
    return found


# ---------------------------------------------------------------------------
# per-call primitives: the forms that the overhead cuts in ``matrixcore``
# replaced, kept as their bitwise references
# ---------------------------------------------------------------------------

def reference_as_complex_matrix(a, name="matrix"):
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def reference_split(tol, w, v):
    """``DensityState._split`` choosing its columns by list comprehensions."""
    mags = np.abs(w)
    wmax = float(np.max(mags)) if mags.size else 0.0
    cutoff = tol.rank_rel_tol * wmax
    keep = mags > cutoff
    borderline = np.count_nonzero((mags > cutoff / 10) & (mags < 10 * cutoff))
    order = np.argsort(-mags)
    kept = [i for i in order if keep[i]]
    dropped = [i for i in order if not keep[i]]
    return len(kept), v[:, dropped], v[:, kept], borderline


def reference_hermitize(m):
    """``matrixcore.hermitize`` adding before it halves."""
    return (m + m.conj().T) / 2


def shared_e_rank_n(rng, n):
    """Rank-N mixture of N product projectors whose first two share one e.

    The kernel then holds |e_perp, f> for every f orthogonal to the f's of
    the other N - 2 terms: a curve of product vectors, not N isolated ones.
    Returns (matrix, product vectors).
    """
    vecs = [random_product_vector(rng, n) for _ in range(n - 1)]
    vecs.insert(1, ProductVector.from_e_f(vecs[0].e, rng.standard_normal(n)
                                          + 1j * rng.standard_normal(n)))
    m = sum(rng.uniform(0.5, 1.5) * v.projector() for v in vecs)
    return m / np.real(np.trace(m)), vecs


def shared_e_rank_n_plus_one(rng, n):
    """|a><a| (x) sigma + |b><b| (x) |f><f| with sigma of rank N: rank N + 1 on C2 x CN.

    The kernel holds |a_perp, g> for every g orthogonal to f, so each pass
    reduces through a kernel vector: N - 1 kernel reductions, then the base case.
    """
    a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = (np.kron(np.outer(a, a.conj()), random_psd(rng, n))
         + np.kron(np.outer(b, b.conj()), np.outer(f, f.conj())))
    return m / np.real(np.trace(m))


def decline_rank_n_split(monkeypatch, times=None):
    """Make the rank-N split decline on its first ``times`` calls, or on every call.

    Only the calls of ``sepengine._schur_split`` with ``_normal_spectrum``
    decline, so the PT-invariant split, also inside both fallbacks, runs as
    it is and a rank-N state takes the kernel route.  Returns the list of
    the declined states.
    """
    real, normal, declined = sepengine._schur_split, sepengine._normal_spectrum, []

    def split(x, state, spectrum):
        if spectrum is normal and (times is None or len(declined) < times):
            declined.append(state)
            return None
        return real(x, state, spectrum)

    monkeypatch.setattr(sepengine, "_schur_split", split)
    return declined


def random_local_unitary(rng, n):
    """U (x) V with U on C2 and V on CN from QR of complex Gaussian matrices."""
    u, v = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            for d in (2, n))
    return np.kron(u, v)
