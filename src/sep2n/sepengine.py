"""Separability decision pipeline for PPT states on C2 x CN.

``analyze`` answers a negative partial transpose at once.  Otherwise each
pass runs these stages in order: zero remainder, support stripping, the
base case N = 1, PT-invariance, kernel reduction (both ranks and N drop by
one), the closed-form two-qubit decomposition at N = 2, whose decline
stops the passes, and for N >= 3 the paired search, which subtracts a
sampled product vector above rank sum 3N and otherwise expands the state
over the enumerated product vectors.  A stop leads to sufficient fallback
checks.  ``decompose_rank_n`` and ``pt_invariant_decompose`` run stage
tuples of their own on the same pass loop, ``_passes``.  Every "separable"
verdict carries a certificate that is re-verified against the input before
being emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .matrixcore import (
    _SQUARE_SAFE,
    DEFAULT_TOL,
    DensityState,
    ToleranceConfig,
    as_complex_matrix,
    hermitize,
    operator_norm_at_most,
    partial_trace_second,
    partial_transpose_matrix,
    split_at_cutoff,
)
from .productfinder import (
    NULL_ACCEPT,
    InfiniteFamily,
    NonGenericInput,
    ProductVector,
    _inner,
    _kron_rows,
    _row_norms,
    in_range,
    kernel_product_vectors,
    paired_products,
    products_of,
    real_e_products,
    vector_stacks,
)

__all__ = [
    "VerdictKind",
    "Verdict",
    "SeparabilityCertificate",
    "TraceStep",
    "ReductionTrace",
    "SupportViolation",
    "DependentProjectors",
    "NotPTInvariant",
    "REASON_NON_GENERIC",
    "REASON_INFINITE_FAMILY",
    "REASON_REDUCTION_STALLED",
    "subtract",
    "strip_support",
    "reduce_by_kernel",
    "decompose_rank_n",
    "two_qubit_decompose",
    "biorthogonal_check",
    "pt_invariant_decompose",
    "symmetric_split_check",
    "pt_symmetrizing_search",
    "analyze",
    "verify_certificate",
]


class SupportViolation(Exception):
    """The state annihilates the rotated kernel line: a spurious dimension."""


class DependentProjectors(Exception):
    """The candidate projectors are linearly dependent; the expansion is not unique."""


class NotPTInvariant(ValueError):
    """The state is not invariant under partial transposition."""


# Relative tie threshold for declaring the two subtraction weights equal.
TIE_REL_TOL = 1e-8
# Relative closeness under which a state counts as equal to its partial transpose.
PT_INVARIANCE_REL_TOL = 1e-8
# Relative size, against the state it came from, under which a remainder is zero.
_ZERO_REL_TOL = 1e-12
# Relative distance of rho|e_hat, f> from |e_hat> (x) g under which the image is one
# product line, so that subtracting it drops both ranks.
PRODUCT_LINE_REL_TOL = 1e-7

REASON_NON_GENERIC = "NonGenericInput"
REASON_INFINITE_FAMILY = "InfiniteFamilyUnresolved"
REASON_REDUCTION_STALLED = "ReductionStalled"
_NO_KERNEL_VECTOR = "kernel product vector not found despite guaranteed existence"


class VerdictKind(str, Enum):
    SEPARABLE = "separable"
    ENTANGLED_NPT = "entangled_npt"
    ENTANGLED_PPT = "entangled_ppt"
    INCONCLUSIVE = "inconclusive"


@dataclass
class SeparabilityCertificate:
    """Weighted product projectors claimed to sum to the analyzed state."""

    terms: list[tuple[float, ProductVector]] = field(default_factory=list)

    def reconstruct(self, dim: int) -> np.ndarray:
        """The weighted projector sum, one product of the stacked term vectors."""
        if not self.terms:
            return np.zeros((dim, dim), dtype=complex)
        w = np.array([weight for weight, _pv in self.terms], dtype=float)
        v = np.array([pv.vector for _w, pv in self.terms], dtype=complex)
        if v.shape[1] != dim:
            raise ValueError(f"term vectors of size {v.shape[1]} do not fit dimension {dim}")
        return (v.T * w) @ v.conj()


@dataclass
class Verdict:
    kind: VerdictKind
    certificate: SeparabilityCertificate | None = None
    witness: dict | None = None
    reason: str | None = None


@dataclass
class TraceStep:
    op: str
    lam: float | None = None
    case: str | None = None
    alpha: complex | None = None
    ranks_before: tuple[int, int] | None = None
    ranks_after: tuple[int, int] | None = None
    n_before: int | None = None
    n_after: int | None = None
    min_eig_after: tuple[float, float] | None = None
    norm_before: float | None = None
    detail: str = ""


@dataclass
class ReductionTrace:
    steps: list[TraceStep] = field(default_factory=list)
    exhaustive_enumeration: bool = False
    nonexhaustive_subtraction: bool = False
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# subtraction primitives
# ---------------------------------------------------------------------------

def _negligible(x, ref: DensityState) -> bool:
    """Whether ``||x|| <= _ZERO_REL_TOL * ||ref||``; a state's cached norm needs no SVD."""
    if isinstance(x, DensityState):
        return x.norm <= _ZERO_REL_TOL * ref.norm
    return operator_norm_at_most(x, _ZERO_REL_TOL, floor=ref.norm)


def _matrix_and_tol(state) -> tuple[np.ndarray, ToleranceConfig]:
    """A DensityState's matrix and tolerances, or a raw matrix with the default ones.

    A raw matrix must be finite and 2N x 2N with N >= 1; ``ValueError`` says
    which of these fails, naming the shape.
    """
    if isinstance(state, DensityState):
        return state.matrix, state.tol
    matrix = as_complex_matrix(state)
    rows, cols = matrix.shape
    if rows != cols or rows % 2 or not rows:
        raise ValueError(f"matrix must be 2N x 2N with N >= 1, got shape {matrix.shape}")
    return matrix, DEFAULT_TOL


def _bound_stacks(state: DensityState, vecs: np.ndarray, partners: np.ndarray):
    """Range tests and pseudoinverse quadratic forms of (K, 2N) stacks of vectors and partners.

    Returns ``(in_range, pt_in_range, q, qbar)``, each of shape (K,): whether
    |e,f> lies in the range of the state and |e*,f> in that of the partial
    transpose, and the forms <e,f|rho^+|e,f> and <e*,f|(rho^T_A)^+|e*,f>.
    """
    cols, pcols = vecs[:, :, None], partners[:, :, None]
    return (in_range(state.range_basis, vecs, state.tol),
            in_range(state.pt_range_basis, partners, state.tol),
            _inner(cols, state.pseudoinverse() @ cols).real,
            _inner(pcols, state.pt_pseudoinverse() @ pcols).real)


def _successor(m: np.ndarray, ref: DensityState) -> DensityState:
    """The state after a reduction step: ``m`` hermitized, PSD unless negligible against ``ref``."""
    m = hermitize(m)
    return DensityState(m, tol=ref.tol, require_psd=not _negligible(m, ref))


def _best_candidate(state: DensityState, candidates):
    """The first candidate of largest weight ``min(lam0, lam0bar)`` as ``(lam, case, v)``, or None.

    lam0 and lam0bar, the largest weights keeping the state and its partial
    transpose positive, are the inverse pseudoinverse quadratic forms along
    |e,f> and |e*,f>, screened for all candidates as one stack.  The case
    tag records which rank a subtraction at ``lam`` drops: "i" the state's,
    "ii" the transpose's, "iii" both (tied weights).  None when no candidate
    lies in both ranges with positive forms.
    """
    if not candidates:
        return None
    inside, pt_inside, q, qbar = _bound_stacks(state, *vector_stacks(candidates))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam0s, lamb0s = 1.0 / q, 1.0 / qbar
    # Python's min(lam0, lamb0): lam0 unless lamb0 is smaller, also when one is NaN
    lams = np.where(lamb0s < lam0s, lamb0s, lam0s)
    usable = inside & pt_inside & ~((q <= 0) | (qbar <= 0)) & ~np.isnan(lams)
    if not usable.any():
        return None
    k = int(np.argmax(np.where(usable, lams, -np.inf)))
    lam0, lamb0, lam, v = float(lam0s[k]), float(lamb0s[k]), float(lams[k]), candidates[k]
    tied = abs(lam0 - lamb0) <= TIE_REL_TOL * max(lam0, lamb0)
    case = "iii" if tied else "i" if lam0 < lamb0 else "ii"
    return lam, case, v


def subtract(state: DensityState, candidates):
    """Remove the candidate projector that ``_best_candidate`` picks, as one new state.

    Returns ``(new_state, lam, case, v)``: ``new_state`` is the state minus
    ``lam`` times the projector of ``v``, PSD unless negligible.  None when
    no candidate is usable.
    """
    best = _best_candidate(state, candidates)
    if best is None:
        return None
    lam, case, v = best
    return _successor(state.matrix - lam * v.projector(), state), lam, case, v


def strip_support(state: DensityState) -> tuple[DensityState, np.ndarray]:
    """Drop spurious second-factor dimensions.

    Returns the state re-expressed on its support C2 x CM together with the
    N x M isometry lifting support coordinates back to the input basis.  The
    isometry is the identity when the support is already full.  Raises
    ``ValueError`` when the partial trace is zero.
    """
    return _stripped_support(state)[:2]


def _stripped_support(state: DensityState) -> tuple[DensityState, np.ndarray, int]:
    """``strip_support``'s result and how many support eigenvalues sit near the rank cutoff."""
    n = state.n
    reduced = hermitize(partial_trace_second(state.matrix, n))
    w, u = np.linalg.eigh(reduced)
    keep, borderline = split_at_cutoff(w, state.tol)
    m_dim = int(np.count_nonzero(keep))
    if m_dim == 0:
        raise ValueError("no support above the rank cutoff: the partial trace is zero")
    if m_dim == n:
        return state, np.eye(n, dtype=complex), borderline
    iso = u[:, keep]
    w2 = np.kron(np.eye(2, dtype=complex), iso)
    stripped = DensityState(w2.conj().T @ state.matrix @ w2, tol=state.tol, require_psd=False)
    return stripped, iso, borderline


def _kernel_terms(state: DensityState, vectors) -> list:
    """The product terms of the state that the kernel product vectors pick out, in order.

    With e_hat orthogonal to e, the image ``rho|e_hat, f>`` must be a product
    line ``|e_hat> (x) g``; the term is ``lam |e_hat, g><e_hat, g|`` with
    ``lam = 1 / <g|f>``.  For a state that is a sum of N product terms, the
    kernel vector orthogonal to all but one of them picks out that one.  An
    image no larger than the state's rank cutoff, ``rank_rel_tol`` times its
    norm, means the state annihilates |e_hat, f>: the support is not full and
    must be stripped first (``SupportViolation``).  Every check runs on the
    stack of all vectors; the first vector that fails one raises, with the
    first check it fails, as a loop over them would.

    Returns one ``(lam, sub_vec, (weight, pv))`` per vector: ``sub_vec`` is
    the unnormalized |e_hat, g> and ``weight`` times the projector of ``pv``
    is the term.
    """
    if not vectors:
        return []
    n, norm, m = state.n, state.norm, state.matrix
    es = np.array([v.e for v in vectors])
    fs = np.array([v.f for v in vectors])
    ehat = np.stack([-np.conj(es[:, 1]), np.conj(es[:, 0])], axis=1)
    residual = _row_norms((m @ np.array([v.vector for v in vectors])[:, :, None])[:, :, 0])
    w = (m @ _kron_rows(ehat, fs)[:, :, None])[:, :, 0]
    wn = _row_norms(w)
    g = np.conj(ehat[:, :1]) * w[:, :n] + np.conj(ehat[:, 1:]) * w[:, n:]
    sub_vecs = _kron_rows(ehat, g)
    gf = _inner(g[:, :, None], fs[:, :, None]).real
    checks = (
        (residual > NULL_ACCEPT * norm,
         ValueError("vector is not in the kernel of the state")),
        (wn <= state.tol.rank_rel_tol * norm,
         SupportViolation("state annihilates |e_hat, f>; strip the support first")),
        (_row_norms(w - sub_vecs) > PRODUCT_LINE_REL_TOL * wn,
         NonGenericInput("kernel image is not a product line")),
        (gf <= 0, NonGenericInput("nonpositive overlap between g and f")),
    )
    failed = np.any([bad for bad, _exc in checks], axis=0)
    if failed.any():
        k = int(np.argmax(failed))
        raise next(exc for bad, exc in checks if bad[k])
    with np.errstate(over="ignore", invalid="ignore"):  # as quiet as Python float arithmetic
        lams = 1.0 / gf
        weights = lams * _inner(g[:, :, None], g[:, :, None]).real
    return [(lam, sub, (weight, pv)) for lam, sub, weight, pv
            in zip(lams.tolist(), sub_vecs, weights.tolist(), products_of(ehat, g))]


def reduce_by_kernel(state: DensityState, v: ProductVector):
    """Turn a kernel product vector into a rank-and-dimension reduction.

    Rotating e to its orthogonal complement maps the state onto a product
    line |e_hat, g>, whose subtraction at the tied weight drops both ranks
    by one and shrinks the support to C2 x C(N-1).  Separability of the
    result is equivalent to separability of the input.

    Returns ``(reduced_state, (weight, subtracted_vector), isometry)``, the
    vector expressed in the pre-reduction basis.
    """
    lam, sub_vec, term = _kernel_terms(state, [v])[0]
    m = state.matrix - lam * np.outer(sub_vec, sub_vec.conj())
    reduced, iso = strip_support(_successor(m, state))
    return reduced, term, iso


# ---------------------------------------------------------------------------
# constructive decompositions
# ---------------------------------------------------------------------------

def _base_terms(state: DensityState) -> list[tuple[float, ProductVector]]:
    """Spectral terms of a state on C2 x C1; every vector there is product."""
    w, u = state._eigvals, state._eigvecs
    keep = split_at_cutoff(w, state.tol)[0] & (w > 0)
    f = np.ones((np.count_nonzero(keep), 1))
    return list(zip(w[keep].tolist(), products_of(u[:, keep].T, f)))


def _lift_pv(pv: ProductVector, lift: np.ndarray) -> ProductVector:
    # a lift is a product of strips, each the identity or N x M with M < N,
    # so a square lift is the identity and the vector needs no rebuild
    if lift.shape[0] == lift.shape[1]:
        return pv
    return ProductVector.from_e_f(pv.e, lift @ pv.f)


def _all_kernel_terms(state: DensityState, found):
    """The N terms that N kernel product vectors pick out of the state, or None.

    None unless the search found a finite list of exactly N vectors, every
    vector passes the checks of ``_kernel_terms`` and the terms reconstruct
    the state within the state's ``cert_recon_tol``.
    """
    if isinstance(found, InfiniteFamily) or len(found) != state.n:
        return None
    try:
        terms = [term for _lam, _sub_vec, term in _kernel_terms(state, found)]
    except (ValueError, SupportViolation, NonGenericInput):
        return None
    recon = SeparabilityCertificate(terms).reconstruct(state.dim)
    return terms if operator_norm_at_most(state.matrix - recon, state.tol.cert_recon_tol,
                                          state.matrix) else None


def decompose_rank_n(state: DensityState) -> SeparabilityCertificate:
    """Constructive decomposition of a state whose rank equals its support dimension.

    A generic such state has exactly N kernel product vectors, one per
    term, and each picks out its term from the state itself, so one kernel
    search gives all N terms.  Otherwise each pass of ``(_base_case,
    _kernel_reduction)`` peels off one term and searches again, down to the
    spectral base case; a stop raises ``NonGenericInput``.  The certificate
    is expressed in the input basis.
    """
    cur, lift = strip_support(state)
    if cur.rank != cur.n:
        raise ValueError(f"rank {cur.rank} does not match support dimension {cur.n}")
    return _certify(_Run(state, ReductionTrace(), cur, lift), (_base_case, _kernel_reduction))


# Relative slack, against the trace, by which the largest Wootters value may
# exceed the sum of the other three for a two-qubit state to count as separable.
TWO_QUBIT_SLACK = 1e-9
# Takagi values below this share of the largest Takagi-matrix entry count as zero.
_TAKAGI_ZERO = 1e-12
# sigma_y (x) sigma_y in the product basis; it is real.
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
# The 4 x 4 Hadamard matrix with entries +-1.
_HADAMARD = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])


def _triangle(a: float, b: float, d: float) -> tuple[complex, complex]:
    """Unit za, zb with ``a za + b zb = d``, for a >= b >= 0 and a - b <= d <= a + b."""
    if d == 0:
        return 1.0, -1.0
    if b == 0:
        return 1.0, 1.0
    # the angle at the smaller side by the law of cosines, then za along
    # d - b zb: the closure then errs only to second order, also when the
    # triangle is flat; the clip absorbs the slack
    zb = np.exp(-1j * np.arccos(np.clip((b * b + d * d - a * a) / (2 * b * d), -1, 1)))
    return (d - b * zb) / abs(d - b * zb), zb


def two_qubit_decompose(state) -> SeparabilityCertificate | None:
    """Wootters' decomposition of a two-qubit state into at most 4 product terms.

    With rho = V V^dag, the Takagi factorization of the complex symmetric
    ``tau = V^dag (sy x sy) conj(V) = W diag(lam) W^T`` gives vectors
    ``x = V W`` whose spin-flip overlaps are ``lam``.  Phases z with
    ``sum_j lam_j z_j = 0`` exist exactly when the concurrence
    ``lam_1 - lam_2 - lam_3 - lam_4`` is not positive; then the four
    vectors ``y = x diag(sqrt z) H^T / 2`` reconstruct rho and each is a
    product.  ``state`` is a DensityState, whose tolerances apply, or a
    finite 4 x 4 matrix, which gets the default ones and, unless zero, must
    pass a DensityState's Hermitian and PSD checks.  Returns None when the
    concurrence exceeds ``TWO_QUBIT_SLACK`` times the trace, i.e. the state
    is entangled.
    """
    matrix, tol = _matrix_and_tol(state)
    if matrix.shape != (4, 4):
        raise ValueError(f"two-qubit decomposition needs a 4 x 4 matrix, got {matrix.shape}")
    if not isinstance(state, DensityState):
        # raises ValueError unless Hermitian and, when nonzero, PSD
        state = DensityState(matrix, tol=tol, require_psd=bool(np.any(matrix)))
    w, u = state._eigvals, state._eigvecs
    keep = split_at_cutoff(w, tol)[0] & (w > 0)
    v = u[:, keep] * np.sqrt(w[keep])
    if not v.size:  # the zero matrix: the empty sum
        return SeparabilityCertificate([])
    tau = v.conj().T @ _SPIN_FLIP @ v.conj()
    # Takagi vectors from the real symmetric embedding: [a; b] at eigenvalue
    # lam > 0 gives the column a + ib (its partner at -lam is i(a + ib)); the
    # QR completes them to a unitary, with the zero Takagi values last
    r = v.shape[1]
    lam, vecs = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    pos = vecs[:, lam > _TAKAGI_ZERO * float(np.max(np.abs(tau)))]
    wt = np.linalg.qr(pos[:r] + 1j * pos[r:], mode="complete")[0]
    # rotate each column so that its Takagi value is real and nonnegative
    diag = np.einsum("ij,ik,kj->j", wt.conj(), tau, wt.conj())
    wt = wt * np.exp(0.5j * np.angle(diag))
    order = np.argsort(-np.abs(diag))
    x = np.zeros((4, 4), dtype=complex)
    x[:, :r] = (v @ wt)[:, order]
    lam4 = np.zeros(4)
    lam4[:r] = np.abs(diag)[order]
    trace = float(np.sum(w[keep]))
    if lam4[0] - lam4[1:].sum() > TWO_QUBIT_SLACK * trace:
        return None
    lam4 /= max(lam4[0], 1e-300)
    d = max(lam4[0] - lam4[1], lam4[2] - lam4[3])
    z12, z34 = _triangle(lam4[0], lam4[1], d), _triangle(lam4[2], lam4[3], d)
    z = np.array([z12[0], z12[1], -z34[0], -z34[1]], dtype=complex)
    y = 0.5 * (x * np.sqrt(z)) @ _HADAMARD.T
    # column i as a 2 x 2 matrix (rows the qubit index) has rank one: e f^T
    uu, _s, vh = np.linalg.svd(y.T.reshape(4, 2, 2))
    weights = np.sum(np.abs(y) ** 2, axis=0)
    return SeparabilityCertificate(list(zip(weights.tolist(), products_of(uu[:, :, 0], vh[:, 0]))))


def pt_invariant_decompose(state: DensityState) -> SeparabilityCertificate:
    """Decompose a state equal to its partial transpose.

    Passes of ``(_zero_remainder, _strip, _base_case, _rank_n_kernel,
    _real_e_subtraction)`` on the symmetrized state subtract real-e product
    vectors (which keep the invariance and drop both ranks) down to rank N,
    where the kernel search finishes; each subtraction builds one state.  A
    stop raises ``NonGenericInput``; a state farther than
    ``PT_INVARIANCE_REL_TOL`` from its partial transpose raises
    ``NotPTInvariant``.
    """
    if not operator_norm_at_most(state.matrix - state.pt_matrix, PT_INVARIANCE_REL_TOL,
                                 floor=state.norm):
        raise NotPTInvariant("state is not invariant under partial transposition")
    sym = DensityState(hermitize((state.matrix + state.pt_matrix) / 2), tol=state.tol)
    run = _Run(sym, ReductionTrace(), sym, np.eye(state.n, dtype=complex))
    return _certify(run, (_zero_remainder, _strip, _base_case, _rank_n_kernel,
                          _real_e_subtraction))


# ---------------------------------------------------------------------------
# finite-set expansion
# ---------------------------------------------------------------------------

def biorthogonal_check(state: DensityState, vectors: list[ProductVector]) -> Verdict:
    """Expand the state over the candidate product projectors.

    The projectors are completed to a basis of the operators on the range,
    so the expansion coefficients (read off through the biorthogonal duals,
    here computed as a least-squares solve) are unique.  All nonnegative
    coefficients with no residual outside the span means separable; a
    negative coefficient or leftover residual is a witness.  A negative
    coefficient may be rounding on a nearly dependent pair of projectors
    (two close roots), so the expansion is refitted once without the
    negative ones, and a refit that certifies answers separable.  Soundness
    of the entangled answer requires the caller to pass an exhaustive vector
    list.
    """
    if not vectors:
        raise ValueError("needs at least one candidate vector")
    r = state.rank
    L = len(vectors)
    if L > r * r:
        raise DependentProjectors(f"{L} projectors cannot be independent in dimension {r * r}")
    u = state.range_basis
    # column l is vec(U^dag P_l U) = vec(w_l w_l^dag) for W = U^dag V
    w = u.conj().T @ np.array([v.vector for v in vectors]).T
    s_mat = (w[:, None, :] * w.conj()[None, :, :]).reshape(r * r, L)
    rho_hat = (u.conj().T @ state.matrix @ u).ravel()
    c, _res, _rank, sing = np.linalg.lstsq(s_mat, rho_hat, rcond=None)
    if sing[0] <= 0 or sing[-1] <= 1e-10 * sing[0]:
        raise DependentProjectors("projector Gram matrix is rank deficient")
    rho_scale = float(np.linalg.norm(rho_hat))
    neg_thr = state.tol.cert_recon_tol * state.trace
    drop_thr = 1e-12 * state.trace

    def certified(fit):
        """The separable verdict of a fit with no residual, negative or imaginary part, or None."""
        if (float(np.linalg.norm(rho_hat - s_mat @ fit)) <= state.tol.cert_recon_tol * rho_scale
                and not np.any(fit.real < -neg_thr) and float(np.max(np.abs(fit.imag))) <= neg_thr):
            terms = [(float(fit[i].real), vectors[i]) for i in range(L) if fit[i].real > drop_thr]
            return Verdict(VerdictKind.SEPARABLE, certificate=SeparabilityCertificate(terms))
        return None

    negatives = [i for i in range(L) if c[i].real < -neg_thr]
    verdict = certified(c)
    rest = [i for i in range(L) if i not in negatives]
    if verdict is None and negatives and rest:
        # two close roots give nearly parallel projectors, whose coefficients
        # rounding can push below zero; without the negative ones the fit may
        # still certify (and the certificate is re-verified by the caller)
        fit = np.zeros_like(c)
        fit[rest] = np.linalg.lstsq(s_mat[:, rest], rho_hat, rcond=None)[0]
        verdict = certified(fit)
    if verdict is not None:
        return verdict
    residual = float(np.linalg.norm(rho_hat - s_mat @ c))
    bad_imag = float(np.max(np.abs(c.imag)))
    witness = {
        "coefficients": [complex(x) for x in c],
        "negative_indices": negatives,
        "residual_outside_span": residual / rho_scale,
        "max_imaginary_part": bad_imag,
    }
    return Verdict(VerdictKind.ENTANGLED_PPT, witness=witness)


# ---------------------------------------------------------------------------
# sufficient fallback checks
# ---------------------------------------------------------------------------

def symmetric_split_check(state: DensityState) -> SeparabilityCertificate | None:
    """Sufficient separability check via the symmetric/antisymmetric split.

    Splits the state into its partial-transpose-invariant part plus
    ``sy (x) B``, subtracts the compensator ``C = sum_i |b_i| I (x) P_i``
    built from the spectral decomposition of B, and certifies the invariant
    remainder.  Returns its verified certificate, or None when the compensator
    does not fit under the invariant part; the criterion is only sufficient.
    """
    n, m = state.n, state.matrix
    rho_s = hermitize((m + state.pt_matrix) / 2)
    # the Hermitian B with rho = rho_s + sy (x) B, sy the qubit y-rotation
    b = hermitize(-0.5j * (m[:n, n:] - m[n:, :n]))
    lam_b, vec_b = np.linalg.eigh(b)
    scale = max(float(np.max(np.abs(lam_b))), 0.0)
    keep = [i for i in range(lam_b.size) if abs(lam_b[i]) > 1e-14 * max(scale, state.norm)]

    comp = np.zeros_like(state.matrix)
    for i in keep:
        proj = np.outer(vec_b[:, i], vec_b[:, i].conj())
        comp += abs(lam_b[i]) * np.kron(np.eye(2, dtype=complex), proj)

    # the remainder's own PSD check decides whether C fits under rho_s
    remainder = hermitize(rho_s - comp)
    terms: list[tuple[float, ProductVector]] = []
    if not _negligible(remainder, state):
        try:
            terms.extend(pt_invariant_decompose(DensityState(remainder, tol=state.tol)).terms)
        except (ValueError, NonGenericInput):
            return None
    if keep:
        # the sigma_y eigenvector (1, -i sign(b_i)) with each eigenvector b_i of B
        w_es = np.array([[1.0, -1j * (1.0 if lam_b[i] >= 0 else -1.0)] for i in keep],
                        dtype=complex)
        terms.extend(zip((2 * np.abs(lam_b[keep])).tolist(), products_of(w_es, vec_b[:, keep].T)))
    cert = SeparabilityCertificate(terms)
    return cert if verify_certificate(state, cert) else None


# Pauli basis of the Hermitian 2 x 2 matrices: identity, x, y, z.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def pt_symmetrizing_search(state: DensityState) -> SeparabilityCertificate | None:
    """Solve for an invertible qubit-side transform A making the state PT-invariant.

    With rho_kl the N x N blocks of the state and u, v the rows of A, the
    state (A x I) rho (A x I)^dag is PT-invariant exactly when
    ``sum_kl H_kl rho_kl = 0`` for the Hermitian, indefinite
    ``H = -i(u v^dag - v u^dag)``, and every indefinite H arises this way.
    H is the least-residual solution of that linear system, read off a thin
    SVD in the Pauli basis.  Separability is unchanged by A, so a hit is
    certified on the transformed state and its terms pulled back as one
    stack, each e to A^-1 e.  Returns that certificate, verified, or None
    when no such A exists within ``PT_INVARIANCE_REL_TOL`` or it fails.
    """
    n = state.n
    images = np.einsum("hkl,kalb->hab", _PAULIS, state.matrix.reshape(2, n, 2, n))
    system = np.concatenate((images.real, images.imag), axis=1).reshape(4, -1)
    left, _, _ = np.linalg.svd(system, full_matrices=False)
    h = np.einsum("h,hkl->kl", left[:, -1], _PAULIS)
    (lam_q, lam_p), vecs = np.linalg.eigh(h)
    q, p = vecs.T  # H = lam_p p p^dag + lam_q q q^dag
    # |det A|^2 = -lam_q lam_p, so this also skips an H whose A is (nearly) singular
    if lam_q * lam_p > -1e-24:
        return None
    ap, bq = np.sqrt(lam_p / 2) * p, np.sqrt(-lam_q / 2) * q
    a = np.array([ap + bq, -1j * (ap - bq)])
    w = np.kron(a, np.eye(n, dtype=complex))
    sigma = hermitize(w @ state.matrix @ w.conj().T)
    sig_pt = hermitize(w.conj() @ state.pt_matrix @ w.T)
    if not operator_norm_at_most(sigma - sig_pt, PT_INVARIANCE_REL_TOL, sigma):
        return None
    try:
        cert_sigma = pt_invariant_decompose(DensityState(sigma, tol=state.tol))
    except (ValueError, NonGenericInput):
        return None
    lams, sigma_pvs = zip(*cert_sigma.terms)
    es = (np.linalg.inv(a) @ np.array([pv.e for pv in sigma_pvs])[:, :, None])[:, :, 0]
    weights = np.array(lams) * _inner(es[:, :, None], es[:, :, None]).real
    fs = np.array([pv.f for pv in sigma_pvs])
    cert = SeparabilityCertificate(list(zip(weights.tolist(), products_of(es, fs))))
    return cert if verify_certificate(state, cert) else None


# ---------------------------------------------------------------------------
# certificate verification and the full pipeline
# ---------------------------------------------------------------------------

def verify_certificate(state, cert: SeparabilityCertificate) -> bool:
    """Check the weighted projector sum reconstructs the state in operator norm.

    ``state`` is a DensityState, whose ``cert_recon_tol`` applies, or a
    finite 2N x 2N matrix, which gets the default one.  Raises ``ValueError``
    on any other matrix, and unless every weight is positive and finite and
    every term is a product of an e with 2 entries and an f with N entries.
    """
    matrix, tol = _matrix_and_tol(state)
    n = matrix.shape[0] // 2
    for weight, pv in cert.terms:
        if not (0 < weight < math.inf):
            raise ValueError(f"certificate weights must be positive and finite, got {weight!r}")
        if pv.e.shape != (2,) or pv.f.shape != (n,):
            raise ValueError(f"certificate terms need e of shape (2,) and f of shape ({n},), "
                             f"got {pv.e.shape} and {pv.f.shape}")
    recon = cert.reconstruct(matrix.shape[0])
    floor = 0.0 if np.any(matrix) else 1.0  # a zero state gets an absolute bound
    return operator_norm_at_most(matrix - recon, tol.cert_recon_tol, matrix, floor)


MAX_PIPELINE_PASSES = 200
# A stage's other outcomes: next pass, or stop (on to the fallbacks); None falls through.
_NEXT_PASS, _STOP = "next pass", "stop"


def _step(op: str, before: DensityState, after: DensityState | None = None, **kw) -> TraceStep:
    """A trace step with the ranks and N of ``before`` and, if given, of ``after``."""
    if after is not None:
        kw.update(ranks_after=(after.rank, after.pt_rank), n_after=after.n)
    return TraceStep(op=op, n_before=before.n, ranks_before=(before.rank, before.pt_rank), **kw)


@dataclass
class _Run:
    """What the stages of one run of ``_passes`` share; it alone records steps and certifies."""

    state0: DensityState
    trace: ReductionTrace
    cur: DensityState
    lift: np.ndarray  # support coordinates of cur -> input basis
    terms: list[tuple[float, ProductVector]] = field(default_factory=list)
    reason: str = REASON_REDUCTION_STALLED
    # entangled claims must not rest on fragile integer-rank decisions;
    # any borderline spectrum seen along the way poisons exhaustiveness
    borderline: bool = False

    def flag(self, reason: str):
        """Keep the stronger reason: NonGeneric > InfiniteFamily > Stalled."""
        order = (REASON_REDUCTION_STALLED, REASON_INFINITE_FAMILY, REASON_NON_GENERIC)
        self.reason = max(self.reason, reason, key=order.index)

    def stop(self, note: str, reason: str = REASON_NON_GENERIC) -> str:
        self.trace.notes.append(note)
        self.flag(reason)
        return _STOP

    def advance(self, op: str, weight: float, case: str, pv: ProductVector, new: DensityState,
                iso: np.ndarray | None = None):
        """Record step ``op``, keep its lifted term and go on from ``new``, which ``iso`` lifts."""
        self.trace.steps.append(_step(
            op, self.cur, new, lam=weight, case=case, alpha=pv.alpha, norm_before=self.cur.norm,
            min_eig_after=(new.min_eigenvalue, new.pt_min_eigenvalue)))
        self.terms.append((weight, _lift_pv(pv, self.lift)))
        self.cur = new
        if iso is not None:
            self.lift = self.lift @ iso

    def assemble(self, extra_terms, op: str | None = None, detail: str = "") -> Verdict:
        """Record step ``op``, if any; collected terms plus ``extra_terms``, lifted, re-verified."""
        if op is not None:
            self.trace.steps.append(_step(op, self.cur, detail=detail))
        lifted = [(w, _lift_pv(pv, self.lift)) for w, pv in extra_terms]
        cert = SeparabilityCertificate(self.terms + lifted)
        if not verify_certificate(self.state0, cert):
            self.trace.notes.append("certificate failed re-verification; downgrading")
            return Verdict(VerdictKind.INCONCLUSIVE, reason=REASON_REDUCTION_STALLED)
        return Verdict(VerdictKind.SEPARABLE, certificate=cert)


def _zero_remainder(run: _Run, cur: DensityState):
    if _negligible(cur, run.state0):
        return run.assemble([])


def _strip(run: _Run, cur: DensityState):
    """Strip the support; a borderline spectrum or warnings of the stripped state mark the run."""
    try:
        stripped, iso, borderline = _stripped_support(cur)
    except ValueError as exc:
        return run.stop(f"support stripping failed: {exc}")
    run.borderline |= borderline > 0 or bool(stripped.warnings)
    if stripped.n != cur.n:
        run.trace.steps.append(_step("strip", cur, stripped))
        run.cur, run.lift = stripped, run.lift @ iso


def _base_case(run: _Run, cur: DensityState):
    if cur.n == 1:
        return run.assemble(_base_terms(cur), "base-case")


def _pt_invariant(run: _Run, cur: DensityState):
    """Decompose a PT-invariant state; ``pt_invariant_decompose`` alone tests the invariance."""
    try:
        return run.assemble(pt_invariant_decompose(cur).terms, "pt-invariant")
    except NotPTInvariant:
        return None
    except (NonGenericInput, ValueError):
        run.flag(REASON_NON_GENERIC)


def _kernel_reduction(run: _Run, cur: DensityState):
    """Decompose a rank-N state from one kernel search, or reduce through a kernel product vector.

    When the kernel product vectors do not give all N terms at once, the
    first of them lowers both ranks and N by one and the next pass goes on;
    a rank-N state without one, or a reduction whose result is not PSD,
    stops the passes.
    """
    failure = _NO_KERNEL_VECTOR
    try:
        found = kernel_product_vectors(cur)
        terms = _all_kernel_terms(cur, found) if cur.rank == cur.n else None
        if terms is not None:
            return run.assemble(terms, "rank-n-decompose", f"terms={len(terms)}")
        if found:
            new, (weight, pv), iso = reduce_by_kernel(cur, found[0])
            run.advance("kernel-reduce", weight, "iii", pv, new, iso)
            return _NEXT_PASS
    except SupportViolation:
        # the kernel line is annihilated though the support looked full: a borderline
        # rank decision, so do not loop on it
        return run.stop("support violation during kernel reduction")
    except NonGenericInput as exc:
        run.flag(REASON_NON_GENERIC)
        failure = exc
    except ValueError as exc:
        # a safety check: the reduced state left the PSD cone, as it does when
        # an inaccurate kernel vector makes the tied subtraction overshoot
        return run.stop(f"kernel reduction failed: {exc}")
    if cur.rank == cur.n:
        # a constructive decomposition would only repeat the failed search
        if cur.pt_rank != cur.n:
            run.trace.notes.append(
                f"rank {cur.rank} equals support but transpose rank is {cur.pt_rank}")
        return run.stop(f"constructive decomposition degenerated: {failure}")


def _rank_n_kernel(run: _Run, cur: DensityState):
    """The kernel reduction at rank N only; above it the real-e subtraction runs."""
    if cur.rank == cur.n:
        return _kernel_reduction(run, cur)


def _real_e_subtraction(run: _Run, cur: DensityState):
    """Subtract the real-e product vector of largest weight and re-symmetrize.

    Only the re-symmetrized difference becomes a state, with its PSD check;
    the plain difference, whose transpose differs from it by rounding, is
    never built as one.
    """
    best = _best_candidate(cur, real_e_products(cur.range_basis, cur.kernel_basis, cur.tol))
    if best is None:
        return run.stop("no subtractable real-e product vector found")
    lam, case, v = best
    m = hermitize(cur.matrix - lam * v.projector())
    # re-symmetrize to cancel floating-point drift of the invariance
    new = _successor((m + partial_transpose_matrix(m, cur.n)) / 2, run.state0)
    run.advance("real-e", lam, case, v, new)
    return _NEXT_PASS


def _two_qubit(run: _Run, cur: DensityState):
    """Decompose a state on C2 x C2 in closed form; a decline (PPT only within tolerance) stops."""
    if cur.n == 2:
        cert = two_qubit_decompose(cur)
        if cert is None:
            return run.stop(f"two-qubit declined: concurrence > {TWO_QUBIT_SLACK:g} x trace")
        return run.assemble(cert.terms, "two-qubit", f"terms={len(cert.terms)}")


def _paired_search(run: _Run, cur: DensityState):
    """Subtract a sample of an infinite family, or expand over a finite one."""
    try:
        res = paired_products(cur.range_basis, cur.kernel_basis, cur.pt_range_basis,
                              cur.pt_kernel_basis, cur.tol)
    except NonGenericInput as exc:
        return run.stop(f"paired search degenerated: {exc}")
    if isinstance(res, InfiniteFamily):
        if cur.rank + cur.pt_rank <= 3 * cur.n:
            run.trace.notes.append("infinite family below the 3N threshold (non-generic)")
        try:
            done = subtract(cur, res)
        except ValueError as exc:
            return run.stop(f"sample subtraction failed: {exc}", REASON_INFINITE_FAMILY)
        if done is None:
            run.flag(REASON_INFINITE_FAMILY)
            return _STOP
        new, lam, case, best = done
        run.trace.nonexhaustive_subtraction = True
        run.advance("subtract-sample", lam, case, best, new)
        return _NEXT_PASS
    if res:
        try:
            bio = biorthogonal_check(cur, res)
        except DependentProjectors as exc:
            return run.stop(f"dependent projectors: {exc}")
        op, detail = "biorthogonal", f"vectors={len(res)}"
        if bio.kind is VerdictKind.SEPARABLE:
            run.trace.exhaustive_enumeration = not run.trace.nonexhaustive_subtraction
            return run.assemble(bio.certificate.terms, op, detail)
        outcome, witness = "negative expansion", bio.witness
    else:
        op, detail = "enumeration-empty", ""
        outcome, witness = "empty enumeration", {"enumerated_vectors": 0}
    # an entangled reading needs no earlier sample and no borderline rank decision
    if run.trace.nonexhaustive_subtraction:
        return run.stop(f"{outcome} after non-exhaustive subtraction", REASON_REDUCTION_STALLED)
    if run.borderline:
        return run.stop(f"{outcome} discarded: borderline rank decisions")
    run.trace.exhaustive_enumeration = True
    run.trace.steps.append(_step(op, cur, detail=detail))
    return Verdict(VerdictKind.ENTANGLED_PPT, witness=witness)


_STAGES = (_zero_remainder, _strip, _base_case, _pt_invariant, _kernel_reduction,
           _two_qubit, _paired_search)


def _passes(run: _Run, stages) -> Verdict | str:
    """Passes of ``stages`` until a verdict; a pass with no answer, or the pass limit, stops."""
    for _ in range(MAX_PIPELINE_PASSES):
        for stage in stages:
            outcome = stage(run, run.cur)
            if outcome is not None:
                break
        else:
            return _STOP
        if outcome is not _NEXT_PASS:
            return outcome
    return _STOP


def _certify(run: _Run, stages) -> SeparabilityCertificate:
    """The certificate of a nested run of ``stages``; anything short of one raises."""
    outcome = _passes(run, stages)
    if outcome is _STOP or outcome.kind is not VerdictKind.SEPARABLE:
        raise NonGenericInput("; ".join(run.trace.notes) or "no stage applies")
    return outcome.certificate


def analyze(rho_in) -> tuple[Verdict, ReductionTrace]:
    """Full separability analysis of a Hermitian PSD operator on C2 x CN.

    An input whose largest real or imaginary entry part lies outside
    ``_SQUARE_SAFE`` is analyzed times an exact 2**k, which the trace notes; the
    certificate weights are scaled back and re-verified against the input.
    After the partial-transpose test, passes of ``_STAGES`` (zero remainder,
    strip, base case, PT-invariant, kernel reduction, two-qubit, paired
    search) run until a stage gives a verdict or stops.
    After a stop, or ``MAX_PIPELINE_PASSES`` passes, the sufficient
    fallbacks run on the input's stripped support.  Every tolerance comes from
    ``rho_in`` when it is a DensityState; a raw matrix gets the defaults.
    """
    state0 = rho_in if isinstance(rho_in, DensityState) else DensityState(rho_in)
    top = float(np.max(np.abs(state0.matrix.view(float))))
    if top and not _SQUARE_SAFE[0] <= top <= _SQUARE_SAFE[1]:
        # even k with top * 2**k in [1/4, 1) keeps square roots exact, ldexp on the float
        # view keeps signed zeros, and positivity was judged when state0 was built
        k = 2 * (-math.frexp(top)[1] // 2)
        scaled = np.ldexp(state0.matrix.view(float), k).view(complex)
        verdict, trace = analyze(DensityState(scaled, tol=state0.tol, require_psd=False))
        trace.notes.append(f"input rescaled by 2**{k}")
        if verdict.certificate is not None:
            terms = [(float(np.ldexp(w, -k)), pv) for w, pv in verdict.certificate.terms]
            verdict = _Run(state0, trace, state0, np.eye(state0.n, dtype=complex)).assemble(terms)
        return verdict, trace

    trace = ReductionTrace(notes=list(state0.warnings))

    if not state0.is_ppt:
        detail = f"pt_min_eig={state0.pt_min_eigenvalue:.3e}"
        trace.steps.append(_step("peres", state0, detail=detail))
        witness = {"pt_min_eigenvalue": state0.pt_min_eigenvalue}
        return Verdict(VerdictKind.ENTANGLED_NPT, witness=witness), trace

    run = _Run(state0, trace, cur=state0, lift=np.eye(state0.n, dtype=complex),
               borderline=bool(state0.warnings))
    outcome = _passes(run, _STAGES)
    if outcome is not _STOP:
        return outcome, trace

    try:  # sufficient fallbacks on the input's stripped support
        base, lift = strip_support(state0)
    except ValueError:
        return Verdict(VerdictKind.INCONCLUSIVE, reason=run.reason), trace
    cert = symmetric_split_check(base) or pt_symmetrizing_search(base)
    if cert is not None:
        verdict = _Run(state0, trace, base, lift).assemble(cert.terms)
        if verdict.kind is VerdictKind.SEPARABLE:
            trace.steps.append(TraceStep(op="fallback-sufficient"))
            return verdict, trace
    return Verdict(VerdictKind.INCONCLUSIVE, reason=run.reason), trace
