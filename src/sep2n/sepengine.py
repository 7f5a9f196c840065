"""Separability decision pipeline for PPT states on C2 x CN.

The pipeline subtracts product projectors while keeping the state and its
partial transpose positive, reduces through kernel product vectors (which
drop both ranks and the second-factor dimension by one), decomposes
rank-equals-dimension states constructively, and settles the remaining
finite cases by expanding the state over the exhaustively enumerated
product vectors of its ranges.  Every "separable" verdict carries a
certificate that is re-verified against the input before being emitted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .matrixcore import (
    DensityState,
    ToleranceConfig,
    hermitize,
    operator_norm_at_most,
    partial_trace_second,
    psd_difference_check,
)
from .productfinder import (
    InfiniteFamily,
    NonGenericInput,
    ProductVector,
    in_range,
    kernel_product_vector,
    paired_products,
    real_e_products,
)

__all__ = [
    "VerdictKind",
    "Verdict",
    "SeparabilityCertificate",
    "TraceStep",
    "ReductionTrace",
    "VectorOutsideRange",
    "SupportViolation",
    "DependentProjectors",
    "REASON_NON_GENERIC",
    "REASON_INFINITE_FAMILY",
    "REASON_REDUCTION_STALLED",
    "lambda_bounds",
    "subtract",
    "strip_support",
    "reduce_by_kernel",
    "decompose_rank_n",
    "biorthogonal_check",
    "pt_invariant_decompose",
    "symmetric_split_check",
    "pt_symmetrizing_search",
    "analyze",
    "verify_certificate",
]


class VectorOutsideRange(Exception):
    """The product vector (or its partner) is not inside the required range."""


class SupportViolation(Exception):
    """The state annihilates the rotated kernel line: a spurious dimension."""


class DependentProjectors(Exception):
    """The candidate projectors are linearly dependent; the expansion is not unique."""


# Relative tie threshold for declaring the two subtraction weights equal.
TIE_REL_TOL = 1e-8
# Relative closeness under which a state counts as equal to its partial transpose.
PT_INVARIANCE_REL_TOL = 1e-8

REASON_NON_GENERIC = "NonGenericInput"
REASON_INFINITE_FAMILY = "InfiniteFamilyUnresolved"
REASON_REDUCTION_STALLED = "ReductionStalled"


class VerdictKind(str, Enum):
    SEPARABLE = "separable"
    ENTANGLED_NPT = "entangled_npt"
    ENTANGLED_PPT = "entangled_ppt"
    INCONCLUSIVE = "inconclusive"


@dataclass
class SeparabilityCertificate:
    """Weighted product projectors claimed to sum to the analyzed state."""

    terms: list[tuple[float, ProductVector]] = field(default_factory=list)

    def __len__(self):
        return len(self.terms)

    def reconstruct(self, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim), dtype=complex)
        for weight, pv in self.terms:
            out += weight * pv.projector()
        return out


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

def lambda_bounds(state: DensityState, v: ProductVector) -> tuple[float, float]:
    """Maximal subtraction weights keeping the state and its transpose positive.

    Requires |e,f> in the range of the state and |e*,f> in the range of the
    partial transpose; the weights are the inverse quadratic forms of the
    pseudoinverses along those vectors.
    """
    vec = v.vector
    partner = v.conjugate_partner.vector
    if not in_range(state.range_basis, vec, state.tol):
        raise VectorOutsideRange("|e,f> is not in the range of the state")
    if not in_range(state.pt_range_basis, partner, state.tol):
        raise VectorOutsideRange("|e*,f> is not in the range of the partial transpose")
    q = float(np.real(np.vdot(vec, state.pseudoinverse() @ vec)))
    qbar = float(np.real(np.vdot(partner, state.pt_pseudoinverse() @ partner)))
    if q <= 0 or qbar <= 0:
        raise VectorOutsideRange("nonpositive pseudoinverse quadratic form")
    return 1.0 / q, 1.0 / qbar


def subtract(state: DensityState, v: ProductVector) -> tuple[DensityState, float, str]:
    """Remove ``min(lam0, lam0bar)`` times the product projector.

    The returned case tag records which rank drops: "i" the state's, "ii"
    the partial transpose's, "iii" both (tied weights).
    """
    lam0, lamb0 = lambda_bounds(state, v)
    if abs(lam0 - lamb0) <= TIE_REL_TOL * max(lam0, lamb0):
        case = "iii"
    elif lam0 < lamb0:
        case = "i"
    else:
        case = "ii"
    lam = min(lam0, lamb0)
    m2 = hermitize(state.matrix - lam * v.projector())
    tiny = operator_norm_at_most(m2, 1e-12, floor=max(state.norm, 1e-300))
    new_state = DensityState(m2, n=state.n, tol=state.tol, require_psd=not tiny)
    return new_state, lam, case


def strip_support(state: DensityState) -> tuple[DensityState, np.ndarray]:
    """Drop spurious second-factor dimensions.

    Returns the state re-expressed on its support C2 x CM together with the
    N x M isometry lifting support coordinates back to the input basis.  The
    isometry is the identity when the support is already full.
    """
    n = state.n
    reduced = hermitize(partial_trace_second(state.matrix, n))
    w, u = np.linalg.eigh(reduced)
    wmax = float(np.max(np.abs(w)))
    keep = np.abs(w) > state.tol.rank_rel_tol * max(wmax, 1e-300)
    m_dim = int(np.count_nonzero(keep))
    if m_dim == n:
        return state, np.eye(n, dtype=complex)
    iso = u[:, keep]
    w2 = np.kron(np.eye(2, dtype=complex), iso)
    stripped = DensityState(w2.conj().T @ state.matrix @ w2, n=m_dim, tol=state.tol,
                            require_psd=False)
    return stripped, iso


def _support_borderline(state: DensityState) -> bool:
    """True when the support spectrum sits near the rank cutoff on either side."""
    w = np.abs(np.linalg.eigvalsh(hermitize(partial_trace_second(state.matrix, state.n))))
    wmax = float(np.max(w)) if w.size else 0.0
    cutoff = state.tol.rank_rel_tol * max(wmax, 1e-300)
    return bool(np.any((w > cutoff / 10) & (w < 10 * cutoff)))


def reduce_by_kernel(state: DensityState, v: ProductVector,
                     tol: ToleranceConfig | None = None):
    """Turn a kernel product vector into a rank-and-dimension reduction.

    Rotating e to its orthogonal complement maps the state onto a product
    line |e_hat, g>, whose subtraction at the tied weight drops both ranks
    by one and shrinks the support to C2 x C(N-1).  Separability of the
    result is equivalent to separability of the input.

    Returns ``(reduced_state, (weight, subtracted_vector), isometry)``, the
    vector expressed in the pre-reduction basis.
    """
    tol = tol or state.tol
    n = state.n
    vec = v.vector
    if np.linalg.norm(state.matrix @ vec) > 1e-6 * max(state.norm, 1e-300):
        raise ValueError("vector is not in the kernel of the state")
    e = v.e
    ehat = np.array([-np.conj(e[1]), np.conj(e[0])], dtype=complex)
    # the products of np.kron, without its reshaping overhead
    w = state.matrix @ (ehat[:, None] * v.f[None, :]).ravel()
    wn = np.linalg.norm(w)
    if wn <= 1e-9 * max(state.norm, 1e-300):
        raise SupportViolation("state annihilates |e_hat, f>; strip the support first")
    g = np.conj(ehat[0]) * w[:n] + np.conj(ehat[1]) * w[n:]
    sub_vec = (ehat[:, None] * g[None, :]).ravel()
    if np.linalg.norm(w - sub_vec) > 1e-7 * wn:
        raise NonGenericInput("kernel image is not a product line")
    gf = float(np.real(np.vdot(g, v.f)))
    if gf <= 0:
        raise NonGenericInput("nonpositive overlap between g and f")
    lam = 1.0 / gf
    m2 = hermitize(state.matrix - lam * np.outer(sub_vec, sub_vec.conj()))
    weight = lam * float(np.vdot(g, g).real)
    pv = ProductVector.from_e_f(ehat, g)
    tiny = operator_norm_at_most(m2, 1e-12, floor=max(state.norm, 1e-300))
    intermediate = DensityState(m2, n=n, tol=state.tol, require_psd=not tiny)
    reduced, iso = strip_support(intermediate)
    return reduced, (weight, pv), iso


# ---------------------------------------------------------------------------
# constructive decompositions
# ---------------------------------------------------------------------------

def _base_terms(state: DensityState, lift: np.ndarray) -> list[tuple[float, ProductVector]]:
    """Spectral terms of a state on C2 x C1; every vector there is product."""
    w, u = np.linalg.eigh(state.matrix)
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    terms = []
    for i in range(w.size):
        if w[i] > state.tol.rank_rel_tol * max(wmax, 1e-300):
            e = u[:, i]
            f = lift @ np.ones(1, dtype=complex)
            terms.append((float(w[i]), ProductVector.from_e_f(e, f)))
    return terms


def _lift_pv(pv: ProductVector, lift: np.ndarray) -> ProductVector:
    return ProductVector.from_e_f(pv.e, lift @ pv.f)


def decompose_rank_n(state: DensityState, tol: ToleranceConfig | None = None) -> SeparabilityCertificate:
    """Constructive decomposition of a state whose rank equals its support dimension.

    Peels off one kernel-induced product projector per step, shrinking the
    problem to C2 x C(N-1), and finishes with the spectral base case.  The
    certificate has exactly N terms, expressed in the input basis.
    """
    tol = tol or state.tol
    cur, iso0 = strip_support(state)
    if cur.rank != cur.n:
        raise ValueError(f"rank {cur.rank} does not match support dimension {cur.n}")
    lift = iso0
    terms: list[tuple[float, ProductVector]] = []
    while True:
        if cur.n == 1:
            terms.extend(_base_terms(cur, lift))
            break
        v = kernel_product_vector(cur, tol)
        if v is None:
            raise NonGenericInput("kernel product vector not found despite guaranteed existence")
        cur, (weight, pv), iso = reduce_by_kernel(cur, v, tol)
        terms.append((weight, _lift_pv(pv, lift)))
        lift = lift @ iso
    return SeparabilityCertificate(terms)


def pt_invariant_decompose(state: DensityState, tol: ToleranceConfig | None = None) -> SeparabilityCertificate:
    """Decompose a state equal to its partial transpose.

    While the rank exceeds the support dimension, subtract a real-e product
    vector (which preserves the invariance and drops both ranks); finish
    with the rank-equals-dimension construction.
    """
    tol = tol or state.tol
    if not operator_norm_at_most(state.matrix - state.pt_matrix, PT_INVARIANCE_REL_TOL,
                                 floor=max(state.norm, 1e-300)):
        raise ValueError("state is not invariant under partial transposition")
    t0 = max(state.trace, 1e-300)
    cur = DensityState(hermitize((state.matrix + state.pt_matrix) / 2), n=state.n, tol=state.tol)
    lift = np.eye(state.n, dtype=complex)
    terms: list[tuple[float, ProductVector]] = []
    for _ in range(4 * state.n + 16):
        if cur.norm <= 1e-12 * max(state.norm, 1e-300):
            return SeparabilityCertificate(terms)
        cur, iso = strip_support(cur)
        lift = lift @ iso
        if cur.n == 1:
            terms.extend(_base_terms(cur, lift))
            return SeparabilityCertificate(terms)
        if cur.rank == cur.n:
            sub = decompose_rank_n(cur, tol)
            terms.extend((w, _lift_pv(pv, lift)) for w, pv in sub.terms)
            return SeparabilityCertificate(terms)
        candidates = real_e_products(cur.range_basis, tol)
        best = _best_subtraction(cur, candidates)
        if best is None:
            raise NonGenericInput("no subtractable real-e product vector found")
        new_state, lam, _case = subtract(cur, best)
        terms.append((lam, _lift_pv(best, lift)))
        # re-symmetrize to cancel floating-point drift of the invariance
        symm = hermitize((new_state.matrix + new_state.pt_matrix) / 2)
        tiny = operator_norm_at_most(symm, 1e-12, floor=max(state.norm, 1e-300))
        cur = DensityState(symm, n=cur.n, tol=state.tol, require_psd=not tiny)
    raise NonGenericInput("invariant reduction failed to terminate")


def _best_subtraction(state: DensityState, candidates) -> ProductVector | None:
    best, best_lam = None, -1.0
    for v in candidates:
        try:
            lam0, lamb0 = lambda_bounds(state, v)
        except VectorOutsideRange:
            continue
        lam = min(lam0, lamb0)
        if lam > best_lam:
            best, best_lam = v, lam
    return best


# ---------------------------------------------------------------------------
# finite-set expansion
# ---------------------------------------------------------------------------

def biorthogonal_check(state: DensityState, vectors: list[ProductVector],
                       tol: ToleranceConfig | None = None) -> Verdict:
    """Expand the state over the candidate product projectors.

    The projectors are completed to a basis of the operators on the range,
    so the expansion coefficients (read off through the biorthogonal duals,
    here computed as a least-squares solve) are unique.  All nonnegative
    coefficients with no residual outside the span means separable; a
    negative coefficient or leftover residual is a witness.  Soundness of
    the entangled answer requires the caller to pass an exhaustive vector
    list.
    """
    tol = tol or state.tol
    if not vectors:
        raise ValueError("needs at least one candidate vector")
    r = state.rank
    L = len(vectors)
    if L > r * r:
        raise DependentProjectors(f"{L} projectors cannot be independent in dimension {r * r}")
    u = state.range_basis
    cols = []
    for v in vectors:
        p = v.projector()
        cols.append((u.conj().T @ p @ u).ravel())
    s_mat = np.array(cols).T
    sing = np.linalg.svd(s_mat, compute_uv=False)
    if sing[0] <= 0 or sing[-1] <= 1e-10 * sing[0]:
        raise DependentProjectors("projector Gram matrix is rank deficient")
    rho_hat = (u.conj().T @ state.matrix @ u).ravel()
    c, *_ = np.linalg.lstsq(s_mat, rho_hat, rcond=None)
    residual = float(np.linalg.norm(rho_hat - s_mat @ c))
    rho_scale = float(np.linalg.norm(rho_hat))
    coeff_scale = max(state.trace, 1e-300)
    neg_thr = tol.cert_recon_tol * coeff_scale
    drop_thr = 1e-12 * coeff_scale

    bad_imag = float(np.max(np.abs(c.imag))) if c.size else 0.0
    negatives = [i for i in range(L) if c[i].real < -neg_thr]
    if residual <= tol.cert_recon_tol * rho_scale and not negatives and bad_imag <= neg_thr:
        terms = [(float(c[i].real), vectors[i]) for i in range(L) if c[i].real > drop_thr]
        return Verdict(VerdictKind.SEPARABLE, certificate=SeparabilityCertificate(terms))
    witness = {
        "coefficients": [complex(x) for x in c],
        "negative_indices": negatives,
        "residual_outside_span": residual / max(rho_scale, 1e-300),
        "max_imaginary_part": bad_imag,
    }
    return Verdict(VerdictKind.ENTANGLED_PPT, witness=witness)


# ---------------------------------------------------------------------------
# sufficient fallback checks
# ---------------------------------------------------------------------------

def antisymmetric_block(state: DensityState) -> np.ndarray:
    """Hermitian B with rho = (rho + rho^TA)/2 + sy (x) B, sy the qubit y-rotation."""
    n = state.n
    m = state.matrix
    return hermitize(-0.5j * (m[:n, n:] - m[n:, :n]))


def symmetric_split_check(state: DensityState, a=None,
                          tol: ToleranceConfig | None = None) -> Verdict | None:
    """Sufficient separability check via the symmetric/antisymmetric split.

    Splits the state into its partial-transpose-invariant part plus
    ``sy (x) B``, subtracts a diagonal compensator C built from the spectral
    decomposition of B (weighted by the free positive parameters a_i), and
    certifies the invariant remainder.  Returns None when the compensator
    does not fit under the invariant part; the criterion is only
    sufficient.
    """
    tol = tol or state.tol
    n = state.n
    rho_s = hermitize((state.matrix + state.pt_matrix) / 2)
    b = antisymmetric_block(state)
    lam_b, vec_b = np.linalg.eigh(b)
    scale = max(float(np.max(np.abs(lam_b))), 0.0)
    keep = [i for i in range(lam_b.size) if abs(lam_b[i]) > 1e-14 * max(scale, state.norm, 1e-300)]
    if a is None:
        a = np.ones(len(keep))
    else:
        a = np.asarray(a, dtype=float)
        if a.size != len(keep):
            raise ValueError(f"need {len(keep)} weights, got {a.size}")
        if np.any(a == 0):
            raise ValueError("weights must be nonzero")

    comp = np.zeros_like(state.matrix)
    for idx, i in enumerate(keep):
        ai = float(a[idx])
        qubit = np.diag([ai ** 2, ai ** -2]).astype(complex)
        proj = np.outer(vec_b[:, i], vec_b[:, i].conj())
        comp += abs(lam_b[i]) * np.kron(qubit, proj)

    if not psd_difference_check(rho_s, comp, tol):
        return None

    remainder = hermitize(rho_s - comp)
    terms: list[tuple[float, ProductVector]] = []
    if not operator_norm_at_most(remainder, 1e-12, floor=max(state.norm, 1e-300)):
        try:
            rem_state = DensityState(remainder, n=n, tol=state.tol)
            sub = pt_invariant_decompose(rem_state, tol)
        except (ValueError, NonGenericInput):
            return None
        terms.extend(sub.terms)
    for idx, i in enumerate(keep):
        ai = float(a[idx])
        sign = 1.0 if lam_b[i] >= 0 else -1.0
        w_e = np.array([ai, -1j * sign / ai], dtype=complex)
        weight = abs(lam_b[i]) * (ai ** 2 + ai ** -2)
        terms.append((float(weight), ProductVector.from_e_f(w_e, vec_b[:, i])))
    cert = SeparabilityCertificate(terms)
    if not verify_certificate(state, cert, tol):
        return None
    return Verdict(VerdictKind.SEPARABLE, certificate=cert)


@functools.cache
def _default_transforms() -> np.ndarray:
    """The default candidates of ``pt_symmetrizing_search``, stacked and read-only."""
    rng = np.random.default_rng(20260810)
    cands = [np.eye(2, dtype=complex)]
    for s in (2.0, 0.5, 3.0, 1.0 / 3.0):
        cands.append(np.diag([s, 1.0]).astype(complex))
    while len(cands) < 55:
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(a)) >= 0.1:
            cands.append(a)
    stacked = np.array(cands)
    stacked.flags.writeable = False
    return stacked


def _symmetrizing_screen(state: DensityState, cands: np.ndarray) -> np.ndarray:
    """Mask of the candidates A whose sigma = (A x I) rho (A x I)^dag may be PT-invariant.

    sigma - sigma^TA is nonzero only in the off-diagonal blocks, where it is
    +-(sigma_01 - sigma_10), so ``||sigma - sigma^TA|| >= max|sigma_01 -
    sigma_10|`` while ``||sigma|| <= 2N max|sigma_ij|``.  A candidate whose
    block gap exceeds twice ``PT_INVARIANCE_REL_TOL * max(2N max|sigma_ij|,
    1e-300)`` therefore fails the invariance test of the search; the factor
    two absorbs rounding.  Non-finite values are never screened out.
    """
    n = state.n
    blocks = state.matrix.reshape(2, n, 2, n)
    sigma = np.einsum("kac,cidj,kbd->kaibj", cands, blocks, cands.conj())
    gap = np.max(np.abs(sigma[:, 0, :, 1, :] - sigma[:, 1, :, 0, :]), axis=(1, 2))
    size = np.max(np.abs(sigma).reshape(len(cands), -1), axis=1)
    limit = 2.0 * PT_INVARIANCE_REL_TOL * np.maximum(2 * n * size, 1e-300)
    return ~(np.isfinite(gap) & np.isfinite(limit) & (gap > limit))


def pt_symmetrizing_search(state: DensityState, candidates=None,
                           tol: ToleranceConfig | None = None) -> Verdict | None:
    """Look for an invertible qubit-side transform making the state PT-invariant.

    Separability is unchanged by invertible local transforms, so a hit is
    certified on the transformed state and the certificate pulled back.
    The candidate list is a heuristic; None just means no candidate hit.
    """
    tol = tol or state.tol
    n = state.n
    if candidates is None:
        candidates = _default_transforms()
    else:
        candidates = [np.asarray(a, dtype=complex) for a in candidates]
        if any(a.shape != (2, 2) for a in candidates):
            raise ValueError("candidate transforms must be 2 x 2")
        candidates = np.array(candidates).reshape(-1, 2, 2)
    for a, possible in zip(candidates, _symmetrizing_screen(state, candidates)):
        if not possible or abs(np.linalg.det(a)) < 1e-12:
            continue
        w = np.kron(a, np.eye(n, dtype=complex))
        sigma = hermitize(w @ state.matrix @ w.conj().T)
        sig_pt = hermitize(w.conj() @ state.pt_matrix @ w.T)
        if not operator_norm_at_most(sigma - sig_pt, PT_INVARIANCE_REL_TOL, sigma, 1e-300):
            continue
        try:
            sig_state = DensityState(sigma, n=n, tol=state.tol)
            cert_sigma = pt_invariant_decompose(sig_state, tol)
        except (ValueError, NonGenericInput):
            continue
        a_inv = np.linalg.inv(a)
        terms = []
        for lam, pv in cert_sigma.terms:
            e_back = a_inv @ pv.e
            terms.append((lam * float(np.vdot(e_back, e_back).real),
                          ProductVector.from_e_f(e_back, pv.f)))
        cert = SeparabilityCertificate(terms)
        if verify_certificate(state, cert, tol):
            return Verdict(VerdictKind.SEPARABLE, certificate=cert)
    return None


# ---------------------------------------------------------------------------
# certificate verification and the full pipeline
# ---------------------------------------------------------------------------

def verify_certificate(state, cert: SeparabilityCertificate,
                       tol: ToleranceConfig | None = None) -> bool:
    """Check the weighted projector sum reconstructs the state in operator norm."""
    matrix = state.matrix if isinstance(state, DensityState) else np.asarray(state, dtype=complex)
    tol = tol or (state.tol if isinstance(state, DensityState) else ToleranceConfig())
    for weight, _pv in cert.terms:
        if not (weight > 0):
            raise ValueError(f"certificate weights must be positive, got {weight!r}")
    recon = cert.reconstruct(matrix.shape[0])
    floor = 0.0 if np.any(matrix) else 1.0  # a zero state gets an absolute bound
    return operator_norm_at_most(matrix - recon, tol.cert_recon_tol, matrix, floor)


MAX_PIPELINE_PASSES = 200


def analyze(rho_in, tol: ToleranceConfig | None = None) -> tuple[Verdict, ReductionTrace]:
    """Full separability analysis of a Hermitian PSD operator on C2 x CN.

    Order of attack: the partial-transpose positivity test, support
    stripping, kernel-vector reductions, the rank-equals-dimension
    construction, sample subtractions while the rank sum exceeds 3N, the
    finite range enumeration with the biorthogonal expansion, and finally
    the sufficient fallback checks on the original (stripped) state.
    """
    tol = tol or (rho_in.tol if isinstance(rho_in, DensityState) else ToleranceConfig())
    state0 = rho_in if isinstance(rho_in, DensityState) else DensityState(rho_in, tol=tol)
    trace = ReductionTrace()
    trace.notes.extend(state0.warnings)

    if not state0.is_ppt:
        trace.steps.append(TraceStep(op="peres", detail=f"pt_min_eig={state0.pt_min_eigenvalue:.3e}",
                                     ranks_before=(state0.rank, state0.pt_rank),
                                     n_before=state0.n))
        witness = {"pt_min_eigenvalue": state0.pt_min_eigenvalue}
        return Verdict(VerdictKind.ENTANGLED_NPT, witness=witness), trace

    terms: list[tuple[float, ProductVector]] = []
    cur = state0
    lift = np.eye(state0.n, dtype=complex)
    base = None
    base_lift = None
    # why an inconclusive answer is given; NonGenericInput outranks an
    # unresolved infinite family, and ReductionStalled is the default
    reason = None
    # entangled claims must not rest on fragile integer-rank decisions;
    # any borderline spectrum seen along the way poisons exhaustiveness
    borderline_seen = bool(state0.warnings)

    def assemble(extra_terms, extra_lift) -> Verdict:
        all_terms = list(terms)
        all_terms.extend((w, _lift_pv(pv, extra_lift)) for w, pv in extra_terms)
        cert = SeparabilityCertificate(all_terms)
        if not verify_certificate(state0, cert, tol):
            trace.notes.append("certificate failed re-verification; downgrading")
            return Verdict(VerdictKind.INCONCLUSIVE, reason=REASON_REDUCTION_STALLED)
        return Verdict(VerdictKind.SEPARABLE, certificate=cert)

    for _ in range(MAX_PIPELINE_PASSES):
        if cur.norm <= 1e-12 * max(state0.norm, 1e-300):
            return assemble([], lift), trace

        if _support_borderline(cur):
            borderline_seen = True
        stripped, iso = strip_support(cur)
        if stripped.n != cur.n:
            trace.steps.append(TraceStep(op="strip", n_before=cur.n, n_after=stripped.n,
                                         ranks_before=(cur.rank, cur.pt_rank),
                                         ranks_after=(stripped.rank, stripped.pt_rank)))
            cur = stripped
            lift = lift @ iso
        if cur.warnings:
            borderline_seen = True
        if base is None:
            base, base_lift = cur, lift.copy()
        m_dim = cur.n

        if m_dim == 1:
            trace.steps.append(TraceStep(op="base-case", n_before=1,
                                         ranks_before=(cur.rank, cur.pt_rank)))
            return assemble(_base_terms(cur, np.eye(1, dtype=complex)), lift), trace

        if operator_norm_at_most(cur.matrix - cur.pt_matrix, PT_INVARIANCE_REL_TOL,
                                 floor=max(cur.norm, 1e-300)):
            try:
                sub_cert = pt_invariant_decompose(cur, tol)
                trace.steps.append(TraceStep(op="pt-invariant", n_before=m_dim,
                                             ranks_before=(cur.rank, cur.pt_rank)))
                return assemble(sub_cert.terms, lift), trace
            except (NonGenericInput, ValueError):
                reason = REASON_NON_GENERIC

        try:
            v = kernel_product_vector(cur, tol)
        except NonGenericInput:
            v = None
            reason = REASON_NON_GENERIC
        if v is not None:
            try:
                rb = (cur.rank, cur.pt_rank)
                nb = cur.n
                new_cur, (weight, pv), iso2 = reduce_by_kernel(cur, v, tol)
                terms.append((weight, _lift_pv(pv, lift)))
                trace.steps.append(TraceStep(
                    op="kernel-reduce", lam=weight, case="iii", alpha=pv.alpha,
                    ranks_before=rb, ranks_after=(new_cur.rank, new_cur.pt_rank),
                    n_before=nb, n_after=new_cur.n, norm_before=cur.norm,
                    min_eig_after=(new_cur.min_eigenvalue, new_cur.pt_min_eigenvalue)))
                cur = new_cur
                lift = lift @ iso2
                continue
            except SupportViolation:
                # support looked full but the kernel line is annihilated:
                # borderline rank decision, do not loop on it
                trace.notes.append("support violation during kernel reduction")
                reason = REASON_NON_GENERIC
                break
            except NonGenericInput:
                reason = REASON_NON_GENERIC

        if cur.rank == m_dim:
            if cur.pt_rank != m_dim:
                trace.notes.append(
                    f"rank {cur.rank} equals support but transpose rank is {cur.pt_rank}")
            try:
                sub_cert = decompose_rank_n(cur, tol)
            except NonGenericInput as exc:
                trace.notes.append(f"constructive decomposition degenerated: {exc}")
                reason = REASON_NON_GENERIC
                break
            trace.steps.append(TraceStep(op="rank-n-decompose", n_before=m_dim,
                                         ranks_before=(cur.rank, cur.pt_rank)))
            return assemble(sub_cert.terms, lift), trace

        if cur.pt_rank == m_dim:
            try:
                pt_state = DensityState(cur.pt_matrix, n=m_dim, tol=tol)
                sub_cert = decompose_rank_n(pt_state, tol)
            except (NonGenericInput, ValueError) as exc:
                trace.notes.append(f"transpose-side decomposition degenerated: {exc}")
                reason = REASON_NON_GENERIC
                break
            flipped = [(w, ProductVector.from_e_f(np.conj(pv.e), pv.f)) for w, pv in sub_cert.terms]
            trace.steps.append(TraceStep(op="rank-n-decompose-pt", n_before=m_dim,
                                         ranks_before=(cur.rank, cur.pt_rank)))
            return assemble(flipped, lift), trace

        try:
            res = paired_products(cur.range_basis, cur.pt_range_basis, tol)
        except NonGenericInput as exc:
            trace.notes.append(f"paired search degenerated: {exc}")
            reason = REASON_NON_GENERIC
            break

        if isinstance(res, InfiniteFamily):
            if cur.rank + cur.pt_rank <= 3 * m_dim:
                trace.notes.append("infinite family below the 3N threshold (non-generic)")
            best = _best_subtraction(cur, res.samples)
            if best is None:
                reason = reason or REASON_INFINITE_FAMILY
                break
            rb = (cur.rank, cur.pt_rank)
            try:
                new_cur, lam, case = subtract(cur, best)
            except (VectorOutsideRange, ValueError) as exc:
                trace.notes.append(f"sample subtraction failed: {exc}")
                reason = reason or REASON_INFINITE_FAMILY
                break
            terms.append((lam, _lift_pv(best, lift)))
            trace.nonexhaustive_subtraction = True
            trace.steps.append(TraceStep(
                op="subtract-sample", lam=lam, case=case, alpha=best.alpha,
                ranks_before=rb, ranks_after=(new_cur.rank, new_cur.pt_rank),
                n_before=m_dim, n_after=new_cur.n, norm_before=cur.norm,
                min_eig_after=(new_cur.min_eigenvalue, new_cur.pt_min_eigenvalue)))
            cur = new_cur
            continue

        if len(res) == 0:
            if trace.nonexhaustive_subtraction:
                break
            if borderline_seen:
                trace.notes.append("empty enumeration discarded: borderline rank decisions")
                reason = REASON_NON_GENERIC
                break
            trace.exhaustive_enumeration = True
            trace.steps.append(TraceStep(op="enumeration-empty", n_before=m_dim,
                                         ranks_before=(cur.rank, cur.pt_rank)))
            witness = {"enumerated_vectors": 0}
            return Verdict(VerdictKind.ENTANGLED_PPT, witness=witness), trace

        try:
            bio = biorthogonal_check(cur, res, tol)
        except DependentProjectors as exc:
            trace.notes.append(f"dependent projectors: {exc}")
            reason = REASON_NON_GENERIC
            break
        if bio.kind is VerdictKind.SEPARABLE:
            trace.exhaustive_enumeration = not trace.nonexhaustive_subtraction
            trace.steps.append(TraceStep(op="biorthogonal", n_before=m_dim,
                                         ranks_before=(cur.rank, cur.pt_rank),
                                         detail=f"vectors={len(res)}"))
            return assemble(bio.certificate.terms, lift), trace
        if trace.nonexhaustive_subtraction:
            trace.notes.append("negative expansion after non-exhaustive subtraction")
            break
        if borderline_seen:
            trace.notes.append("negative expansion discarded: borderline rank decisions")
            reason = REASON_NON_GENERIC
            break
        trace.exhaustive_enumeration = True
        trace.steps.append(TraceStep(op="biorthogonal", n_before=m_dim,
                                     ranks_before=(cur.rank, cur.pt_rank),
                                     detail=f"vectors={len(res)}"))
        return Verdict(VerdictKind.ENTANGLED_PPT, witness=bio.witness), trace

    # sufficient fallbacks on the first stripped state, before any subtraction
    if base is not None:
        fb = symmetric_split_check(base, tol=tol)
        if fb is None:
            fb = pt_symmetrizing_search(base, tol=tol)
        if fb is not None and fb.kind is VerdictKind.SEPARABLE:
            lifted = [(w, _lift_pv(pv, base_lift)) for w, pv in fb.certificate.terms]
            cert = SeparabilityCertificate(lifted)
            if verify_certificate(state0, cert, tol):
                trace.steps.append(TraceStep(op="fallback-sufficient"))
                return Verdict(VerdictKind.SEPARABLE, certificate=cert), trace

    return Verdict(VerdictKind.INCONCLUSIVE, reason=reason or REASON_REDUCTION_STALLED), trace
