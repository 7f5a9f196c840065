"""Dense complex linear algebra for operators on C2 x CN.

Everything here is specialized to 2N x 2N Hermitian operators stored in the
ordered product basis with flat index ``i*N + k`` (``i`` the qubit index,
``k`` the second-factor index).  Ranks and kernels are numerical: singular
values below a relative cutoff count as zero, and that single cutoff drives
all downstream branching.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "DensityState",
    "RankInfo",
    "as_complex_matrix",
    "hermitize",
    "partial_transpose_matrix",
    "partial_trace_second",
    "numerical_rank_kernel",
    "split_at_cutoff",
    "within_psd_tol",
    "psd_difference_check",
    "operator_norm",
    "operator_norm_at_most",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical cutoffs shared by the whole analysis pipeline.

    rank_rel_tol
        Magnitudes at most ``rank_rel_tol`` times the largest count as zero;
        every rank decision on a spectrum goes through ``split_at_cutoff``.
        Rank drops at the chart points of the product-vector search follow
        the one fixed rule of ``productfinder._has_null`` instead.
    psd_tol
        Relative eigenvalue floor: X is accepted as PSD when
        ``lambda_min(X) >= -psd_tol * ||X||``, the test of ``within_psd_tol``.
    root_residual_tol
        Range-membership bound: a candidate product vector lies in a
        subspace when its residual off the subspace is at most 10 times
        this.  Roots themselves are accepted by the rank-drop rule of
        ``productfinder._has_null``, not by this bound.
    cert_recon_tol
        Relative reconstruction bound for separability certificates.
    """

    rank_rel_tol: float = 1e-9
    psd_tol: float = 1e-9
    root_residual_tol: float = 1e-8
    cert_recon_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bools are Integral, and numpy's bool is not Real; the value is
            # stored as given, so a report shows the type it was given
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
            try:
                finite_positive = value > 0 and math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite_positive = False
            if not finite_positive:
                raise ValueError(f"{f.name} must be finite and > 0, got {value!r}")
        if self.rank_rel_tol >= 1:
            raise ValueError("rank_rel_tol must be < 1")

    def as_dict(self) -> dict:
        return asdict(self)


# The tolerances of every call that is given none; frozen, so safely shared.
DEFAULT_TOL = ToleranceConfig()


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag) / 2, halved first so that no entry overflows.

    Halving is exact in the normal range, where this gives the bits of
    ``(m + m.conj().T) / 2``; a subnormal entry may round, by at most half
    the least subnormal.
    """
    return m / 2 + m.conj().T / 2


def operator_norm(m) -> float:
    """Largest singular value."""
    m = as_complex_matrix(m)
    if m.size == 0:
        return 0.0
    # what ``np.linalg.norm(m, 2)`` computes, without its dispatch
    return float(np.linalg.svd(m, compute_uv=False).max(initial=0))


# Relative margin by which the entry bracket must clear a bound before it
# decides a norm comparison; far above the rounding of an SVD norm.
BRACKET_MARGIN = 1e-6
# Below this, products and entries lose relative precision to subnormals.
_BRACKET_SAFE = np.finfo(float).tiny / BRACKET_MARGIN
# Floor of the Hermiticity test's relative tolerance.
_HERMITIAN_FLOOR = 1e3 * np.finfo(float).eps


def _entry_bracket(m) -> tuple[float, float] | None:
    """``(max|m_ij|, sqrt(rows*cols) * max|m_ij|)``, or None when not finite or not 2-D."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        return None
    if m.size == 0:
        return 0.0, 0.0
    top = float(np.max(np.abs(m)))
    upper = math.sqrt(m.size) * top
    if not math.isfinite(upper):
        return None
    return top, upper


def operator_norm_at_most(m, t: float, r=None, floor: float = 0.0) -> bool:
    """Decide ``operator_norm(m) <= t * max(operator_norm(r), floor)`` exactly.

    With ``r`` None the right-hand side is ``t * floor``.  The largest entry
    modulus brackets the spectral norm, ``max|m_ij| <= ||M|| <=
    sqrt(rows*cols) * max|m_ij|``, and likewise for R.  The brackets decide
    the comparison only when they clear the bound by the relative margin
    ``BRACKET_MARGIN``, far above the rounding of an SVD norm, and only away
    from the subnormal range.  Otherwise, and whenever a bracket is not
    finite, the expression above is evaluated through ``operator_norm``, so
    the answer is always the one of the SVD and non-finite input still
    raises ``ValueError``.
    """
    bm = _entry_bracket(m)
    br = (0.0, 0.0) if r is None else _entry_bracket(r)
    if bm is not None and br is not None:
        lower, upper = bm
        bound_lower = t * max(br[0], floor)
        bound_upper = t * max(br[1], floor)
        if upper == 0.0 or (bound_lower >= _BRACKET_SAFE
                            and upper <= bound_lower * (1.0 - BRACKET_MARGIN)):
            return True
        if lower >= _BRACKET_SAFE and lower > bound_upper * (1.0 + BRACKET_MARGIN):
            return False
    ref = floor if r is None else max(operator_norm(r), floor)
    return operator_norm(m) <= t * ref


def _is_hermitian(m: np.ndarray, tol: "ToleranceConfig") -> bool:
    """``||M - M^dag|| <= max(psd_tol, 1e3 eps) * ||M||``; exact Hermitian input skips the norms."""
    skew = m - m.conj().T
    return not np.any(skew) or operator_norm_at_most(
        skew, max(tol.psd_tol, _HERMITIAN_FLOOR), m)


def partial_transpose_matrix(m: np.ndarray, n: int) -> np.ndarray:
    """Transpose the first (qubit) factor: swap the two off-diagonal N x N blocks."""
    if m.shape != (2 * n, 2 * n):
        raise ValueError(f"expected shape {(2 * n, 2 * n)}, got {m.shape}")
    out = m.copy()
    out[:n, n:] = m[n:, :n]
    out[n:, :n] = m[:n, n:]
    return out


def partial_trace_second(m: np.ndarray, n: int) -> np.ndarray:
    """Trace out the qubit, leaving an N x N operator on the second factor."""
    return m[:n, :n] + m[n:, n:]


class RankInfo(NamedTuple):
    rank: int
    kernel_basis: np.ndarray  # columns, orthonormal
    range_basis: np.ndarray   # columns, orthonormal


def split_at_cutoff(w: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, int]:
    """Which |w| clear ``rank_rel_tol`` times the top; how many are within 10x (a fragile rank)."""
    mags = np.abs(w)
    values = mags.tolist()  # Python floats count a few values faster than numpy calls
    cutoff = tol.rank_rel_tol * max(values, default=0.0)
    lo, hi = cutoff / 10, 10 * cutoff
    return mags > cutoff, len([x for x in values if lo < x < hi])


def within_psd_tol(w_min: float, scale: float, tol: ToleranceConfig) -> bool:
    """Whether a least eigenvalue counts as nonnegative against ``scale``.

    The test is relative at every scale, subnormal ones included: a floor
    under ``scale`` would make it absolute there and pass clearly negative
    spectra of tiny matrices.
    """
    return w_min >= -tol.psd_tol * scale


def numerical_rank_kernel(m, tol: ToleranceConfig | None = None) -> RankInfo:
    """Rank, kernel and range of a matrix from its SVD.

    The rank counts the singular values that clear ``split_at_cutoff``; the
    kernel basis spans the complementary right-singular space and the range
    basis the corresponding left-singular space.  Both are orthonormal and
    ``rank + kernel columns == cols`` always holds.
    """
    tol = tol or DEFAULT_TOL
    m = as_complex_matrix(m)
    u, s, vh = np.linalg.svd(m)
    rank = int(np.count_nonzero(split_at_cutoff(s, tol)[0]))
    return RankInfo(rank, vh[rank:].conj().T, u[:, :rank])


def _spectral_pinv(w: np.ndarray, v: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Pseudoinverse of a Hermitian matrix from its eigendecomposition ``(w, v)``.

    Eigenvalues below the rank cutoff are dropped, not inverted.
    """
    keep = split_at_cutoff(w, tol)[0]
    winv = np.zeros_like(w)
    winv[keep] = 1.0 / w[keep]
    return (v * winv) @ v.conj().T


def _require_psd(m: np.ndarray, tol: ToleranceConfig, name: str) -> float:
    """The norm of the Hermitian part of ``m``; raises ``ValueError`` unless it is PSD."""
    w = np.linalg.eigvalsh(hermitize(m))
    norm = float(np.max(np.abs(w), initial=0.0))
    if w.size and not within_psd_tol(float(w[0]), norm, tol):
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    return norm


def psd_difference_check(x, y, tol: ToleranceConfig | None = None) -> bool:
    """Decide ``lambda_min(X - Y) >= -psd_tol * ||X||``; ``ValueError`` unless X and Y are PSD."""
    tol = tol or DEFAULT_TOL
    x = as_complex_matrix(x, "X")
    y = as_complex_matrix(y, "Y")
    norm = _require_psd(x, tol, "X")
    _require_psd(y, tol, "Y")
    w = np.linalg.eigvalsh(hermitize(x - y))
    return not w.size or within_psd_tol(float(w[0]), norm, tol)


class DensityState:
    """Hermitian PSD operator on C2 x CN with cached rank/kernel data.

    The matrix is symmetrized, and the spectral data of it and of its partial
    transpose (``pt_rank``, its bases, ``pt_min_eigenvalue`` and the
    ``warnings`` both add to) are computed at construction; the transpose's
    are the state's own when ``pt_matrix`` equals ``matrix`` byte for byte.
    Instances are treated as immutable afterwards.  Trace does not have to
    be 1, only positive.  Both pseudoinverses are built from the cached
    eigendecompositions.
    """

    def __init__(self, matrix, n: int | None = None, tol: ToleranceConfig | None = None,
                 require_psd: bool = True):
        tol = tol or DEFAULT_TOL
        m = as_complex_matrix(matrix, "density matrix")
        dim = m.shape[0]
        if m.shape[1] != dim or dim % 2 != 0 or dim == 0:
            raise ValueError(f"density matrix must be 2N x 2N, got shape {m.shape}")
        if n is None:
            n = dim // 2
        elif 2 * n != dim:
            raise ValueError(f"matrix shape {m.shape} inconsistent with N={n}")

        if not _is_hermitian(m, tol):
            herm_err = operator_norm(m - m.conj().T) / operator_norm(m)
            raise ValueError(f"matrix is not Hermitian (relative deviation {herm_err:.3e})")

        self.n = int(n)
        self.dim = dim
        self.tol = tol
        self.matrix = hermitize(m)
        self.pt_matrix = partial_transpose_matrix(self.matrix, self.n)

        self._eigvals, self._eigvecs = np.linalg.eigh(self.matrix)

        with np.errstate(over="ignore"):  # finite entries may sum past the largest double
            self.trace = float(np.real(np.trace(self.matrix)))
        self.norm = float(np.max(np.abs(self._eigvals))) if dim else 0.0
        self.min_eigenvalue = float(self._eigvals[0])
        if not (math.isfinite(self.trace) and math.isfinite(self.norm)):  # entries near 1e308
            raise ValueError(f"trace {self.trace:.3e} or norm {self.norm:.3e} is not finite")

        if require_psd:
            if not within_psd_tol(self.min_eigenvalue, self.norm, tol):
                raise ValueError(
                    f"matrix is not PSD (min eigenvalue {self.min_eigenvalue:.3e}, "
                    f"norm {self.norm:.3e})")
            if self.trace <= 0:
                raise ValueError(f"trace must be positive, got {self.trace:.3e}")

        split = self._split(self._eigvals, self._eigvecs)
        self.rank, self.kernel_basis, self.range_basis, borderline = split
        if self.pt_matrix.tobytes() == self.matrix.tobytes():
            self._pt_eigvals, self._pt_eigvecs = self._eigvals, self._eigvecs
        else:
            self._pt_eigvals, self._pt_eigvecs = np.linalg.eigh(self.pt_matrix)
            split = self._split(self._pt_eigvals, self._pt_eigvecs)
        self.pt_rank, self.pt_kernel_basis, self.pt_range_basis, pt_borderline = split
        self.pt_min_eigenvalue = float(self._pt_eigvals[0])
        self.warnings = [f"{label}: {count} eigenvalue(s) within 10x of the rank cutoff"
                         for label, count in (("rho", borderline), ("rho_pt", pt_borderline))
                         if count]
        self._pinv = None

    def _split(self, w, v):
        """Rank, kernel and range bases, and the count of eigenvalues near the cutoff."""
        keep, borderline = split_at_cutoff(w, self.tol)
        order = np.argsort(-np.abs(w))
        kept = keep[order]
        return int(np.count_nonzero(kept)), v[:, order[~kept]], v[:, order[kept]], borderline

    @property
    def is_ppt(self) -> bool:
        return within_psd_tol(self.pt_min_eigenvalue, self.norm, self.tol)

    def pseudoinverse(self) -> np.ndarray:
        if self._pinv is None:
            self._pinv = _spectral_pinv(self._eigvals, self._eigvecs, self.tol)
        return self._pinv

    def pt_pseudoinverse(self) -> np.ndarray:
        if self._pt_eigvecs is self._eigvecs:
            return self.pseudoinverse()
        return _spectral_pinv(self._pt_eigvals, self._pt_eigvecs, self.tol)

    def __repr__(self):
        return (f"DensityState(n={self.n}, rank={self.rank}, pt_rank={self.pt_rank}, "
                f"trace={self.trace:.6g})")
