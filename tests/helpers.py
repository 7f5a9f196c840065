"""Shared constructions and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
ranks are counted from eigenvalues, norms come from power iteration, PSD
ordering from the spectrum of the difference, and bivariate roots from a
dense grid scan with finite-difference Newton refinement.  Root
verification also has a scalar reference, one ``polyval2d`` call per
candidate and polynomial, for the batched one in the library; the
fixed-alpha solves and the determinant interpolation have one-alpha,
one-node references for the stacked calls that replaced them, and the
candidate screens (phase normalization, range tests, the partner filter,
the subtraction bounds and the kernel terms) one-vector references.  The
per-call primitives whose validation, allocation and Python loops were cut
(input checks, the rank split, coefficient-grid helpers, Horner evaluation,
the interpolation matrices and the block rank test) keep their former forms
here, as bitwise references.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from sep2n.matrixcore import hermitize, partial_transpose_matrix
from sep2n.polyelim import TRIM_REL_TOL, NonFinite
from sep2n.productfinder import (
    CHART_INFINITY_TOL,
    KERNEL_PARTNER_REL_TOL,
    NULL_ACCEPT,
    NonGenericInput,
    ProductVector,
    _inv_dft,
)
from sep2n.sepengine import (
    KERNEL_IMAGE_ZERO_REL_TOL,
    KERNEL_RESIDUAL_REL_TOL,
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


# ---------------------------------------------------------------------------
# linear-algebra oracles
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# bivariate root oracle: dense grid scan plus finite-difference Newton
# ---------------------------------------------------------------------------

def eval_bivariate(coeffs, alpha):
    """Horner evaluation of sum c[j,k] alpha^j conj(alpha)^k on an array."""
    coeffs = np.asarray(coeffs, dtype=complex)
    beta = np.conj(alpha)
    acc = np.zeros_like(np.asarray(alpha, dtype=complex))
    for j in range(coeffs.shape[0] - 1, -1, -1):
        row = np.zeros_like(acc)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            row = row * beta + coeffs[j, k]
        acc = acc * alpha + row
    return acc


def _grid_residual(coeff_list, alpha):
    res = None
    for c in coeff_list:
        r = np.abs(eval_bivariate(c, alpha))
        res = r if res is None else np.maximum(res, r)
    return res


def _fd_newton(coeff_list, alpha, steps=30, h=1e-7):
    """Gauss-Newton with finite-difference Jacobian on the stacked residuals."""
    def f(a):
        return np.concatenate([[eval_bivariate(c, a).real, eval_bivariate(c, a).imag]
                               for c in coeff_list])

    a = complex(alpha)
    best, best_res = a, np.linalg.norm(f(a))
    for _ in range(steps):
        r = f(a)
        jx = (f(a + h) - f(a - h)) / (2 * h)
        jy = (f(a + 1j * h) - f(a - 1j * h)) / (2 * h)
        jac = np.column_stack([jx, jy])
        try:
            delta, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        step = delta[0] + 1j * delta[1]
        if not np.isfinite(step):
            break
        moved = False
        damp = 1.0
        for _ in range(6):
            cand = a + damp * step
            res = np.linalg.norm(f(cand))
            if res < best_res:
                a, best, best_res = cand, cand, res
                moved = True
                break
            damp /= 2
        if not moved:
            break
    return best


def _residual_scale(coeff_list, alpha):
    out = 1.0
    for c in coeff_list:
        out = max(out, float(np.real(eval_bivariate(np.abs(c), abs(alpha)))))
    return out


def grid_root_oracle(polys, box=5.0, step=0.01, residual_tol=1e-8, merge=1e-6):
    """Independent genuine-root finder: scan a grid, refine local minima.

    ``polys`` may be BivariatePoly instances or raw coefficient grids.
    Returns roots sorted by (re, im), deduplicated within ``merge``.
    """
    coeff_list = [np.asarray(getattr(p, "coeffs", p), dtype=complex) for p in polys]
    xs = np.arange(-box, box + step / 2, step)
    grid = xs[None, :] + 1j * xs[:, None]
    res = _grid_residual(coeff_list, grid)

    inner = res[1:-1, 1:-1]
    neighbors = [res[1 + di:res.shape[0] - 1 + di, 1 + dj:res.shape[1] - 1 + dj]
                 for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    is_min = np.ones_like(inner, dtype=bool)
    for nb in neighbors:
        is_min &= inner <= nb
    # coarse cut relative to a cheap coefficient-scale bound: only minima
    # that could plausibly reach zero after refinement
    csum = max(float(np.sum(np.abs(c))) for c in coeff_list)
    degsum = max(c.shape[0] + c.shape[1] - 2 for c in coeff_list)
    bound = csum * np.maximum(1.0, np.abs(grid[1:-1, 1:-1])) ** degsum
    candidates = grid[1:-1, 1:-1][is_min & (inner < 0.05 * np.maximum(1.0, bound))]

    roots = []
    for a in candidates:
        refined = _fd_newton(coeff_list, a)
        resid = float(_grid_residual(coeff_list, np.array(refined)))
        if resid <= residual_tol * _residual_scale(coeff_list, refined):
            if abs(refined.real) <= box and abs(refined.imag) <= box:
                roots.append(complex(refined))
    roots.sort(key=lambda z: (z.real, z.imag))
    merged = []
    for a in roots:
        if any(abs(a - m) <= merge for m in merged):
            continue
        merged.append(a)
    return merged


# ---------------------------------------------------------------------------
# scalar root verification: the one-candidate, one-polynomial loop that the
# batched ``verify_roots`` replaced, kept as its reference
# ---------------------------------------------------------------------------

def _scalar_derivs(c):
    da = npoly.polyder(c, axis=0) if c.shape[0] > 1 else np.zeros((1, c.shape[1]), dtype=complex)
    db = npoly.polyder(c, axis=1) if c.shape[1] > 1 else np.zeros((c.shape[0], 1), dtype=complex)
    return da, db


def _scalar_polish(alpha, coeff_list, steps=8):
    """Gauss-Newton on the genuine-root residuals, treating re/im separately."""
    def residual(a):
        return np.array([npoly.polyval2d(a, np.conj(a), c) for c in coeff_list], dtype=complex)

    derivs = [_scalar_derivs(c) for c in coeff_list]
    best = alpha
    best_res = np.linalg.norm(residual(alpha))
    a = alpha
    for _ in range(steps):
        r = residual(a)
        ja = np.array([npoly.polyval2d(a, np.conj(a), d[0]) for d in derivs])
        jb = np.array([npoly.polyval2d(a, np.conj(a), d[1]) for d in derivs])
        # d/dx and d/dy of each complex residual (alpha = x + iy)
        jx = ja + jb
        jy = 1j * (ja - jb)
        m = np.zeros((2 * len(coeff_list), 2))
        rhs = np.zeros(2 * len(coeff_list))
        m[0::2, 0], m[0::2, 1] = jx.real, jy.real
        m[1::2, 0], m[1::2, 1] = jx.imag, jy.imag
        rhs[0::2], rhs[1::2] = -r.real, -r.imag
        try:
            delta, *_ = np.linalg.lstsq(m, rhs, rcond=None)
        except np.linalg.LinAlgError:
            break
        step = delta[0] + 1j * delta[1]
        if not np.isfinite(step):
            break
        damp = 1.0
        improved = False
        for _ in range(5):
            cand = a + damp * step
            res = np.linalg.norm(residual(cand))
            if res < best_res:
                a, best, best_res = cand, cand, res
                improved = True
                break
            damp /= 2
        if not improved:
            break
    return best


def _scalar_scale(c, alpha):
    mag = npoly.polyval2d(abs(alpha), abs(alpha), np.abs(c))
    return max(1.0, float(np.real(mag)))


def scalar_verify_roots(candidates, polys, residual_tol=1e-8, merge=1e-6):
    """Polish, accept and merge candidates one at a time with ``polyval2d``.

    ``polys`` may be BivariatePoly instances or raw coefficient grids.
    Returns roots sorted by (re, im), merged within ``merge``.
    """
    coeff_list = [np.asarray(getattr(p, "coeffs", p), dtype=complex) for p in polys]
    kept = []
    for alpha in candidates:
        a = complex(alpha)
        if not np.isfinite(a):
            continue
        a = _scalar_polish(a, coeff_list)
        if all(abs(npoly.polyval2d(a, np.conj(a), c)) <= residual_tol * _scalar_scale(c, a)
               for c in coeff_list):
            kept.append(complex(a))
    merged = []
    for a in sorted(kept, key=lambda z: (z.real, z.imag)):
        if any(abs(a - m) <= merge for m in merged):
            continue
        merged.append(a)
    return merged


def plant_common_roots(rng, deg_alpha, deg_conj, roots, npolys=1):
    """Coefficient grids vanishing at the requested genuine roots.

    Each root imposes one linear constraint on the coefficients; sampling
    from the null space makes the roots exact by construction.
    """
    mono_rows = []
    for a in roots:
        mono_rows.append([(a ** j) * (np.conj(a) ** k)
                          for j in range(deg_alpha + 1) for k in range(deg_conj + 1)])
    constraints = np.array(mono_rows, dtype=complex)
    _u, _s, vh = np.linalg.svd(constraints)
    null = vh[len(roots):].conj().T
    grids = []
    for _ in range(npolys):
        coeff = null @ (rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1]))
        grids.append(coeff.reshape(deg_alpha + 1, deg_conj + 1))
    return grids


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
            <= KERNEL_PARTNER_REL_TOL * pt_norm]


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
    if np.linalg.norm(state.matrix @ v.vector) > KERNEL_RESIDUAL_REL_TOL * norm:
        raise ValueError("vector is not in the kernel of the state")
    e = v.e
    ehat = np.array([-np.conj(e[1]), np.conj(e[0])], dtype=complex)
    w = state.matrix @ (ehat[:, None] * v.f[None, :]).ravel()
    wn = np.linalg.norm(w)
    if wn <= KERNEL_IMAGE_ZERO_REL_TOL * norm:
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
# scalar fixed-alpha solves and determinant interpolation: the one-alpha,
# one-node loops that the stacked numpy calls in ``productfinder`` replaced,
# kept as their bitwise references
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


def scalar_refine_alpha_f(cs, alpha, rounds=3):
    """Alternating alpha/f refinement of one alpha; returns (alpha, f, SVDs taken)."""
    ac1, bc1, ac2, bc2 = cs.conj_blocks
    f = None
    done = 0
    for _ in range(rounds):
        _u, _s, vh = np.linalg.svd(scalar_stacked(cs, alpha), full_matrices=True)
        f = vh[-1].conj()
        done += 1
        x1, y1 = ac1 @ f, bc1 @ f
        x2, y2 = ac2 @ f, bc2 @ f
        denom = float(np.real(np.vdot(x1, x1) + np.vdot(x2, x2)))
        if denom <= 1e-14:
            break
        alpha = complex(-(np.vdot(x1, y1) + np.conj(np.vdot(x2, y2))) / denom)
    return alpha, f, done


def scalar_collect_single(candidates, cs, h, tol):
    """Single-subspace root loop: refine, skip repeats within 1e-6, gate, range test."""
    found, seen = [], []
    for alpha in candidates:
        alpha = complex(alpha)
        if any(abs(alpha - s) <= 1e-6 for s in seen):
            continue
        alpha, f, _ = scalar_refine_alpha_f(cs, alpha)
        if any(abs(alpha - s) <= 1e-6 for s in seen):
            continue
        if not _scalar_has_null(np.linalg.svd(scalar_stacked(cs, alpha), compute_uv=False),
                                cs.n, alpha):
            continue
        v = scalar_from_alpha(alpha, f)
        if scalar_in_range(h, v.vector, tol):
            found.append(v)
            seen.append(alpha)
    return found


def scalar_vector_at_root(cs, alpha):
    """Refined product vector at one paired root, None past the rank gate."""
    alpha, f, _ = scalar_refine_alpha_f(cs, alpha)
    s = np.linalg.svd(scalar_stacked(cs, alpha), compute_uv=False)
    if not _scalar_has_null(s, cs.n, alpha):
        return None
    if cs.n >= 2 and _scalar_has_null(s, cs.n - 1, alpha):
        raise NonGenericInput(f"solution space at alpha={alpha:.6g} has dimension > 1")
    return scalar_from_alpha(alpha, f)


def scalar_root_products(roots, cs, h1, h2, tol):
    """Paired root loop: one vector per root, kept when both range tests pass."""
    found = []
    for alpha in roots:
        v = scalar_vector_at_root(cs, alpha)
        if (v is not None and scalar_in_range(h1, v.vector, tol)
                and scalar_in_range(h2, v.conjugate_partner.vector, tol)):
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


def scalar_det_poly_univariate(ac, bc):
    """Coefficients of det(alpha*ac + bc), one ``det`` per interpolation node."""
    nodes, inv = _inv_dft(ac.shape[0])
    return inv @ np.array([np.linalg.det(x * ac + bc) for x in nodes])


def scalar_det_poly_bivariate(rows_alpha, rows_conj):
    """Bivariate determinant coefficients, one ``det`` per node pair."""
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
    return inv_a @ grid @ inv_b.T


# ---------------------------------------------------------------------------
# per-call primitives: the forms that the overhead cuts in ``matrixcore``,
# ``polyelim`` and ``productfinder`` replaced, kept as their bitwise references
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


def reference_trim(grid):
    """``polyelim._trim`` masking the whole grid before it slices."""
    g = np.asarray(grid, dtype=complex)
    if g.ndim != 2:
        g = np.atleast_2d(g)
    top = np.max(np.abs(g)) if g.size else 0.0
    if not np.isfinite(top):
        raise NonFinite("non-finite coefficients")
    if top <= 0.0:
        return np.zeros((1, 1), dtype=complex)
    mask = np.abs(g) > TRIM_REL_TOL * top
    g = np.where(mask, g, 0.0)
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    return g[: rows[-1] + 1, : cols[-1] + 1]


def reference_is_zero(grid):
    return grid.size == 0 or np.max(np.abs(grid)) <= 0.0


def reference_alpha_divisible(grid):
    top = np.max(np.abs(grid))
    return bool(np.all(np.abs(grid[0]) <= TRIM_REL_TOL * top))


def reference_scalar_proportional(g1, g2):
    a, b = reference_trim(g1), reference_trim(g2)
    if a.shape != b.shape:
        return False
    i = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(b[i]) <= 0.0:
        return False
    c = a[i] / b[i]
    return np.max(np.abs(a - c * b)) <= 1e-9 * max(np.max(np.abs(a)), np.max(np.abs(c * b)))


def reference_eval_stack(stack, x, y):
    """Horner over a ``(A, B, K)`` stack, starting from the broadcast last row."""
    v = np.broadcast_to(stack[-1], (x.size,) + stack.shape[1:])
    for row in stack[-2::-1]:
        v = row + v * x[:, None, None]
    w = v[:, -1]
    for j in range(stack.shape[1] - 2, -1, -1):
        w = v[:, j] + w * y[:, None]
    return w


def reference_inv_dft(deg):
    """Interpolation nodes and inverse Vandermonde matrix, computed afresh."""
    nodes = np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    vand = nodes[:, None] ** np.arange(deg + 1)[None, :]
    return nodes, vand.conj().T / (deg + 1)


def reference_block_rows_independent(ac, bc, probe):
    """Rank test from ``matrix_rank`` with a cutoff from ``norm(., 2)``: two SVDs."""
    if ac.shape[0] == 0:
        return True
    m = probe * ac + bc
    return np.linalg.matrix_rank(m, tol=1e-10 * max(1.0, float(np.linalg.norm(m, 2)))) == ac.shape[0]


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


def random_local_unitary(rng, n):
    """U (x) V with U on C2 and V on CN from QR of complex Gaussian matrices."""
    u, v = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            for d in (2, n))
    return np.kron(u, v)


def failing_once(fn, exc):
    """``fn`` that raises ``exc`` on its first call and then behaves as ``fn``."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise exc
        return fn(*args, **kwargs)

    return wrapped
