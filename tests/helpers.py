"""Shared constructions and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
ranks are counted from eigenvalues, norms come from power iteration, PSD
ordering from the spectrum of the difference, and bivariate roots from a
dense grid scan with finite-difference Newton refinement.  Root
verification also has a scalar reference, one ``polyval2d`` call per
candidate and polynomial, for the batched one in the library.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from sep2n.matrixcore import hermitize, partial_transpose_matrix
from sep2n.productfinder import ProductVector


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


def embedded_max_entangled(n):
    """|0>|1st> + |1>|2nd> projector on C2 x CN, unit trace."""
    vec = np.zeros(2 * n, dtype=complex)
    vec[0] = 1.0
    vec[n + 1] = 1.0
    m = np.outer(vec, vec.conj())
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
