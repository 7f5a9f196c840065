from collections import Counter

import numpy as np
import pytest

from sep2n import matrixcore, productfinder, sepengine
from sep2n.matrixcore import DensityState, ToleranceConfig
from sep2n.productfinder import (
    PENCIL_CONVERGED,
    PENCIL_GATE,
    PENCIL_POLISH_STEPS,
    ConstraintSystem,
    InfiniteFamily,
    NonGenericInput,
    ProductVector,
    _bloch_pencil,
    _chart_products,
    _chart_svd,
    _far_from_products,
    _orthonormalize,
    _pencil_roots,
    _single_roots,
    build_paired_system,
    kernel_product_vector,
    orthonormal_complement,
    paired_products,
    products_in_subspace,
    real_e_products,
)

from sep2n.sepengine import VerdictKind, biorthogonal_check

from helpers import (
    basis_and_complement,
    build_separable,
    count_svd_stacks,
    eig_rank,
    horodecki_2x4,
    paired_bases,
    perfbench_corpus,
    random_product_vector,
    random_pt_invariant,
    reference_sampled_paired,
    sets_match,
    shared_e_rank_n,
)


def basis_vec(n, i, k):
    v = np.zeros(2 * n, dtype=complex)
    v[i * n + k] = 1.0
    return v


def membership_residual(h, v):
    return np.linalg.norm(v - h @ (h.conj().T @ v))


# the alphas every infinite-family search samples, and the real-e grid
SAMPLES = [0.437 + 0.821j, -1.133 + 0.294j, 0.512 - 0.668j, -0.274 - 1.147j,
           0.0, 1.0, -1.0, 0.5]
REAL_GRID = [0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0 / 3.0]
# bases whose row count is not 2N with N >= 1, and what every search says of them
NOT_2N_ROWS = [(5, 2), (7, 5), (0, 1)]
NOT_2N_MESSAGE = r"2N rows with N >= 1; got shape \("


class TestProductVector:
    def test_alpha_roundtrip(self):
        pv = ProductVector.from_alpha(2.0 - 1.0j, np.array([1.0, 1j, 0.5]))
        assert abs(pv.alpha - (2.0 - 1.0j)) < 1e-12
        assert abs(np.linalg.norm(pv.e) - 1) < 1e-12
        assert abs(np.linalg.norm(pv.f) - 1) < 1e-12
        again = ProductVector.from_e_f(pv.e, pv.f)
        assert abs(again.alpha - pv.alpha) < 1e-10

    def test_infinity_chart(self):
        pv = ProductVector.from_alpha(None, np.array([0.0, 1.0]))
        assert pv.alpha is None
        assert np.allclose(pv.e, [1.0, 0.0])

    def test_conjugate_partner(self):
        rng = np.random.default_rng(0)
        pv = random_product_vector(rng, 3)
        partner = pv.conjugate_partner
        assert np.allclose(partner.e, np.conj(pv.e))
        assert np.allclose(partner.f, pv.f)
        for v in (pv, partner, random_product_vector(rng, 1), random_product_vector(rng, 8)):
            assert v.vector.tobytes() == np.kron(v.e, v.f).tobytes()
            assert v.vector is v.vector
            with pytest.raises(ValueError):
                v.vector[0] = 0.0

    def test_projector_is_rank_one(self):
        rng = np.random.default_rng(1)
        pv = random_product_vector(rng, 4)
        p = pv.projector()
        assert eig_rank(p) == 1
        assert abs(np.trace(p) - 1) < 1e-12


class TestInfiniteFamily:
    def test_reads_as_the_list_of_its_samples(self):
        rng = np.random.default_rng(2)
        samples = [random_product_vector(rng, 3) for _ in range(3)]
        family = InfiniteFamily(samples=samples, note="planted")
        assert family.note == "planted"
        assert len(family) == 3 and family[1] is samples[1] and family[-1] is samples[2]
        assert [id(v) for v in family] == [id(v) for v in samples]
        assert family == samples and family is not samples
        assert family[:2] == samples[:2]
        empty = InfiniteFamily()
        assert empty == [] and not empty and empty.note == ""


class TestProductsInSubspace:
    def test_two_product_basis_vectors(self):
        # span{|0,1>, |1,2>} on C2 x C2: both basis vectors are the solutions
        h = np.column_stack([basis_vec(2, 0, 0), basis_vec(2, 1, 1)])
        res = products_in_subspace(*basis_and_complement(h))
        assert type(res) is list and len(res) == 2
        alphas = [v.alpha for v in res]
        assert None in alphas and any(a is not None and abs(a) < 1e-10 for a in alphas)
        for v in res:
            assert membership_residual(h, v.vector) < 1e-8

    @pytest.mark.parametrize("shape", NOT_2N_ROWS)
    def test_refuses_row_count_not_2n(self, shape):
        with pytest.raises(ValueError, match=NOT_2N_MESSAGE):
            products_in_subspace(np.ones(shape), np.ones((shape[0], 0)))

    @pytest.mark.parametrize("search", [products_in_subspace, real_e_products])
    def test_refuses_complement_of_wrong_shape(self, search):
        # the complement must be 2-D with the basis's 2N rows and 2N columns between them
        h = np.eye(6, dtype=complex)[:, :4]
        for comp in (np.eye(6)[:, 4:5], np.eye(6), np.eye(4)[:, :2], np.eye(6)[:, 4:6].ravel(),
                     np.eye(6)[None, :, 4:6]):
            with pytest.raises(ValueError, match="does not fit a basis of shape"):
                search(h, comp)
        res = search(h, np.eye(6)[:, 4:6])
        assert len(res) == 9

    def test_full_space_infinite(self):
        res = products_in_subspace(*basis_and_complement(np.eye(6, dtype=complex)))
        assert isinstance(res, InfiniteFamily)
        assert [v.alpha for v in res] == SAMPLES + [None]
        for v in res:
            assert abs(np.linalg.norm(v.vector) - 1) < 1e-10

    def test_dimension_n_matches_alpha_scan_oracle(self):
        rng = np.random.default_rng(2)
        n = 3
        for _ in range(5):
            h = np.linalg.qr(rng.standard_normal((2 * n, n))
                             + 1j * rng.standard_normal((2 * n, n)))[0]
            res = products_in_subspace(*basis_and_complement(h))
            assert type(res) is list and len(res) >= 1
            # oracle: scan alpha on a grid, minimize the membership residual
            # of the induced product vector, refine the winners
            for v in res:
                assert membership_residual(h, v.vector) < 1e-7
            grid = [complex(x, y) for x in np.linspace(-4, 4, 20)
                    for y in np.linspace(-4, 4, 20)]
            best = min(grid, key=lambda a: _subspace_distance(h, a, n))
            refined = _refine_alpha(h, best, n)
            matched = any(v.alpha is not None and abs(v.alpha - refined) < 1e-5 for v in res)
            assert matched or _subspace_distance(h, refined, n) > 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vanishing_determinant(self, n):
        # C2 x f0 inside H: f0 solves the constraints at every alpha, so the
        # pencil is singular at both shifts; that is an infinite family at
        # dim(H) = N, and below N too, where the constraints drop rank at
        # every alpha
        rng = np.random.default_rng(30 + n)
        f0 = _cvec(rng, n)
        cols = [np.kron([1, 0], f0), np.kron([0, 1], f0)] + list(_cvec(rng, n - 2, 2 * n))
        notes = {n: "determinant vanishes identically",
                 n - 1: "all determinants vanish identically"}
        for m in (n, n - 1) if n > 2 else (n,):
            res = products_in_subspace(*basis_and_complement(np.column_stack(cols[:m])))
            assert isinstance(res, InfiniteFamily) and res.note == notes[m]
            assert [v.alpha for v in res] == SAMPLES + [None]
            h = _orthonormalize(np.column_stack(cols[:m]))
            for v in res:
                assert membership_residual(h, v.vector) < 1e-10
                assert abs(abs(np.vdot(v.f, f0)) - np.linalg.norm(f0)) < 1e-10 * np.linalg.norm(f0)

    def test_double_root_vector_is_accurate(self):
        # two terms sharing e put a double root at e_perp in the kernel search,
        # whose vector must still be exact to rounding
        for n in range(3, 7):
            for i in range(8):
                m, vecs = shared_e_rank_n(np.random.default_rng([n, i]), n)
                state = DensityState(m)
                found = products_in_subspace(*basis_and_complement(state.kernel_basis), state.tol)
                assert type(found) is list
                on_curve = [v for v in found if abs(np.vdot(v.e, vecs[0].e)) < 1e-6]
                assert len(on_curve) == 1
                for v in found:
                    assert np.linalg.norm(m @ v.vector) < 1e-14 * np.linalg.norm(m, 2)

    def test_guaranteed_existence_dimension_n(self):
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            h = np.linalg.qr(rng.standard_normal((2 * n, n))
                             + 1j * rng.standard_normal((2 * n, n)))[0]
            res = products_in_subspace(*basis_and_complement(h))
            if type(res) is list and len(res) >= 1:
                found += 1
        assert found == 200


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _cvec(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _planted_subspace(rng, n, m, e, delta=0.0):
    """An orthonormal basis of m dimensions holding |e,f> (moved by delta), and |e,f>."""
    v = np.kron(e, _cvec(rng, n))
    v /= np.linalg.norm(v)
    w = _cvec(rng, 2 * n)
    return _orthonormalize(np.column_stack([v + delta * w / np.linalg.norm(w),
                                            _cvec(rng, 2 * n, m - 1)])), v


def _planted_es(rng):
    """A random complex e, a random real e and e = |0>, the alpha = infinity chart point."""
    return _cvec(rng, 2), rng.standard_normal(2), np.array([1.0, 0.0])


def _search_without_proof(monkeypatch, h):
    with monkeypatch.context() as patch:
        patch.setattr(productfinder, "_far_from_products", lambda h, n: False)
        return products_in_subspace(*basis_and_complement(h))


class TestProductFreeProof:
    """``_far_from_products`` succeeds only where the full search finds nothing."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_declines_on_a_planted_vector(self, n):
        rng = np.random.default_rng([940, n])
        for m in range(1, n):
            for e in _planted_es(rng):
                e = e / np.linalg.norm(e)
                h, v = _planted_subspace(rng, n, m, e)
                assert not _far_from_products(h, n)
                found = products_in_subspace(*basis_and_complement(h))
                assert any(abs(np.vdot(pv.vector, v)) > 1 - 1e-8 for pv in found)
                if e[1] == 0:
                    assert any(pv.alpha is None for pv in found)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_proved_searches_find_nothing(self, n, monkeypatch):
        rng = np.random.default_rng([941, n])
        outcomes = []
        for m in range(1, n):
            cases = [_orthonormalize(_cvec(rng, 2 * n, m)) for _ in range(3)]
            for delta in (1e-9, 1e-6, 1e-4, 1e-3, 1e-2):
                cases += [_planted_subspace(rng, n, m, e / np.linalg.norm(e), delta)[0]
                          for e in _planted_es(rng)]
            for h in cases:
                proved = _far_from_products(h, n)
                if proved:
                    assert _search_without_proof(monkeypatch, h) == []
                outcomes.append(proved)
        # both outcomes occur: a vector moved by 1e-9 is within the margin
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_overlap_matches_the_complement_blocks(self, n):
        rng = np.random.default_rng([942, n])
        for m in range(1, n):
            h, comp = basis_and_complement(_cvec(rng, 2 * n, m))
            pencil = _bloch_pencil(h, n)
            ac, bc = ConstraintSystem(comp, comp[:, :0]).conj_blocks[:2]
            for e in (*_cvec(rng, 4, 2), [1.0, 0.0]):
                e = np.asarray(e, dtype=complex) / np.linalg.norm(e)
                x = np.real(np.conj(e) @ PAULI @ e)
                k = np.eye(m) / 2 + (x @ pencil).reshape(m, m)
                # K(x) is H^dag (e e^dag (x) I) H
                direct = h.conj().T @ np.kron(np.outer(e, e.conj()), np.eye(n)) @ h
                assert np.allclose(k, direct, atol=1e-14)
                if e[1] == 0:
                    sigma_n, scale = np.linalg.svd(ac, compute_uv=False)[n - 1], 1.0
                else:
                    alpha = e[0] / e[1]
                    sigma_n = np.linalg.svd(alpha * ac + bc, compute_uv=False)[n - 1]
                    scale = 1 + abs(alpha) ** 2
                assert abs(np.linalg.eigvalsh(k)[-1] - (1 - sigma_n ** 2 / scale)) < 1e-12


def _subspace_distance(h, alpha, n):
    e = np.array([alpha, 1.0], dtype=complex)
    e /= np.linalg.norm(e)
    # best f for this alpha: smallest singular vector of the complement rows
    comp = np.eye(2 * n, dtype=complex) - h @ h.conj().T
    block = np.vstack([comp[:, :], ])
    mat = comp @ np.kron(np.eye(2)[:, :], np.eye(n))
    # distance of the best product vector with this e to the subspace
    m = np.zeros((2 * n, n), dtype=complex)
    for k in range(n):
        f = np.zeros(n, dtype=complex)
        f[k] = 1.0
        m[:, k] = np.kron(e, f)
    proj = comp @ m
    s = np.linalg.svd(proj, compute_uv=False)
    return s[-1]


def _refine_alpha(h, alpha, n, steps=60):
    a = complex(alpha)
    best = _subspace_distance(h, a, n)
    scale = 0.5
    for _ in range(steps):
        improved = False
        for da in (scale, -scale, 1j * scale, -1j * scale):
            d = _subspace_distance(h, a + da, n)
            if d < best:
                a, best = a + da, d
                improved = True
        if not improved:
            scale /= 2
            if scale < 1e-12:
                break
    return a


def _planted_paired_spaces(rng, n, alphas, m1, m2):
    """Random spaces of dimensions m1 and m2 holding product pairs at alphas, and the pairs."""
    planted = [ProductVector.from_alpha(a, _cvec(rng, n)) for a in alphas]
    h1, h2 = (np.column_stack([*vecs, _cvec(rng, 2 * n, m - len(vecs))])
              for vecs, m in (([v.vector for v in planted], m1),
                              ([v.conjugate_partner.vector for v in planted], m2)))
    return h1, h2, planted


def _random_alphas(rng, count):
    return [complex(*rng.standard_normal(2)) for _ in range(count)]


def _paired_sigma_scan(h1, h2, box, step):
    """Alphas in the box [-box, box]^2 where a pair |e,f> in H1, |e*,f> in H2 exists.

    With e = (alpha, 1) / |(alpha, 1)| and C1, C2 orthonormal complements
    of H1 and H2 from a full SVD, sigma_N of the stack of C1^dag (e (x) I)
    and C2^dag (e* (x) I) vanishes exactly there.  Local minima of a grid
    scan under a coarse cut are refined by compass search and kept where
    sigma_N <= 1e-10; roots closer than 1e-6 count once.
    """
    n = h1.shape[0] // 2
    c1, c2 = (np.linalg.svd(h)[0][:, h.shape[1]:].conj().T for h in (h1, h2))

    def sigma_n(alphas):
        alphas = np.asarray(alphas, dtype=complex).ravel()
        norm = np.sqrt(1 + np.abs(alphas) ** 2)[:, None, None]
        a, b = alphas[:, None, None] / norm, 1 / norm
        stack = np.concatenate([a * c1[:, :n] + b * c1[:, n:],
                                a.conj() * c2[:, :n] + b * c2[:, n:]], axis=1)
        return np.linalg.svd(stack, compute_uv=False)[:, n - 1]

    xs = np.arange(-box, box + step / 2, step)
    grid = xs[None, :] + 1j * xs[:, None]
    res = np.array([sigma_n(row) for row in grid])
    inner = res[1:-1, 1:-1]
    is_min = inner < 0.05
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_min &= inner <= res[1 + di:res.shape[0] - 1 + di, 1 + dj:res.shape[1] - 1 + dj]
    roots = []
    for a in grid[1:-1, 1:-1][is_min]:
        best, scale = sigma_n(a)[0], step
        while scale > 1e-14:
            moves = a + scale * np.array([1, -1, 1j, -1j])
            values = sigma_n(moves)
            if values.min() < best:
                a, best = moves[values.argmin()], values.min()
            else:
                scale /= 2
        if best <= 1e-10 and not any(abs(a - r) <= 1e-6 for r in roots):
            roots.append(complex(a))
    return roots


class TestPairedProducts:
    def test_round_trip_rank_five(self):
        rng = np.random.default_rng(4)
        m, gens, _ = build_separable(rng, 4, 5)
        state = DensityState(m)
        assert state.rank == 5 and state.pt_rank == 5
        res = paired_products(*paired_bases(state.range_basis, state.pt_range_basis))
        assert type(res) is list
        assert len(res) <= 5
        for g in gens:
            overlap = max(abs(np.vdot(g.vector, v.vector)) for v in res)
            assert overlap > 1 - 1e-8

    @pytest.mark.parametrize("shape", NOT_2N_ROWS)
    def test_refuses_row_count_not_2n(self, shape):
        even = (np.eye(6, dtype=complex)[:, :3], np.eye(6, dtype=complex)[:, 3:])
        bad = (np.ones(shape), np.ones((shape[0], 0)))
        for args in ((*bad, *even), (*even, *bad)):
            with pytest.raises(ValueError, match=NOT_2N_MESSAGE):
                paired_products(*args)

    def test_full_spaces_infinite(self):
        eye = np.eye(8, dtype=complex)
        res = paired_products(*paired_bases(eye, eye))
        assert isinstance(res, InfiniteFamily)
        assert res.note == "dimension count exceeds 3N"
        # the paired search samples no chart point
        assert [v.alpha for v in res] == SAMPLES

    def test_input_ranks_under_the_given_tol(self):
        # each space: 4 orthonormal columns, one a planted vector, and a fifth
        # orthogonal column of norm 1e-3, so rank 5 under the default cutoff,
        # where the dimensions sum past 3N = 9, and rank 4 under rank_rel_tol 1e-2
        def padded(h):
            q = np.linalg.qr(h)[0]
            return np.column_stack([q, 1e-3 * orthonormal_complement(q)[:, :1]])

        h1, h2, (planted,) = _planted_paired_spaces(np.random.default_rng(12), 3, [0.7 - 0.4j],
                                                    4, 4)
        h1, h2 = padded(h1), padded(h2)
        assert paired_products(*paired_bases(h1, h2)).note == "dimension count exceeds 3N"
        tol = ToleranceConfig(rank_rel_tol=1e-2)
        res = paired_products(*paired_bases(h1, h2, tol), tol)
        assert type(res) is list and len(res) == 1
        assert abs(np.vdot(planted.vector, res[0].vector)) > 1 - 1e-8

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("dim_f", [1, 2])
    def test_all_determinants_vanish(self, n, dim_f):
        # H1 = H2 = C2 x F: every e has an f in F, so the constraint stack
        # (4(N - dim F) >= N rows) drops rank for every alpha
        rng = np.random.default_rng(100 * n + dim_f)
        f_basis = np.linalg.qr(rng.standard_normal((n, dim_f))
                               + 1j * rng.standard_normal((n, dim_f)))[0]
        h = np.kron(np.eye(2), f_basis)
        assert 4 * (n - dim_f) >= n
        res = paired_products(*paired_bases(h, h))
        assert isinstance(res, InfiniteFamily)
        assert res.note == "all determinants vanish identically"
        assert [v.alpha for v in res] == SAMPLES
        for v in res:
            assert membership_residual(h, v.vector) < 1e-7
            assert membership_residual(h, v.conjugate_partner.vector) < 1e-7

    def test_self_conjugate_determinant_with_sign_change_is_a_curve(self):
        # kernel lines (1,0,0,1) and (0,1,1,0): the one 2 x 2 determinant is
        # (|alpha|^2 - 1) / 2, which vanishes on the whole unit circle, so no
        # finite enumeration is exhaustive and the search refuses
        h1 = orthonormal_complement(np.array([[1, 0, 0, 1]], dtype=complex).T)
        h2 = orthonormal_complement(np.array([[0, 1, 1, 0]], dtype=complex).T)
        with pytest.raises(NonGenericInput, match="self-conjugate"):
            paired_products(*paired_bases(h1, h2))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equal_spaces_above_n_are_a_curve(self, n):
        # H1 = H2 of dimension N + 1: at real alpha both constraint blocks are
        # the same N - 1 rows, so a pair sits at every real e; with more than
        # N rows the search still refuses the curve
        rng = np.random.default_rng(90 + n)
        h = rng.standard_normal((2 * n, n + 1)) + 1j * rng.standard_normal((2 * n, n + 1))
        with pytest.raises(NonGenericInput, match="self-conjugate"):
            paired_products(*paired_bases(h, h))

    def test_rank_six_six_candidate_bound(self):
        # 2 + 2 constraint rows, N = 4: the pencil keeps the k1^2 + k2^2 = 8
        # rows where Delta_0 does not vanish, so at most 8 finite candidates
        rng = np.random.default_rng(5)
        m, _, _ = build_separable(rng, 4, 6)
        state = DensityState(m)
        assert state.rank == 6 and state.pt_rank == 6
        cs = build_paired_system(state.range_basis, state.pt_range_basis)
        assert [x.shape[0] for x in cs.conj_blocks] == [2, 2, 2, 2]
        assert _pencil_roots(cs).size <= 8

    def test_membership_of_every_returned_vector(self):
        rng = np.random.default_rng(6)
        for count in (5, 6):
            m, _, _ = build_separable(rng, 4, count)
            state = DensityState(m)
            res = paired_products(*paired_bases(state.range_basis, state.pt_range_basis))
            assert type(res) is list
            for v in res:
                assert membership_residual(state.range_basis, v.vector) < 1e-7
                assert membership_residual(state.pt_range_basis,
                                           v.conjugate_partner.vector) < 1e-7

    def test_threshold_between_finite_and_infinite(self):
        rng = np.random.default_rng(7)
        n = 4
        for _ in range(5):
            basis = np.linalg.qr(rng.standard_normal((2 * n, 2 * n))
                                 + 1j * rng.standard_normal((2 * n, 2 * n)))[0]
            # m1 + m2 = 3n + 1 -> infinite; m1 + m2 = 3n -> finite generic
            h1, h2 = basis[:, :7], basis[:, :6]
            assert isinstance(paired_products(*paired_bases(h1, h2)), InfiniteFamily)
            h1b = np.linalg.qr(rng.standard_normal((2 * n, 6))
                               + 1j * rng.standard_normal((2 * n, 6)))[0]
            res = paired_products(*paired_bases(h1b, h2))
            assert type(res) is list

    def test_count_bound_rank_five(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m, _, _ = build_separable(rng, 4, 5)
            state = DensityState(m)
            res = paired_products(*paired_bases(state.range_basis, state.pt_range_basis))
            assert type(res) is list and len(res) <= 5

    def test_asymmetric_dimensions_with_planted_pair(self):
        # dims (6, 5) on C2 x C4: two determinants share the fixed block;
        # a product vector planted in both subspaces must be recovered
        rng = np.random.default_rng(21)
        n = 4
        v = random_product_vector(rng, n)
        extra1 = rng.standard_normal((2 * n, 5)) + 1j * rng.standard_normal((2 * n, 5))
        extra2 = rng.standard_normal((2 * n, 4)) + 1j * rng.standard_normal((2 * n, 4))
        h1 = np.column_stack([v.vector, extra1])
        h2 = np.column_stack([v.conjugate_partner.vector, extra2])
        # 2 + 3 constraint rows, more than N: the pencil compresses them
        cs = build_paired_system(h1, h2)
        assert [x.shape[0] for x in cs.conj_blocks] == [2, 2, 3, 3]
        found = paired_products(*paired_bases(h1, h2))
        assert type(found) is list
        assert any(abs(np.vdot(v.vector, w.vector)) > 1 - 1e-7 for w in found)

    def test_determinant_system_matches_grid_search(self):
        # the finite alphas of the search equal the roots of an independent
        # scan of sigma_N over a grid, where a pair |e,f> in H1, |e*,f> in H2 exists
        rng = np.random.default_rng(20)
        m, _, _ = build_separable(rng, 4, 5)
        state = DensityState(m)
        found = paired_products(*paired_bases(state.range_basis, state.pt_range_basis))
        alphas = [v.alpha for v in found if v.alpha is not None]
        oracle = _paired_sigma_scan(state.range_basis, state.pt_range_basis, box=4.0, step=0.02)
        assert len(oracle) >= 5
        assert sets_match(alphas, oracle, radius=1e-5)

    @staticmethod
    def planted_search(rng, n, alphas, m1, m2):
        """The paired search on random spaces of dimensions m1 and m2 that hold pairs at alphas."""
        h1, h2, planted = _planted_paired_spaces(rng, n, alphas, m1, m2)
        found = paired_products(*paired_bases(h1, h2))
        assert type(found) is list
        for v in planted:
            assert any(abs(np.vdot(v.vector, w.vector)) > 1 - 1e-9 for w in found), v.alpha

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_planted_roots_of_large_modulus(self, n):
        # product pairs at |alpha| about 10 and 25 beside two at moderate
        # alpha, in subspaces of dimension count 3N: every one comes back
        rng = np.random.default_rng(60 + n)
        alphas = [10.0 * np.exp(2j * np.pi * rng.random()), 25.0 * np.exp(2j * np.pi * rng.random()),
                  complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))]
        m1 = (3 * n + 1) // 2
        self.planted_search(rng, n, alphas, m1, 3 * n - m1)

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("extra_rows", [0, 1, 2])
    def test_planted_root_at_the_pencil_chart_infinity(self, n, extra_rows):
        # a pair at e = (cos, sin) of the first chart angle is that chart's
        # point at infinity, where it makes the pencil singular; the search
        # moves to the next chart and still returns it, with N constraint
        # rows or more
        rng = np.random.default_rng(80 + 10 * n + extra_rows)
        angle = productfinder.PENCIL_CHART_ANGLES[0]
        alphas = [np.cos(angle) / np.sin(angle), complex(*rng.standard_normal(2))]
        m1 = (3 * n - extra_rows) // 2
        self.planted_search(rng, n, alphas, m1, 3 * n - extra_rows - m1)


def _close_pair_state(rng, n, terms, gap):
    """A separable state of ``terms`` random product terms, two of them at alphas ``gap`` apart."""
    first = complex(*rng.standard_normal(2))
    second = first + gap * np.exp(2j * np.pi * rng.random())
    alphas = [first, second, *_random_alphas(rng, terms - 2)]
    planted = [ProductVector.from_alpha(a, _cvec(rng, n)) for a in alphas]
    weights = rng.random(terms) + 0.5
    rho = sum(w * np.outer(v.vector, v.vector.conj()) for w, v in zip(weights, planted))
    return DensityState(rho / np.trace(rho).real)


def _converged(cs, alpha):
    """Whether sigma_N at alpha is within PENCIL_CONVERGED of max(sigma_1, 1 + |alpha|)."""
    s = _chart_svd(cs, [alpha])[0][0]
    return s[-1] <= PENCIL_CONVERGED * max(s[0], 1.0 + abs(alpha))


class TestCloseRoots:
    """Two planted product vectors 1e-2 to 1e-3 apart in alpha: every root comes back converged.

    A spurious pencil eigenvalue near the pair can pass the gate and be
    polished onto a genuine root; a polish stopped too early returns it
    unconverged beside the root, or in its place, and the state's
    expansion over the vectors can then break.
    """

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_root_converged_and_the_state_expands(self, n, paired):
        for gap in (1e-2, 3e-3, 1e-3):
            for rep in range(6):
                rng = np.random.default_rng([int(paired), n, round(-10 * np.log10(gap)), rep])
                # rank N for the single search, N + 1 for the paired one
                state = _close_pair_state(rng, n, n + paired, gap)
                h1, comp = basis_and_complement(state.range_basis)
                if paired:
                    bases = paired_bases(state.range_basis, state.pt_range_basis)
                    found = paired_products(*bases)
                    cs = ConstraintSystem(bases[1], bases[3])
                else:
                    found = products_in_subspace(h1, comp)
                    cs = ConstraintSystem(comp, comp[:, :0])
                assert len(found) >= n + paired
                for v in found:
                    assert v.alpha is None or _converged(cs, v.alpha), (gap, rep, v.alpha)
                assert biorthogonal_check(state, found).kind is VerdictKind.SEPARABLE, (gap, rep)


class TestPolishStacks:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_rank_n_kernel_search_takes_one_stack(self, n, monkeypatch):
        # when every candidate past the gate has already converged there, the
        # gate's SVD is the only stacked one of the search: no polish step
        # and no second SVD for f
        at_gate = 0
        for seed in range(5):
            state = DensityState(build_separable(np.random.default_rng([n, seed]), n, n)[0])
            h, comp = basis_and_complement(state.kernel_basis)
            cs = ConstraintSystem(comp, comp[:, :0])
            candidates = _single_roots(cs)
            s = _chart_svd(cs, list(candidates))[0]
            gated = s[:, -1] <= PENCIL_GATE * np.maximum(s[:, 0], 1.0 + np.abs(candidates))
            converged = all(_converged(cs, a) for a in candidates[gated])
            with monkeypatch.context() as patch:
                stacks = count_svd_stacks(patch)
                found = products_in_subspace(h, comp, state.tol)
            assert len(found) == n
            if converged:
                assert stacks == [(n + 1, n, n)]
            else:
                assert 2 <= len(stacks) <= PENCIL_POLISH_STEPS + 1
            at_gate += converged
        assert at_gate >= 4


def _deflation_cases():
    """(n, m1, m2): N, N+1 and N+2 constraint rows split unequally, and all rows alpha-rows."""
    cases = []
    for n in range(2, 7):
        for extra in range(3):
            t = 3 * n - extra
            cases.append((n, t // 2 + 1, t - t // 2 - 1))
            if n > extra:
                cases.append((n, n - extra, 2 * n))
    return cases


class TestDeflatedPencil:
    @pytest.mark.parametrize("n, m1, m2", _deflation_cases())
    def test_matches_the_full_pencil(self, n, m1, m2):
        # the k x k eigenproblem on Delta_0's rows gives the finite eigenvalues
        # of the N^2 x N^2 pencil, at most k1^2 + k2^2 of them, and the
        # search built on it recovers every planted pair
        rng = np.random.default_rng([n, m1, m2])
        h1, h2, planted = _planted_paired_spaces(rng, n, _random_alphas(rng, min(2, m1, m2)),
                                                 m1, m2)
        cs = build_paired_system(h1, h2)
        r1, r2 = cs.conj_blocks[0].shape[0], cs.conj_blocks[2].shape[0]
        assert r1 + r2 - n in (0, 1, 2) and r1 != r2
        k1 = min(r1, max(n - r2, n // 2))
        k = k1 ** 2 + (n - k1) ** 2
        angle = productfinder.PENCIL_CHART_ANGLES[0]
        mixed, delta0, rows = productfinder._chart_pencil(cs, np.cos(angle), np.sin(angle))
        assert np.count_nonzero(np.abs(delta0).max(axis=1)) <= k
        if r1 and r2:
            assert rows.size == k < n * n
            assert not np.any(np.delete(delta0, rows, axis=0))
        else:
            assert rows is None and k == n * n
        deflated = productfinder._shift_invert(mixed, delta0, rows)
        full = productfinder._shift_invert(mixed, delta0)
        assert 0 < deflated.size <= k
        scale = max(1.0, float(np.abs(full).max()))
        assert sets_match(deflated, full, radius=1e-8 * scale)
        assert productfinder._pencil_roots(cs).size <= k
        found = paired_products(*paired_bases(h1, h2))
        assert type(found) is list
        for v in planted:
            assert any(abs(np.vdot(v.vector, w.vector)) > 1 - 1e-9 for w in found), v.alpha


def _mp_paired_alphas(mp, cs, gamma, shift):
    """The roots alpha of an N-row paired system from its mixed pencil, solved in mpmath.

    The operator determinants of W1 = B + alpha A + beta C and its conjugate
    twin are formed and shift-inverted at the working precision; alpha and
    beta come from each eigenvector z as Rayleigh quotients against Delta_0
    z, and a root is kept where beta = conj(alpha) and sigma_N of the
    constraint stack at alpha vanishes.
    """
    n, r1 = cs.n, cs.conj_blocks[0].shape[0]
    assert r1 + cs.conj_blocks[2].shape[0] == n
    zero = np.zeros((n, n), dtype=complex)
    a, c = zero.copy(), zero.copy()
    a[:r1], c[r1:] = cs.conj_blocks[0], cs.conj_blocks[2]
    b = np.concatenate([cs.conj_blocks[1], cs.conj_blocks[3]])
    a, b, c = (mp.matrix(x.tolist()) for x in (a, b, c))

    def kron(x, y):
        out = mp.matrix(n * n, n * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        out[i * n + k, j * n + l] = x[i, j] * y[k, l]
        return out

    def conj(x):
        return x.apply(mp.conj)

    delta0 = kron(a, conj(a)) - kron(c, conj(c))
    delta1 = kron(c, conj(b)) - kron(b, conj(a))
    delta2 = kron(b, conj(c)) - kron(a, conj(b))
    nus, vecs = mp.eig(mp.inverse(delta1 + gamma * delta2 - shift * delta0) * delta0)
    top = max(abs(nu) for nu in nus)
    alphas = []
    for i, nu in enumerate(nus):
        if abs(nu) <= mp.mpf(10) ** -15 * top:
            continue  # an infinite eigenvalue
        z = vecs[:, i]
        d0 = delta0 * z
        norm = (d0.H * d0)[0]
        alpha, beta = ((d0.H * (delta * z))[0] / norm for delta in (delta1, delta2))
        if abs(beta - mp.conj(alpha)) > mp.mpf(10) ** -12 * (1 + abs(alpha)):
            continue
        alpha = complex(alpha)
        sigma = np.linalg.svd(cs.stacked(np.array([alpha])), compute_uv=False)[0]
        if sigma[-1] <= 1e-10 * (1 + abs(alpha)):
            alphas.append(alpha)
    return alphas


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("n, m1, m2, pairs", [(2, 3, 3, 2), (3, 5, 4, 3), (3, 4, 5, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_paired_roots_match_a_30_digit_pencil(self, n, m1, m2, pairs, seed):
        # with exactly N constraint rows the 30-digit mixed pencil needs no
        # compression, deflation or chart rotation; its roots with beta =
        # conj(alpha) and a rank drop are the search's finite alphas
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng([n, m1, m2, seed])
        h1, h2, planted = _planted_paired_spaces(rng, n, _random_alphas(rng, pairs), m1, m2)
        with mpmath.workdps(30):
            oracle = _mp_paired_alphas(mpmath.mp, build_paired_system(h1, h2),
                                       mpmath.mpc(0.4, 0.3), mpmath.mpc(0.3183, -0.5772))
        found = paired_products(*paired_bases(h1, h2))
        assert type(found) is list
        alphas = [v.alpha for v in found if v.alpha is not None]
        assert len(oracle) >= pairs
        assert sets_match(alphas, oracle, radius=1e-9)


class TestOneVectorNearEZero:
    """N product vectors spanning the subspaces, one at e = (1, delta) near the chart point |0>.

    e = |0> and a polished root near it are one point: both searches return
    exactly the N planted vectors, each once.
    """

    DELTAS = [0.0, 1e-11, 1e-8, 1e-7, 1e-5]

    @staticmethod
    def _assert_planted(found, planted):
        assert type(found) is list and len(found) == len(planted)
        for p in planted:
            assert max(abs(np.vdot(p.vector, v.vector)) for v in found) > 1 - 1e-6

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("n", [3, 4])
    def test_single_subspace(self, n, delta):
        for seed in range(3):
            rng = np.random.default_rng([n, seed])
            es = [np.array([1.0, delta])] + [_cvec(rng, 2) for _ in range(n - 1)]
            planted = [ProductVector.from_e_f(e, _cvec(rng, n)) for e in es]
            h = np.column_stack([p.vector for p in planted])
            self._assert_planted(products_in_subspace(*basis_and_complement(h)), planted)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("n", [3, 4])
    def test_paired(self, n, delta):
        for seed in range(3):
            rng = np.random.default_rng([n, seed])
            alphas = [None if delta == 0 else 1 / delta] + _random_alphas(rng, n - 1)
            h1, h2, planted = _planted_paired_spaces(rng, n, alphas, n, n)
            self._assert_planted(paired_products(*paired_bases(h1, h2)), planted)


class TestUniqueFAtSharedE:
    """A product vector planted at one e: found when its f is unique, else non-generic.

    H1 holds e x F and H2 holds e* x F, each beside random directions; e is
    the chart point |0> (alpha None) or a finite alpha.
    """

    CASES = [((1.0, 0.0), None, "alpha-infinity"),
             ((0.3 - 0.7j, 1.0), 0.3 - 0.7j, "solution space at alpha")]

    @staticmethod
    def _planted(rng, e, dim_f, extra, n=4):
        e = np.array(e, dtype=complex)[:, None]
        f_basis = np.linalg.qr(rng.standard_normal((n, dim_f))
                               + 1j * rng.standard_normal((n, dim_f)))[0]
        return [np.linalg.qr(np.column_stack([np.kron(qubit, f_basis),
                                              rng.standard_normal((2 * n, extra))
                                              + 1j * rng.standard_normal((2 * n, extra))]))[0]
                for qubit in (e, np.conj(e))]

    @pytest.mark.parametrize("e, alpha, _msg", CASES)
    def test_unique_f_found(self, e, alpha, _msg):
        h1, h2 = self._planted(np.random.default_rng(30), e, 1, 3)
        res = paired_products(*paired_bases(h1, h2))
        assert type(res) is list and len(res) == 1
        if alpha is None:
            assert res[0].alpha is None
        else:
            assert abs(res[0].alpha - alpha) < 1e-8
        assert membership_residual(h1, res[0].vector) < 1e-7
        assert membership_residual(h2, res[0].conjugate_partner.vector) < 1e-7

    @pytest.mark.parametrize("e, _alpha, msg", CASES)
    def test_non_unique_f_is_non_generic(self, e, _alpha, msg):
        h1, h2 = self._planted(np.random.default_rng(31), e, 2, 2)
        with pytest.raises(NonGenericInput, match=msg):
            paired_products(*paired_bases(h1, h2))


class TestChartProducts:
    def test_partner_checked_against_second_subspace(self):
        # with no constraint rows f is |0>, so |e*,f> lies in C2 x |0> and
        # never in C2 x |1>; the single search (h2 None) keeps every vector
        eye = np.eye(4, dtype=complex)
        cs = build_paired_system(eye, eye)
        alphas = SAMPLES + [None]
        tol = ToleranceConfig()
        assert len(_chart_products(cs, alphas, eye, eye[:, [0, 2]], tol)) == 9
        assert _chart_products(cs, alphas, eye, eye[:, [1, 3]], tol) == []
        assert len(_chart_products(cs, alphas, eye, None, tol)) == 9


class TestRealEProducts:
    def test_full_two_by_two(self):
        res = real_e_products(*basis_and_complement(np.eye(4, dtype=complex)))
        assert [v.alpha for v in res] == REAL_GRID + [None]
        for v in res:
            assert np.allclose(v.e, np.conj(v.e), atol=1e-10)

    def test_pt_invariant_rank_three_range(self):
        # rank-3 invariant state on C2 x C2: mixture of real-e product
        # projectors is equal to its own partial transpose
        rng = np.random.default_rng(9)
        n = 2
        m = np.zeros((4, 4), dtype=complex)
        for _ in range(3):
            e = rng.standard_normal(2).astype(complex)
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            m += ProductVector.from_e_f(e, f).projector()
        state = DensityState(m)
        assert state.rank == 3
        assert np.linalg.norm(state.matrix - state.pt_matrix) < 1e-12
        res = real_e_products(*basis_and_complement(state.range_basis))
        assert len(res) >= 1
        for v in res:
            assert np.linalg.norm(v.e - np.conj(v.e)) < 1e-10
            assert membership_residual(state.range_basis, v.vector) < 1e-7

    def test_refuses_dimension_n(self):
        with pytest.raises(ValueError):
            real_e_products(*basis_and_complement(np.eye(4, dtype=complex)[:, :2]))

    @pytest.mark.parametrize("shape", NOT_2N_ROWS)
    def test_refuses_row_count_not_2n(self, shape):
        with pytest.raises(ValueError, match=NOT_2N_MESSAGE):
            real_e_products(np.ones(shape), np.ones((shape[0], 0)))


class TestKernelSearch:
    def test_rank_n_state_has_kernel_vector(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            m, _, _ = build_separable(rng, n, n)
            state = DensityState(m)
            v = kernel_product_vector(state)
            assert v is not None
            assert np.linalg.norm(state.matrix @ v.vector) < 1e-8 * state.norm
            # the conjugate partner is annihilated by the partial transpose
            assert np.linalg.norm(state.pt_matrix @ v.conjugate_partner.vector) \
                < 1e-8 * state.norm

    def test_full_rank_state_has_none(self):
        rng = np.random.default_rng(11)
        m, _, _ = build_separable(rng, 2, 8)
        state = DensityState(m)
        assert state.rank == 4
        assert kernel_product_vector(state) is None

    def test_generic_rank_five_kernel_empty(self):
        rng = np.random.default_rng(12)
        m, _, _ = build_separable(rng, 4, 5)
        state = DensityState(m)
        assert kernel_product_vector(state) is None
        # oracle: no alpha on a dense grid brings the kernel-membership
        # residual of a product vector near zero
        kb = state.kernel_basis
        comp = np.eye(8, dtype=complex) - kb @ kb.conj().T
        best = min(_kernel_scan_residual(comp, complex(x, y), 4)
                   for x in np.linspace(-3, 3, 20) for y in np.linspace(-3, 3, 20))
        assert best > 1e-4

    def test_planted_kernel_vector_found(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            n = 3
            m, pv, _ = _separable_with_planted_kernel(rng, n)
            state = DensityState(m)
            assert state.is_ppt
            assert np.linalg.norm(state.matrix @ pv.vector) < 1e-10 * state.norm
            found = kernel_product_vector(state)
            assert found is not None
            assert abs(np.vdot(found.vector, pv.vector)) > 1 - 1e-6


    def test_first_sample_of_a_kernel_family(self, monkeypatch):
        # a kernel family keeps its type and note through the partner filter,
        # and kernel_product_vector takes its first sample that passes
        rng = np.random.default_rng(14)
        state = DensityState(build_separable(rng, 3, 3)[0])
        vectors = productfinder.kernel_product_vectors(state)
        assert type(vectors) is list and len(vectors) == 3
        family = InfiniteFamily(samples=[random_product_vector(rng, 3)] + vectors[::-1],
                                note="planted")
        monkeypatch.setattr(productfinder, "products_in_subspace", lambda h, comp, tol: family)
        found = productfinder.kernel_product_vectors(state)
        assert isinstance(found, InfiniteFamily) and found.note == "planted"
        assert [id(v) for v in found] == [id(v) for v in vectors[::-1]]
        assert len(family) == 4
        assert kernel_product_vector(state) is vectors[-1]


def _matched_overlaps(ours, ref):
    """|<u|v>| of each vector u of ``ours`` and its closest v of ``ref``, matched one to one."""
    if not ours:
        return np.zeros(0)
    overlaps = np.abs(np.array([u.vector for u in ours]).conj() @ np.array([v.vector for v in ref]).T)
    best = overlaps.argmax(axis=1)
    assert sorted(best) == list(range(len(ref)))
    return overlaps[np.arange(len(ours)), best]


class TestStateBases:
    """The kernel and real-e searches run on the state's own kernel and range bases."""

    def test_no_rank_decision_inside_the_searches_and_the_raw_basis_vectors(self, monkeypatch):
        # on the analyze path of the constructive corpus neither search takes
        # an SVD rank decision of its own
        inside, decisions, searches = [], [], Counter()
        rank_kernel = matrixcore.numerical_rank_kernel

        def counted(*args, **kwargs):
            decisions.append(bool(inside))
            return rank_kernel(*args, **kwargs)

        def entered(name, search):
            def fn(*args, **kwargs):
                searches[name] += 1
                inside.append(name)
                try:
                    return search(*args, **kwargs)
                finally:
                    inside.pop()
            return fn

        with monkeypatch.context() as patch:
            for module in (matrixcore, productfinder):
                patch.setattr(module, "numerical_rank_kernel", counted)
            for name in ("kernel_product_vectors", "real_e_products"):
                patch.setattr(sepengine, name, entered(name, getattr(sepengine, name)))
            for item in perfbench_corpus().build("constructive", 4242):
                sepengine.analyze(item.matrix)
        assert searches["kernel_product_vectors"] >= 100 and searches["real_e_products"] >= 50
        assert True not in decisions

        # the state's bases span the subspaces that the raw-basis pair spans,
        # so a search's vectors agree with that pair's wherever they are
        # unique: every kernel vector, and real-e vectors at rank N + 1 and
        # full rank; in between, f at a real e is one of a space of
        # solutions, and only the grid points kept and the membership agree
        compared = 0
        for n in range(2, 9):
            rng = np.random.default_rng([950, n])
            real_e = [ProductVector.from_e_f(rng.standard_normal(2), _cvec(rng, n))
                      for _ in range(n + 1)]
            states = [build_separable(rng, n, n + k)[0] for k in (0, 1, 2, n)]
            states += [sum(v.projector() for v in real_e), random_pt_invariant(rng, n)]
            for m in states:
                state = DensityState(m)
                kernel, image = state.kernel_basis, state.range_basis
                pairs = []
                if kernel.shape[1]:
                    pairs.append((products_in_subspace(kernel, image, state.tol),
                                  products_in_subspace(*basis_and_complement(kernel), state.tol),
                                  kernel, True))
                if state.rank > n:
                    ours, ref = (real_e_products(image, kernel, state.tol),
                                 real_e_products(*basis_and_complement(image), state.tol))
                    assert [v.alpha for v in ours] == [v.alpha for v in ref]
                    pairs.append((ours, ref, image, state.rank in (n + 1, 2 * n)))
                for ours, ref, h, unique in pairs:
                    assert len(ours) == len(ref)
                    for v in ours:
                        assert membership_residual(h, v.vector) < 1e-10
                    if unique:
                        overlaps = _matched_overlaps(ours, ref)
                        assert np.all(overlaps >= 1 - 1e-10), (n, state.rank, overlaps)
                        compared += len(overlaps)
        assert compared >= 100


def _paired_calls(monkeypatch, workload):
    """(arguments, result, rank-decision calls inside) of each paired search on a corpus."""
    calls, inside = [], []
    with monkeypatch.context() as patch:
        for name in ("numerical_rank_kernel", "_orthonormalize", "orthonormal_complement"):
            def counted(*args, real=getattr(productfinder, name), name=name, **kwargs):
                if inside:
                    inside[-1][name] += 1
                return real(*args, **kwargs)
            patch.setattr(productfinder, name, counted)
            if name == "numerical_rank_kernel":
                patch.setattr(matrixcore, name, counted)

        def paired(*args, real=sepengine.paired_products):
            counts, result = Counter(), None
            inside.append(counts)
            try:
                result = real(*args)
                return result
            finally:
                inside.pop()
                calls.append((args, result, counts))

        patch.setattr(sepengine, "paired_products", paired)
        for item in perfbench_corpus().build(workload, 4242):
            sepengine.analyze(item.matrix)
    return calls


def _same_bits(ours, ref):
    return len(ours) == len(ref) and all(
        a.e.tobytes() == b.e.tobytes() and a.f.tobytes() == b.f.tobytes()
        and a.vector.tobytes() == b.vector.tobytes() and a.alpha == b.alpha
        for a, b in zip(ours, ref))


class TestPairedStateBases:
    """The finite paired search runs on the state's bases; past 3N it samples as before."""

    def test_no_rank_decision_inside_the_range_enum_searches(self, monkeypatch):
        calls = _paired_calls(monkeypatch, "range_enum")
        assert len(calls) >= 90
        assert all(not counts for _args, _res, counts in calls)

    def test_sampled_searches_keep_their_six_decisions_and_their_bits(self, monkeypatch):
        # the finite searches after a subtraction take none; past 3N the two
        # orthonormalizations, build_paired_system's two and its two
        # complements stay, and the samples keep the raw-basis path's bits
        sampled = finite = 0
        for (h1, _c1, h2, _c2, tol), res, counts in _paired_calls(monkeypatch,
                                                                  "sampled_reduction"):
            if h1.shape[1] + h2.shape[1] <= 3 * (h1.shape[0] // 2):
                assert not counts
                finite += 1
                continue
            assert counts == {"numerical_rank_kernel": 6, "_orthonormalize": 4,
                              "orthonormal_complement": 2}
            assert res.note == "dimension count exceeds 3N"
            assert _same_bits(res, reference_sampled_paired(h1, h2, tol))
            sampled += 1
        assert sampled >= 100 and finite >= 40

    def test_state_bases_find_the_raw_basis_vectors(self):
        # separable mixtures with r + r^T <= 3N: the search on the state's
        # eigenbases returns the vectors of the search on the raw-basis pair,
        # or refuses alike (N = 2 at rank 3); on the Horodecki states both
        # return none
        def search(*args):
            try:
                return paired_products(*args)
            except NonGenericInput as exc:
                return str(exc)

        compared = refused = 0
        for n in range(2, 9):
            rng = np.random.default_rng([951, n])
            for terms in range(n, 3 * n // 2 + 1):
                state = DensityState(build_separable(rng, n, terms)[0])
                assert state.rank + state.pt_rank <= 3 * n
                ours = search(state.range_basis, state.kernel_basis, state.pt_range_basis,
                              state.pt_kernel_basis, state.tol)
                ref = search(*paired_bases(state.range_basis, state.pt_range_basis, state.tol),
                             state.tol)
                if isinstance(ours, str):
                    assert ours == ref
                    refused += 1
                    continue
                assert isinstance(ours, list) and len(ours) == len(ref) >= terms
                overlaps = _matched_overlaps(ours, ref)
                assert np.all(overlaps >= 1 - 1e-10), (n, terms, overlaps)
                compared += len(overlaps)
        assert compared >= 100 and refused <= 1
        for b in np.arange(1, 10) / 10:
            state = DensityState(horodecki_2x4(b))
            assert paired_products(state.range_basis, state.kernel_basis, state.pt_range_basis,
                                   state.pt_kernel_basis, state.tol) == []
            assert paired_products(*paired_bases(state.range_basis, state.pt_range_basis)) == []


def _kernel_scan_residual(comp, alpha, n):
    e = np.array([alpha, 1.0], dtype=complex)
    e /= np.linalg.norm(e)
    m = np.zeros((2 * n, n), dtype=complex)
    for k in range(n):
        f = np.zeros(n, dtype=complex)
        f[k] = 1.0
        m[:, k] = np.kron(e, f)
    s = np.linalg.svd(comp @ m, compute_uv=False)
    return s[-1]


def _separable_with_planted_kernel(rng, n, product_terms=3, eta_rank=2):
    """Separable state annihilating a chosen product vector.

    Mixture of product terms whose f-parts are orthogonal to the planted f
    plus an (e-orthogonal projector) x (PSD block) piece; both annihilate
    |e, f> while keeping the state separable hence PPT.
    """
    pv = random_product_vector(rng, n)
    f = pv.f
    # orthonormal basis of the f-orthocomplement (<f|v> = 0)
    fperp = np.linalg.svd(np.atleast_2d(np.conj(f)))[2].conj().T[:, 1:]
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    for _ in range(product_terms):
        e_i = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fhat = fperp @ (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        term = ProductVector.from_e_f(e_i, fhat)
        m += rng.uniform(0.5, 1.5) * term.projector()
    ehat = np.array([-np.conj(pv.e[1]), np.conj(pv.e[0])])
    g = rng.standard_normal((n, eta_rank)) + 1j * rng.standard_normal((n, eta_rank))
    eta = g @ g.conj().T
    m += np.kron(np.outer(ehat, ehat.conj()), eta)
    return m / np.real(np.trace(m)), pv, ehat
