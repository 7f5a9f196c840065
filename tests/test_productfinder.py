import numpy as np
import pytest

from sep2n import productfinder
from sep2n.matrixcore import DensityState, ToleranceConfig
from sep2n.productfinder import (
    InfiniteFamily,
    NonGenericInput,
    ProductVector,
    _bloch_pencil,
    _chart_products,
    _far_from_products,
    _orthonormalize,
    _single_system,
    build_paired_system,
    eliminate_paired,
    kernel_product_vector,
    orthonormal_complement,
    paired_products,
    products_in_subspace,
    real_e_products,
)

from helpers import build_separable, eig_rank, random_product_vector


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
        assert pv.conjugate_partner is partner
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


class TestProductsInSubspace:
    def test_two_product_basis_vectors(self):
        # span{|0,1>, |1,2>} on C2 x C2: both basis vectors are the solutions
        h = np.column_stack([basis_vec(2, 0, 0), basis_vec(2, 1, 1)])
        res = products_in_subspace(h)
        assert isinstance(res, list) and len(res) == 2
        alphas = [v.alpha for v in res]
        assert None in alphas and any(a is not None and abs(a) < 1e-10 for a in alphas)
        for v in res:
            assert membership_residual(h, v.vector) < 1e-8

    def test_full_space_infinite(self):
        res = products_in_subspace(np.eye(6, dtype=complex))
        assert isinstance(res, InfiniteFamily)
        assert [v.alpha for v in res.samples] == SAMPLES + [None]
        for v in res.samples:
            assert abs(np.linalg.norm(v.vector) - 1) < 1e-10

    def test_dimension_n_matches_alpha_scan_oracle(self):
        rng = np.random.default_rng(2)
        n = 3
        for _ in range(5):
            h = np.linalg.qr(rng.standard_normal((2 * n, n))
                             + 1j * rng.standard_normal((2 * n, n)))[0]
            res = products_in_subspace(h)
            assert isinstance(res, list) and len(res) >= 1
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

    def test_guaranteed_existence_dimension_n(self):
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            h = np.linalg.qr(rng.standard_normal((2 * n, n))
                             + 1j * rng.standard_normal((2 * n, n)))[0]
            res = products_in_subspace(h)
            if isinstance(res, list) and len(res) >= 1:
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
        return products_in_subspace(h)


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
                found = products_in_subspace(h)
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
            h = _orthonormalize(_cvec(rng, 2 * n, m))
            pencil = _bloch_pencil(h, n)
            ac, bc = _single_system(h, n).conj_blocks[:2]
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


class TestPairedProducts:
    def test_round_trip_rank_five(self):
        rng = np.random.default_rng(4)
        m, gens, _ = build_separable(rng, 4, 5)
        state = DensityState(m)
        assert state.rank == 5 and state.pt_rank == 5
        res = paired_products(state.range_basis, state.pt_range_basis)
        assert isinstance(res, list)
        assert len(res) <= 5
        for g in gens:
            overlap = max(abs(np.vdot(g.vector, v.vector)) for v in res)
            assert overlap > 1 - 1e-8

    def test_full_spaces_infinite(self):
        eye = np.eye(8, dtype=complex)
        res = paired_products(eye, eye)
        assert isinstance(res, InfiniteFamily)
        assert res.note == "dimension count exceeds 3N"
        # the paired search samples no chart point
        assert [v.alpha for v in res.samples] == SAMPLES

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
        res = paired_products(h, h)
        assert isinstance(res, InfiniteFamily)
        assert res.note == "all determinants vanish identically"
        assert [v.alpha for v in res.samples] == SAMPLES
        for v in res.samples:
            assert membership_residual(h, v.vector) < 1e-7
            assert membership_residual(h, v.conjugate_partner.vector) < 1e-7

    def test_self_conjugate_determinant_with_sign_change_is_a_curve(self):
        # kernel lines (1,0,0,1) and (0,1,1,0): the one 2 x 2 determinant is
        # (|alpha|^2 - 1) / 2, which vanishes on the whole unit circle, so no
        # finite enumeration is exhaustive and the search refuses
        h1 = orthonormal_complement(np.array([[1, 0, 0, 1]], dtype=complex).T)
        h2 = orthonormal_complement(np.array([[0, 1, 1, 0]], dtype=complex).T)
        (det,) = build_paired_system(h1, h2).dets
        assert np.allclose(det.coeffs, [[-0.5, 0], [0, 0.5]])
        with pytest.raises(NonGenericInput, match="self-conjugate"):
            paired_products(h1, h2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equal_spaces_above_n_are_a_curve(self, n):
        # H1 = H2 of dimension N + 1: at real alpha both constraint blocks are
        # the same N - 1 rows, so a pair sits at every real e; with more than
        # N rows the search still refuses the curve
        rng = np.random.default_rng(90 + n)
        h = rng.standard_normal((2 * n, n + 1)) + 1j * rng.standard_normal((2 * n, n + 1))
        with pytest.raises(NonGenericInput, match="self-conjugate"):
            paired_products(h, h)

    def test_rank_six_six_degree_bound(self):
        rng = np.random.default_rng(5)
        m, _, _ = build_separable(rng, 4, 6)
        state = DensityState(m)
        assert state.rank == 6 and state.pt_rank == 6
        cs = build_paired_system(state.range_basis, state.pt_range_basis)
        assert len(cs.dets) == 1
        assert eliminate_paired(cs).degree <= 8

    def test_membership_of_every_returned_vector(self):
        rng = np.random.default_rng(6)
        for count in (5, 6):
            m, _, _ = build_separable(rng, 4, count)
            state = DensityState(m)
            res = paired_products(state.range_basis, state.pt_range_basis)
            assert isinstance(res, list)
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
            assert isinstance(paired_products(h1, h2), InfiniteFamily)
            h1b = np.linalg.qr(rng.standard_normal((2 * n, 6))
                               + 1j * rng.standard_normal((2 * n, 6)))[0]
            res = paired_products(h1b, h2)
            assert isinstance(res, list)

    def test_count_bound_rank_five(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m, _, _ = build_separable(rng, 4, 5)
            state = DensityState(m)
            res = paired_products(state.range_basis, state.pt_range_basis)
            assert isinstance(res, list) and len(res) <= 5

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
        cs = build_paired_system(h1, h2)
        assert len(cs.dets) == 2
        found = paired_products(h1, h2)
        assert isinstance(found, list)
        assert any(abs(np.vdot(v.vector, w.vector)) > 1 - 1e-7 for w in found)

    def test_determinant_system_matches_grid_search(self):
        # the verified roots of the three-determinant system equal the
        # independent grid-scan roots of that same system
        from helpers import grid_root_oracle, sets_match
        rng = np.random.default_rng(20)
        m, _, _ = build_separable(rng, 4, 5)
        state = DensityState(m)
        cs = build_paired_system(state.range_basis, state.pt_range_basis)
        assert len(cs.dets) == 3
        found = paired_products(state.range_basis, state.pt_range_basis)
        alphas = [v.alpha for v in found if v.alpha is not None]
        oracle = grid_root_oracle(cs.dets, box=4.0, step=0.02)
        assert sets_match(alphas, oracle, radius=1e-5)


    @staticmethod
    def planted_search(rng, n, alphas, m1, m2):
        """The paired search on random spaces of dimensions m1 and m2 that hold pairs at alphas."""
        planted = [ProductVector.from_alpha(a, rng.standard_normal(n) + 1j * rng.standard_normal(n))
                   for a in alphas]
        h1, h2 = (np.column_stack([*vecs, rng.standard_normal((2 * n, m - len(vecs)))
                                   + 1j * rng.standard_normal((2 * n, m - len(vecs)))])
                  for vecs, m in (([v.vector for v in planted], m1),
                                  ([v.conjugate_partner.vector for v in planted], m2)))
        found = paired_products(h1, h2)
        assert isinstance(found, list)
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
        res = paired_products(h1, h2)
        assert isinstance(res, list) and len(res) == 1
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
            paired_products(h1, h2)


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
        res = real_e_products(np.eye(4, dtype=complex))
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
        res = real_e_products(state.range_basis)
        assert len(res) >= 1
        for v in res:
            assert np.linalg.norm(v.e - np.conj(v.e)) < 1e-10
            assert membership_residual(state.range_basis, v.vector) < 1e-7

    def test_refuses_dimension_n(self):
        with pytest.raises(ValueError):
            real_e_products(np.eye(4, dtype=complex)[:, :2])


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
