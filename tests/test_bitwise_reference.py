"""The stacked numpy calls of the fixed-alpha search give the scalar loops' bits.

Each test runs a library function that solves many alphas or interpolation
nodes in one stacked call, and the one-at-a-time loop it replaced (kept in
``helpers``), on seeded systems, and requires exact equality: alphas
compared by their float hex, arrays by their bytes.
"""

import numpy as np
import pytest

from sep2n.matrixcore import ToleranceConfig
from sep2n.polyelim import (
    BivariatePoly,
    UnivariatePoly,
    univariate_roots,
    verify_roots,
)
from sep2n.productfinder import (
    REAL_ALPHA_GRID,
    SAMPLE_ALPHAS,
    ConstraintSystem,
    NonGenericInput,
    _chart_products,
    _orthonormalize,
    _refine_alpha_f,
    _root_products,
    _single_system,
    build_paired_system,
    det_poly_bivariate,
    det_poly_univariate,
    eliminate_paired,
)

from helpers import (
    random_product_vector,
    scalar_chart_products,
    scalar_collect_single,
    scalar_det_poly_bivariate,
    scalar_det_poly_univariate,
    scalar_refine_alpha_f,
    scalar_root_products,
    scalar_stacked,
    scalar_vector_at_root,
)

TOL = ToleranceConfig()


def bits(z):
    if z is None:
        return None
    return (type(z).__name__ if isinstance(z, float) else "complex",
            float(np.real(z)).hex(), float(np.imag(z)).hex())


def assert_same_vectors(ours, ref):
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert bits(a.alpha) == bits(b.alpha)
        assert a.e.tobytes() == b.e.tobytes()
        assert a.f.tobytes() == b.f.tobytes()


def assert_refine_matches(cs, starts):
    """Batched refinement equals the scalar one; returns the SVD counts taken."""
    alphas, fs, sigmas = _refine_alpha_f(cs, starts)
    rounds = []
    for k, start in enumerate(starts):
        alpha, f, done = scalar_refine_alpha_f(cs, complex(start))
        assert bits(complex(alphas[k])) == bits(alpha)
        assert fs[k].tobytes() == f.tobytes()
        s = np.linalg.svd(scalar_stacked(cs, alpha), compute_uv=False)
        assert sigmas[k].tobytes() == s.tobytes()
        rounds.append(done)
    return rounds


def cvec(rng, k):
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def span(*cols):
    return _orthonormalize(np.column_stack(cols))


def single_case(rng, n, m):
    """A dimension-m subspace holding m-1 random product vectors, its system and alphas."""
    gens = [random_product_vector(rng, n) for _ in range(m - 1)]
    h = span(*[g.vector for g in gens], cvec(rng, 2 * n))
    cs = _single_system(h, n)
    ac, bc = cs.conj_blocks[:2]
    roots = univariate_roots(det_poly_univariate(ac[:n], bc[:n]))
    near = [g.alpha + 1e-4 * complex(*rng.standard_normal(2)) for g in gens if g.alpha is not None]
    far = list(2.0 * rng.standard_normal(3) + 2j * rng.standard_normal(3))
    return h, cs, list(roots) + near + far


def paired_case(rng, n, m1, m2, planted):
    """H1 and H2 sharing ``planted`` product pairs |e,f> / |e*,f>, and their roots."""
    gens = [random_product_vector(rng, n) for _ in range(planted)]
    h1 = span(*[g.vector for g in gens], *[cvec(rng, 2 * n) for _ in range(m1 - planted)])
    h2 = span(*[g.conjugate_partner.vector for g in gens],
              *[cvec(rng, 2 * n) for _ in range(m2 - planted)])
    cs = build_paired_system(h1, h2)
    q = eliminate_paired(cs)
    roots = verify_roots(list(univariate_roots(q)), cs.dets, TOL).roots
    return h1, h2, cs, roots


class TestRefinement:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_systems(self, n):
        rng = np.random.default_rng(100 + n)
        for m in range(1, n + 1):
            for _ in range(3):
                h, cs, starts = single_case(rng, n, m)
                assert cs.a2.shape[0] == 0
                assert_refine_matches(cs, starts)
                assert_same_vectors(_root_products(starts, cs, h, None, TOL),
                                    scalar_collect_single(starts, cs, h, TOL))

    @pytest.mark.parametrize("n, m1, m2, planted", [(2, 3, 3, 1), (3, 4, 4, 2), (3, 5, 4, 2),
                                                    (4, 6, 5, 2), (4, 5, 5, 3)])
    def test_paired_systems(self, n, m1, m2, planted):
        rng = np.random.default_rng(200 + 10 * n + m1)
        kept = 0
        for _ in range(3):
            h1, h2, cs, roots = paired_case(rng, n, m1, m2, planted)
            starts = list(roots) + list(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert_refine_matches(cs, starts)
            ours = _root_products(roots, cs, h1, h2, TOL)
            assert_same_vectors(ours, scalar_root_products(roots, cs, h1, h2, TOL))
            kept += len(ours)
        assert kept >= 3 * planted

    def test_candidate_stops_on_small_denominator(self):
        # C2 x f0 lies in H, so f0 solves every alpha with A* f0 = 0: alphas
        # away from the planted root stop after one SVD, the rest keep moving
        rng = np.random.default_rng(5)
        n = 3
        f0, g = cvec(rng, n), cvec(rng, n)
        a0 = 0.4 - 0.3j
        h = span(np.kron([1, 0], f0), np.kron([0, 1], f0), np.kron([a0, 1], g))
        cs = _single_system(h, n)
        starts = [a0, 2.0 + 1j, a0 + 1e-12, -3.0, 10j, a0 + 1e-10j, 0.0]
        rounds = assert_refine_matches(cs, starts)
        assert 1 in rounds and 3 in rounds
        assert_same_vectors(_root_products(starts, cs, h, None, TOL),
                            scalar_collect_single(starts, cs, h, TOL))

    def test_duplicate_candidates(self):
        rng = np.random.default_rng(11)
        n = 4
        gens = [random_product_vector(rng, n) for _ in range(3)]
        h = span(*[g.vector for g in gens], cvec(rng, 2 * n))
        cs = _single_system(h, n)
        a = [g.alpha for g in gens]
        starts = [a[0], a[0] + 1e-8, a[1], a[0] + 5e-7j, a[1] - 2e-7, a[2], a[0] + 2e-6, a[2]]
        ours = _root_products(starts, cs, h, None, TOL)
        assert_same_vectors(ours, scalar_collect_single(starts, cs, h, TOL))
        assert len(ours) == 3
        assert_refine_matches(cs, starts)

    def test_start_near_a_kept_root_is_skipped_before_refinement(self):
        # two roots about 1e-6 apart with different f: a start within 1e-6 of
        # the first may refine to beyond 1e-6 of it, a vector kept on its
        # own, and is skipped all the same once the first root is kept
        rng = np.random.default_rng(7)
        n = 3
        a1 = 0.3 + 0.2j
        skipped = 0
        for gap in (2e-6, 1.5e-6, 1.2e-6):
            h = span(np.kron([a1, 1], cvec(rng, n)), np.kron([a1 + gap, 1], cvec(rng, n)),
                     cvec(rng, 2 * n))
            cs = _single_system(h, n)
            for d in (0.5e-6, 0.7e-6, 0.9e-6, 0.99e-6):
                starts = [a1, a1 + d]
                assert_refine_matches(cs, starts)
                ours = _root_products(starts, cs, h, None, TOL)
                assert_same_vectors(ours, scalar_collect_single(starts, cs, h, TOL))
                assert len(ours) == 1
                moved = abs(_refine_alpha_f(cs, starts[1:])[0][0] - a1) > 1e-6
                skipped += moved and len(_root_products(starts[1:], cs, h, None, TOL)) == 1
        assert skipped >= 2

    def test_rank_gate_alone_rejects_under_loose_range_test(self):
        # with root_residual_tol 0.1 every unit vector passes the range test,
        # so only the N-th singular value keeps the refined minima of an
        # overdetermined system without product vectors out
        loose = ToleranceConfig(root_residual_tol=0.1)
        rng = np.random.default_rng(8)
        for n in (3, 4, 5):
            h = span(*[cvec(rng, 2 * n) for _ in range(n - 1)])
            cs = _single_system(h, n)
            ac, bc = cs.conj_blocks[:2]
            starts = list(univariate_roots(det_poly_univariate(ac[:n], bc[:n])))
            _alphas, _fs, sigmas = _refine_alpha_f(cs, starts)
            assert all(s[n - 1] > 1e-3 for s in sigmas)
            assert _root_products(starts, cs, h, None, loose) == []
            assert scalar_collect_single(starts, cs, h, loose) == []

    def test_no_candidates(self):
        rng = np.random.default_rng(12)
        h, cs, _ = single_case(rng, 3, 3)
        assert _root_products([], cs, h, None, TOL) == []
        assert _root_products(np.zeros(0, dtype=complex), cs, h, None, TOL) == []
        h1, h2, pcs, _ = paired_case(rng, 3, 4, 4, 2)
        assert _root_products([], pcs, h1, h2, TOL) == []


class TestNonUniqueRoot:
    """Two e's whose f is not unique, beside one planted product pair."""

    @staticmethod
    def _system(rng, n=4):
        bad = [0.3 - 0.7j, -1.1 + 0.2j]
        good = random_product_vector(rng, n)
        cols1, cols2 = [good.vector], [good.conjugate_partner.vector]
        for alpha in bad:
            f_basis = np.linalg.qr(np.column_stack([cvec(rng, n), cvec(rng, n)]))[0]
            e = np.array([alpha, 1.0])
            cols1 += list(np.kron(e[:, None], f_basis).T)
            cols2 += list(np.kron(np.conj(e)[:, None], f_basis).T)
        h1, h2 = span(*cols1), span(*cols2)
        return h1, h2, build_paired_system(h1, h2), good.alpha, bad

    def test_first_offending_root_raises_after_valid_roots(self):
        h1, h2, cs, good, bad = self._system(np.random.default_rng(40))
        # a paired search keeps repeated roots: verify_roots has merged them
        ours = _root_products([good, good + 1e-9], cs, h1, h2, TOL)
        assert len(ours) == 2
        assert_same_vectors(ours, scalar_root_products([good, good + 1e-9], cs, h1, h2, TOL))
        for roots in ([good, bad[0], bad[1]], [good, bad[1], good, bad[0]]):
            with pytest.raises(NonGenericInput) as ref:
                scalar_root_products(roots, cs, h1, h2, TOL)
            with pytest.raises(NonGenericInput) as got:
                _root_products(roots, cs, h1, h2, TOL)
            with pytest.raises(NonGenericInput) as first:
                scalar_vector_at_root(cs, roots[1])
            assert str(got.value) == str(ref.value) == str(first.value)


class TestChartSamples:
    def test_paired_samples_on_exact_zero_blocks(self):
        # coordinate subspaces: every constraint block entry is exactly 0 or 1,
        # so the sign of a conjugated real sample's zero imaginary part counts
        n = 3
        eye = np.eye(2 * n, dtype=complex)
        for c1 in ([0, 1, 3], [0, 3, 4], [1, 2, 4, 5], [0, 1, 2, 3]):
            for c2 in ([0, 3], [1, 4, 5], [0, 1, 3, 4], [2, 5]):
                cs = build_paired_system(eye[:, c1], eye[:, c2])
                h1, h2 = eye[:, c1], eye[:, c2]
                assert_same_vectors(_chart_products(cs, SAMPLE_ALPHAS, h1, h2, TOL),
                                    scalar_chart_products(cs, SAMPLE_ALPHAS, h1, h2, TOL))

    def test_real_samples_keep_positive_zero_in_conjugate(self):
        # np.conj(0.5) is the real 0.5, which numpy widens to 0.5+0j, while
        # the conjugate of the complex 0.5+0j is 0.5-0j; on blocks with signed
        # zeros the two stacks differ in zero signs, and SVD then in f
        rng = np.random.default_rng(3)
        entries = np.array([1.0, -1.0, 0.0, -0.0, 0.5, -2.0])
        widened = kept = 0
        for _ in range(400):
            n = int(rng.integers(2, 4))
            shapes = [(r, n) for r in (int(rng.integers(0, n)),) * 2 + (int(rng.integers(1, n)),) * 2]
            a1, b1, a2, b2 = (rng.choice(entries, sh) + 1j * rng.choice(entries[:4], sh)
                              for sh in shapes)
            cs = ConstraintSystem(a1=a1, b1=b1, a2=a2, b2=b2, n=n, m1=0, m2=0, dets=[])
            eye = np.eye(2 * n, dtype=complex)
            ours = _chart_products(cs, SAMPLE_ALPHAS, eye, eye, TOL)
            assert_same_vectors(ours, scalar_chart_products(cs, SAMPLE_ALPHAS, eye, eye, TOL))
            kept += len(ours)
            samples = np.array(SAMPLE_ALPHAS, dtype=complex)
            widened += cs.stacked(samples).tobytes() != np.array(
                [scalar_stacked(cs, a) for a in SAMPLE_ALPHAS]).tobytes()
        assert widened > 0 and kept > 400

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_systems(self, n):
        rng = np.random.default_rng(300 + n)
        for m in (n + 1, 2 * n - 1):
            h = span(*[cvec(rng, 2 * n) for _ in range(m)])
            cs = _single_system(h, n)
            for alphas in (SAMPLE_ALPHAS, REAL_ALPHA_GRID):
                ours = _chart_products(cs, alphas, h, None, TOL)
                assert len(ours) == len(alphas)
                assert_same_vectors(ours, scalar_chart_products(cs, alphas, h, None, TOL))
        # dimension count 3N + 1: the paired search samples, with partners
        g = random_product_vector(rng, n)
        h1 = span(g.vector, *[cvec(rng, 2 * n) for _ in range(2 * n - 2)])
        h2 = span(g.conjugate_partner.vector, *[cvec(rng, 2 * n) for _ in range(n + 1)])
        cs = build_paired_system(h1, h2)
        assert_same_vectors(_chart_products(cs, SAMPLE_ALPHAS, h1, h2, TOL),
                            scalar_chart_products(cs, SAMPLE_ALPHAS, h1, h2, TOL))


class TestDeterminantInterpolation:
    def test_univariate(self):
        rng = np.random.default_rng(50)
        for n in range(1, 8):
            for _ in range(4):
                ac = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                bc = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                ours = det_poly_univariate(ac, bc).coeffs
                ref = UnivariatePoly(scalar_det_poly_univariate(ac, bc)).coeffs
                assert ours.tobytes() == ref.tobytes()

    def test_bivariate(self):
        rng = np.random.default_rng(51)
        for n in range(1, 7):
            for da in range(n + 1):
                db = n - da
                blocks = [rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
                          for k in (da, da, db, db)]
                ours = det_poly_bivariate(blocks[:2], blocks[2:]).coeffs
                ref = BivariatePoly(scalar_det_poly_bivariate(blocks[:2], blocks[2:])).coeffs
                assert ours.tobytes() == ref.tobytes()
