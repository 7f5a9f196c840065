import numpy as np
import pytest

from sep2n.polyelim import (
    MERGE_RADIUS,
    BivariatePoly,
    DegenerateElimination,
    NonFinite,
    UnivariatePoly,
    conjugate_poly,
    eliminate_pair,
    eliminate_single,
    pair_elimination_bound,
    reduce_univariate_pair,
    single_elimination_bound,
    univariate_roots,
    verify_roots,
)

from helpers import grid_root_oracle, plant_common_roots, scalar_verify_roots, sets_match


def poly(terms):
    return BivariatePoly.from_terms(terms)


def assert_sorted_and_merged(roots):
    assert roots == sorted(roots, key=lambda z: (z.real, z.imag))
    assert all(abs(a - b) > MERGE_RADIUS for i, a in enumerate(roots) for b in roots[i + 1:])


CUBE_ROOTS = sorted([0, 1, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)],
                    key=lambda z: (z.real, z.imag))


class TestConjugatePoly:
    def test_swaps_and_conjugates(self):
        p = poly({(2, 0): 1.0, (0, 1): -1.0})   # a^2 - conj(a)
        pb = conjugate_poly(p)
        assert pb.deg_alpha == 1 and pb.deg_conj == 2
        assert pb.coeffs[0, 2] == 1.0 and pb.coeffs[1, 0] == -1.0

    def test_real_symmetric_fixed_point(self):
        p = poly({(1, 1): 1.0, (0, 0): 1.0})
        assert np.allclose(conjugate_poly(p).coeffs, p.coeffs)

    def test_involution_and_evaluation_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            g = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            p = BivariatePoly(g)
            pb = conjugate_poly(p)
            assert np.allclose(conjugate_poly(pb).coeffs, p.coeffs)
            for _ in range(4):
                a = complex(rng.standard_normal(), rng.standard_normal())
                assert abs(pb(a) - np.conj(p(a))) < 1e-10 * max(1, abs(p(a)))


class TestEliminateSingle:
    def test_square_versus_conjugate(self):
        q = eliminate_single(poly({(2, 0): 1.0, (0, 1): -1.0}))
        roots = univariate_roots(q)
        kept = verify_roots(roots, [poly({(2, 0): 1.0, (0, 1): -1.0})])
        assert len(kept.roots) == 4
        assert all(abs(a - b) < 1e-9 for a, b in zip(kept.roots, CUBE_ROOTS))

    def test_no_roots_case(self):
        p = poly({(1, 1): 1.0, (0, 0): 1.0})
        q = eliminate_single(p)
        kept = verify_roots(univariate_roots(q), [p])
        assert kept.roots == []

    def test_degenerate_difference_of_squares(self):
        with pytest.raises(DegenerateElimination):
            eliminate_single(poly({(2, 0): 1.0, (0, 2): -1.0}))

    def test_zero_polynomial_degenerate(self):
        with pytest.raises(DegenerateElimination):
            eliminate_single(BivariatePoly(np.zeros((2, 2))))

    def test_planted_roots_survive(self):
        rng = np.random.default_rng(1)
        survived = 0
        for _ in range(500):
            x = int(rng.integers(1, 4))
            y = int(rng.integers(x, 5))
            k = int(rng.integers(1, 3))
            planted = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(k)]
            grid = plant_common_roots(rng, x, y, planted)[0]
            p = BivariatePoly(grid)
            try:
                q = eliminate_single(p)
            except DegenerateElimination:
                continue  # measure-zero, would indicate a non-generic draw
            kept = verify_roots(univariate_roots(q), [p])
            if all(any(abs(r - a) < 1e-6 for r in kept.roots) for a in planted):
                survived += 1
        assert survived >= 498

    def test_degree_bounds_fuzz(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = int(rng.integers(1, 5))
            y = int(rng.integers(x, 5))
            g = rng.standard_normal((x + 1, y + 1)) + 1j * rng.standard_normal((x + 1, y + 1))
            q = eliminate_single(BivariatePoly(g))
            assert q.degree <= single_elimination_bound(x, y)


class TestEliminatePair:
    def test_linear_pair_single_common_root(self):
        p1 = poly({(1, 0): 1.0, (0, 1): -1.0})            # a - conj(a)
        p2 = poly({(1, 0): 1.0, (0, 1): 1.0, (0, 0): -2.0})  # a + conj(a) - 2
        q = eliminate_pair(p1, p2)
        kept = verify_roots(univariate_roots(q), [p1, p2])
        assert len(kept.roots) == 1
        assert abs(kept.roots[0] - 1.0) < 1e-10

    def test_duplicated_univariate(self):
        p = poly({(1, 0): 1.0, (0, 0): -1.0})
        q = eliminate_pair(p, p)
        assert q.degree == 1
        roots = univariate_roots(q)
        assert abs(roots[0] - 1.0) < 1e-12

    def test_degree_bound_one_three(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g1 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            g2 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            q = eliminate_pair(BivariatePoly(g1), BivariatePoly(g2))
            assert q.degree <= pair_elimination_bound(1, 3) == 6

    def test_degree_bounds_fuzz(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = int(rng.integers(1, 5))
            y = int(rng.integers(x, 5))
            g1 = rng.standard_normal((x + 1, y + 1)) + 1j * rng.standard_normal((x + 1, y + 1))
            g2 = rng.standard_normal((x + 1, y + 1)) + 1j * rng.standard_normal((x + 1, y + 1))
            q = eliminate_pair(BivariatePoly(g1), BivariatePoly(g2))
            assert q.degree <= pair_elimination_bound(x, y)

    def test_planted_common_roots_survive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            planted = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)]
            g1, g2 = plant_common_roots(rng, 1, 2, planted, npolys=2)
            p1, p2 = BivariatePoly(g1), BivariatePoly(g2)
            q = eliminate_pair(p1, p2)
            kept = verify_roots(univariate_roots(q), [p1, p2])
            for a in planted:
                assert any(abs(r - a) < 1e-6 for r in kept.roots)


class TestUnivariateRoots:
    def test_quartic_minus_linear(self):
        q = UnivariatePoly(np.array([0, -1, 0, 0, 1], dtype=complex))
        roots = sorted(univariate_roots(q), key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) < 1e-10 for a, b in zip(roots, CUBE_ROOTS))

    def test_quadratic(self):
        roots = sorted(univariate_roots(UnivariatePoly([1, 0, 1])), key=lambda z: z.imag)
        assert abs(roots[0] + 1j) < 1e-12 and abs(roots[1] - 1j) < 1e-12

    def test_planted_degree_eight(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            planted = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            coeffs = np.array([1.0 + 0j])
            for r in planted:
                coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
            recovered = univariate_roots(UnivariatePoly(coeffs))
            for r in planted:
                assert min(abs(recovered - r)) < 1e-8

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            UnivariatePoly(np.array([1.0, np.inf]))

    def test_constant_has_no_roots(self):
        assert univariate_roots(UnivariatePoly([3.0])).size == 0


class TestVerifyRoots:
    def test_keeps_all_for_square_example(self):
        system = [poly({(2, 0): 1.0, (0, 1): -1.0})]
        kept = verify_roots(CUBE_ROOTS, system)
        assert len(kept.roots) == 4
        assert_sorted_and_merged(kept.roots)
        # deg_alpha == 0 beside deg_conj == 0: the stacked alpha-derivative
        # grid of the first is all zero
        system = [poly({(0, 2): 1.0, (0, 0): -1.0}), poly({(2, 0): 1.0, (0, 0): -1.0})]
        kept = verify_roots([1.0001, -0.9999 + 1e-4j, 1.0, 0.9], system)
        assert len(kept.roots) == 2
        assert all(abs(a - b) < 1e-12 for a, b in zip(kept.roots, [-1.0, 1.0]))
        assert_sorted_and_merged(kept.roots)
        # |a|^2 - 1 is self-conjugate: its Jacobian has rank one and its roots
        # form a curve; points on it stay, points off it may move onto it
        p = poly({(1, 1): 1.0, (0, 0): -1.0})
        on_curve = [1.0, -1.0, 1j, np.exp(0.3j), np.exp(-2.0j)]
        kept = verify_roots(on_curve + [1.2, 0.6j, 2.0 - 1.0j], [p])
        assert all(any(abs(a - r) < 1e-9 for r in kept.roots) for a in on_curve)
        assert all(abs(p(r)) <= 1e-8 * max(1.0, abs(r) ** 2 + 1.0) for r in kept.roots)
        assert_sorted_and_merged(kept.roots)

    def test_rejects_false_candidate(self):
        kept = verify_roots([1j], [poly({(1, 1): 1.0, (0, 0): 1.0})])
        assert kept.roots == []
        system = [poly({(2, 0): 1.0, (0, 1): -1.0})]
        assert verify_roots([], system).roots == []
        assert verify_roots(np.zeros(0, dtype=complex), system).roots == []
        nonfinite = [np.nan, np.inf, complex(1.0, np.inf), complex(np.nan, 0.0)]
        assert verify_roots(nonfinite, system).roots == []

    def test_merges_close_candidates(self):
        system = [poly({(1, 0): 1.0, (0, 0): -1.0})]
        kept = verify_roots([1.0, 1.0 + 1e-9], system, polish=False)
        assert len(kept.roots) == 1
        kept = verify_roots(CUBE_ROOTS + [c + 1e-7 for c in CUBE_ROOTS],
                            [poly({(2, 0): 1.0, (0, 1): -1.0})])
        assert len(kept.roots) == 4
        assert_sorted_and_merged(kept.roots)

    def test_requires_system(self):
        with pytest.raises(ValueError):
            verify_roots([0.0], [])

    def test_matches_scalar_reference(self):
        """Batched polish and acceptance agree with the scalar loop they replaced.

        Generic systems of K = 1..6 polynomials with mixed grid shapes (so
        the stack is padded) share two planted roots; candidates are the
        elimination's roots plus decoys near and away from the planted ones.
        """
        rng = np.random.default_rng(12)
        shapes = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (3, 1)]
        accepted = 0
        for trial in range(60):
            k = trial % 6 + 1
            planted = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(2)]
            picks = rng.choice(len(shapes), size=k)
            system = [BivariatePoly(plant_common_roots(rng, *shapes[i], planted)[0])
                      for i in picks]
            q = eliminate_single(system[0]) if k == 1 else eliminate_pair(system[0], system[1])
            decoys = [a + 1e-3 * complex(*rng.standard_normal(2)) for a in planted]
            decoys += list(rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3))
            candidates = list(univariate_roots(q)) + decoys
            ours = verify_roots(candidates, system).roots
            ref = scalar_verify_roots(candidates, system)
            assert len(ours) == len(ref)
            assert all(abs(a - b) <= 1e-10 * (1 + abs(b)) for a, b in zip(ours, ref))
            accepted += len(ours)
        assert accepted >= 120

class TestReduceUnivariatePair:
    def test_degree_drops_and_common_root_kept(self):
        # (a-1)(a-2) and (a-1)(a-3): common root 1
        q1 = UnivariatePoly(np.convolve([-1, 1], [-2, 1]))
        q2 = UnivariatePoly(np.convolve([-1, 1], [-3, 1]))
        w = reduce_univariate_pair(q1, q2)
        assert w.degree <= 1
        assert abs(w(1.0)) < 1e-12


class TestGridOracleAgreement:
    def test_single_polynomials_match_grid_search(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(25):
            x = int(rng.integers(1, 3))
            y = int(rng.integers(x, 6 - x))
            g = rng.standard_normal((x + 1, y + 1)) + 1j * rng.standard_normal((x + 1, y + 1))
            p = BivariatePoly(g)
            try:
                q = eliminate_single(p)
            except DegenerateElimination:
                continue
            kept = verify_roots(univariate_roots(q), [p])
            oracle = grid_root_oracle([p], box=5.0, step=0.02)
            ours = [r for r in kept.roots if abs(r.real) <= 4.5 and abs(r.imag) <= 4.5]
            oracle = [r for r in oracle if abs(r.real) <= 4.5 and abs(r.imag) <= 4.5]
            assert sets_match(ours, oracle, radius=1e-6)
            checked += 1
        assert checked >= 20
