"""The stacked numpy calls of the product-vector search give the scalar loops' bits.

Each test runs a library function that solves many alphas, or screens
many candidate vectors, in one stacked call, and the
one-at-a-time loop it replaced (kept in ``helpers``), on seeded systems, and
requires exact equality: alphas compared by their float hex, arrays by
their bytes.  ``TestNumpyForms`` pins the numpy forms that this rests on,
so a numpy or BLAS upgrade that breaks them fails there by name.
``TestPerCallPrimitives`` holds each primitive that was cut to fewer numpy
calls to its former form, by bytes, and by memory layout where it was kept.
"""

import numpy as np
import pytest

from sep2n import productfinder, sepengine
from sep2n.matrixcore import (
    DensityState,
    ToleranceConfig,
    as_complex_matrix,
    hermitize,
    numerical_rank_kernel,
)
from sep2n.productfinder import (
    REAL_ALPHA_GRID,
    SAMPLE_ALPHAS,
    ConstraintSystem,
    InfiniteFamily,
    NonGenericInput,
    ProductVector,
    _chart_products,
    _chart_svd,
    _gate_and_polish,
    _inner,
    _orthonormalize,
    _pencil_roots,
    _phase_normalize,
    _row_norms,
    _single_roots,
    build_paired_system,
    in_range,
    kernel_product_vectors,
    paired_products,
    products_of,
    real_e_products,
)
from sep2n.sepengine import TIE_REL_TOL, SupportViolation

from helpers import (
    VectorOutsideRange,
    basis_and_complement,
    build_separable,
    count_svd_stacks,
    paired_bases,
    perfbench_corpus,
    random_ppt_mixture,
    random_product_vector,
    random_pt_invariant,
    reference_as_complex_matrix,
    reference_hermitize,
    reference_split,
    scalar_best_subtraction,
    scalar_chart_products,
    scalar_from_alpha,
    scalar_from_e_f,
    scalar_in_range,
    scalar_kernel_term,
    scalar_lambda_bounds,
    scalar_partner_filter,
    scalar_phase_normalize,
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
        assert a.vector.tobytes() == b.vector.tobytes()


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, SupportViolation, NonGenericInput, VectorOutsideRange) as exc:
        return type(exc), str(exc)


def cvec(rng, k):
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def span(*cols):
    return _orthonormalize(np.column_stack(cols))


def single_case(rng, n, m):
    """A dimension-m subspace holding m-1 random product vectors, its system and alphas.

    The alphas are the polished pencil roots, points near the planted ones
    and random points.
    """
    gens = [random_product_vector(rng, n) for _ in range(m - 1)]
    h, comp = basis_and_complement(np.column_stack([g.vector for g in gens] + [cvec(rng, 2 * n)]))
    cs = ConstraintSystem(comp, comp[:, :0])
    near = [g.alpha + 1e-4 * complex(*rng.standard_normal(2)) for g in gens if g.alpha is not None]
    far = list(2.0 * rng.standard_normal(3) + 2j * rng.standard_normal(3))
    return h, cs, _gate_and_polish(cs, _single_roots(cs))[0][:-1] + near + far


def paired_case(rng, n, m1, m2, planted):
    """H1 and H2 sharing ``planted`` product pairs |e,f> / |e*,f>, and their roots."""
    gens = [random_product_vector(rng, n) for _ in range(planted)]
    h1 = span(*[g.vector for g in gens], *[cvec(rng, 2 * n) for _ in range(m1 - planted)])
    h2 = span(*[g.conjugate_partner.vector for g in gens],
              *[cvec(rng, 2 * n) for _ in range(m2 - planted)])
    cs = build_paired_system(h1, h2)
    return h1, h2, cs, _gate_and_polish(cs, _pencil_roots(cs))[0][:-1]


class TestRefinement:
    """Polished roots give the bits of the scalar root loop, one SVD per root."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_systems(self, n):
        rng = np.random.default_rng(100 + n)
        kept = 0
        for m in range(1, n + 1):
            for _ in range(3):
                h, cs, alphas = single_case(rng, n, m)
                assert cs.conj_blocks[2].shape[0] == 0
                ours = _chart_products(cs, alphas, h, None, TOL)
                assert_same_vectors(ours, scalar_root_products(alphas, cs, h, None, TOL))
                kept += len(ours)
        assert kept >= 3 * n * (n - 1) // 2

    @pytest.mark.parametrize("n, m1, m2, planted", [(2, 3, 3, 1), (3, 4, 4, 2), (3, 5, 4, 2),
                                                    (4, 6, 5, 2), (4, 5, 5, 3)])
    def test_paired_systems(self, n, m1, m2, planted):
        rng = np.random.default_rng(200 + 10 * n + m1)
        kept = 0
        for _ in range(3):
            h1, h2, cs, roots = paired_case(rng, n, m1, m2, planted)
            alphas = roots + list(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            ours = _chart_products(cs, alphas, h1, h2, TOL, unique=True)
            assert_same_vectors(ours, scalar_root_products(alphas, cs, h1, h2, TOL))
            kept += len(ours)
        assert kept >= 3 * planted

    def test_duplicate_candidates(self):
        # the polish merges candidates within MERGE_RADIUS before any vector is built
        rng = np.random.default_rng(11)
        n = 4
        gens = [random_product_vector(rng, n) for _ in range(3)]
        cols = [g.vector for g in gens] + [cvec(rng, 2 * n)]
        h, comp = basis_and_complement(np.column_stack(cols))
        cs = ConstraintSystem(comp, comp[:, :0])
        a = [g.alpha for g in gens]
        starts = [a[0], a[0] + 1e-8, a[1], a[0] + 5e-7j, a[1] - 2e-7, a[2], a[0] + 2e-6, a[2]]
        points, svd = _gate_and_polish(cs, np.array(starts))
        assert points[-1] is None
        alphas = points[:-1]
        assert len(alphas) == 3
        ours = _chart_products(cs, alphas, h, None, TOL)
        assert_same_vectors(ours, scalar_root_products(alphas, cs, h, None, TOL))
        assert_same_vectors(_chart_products(cs, points, h, None, TOL, svd=svd), ours)
        assert len(ours) == 3
        for v, x in zip(ours, sorted(a, key=lambda z: (z.real, z.imag))):
            assert abs(v.alpha - x) < 1e-12

    @pytest.mark.parametrize("steps", [0, 1, productfinder.PENCIL_POLISH_STEPS])
    def test_polish_hands_over_the_svd_it_stopped_at(self, steps, monkeypatch):
        # each root's sigma and f, and those of e = |0>, are the bits of a
        # fresh chart SVD at the same point, whether the root stopped at the
        # gate, after some steps or at the cap; so are the vectors
        monkeypatch.setattr(productfinder, "PENCIL_POLISH_STEPS", steps)
        rng = np.random.default_rng(500 + steps)
        systems = []
        for n, m in ((3, 3), (4, 4), (5, 3), (6, 6)):
            h, cs, _ = single_case(rng, n, m)
            systems.append((h, None, cs, _single_roots(cs)))
        for n, m1, m2, planted in ((3, 4, 4, 2), (4, 6, 5, 2), (4, 5, 5, 3), (5, 8, 7, 3)):
            h1, h2, cs, _ = paired_case(rng, n, m1, m2, planted)
            systems.append((h1, h2, cs, _pencil_roots(cs)))
        stacks = count_svd_stacks(monkeypatch)
        most = kept = 0
        for h1, h2, cs, candidates in systems:
            before = len(stacks)
            points, svd = _gate_and_polish(cs, candidates)
            most = max(most, len(stacks) - before)
            sigmas, fs = _chart_svd(cs, points)
            assert points[-1] is None
            assert svd[0].tobytes() == sigmas.tobytes()
            assert svd[1].tobytes() == fs.tobytes()
            unique = h2 is not None
            ours = _chart_products(cs, points, h1, h2, TOL, unique=unique, svd=svd)
            assert_same_vectors(ours, _chart_products(cs, points, h1, h2, TOL, unique=unique))
            kept += len(ours)
        # some root stopped after a step, at the cap when that is one step
        assert most >= min(steps, 1) + 1
        assert kept >= 20

    def test_rank_gate_alone_rejects_under_loose_range_test(self):
        # with root_residual_tol 0.1 every unit vector passes the range test,
        # so only the N-th singular value keeps the pencil eigenvalues of an
        # overdetermined system without product vectors out
        loose = ToleranceConfig(root_residual_tol=0.1)
        rng = np.random.default_rng(8)
        for n in (3, 4, 5):
            cols = [cvec(rng, 2 * n) for _ in range(n - 1)]
            h, comp = basis_and_complement(np.column_stack(cols))
            cs = ConstraintSystem(comp, comp[:, :0])
            alphas = _single_roots(cs)
            assert alphas.size == n
            sigmas = np.linalg.svd(cs.stacked(alphas), compute_uv=False)
            assert all(s[n - 1] > 1e-3 for s in sigmas)
            assert _gate_and_polish(cs, alphas)[0] == [None]
            assert _chart_products(cs, alphas, h, None, loose) == []
            assert scalar_root_products(alphas, cs, h, None, loose) == []

    def test_no_candidates(self):
        rng = np.random.default_rng(12)
        h, cs, _ = single_case(rng, 3, 3)
        assert _chart_products(cs, [], h, None, TOL) == []
        assert _chart_products(cs, np.zeros(0, dtype=complex), h, None, TOL) == []
        assert _gate_and_polish(cs, np.zeros(0, dtype=complex))[0] == [None]
        h1, h2, pcs, _ = paired_case(rng, 3, 4, 4, 2)
        assert _chart_products(pcs, [], h1, h2, TOL, unique=True) == []


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
        # a paired search keeps repeated roots: the polish has merged them
        ours = _chart_products(cs, [good, good + 1e-9], h1, h2, TOL, unique=True)
        assert len(ours) == 2
        assert_same_vectors(ours, scalar_root_products([good, good + 1e-9], cs, h1, h2, TOL))
        for roots in ([good, bad[0], bad[1]], [good, bad[1], good, bad[0]]):
            with pytest.raises(NonGenericInput) as ref:
                scalar_root_products(roots, cs, h1, h2, TOL)
            with pytest.raises(NonGenericInput) as got:
                _chart_products(cs, roots, h1, h2, TOL, unique=True)
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
            cs = ConstraintSystem(np.vstack([a1.T, b1.T]), np.vstack([a2.T, b2.T]))
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
            h, comp = basis_and_complement(np.column_stack([cvec(rng, 2 * n) for _ in range(m)]))
            cs = ConstraintSystem(comp, comp[:, :0])
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


def sizes(rng):
    """A dimension in 2..16 and a row count in 1..11."""
    return int(rng.integers(2, 17)), int(rng.integers(1, 12))


def crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestNumpyForms:
    """The stacked numpy forms of the candidate screens keep the single-vector bits."""

    TRIALS = 300

    def test_unit_column_matmul_gives_mat_vec_bits(self):
        rng = np.random.default_rng(900)
        for _ in range(self.TRIALS):
            d, k = sizes(rng)
            m, v = crand(rng, d, d), crand(rng, k, d)
            rect = numerical_rank_kernel(crand(rng, d, int(rng.integers(1, d + 1)))).range_basis
            assert (m @ v[:, :, None])[:, :, 0].tobytes() == np.array([m @ x for x in v]).tobytes()
            ours = (rect.conj().T @ v[:, :, None])[:, :, 0]
            assert ours.tobytes() == np.array([rect.conj().T @ x for x in v]).tobytes()

    def test_matmul_row_norms_give_norm_bits(self):
        rng = np.random.default_rng(901)
        for _ in range(self.TRIALS):
            d, k = sizes(rng)
            v = crand(rng, k, d) * 10.0 ** rng.uniform(-150, 150, (k, 1))
            assert _row_norms(v).tobytes() == np.array([np.linalg.norm(x) for x in v]).tobytes()

    def test_matmul_inner_products_give_vdot_bits(self):
        rng = np.random.default_rng(902)
        for _ in range(self.TRIALS):
            d, k = sizes(rng)
            x, y = crand(rng, k, d), crand(rng, k, d)
            ours = _inner(x[:, :, None], y[:, :, None])
            assert ours.tobytes() == np.array([np.vdot(a, b) for a, b in zip(x, y)]).tobytes()


class TestCandidateScreens:
    def test_phase_normalization_of_rows(self):
        rng = np.random.default_rng(910)
        real_alphas = [[a, 1.0] for a in REAL_ALPHA_GRID + (-0.0, complex(0.5, -0.0))]
        largest_real = [[5.0, 1 + 1j, -2j], [-7.0, 0.5, 3 + 3j], [1e-300, 0.0, 2.0]]
        cases = [np.array(real_alphas, dtype=complex), np.array(largest_real, dtype=complex)]
        cases += [crand(rng, k, d) for d, k in (sizes(rng) for _ in range(200))]
        for rows in cases:
            ref = np.array([scalar_phase_normalize(r) for r in rows])
            assert _phase_normalize(rows).tobytes() == ref.tobytes()
        with pytest.raises(ValueError, match="zero vector"):
            _phase_normalize(np.array([[1.0, 2.0], [0.0, 0.0]]))

    def test_product_vectors_from_rows(self):
        rng = np.random.default_rng(911)
        alphas = list(REAL_ALPHA_GRID) + [None, -0.0, complex(2.0, -0.0)] + list(SAMPLE_ALPHAS)
        for n in (1, 2, 5):
            fs = crand(rng, len(alphas), n)
            assert_same_vectors(productfinder._products_at(alphas, fs)[0],
                                [scalar_from_alpha(a, f) for a, f in zip(alphas, fs)])
            es = np.concatenate([crand(rng, 6, 2), [[1.0, 1e-13], [1.0, 0.0], [0.0, 1.0]]])
            fs = crand(rng, len(es), n)
            assert_same_vectors(products_of(es, fs),
                                [scalar_from_e_f(e, f) for e, f in zip(es, fs)])
            assert [v.alpha for v in products_of(es, fs)][-3:-1] == [None, None]

    def test_range_mask(self):
        rng = np.random.default_rng(912)
        seen = set()
        for _ in range(200):
            d, k = sizes(rng)
            basis = numerical_rank_kernel(crand(rng, d, int(rng.integers(1, d)))).range_basis
            out = crand(rng, k, d)
            out -= (basis @ (basis.conj().T @ out.T)).T
            out /= np.linalg.norm(out, axis=1, keepdims=True)
            inside = (basis @ crand(rng, basis.shape[1], k)).T
            # residuals straddle the threshold 10 * root_residual_tol = 1e-7
            vecs = inside + rng.uniform(0.5e-7, 1.5e-7, (k, 1)) * out
            mask = in_range(basis, vecs, TOL)
            assert mask.tolist() == [scalar_in_range(basis, v, TOL) for v in vecs]
            seen.update(mask.tolist())
        assert seen == {True, False}

    def test_partner_filter(self, monkeypatch):
        # N genuine kernel vectors of a rank-N state pass; random product
        # vectors and rescaled partners near the threshold test the cut
        rng = np.random.default_rng(913)
        kept = dropped = 0
        for n in (3, 4, 5):
            state = DensityState(build_separable(rng, n, n)[0])
            found = kernel_product_vectors(state)
            assert len(found) == n
            vectors = found + [random_product_vector(rng, n) for _ in range(4)]
            vectors = [vectors[i] for i in rng.permutation(len(vectors))]
            for res in (vectors, InfiniteFamily(samples=vectors, note="planted")):
                with monkeypatch.context() as mp:
                    mp.setattr(productfinder, "products_in_subspace", lambda h, comp, tol: res)
                    ours = kernel_product_vectors(state)
                ref = scalar_partner_filter(state, vectors)
                assert [id(v) for v in ours] == [id(v) for v in ref]
                kept += len(ours)
                dropped += len(vectors) - len(ours)
        assert kept and dropped

    def test_best_subtraction_on_sampled_candidates(self):
        rng = np.random.default_rng(914)
        chosen = 0
        for n in (3, 4):
            for m in (random_ppt_mixture(rng, n), random_pt_invariant(rng, n)):
                state = DensityState(m)
                bases = paired_bases(state.range_basis, state.pt_range_basis, state.tol)
                res = paired_products(*bases, state.tol)
                for cands in (res, real_e_products(*basis_and_complement(state.range_basis),
                                                   state.tol)):
                    cands = cands + [random_product_vector(rng, n)]
                    chosen += checked_subtraction(state, cands) is not None
                    for v in cands:
                        checked_subtraction(state, [v])
        assert chosen >= 6

    def test_best_subtraction_tie_and_nonpositive_form(self, monkeypatch):
        # a diagonal state on C2 x C3 whose product basis vectors are: outside
        # the range, with a negative quadratic form, of weight 1, and tied at weight 2;
        # the state is not PSD, so no state is built from what is left
        monkeypatch.setattr(sepengine, "_successor", lambda m, ref: m)
        m = np.diag([1.0, 0.0, -0.5, 2.0, 1.0, 2.0]).astype(complex)
        state = DensityState(m, require_psd=False)
        basis = np.eye(3)
        cands = [ProductVector.from_e_f(e, f) for e, f in
                 [([1, 0], basis[1]), ([1, 0], basis[2]), ([0, 1], basis[1]),
                  ([0, 1], basis[0]), ([1, 0], basis[0]), ([0, 1], basis[2])]]
        outcomes = [outcome(scalar_lambda_bounds, state, v) for v in cands]
        assert outcomes[:3] == [(VectorOutsideRange, "|e,f> is not in the range of the state"),
                                (VectorOutsideRange, "nonpositive pseudoinverse quadratic form"),
                                (1.0, 1.0)]
        assert outcomes[3] == outcomes[5] == (2.0, 2.0) and outcomes[4] == (1.0, 1.0)
        assert [checked_subtraction(state, [v]) for v in cands] == [None, None, *cands[2:]]
        assert checked_subtraction(state, cands) is cands[3]
        assert checked_subtraction(state, cands[::-1]) is cands[5]
        assert checked_subtraction(state, cands[:3]) is cands[2]
        assert checked_subtraction(state, cands[:2]) is None
        assert checked_subtraction(state, []) is None

    def test_kernel_terms(self):
        rng = np.random.default_rng(915)
        for n in (2, 3, 5):
            state = DensityState(build_separable(rng, n, n)[0])
            found = kernel_product_vectors(state)
            ours = sepengine._kernel_terms(state, found)
            ref = [scalar_kernel_term(state, v) for v in found]
            assert len(ours) == len(ref) == n
            for (lam, sub, (w, pv)), (lam_r, sub_r, (w_r, pv_r)) in zip(ours, ref):
                assert (lam.hex(), w.hex()) == (lam_r.hex(), w_r.hex())
                assert sub.tobytes() == sub_r.tobytes()
                assert_same_vectors([pv], [pv_r])

    def test_kernel_term_declines(self):
        rng = np.random.default_rng(916)
        n = 3
        e, f = crand(rng, 2), crand(rng, n)
        e, f = e / np.linalg.norm(e), f / np.linalg.norm(f)
        ehat = np.array([-np.conj(e[1]), np.conj(e[0])])
        v = ProductVector.from_e_f(e, f)
        b, c = crand(rng, n), crand(rng, n)
        b_perp, c_perp = b - np.vdot(f, b) * f, c - np.vdot(f, c) * f

        def state_of(*terms, psd=True):
            m = sum(w * np.outer(x, x.conj()) for w, x in terms)
            return DensityState(m, require_psd=psd)

        good = state_of((1.0, np.kron(ehat, b)), (0.5, np.kron(crand(rng, 2), b_perp)))
        not_kernel = state_of((1.0, np.kron(e, b)), (1.0, np.kron(ehat, b)))
        # every f' in the support is orthogonal to f: rho annihilates |e_hat, f>
        annihilated = state_of((1.0, np.kron(crand(rng, 2), b_perp)), (1.0, np.kron(ehat, c_perp)))
        psi = np.kron(ehat, b) + np.kron(e, b_perp)  # orthogonal to |e,f>, entangled
        not_line = state_of((1.0, psi))
        negative = state_of((-1.0, np.kron(ehat, b)), psd=False)
        expected = {
            "good": None,
            "not_kernel": (ValueError, "vector is not in the kernel of the state"),
            "annihilated": (SupportViolation,
                            "state annihilates |e_hat, f>; strip the support first"),
            "not_line": (NonGenericInput, "kernel image is not a product line"),
            "negative": (NonGenericInput, "nonpositive overlap between g and f"),
        }
        states = dict(good=good, not_kernel=not_kernel, annihilated=annihilated,
                      not_line=not_line, negative=negative)
        for name, state in states.items():
            ref = outcome(scalar_kernel_term, state, v)
            got = outcome(sepengine._kernel_terms, state, [v])
            if expected[name] is None:
                assert bits_or_exc(got[0]) == bits_or_exc(ref)
            else:
                assert got == ref == expected[name]
            # a failing vector behind a passing one, and ahead of one failing otherwise
            others = [ProductVector.from_e_f(e, f + 1e-3 * crand(rng, n)),
                      ProductVector.from_e_f(ehat, b)]
            for vectors in ([v] + others, others + [v], [others[1], v, others[0]]):
                ref_all = outcome(lambda: [scalar_kernel_term(state, x) for x in vectors])
                got_all = outcome(sepengine._kernel_terms, state, vectors)
                assert bits_or_exc(got_all) == bits_or_exc(ref_all)


def checked_subtraction(state, candidates):
    """The vector ``subtract`` picks, checked to the bit against the scalar reference.

    It must be the one of ``scalar_best_subtraction``, subtracted at the
    smaller of its ``scalar_lambda_bounds`` with the case tag they give;
    ``subtract`` declines exactly when the reference finds no vector.
    """
    done = sepengine.subtract(state, candidates)
    best = scalar_best_subtraction(state, candidates)
    if done is None:
        assert best is None
        return None
    _new, lam, case, v = done
    assert v is best
    lam0, lamb0 = scalar_lambda_bounds(state, v)
    assert lam.hex() == min(lam0, lamb0).hex()
    tied = abs(lam0 - lamb0) <= TIE_REL_TOL * max(lam0, lamb0)
    assert case == ("iii" if tied else "i" if lam0 < lamb0 else "ii")
    return v


def bits_or_exc(x):
    """Exact text of bounds, kernel terms or a raised outcome."""
    if isinstance(x, tuple) and x and isinstance(x[0], type):
        return x
    if isinstance(x, (list, tuple)):
        return [bits_or_exc(y) for y in x]
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, ProductVector):
        return (bits(x.alpha), x.e.tobytes(), x.f.tobytes(), x.vector.tobytes())
    raise TypeError(type(x).__name__)


def same_array(ours, ref, layout=True):
    """Equal dtype, shape and bytes, and unless ``layout`` is false, memory layout."""
    return (ours.dtype == ref.dtype and ours.shape == ref.shape
            and ours.tobytes() == ref.tobytes()
            and (not layout or (ours.flags.c_contiguous == ref.flags.c_contiguous
                                and ours.flags.f_contiguous == ref.flags.f_contiguous)))


corpus = perfbench_corpus()


class TestProductFreeProof:
    """Proving an overdetermined subspace product-free leaves its search's result as it was."""

    @pytest.mark.parametrize("workload", ["range_enum", "sampled_reduction", "cli_batch"])
    def test_corpus_kernel_searches(self, workload, monkeypatch):
        searches = []
        search = productfinder.products_in_subspace

        def capture(h, comp, tol=None):
            if 0 < h.shape[1] < h.shape[0] // 2:
                searches.append((h, comp, tol))
            return search(h, comp, tol)

        with monkeypatch.context() as patch:
            patch.setattr(productfinder, "products_in_subspace", capture)
            for item in corpus.build(workload, 6607, scale=0.1):
                sepengine.analyze(item.matrix)
        proved = 0
        for h, comp, tol in searches:
            ours = search(h, comp, tol)
            with monkeypatch.context() as patch:
                patch.setattr(productfinder, "_far_from_products", lambda h, n: False)
                assert_same_vectors(ours, search(h, comp, tol))
            proved += productfinder._far_from_products(h, h.shape[0] // 2)
        # the proof decides most of them, so the comparison covers its exit
        assert len(searches) >= 10 and proved >= 0.9 * len(searches)


class TestPerCallPrimitives:
    """The primitives cut to fewer numpy calls give the bits of their former forms."""

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_as_complex_matrix_non_finite(self, part, bad):
        m = np.eye(4, dtype=complex)
        m[1, 2] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        message = "^density matrix contains non-finite entries$"
        for fn in (as_complex_matrix, reference_as_complex_matrix):
            with pytest.raises(ValueError, match=message):
                fn(m, "density matrix")
        with pytest.raises(ValueError, match=message):
            DensityState(m)

    def test_as_complex_matrix_accepts_what_it_accepted(self):
        rng = np.random.default_rng(930)
        for a in ([[1, 2], [3, 4]], np.eye(3, dtype=np.float32), crand(rng, 3, 5),
                  np.array([[-0.0, complex(0.0, -0.0)]]), np.zeros((0, 2))):
            assert same_array(as_complex_matrix(a), reference_as_complex_matrix(a))
        for a in (np.ones(3), np.ones((2, 2, 2))):
            assert outcome(as_complex_matrix, a) == outcome(reference_as_complex_matrix, a)

    def test_hermitize(self):
        # halving before adding is exact in the normal range, so the bits agree
        rng = np.random.default_rng(937)
        for n in range(1, 9):
            for scale in (1.0, 1e300, 1e-300, 1e150, 1e-150):
                m = scale * crand(rng, 2 * n, 2 * n)
                m[rng.random(m.shape) < 0.2] = 0.0
                assert same_array(hermitize(m), reference_hermitize(m))
        # where adding first would overflow, halving first does not
        big = np.diag([1e308, 1e308]).astype(complex)
        assert np.array_equal(hermitize(big), big)

    def test_split(self):
        rng = np.random.default_rng(931)
        cutoff = TOL.rank_rel_tol
        splits = 0
        for n in range(1, 9):
            for _ in range(6):
                dim = 2 * n
                u = np.linalg.qr(crand(rng, dim, dim))[0]
                w = rng.uniform(0.1, 1.0, dim)
                w[rng.random(dim) < 0.4] = 0.0
                w[rng.random(dim) < 0.2] = cutoff * rng.choice([0.5, 0.99, 1.01, 3.0])
                w[rng.random(dim) < 0.2] *= -1e-12
                m = (u * w) @ u.conj().T
                state = DensityState(m, require_psd=False)
                for matrix in (state.matrix, state.pt_matrix):
                    vals, vecs = np.linalg.eigh(matrix)
                    ours = state._split(vals, vecs)
                    ref = reference_split(state.tol, vals, vecs)
                    assert type(ours[0]) is int and ours[0] == ref[0]
                    assert same_array(ours[1], ref[1]) and same_array(ours[2], ref[2])
                    assert ours[3] == ref[3]
                    splits += 1
        zero = DensityState(np.zeros((4, 4)), require_psd=False)
        ours = zero._split(zero._eigvals, zero._eigvecs)
        ref = reference_split(zero.tol, zero._eigvals, zero._eigvecs)
        assert ours[0] == ref[0] == 0 and same_array(ours[1], ref[1])
        assert same_array(ours[2], ref[2]) and ours[2].shape == (4, 0)
        assert splits == 96
