import importlib.util
import inspect
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sep2n import matrixcore, productfinder, sepengine
from sep2n.matrixcore import DensityState, ToleranceConfig, hermitize, partial_transpose_matrix
from sep2n.productfinder import (
    NonGenericInput,
    ProductVector,
    kernel_product_vectors,
    paired_products,
)
from sep2n.sepengine import (
    DependentProjectors,
    NotPTInvariant,
    SeparabilityCertificate,
    Verdict,
    VerdictKind,
    analyze,
    biorthogonal_check,
    decompose_rank_n,
    pt_invariant_decompose,
    pt_symmetrizing_search,
    reduce_by_kernel,
    strip_support,
    subtract,
    symmetric_split_check,
    two_qubit_decompose,
    verify_certificate,
)

from helpers import (
    build_separable,
    eig_rank,
    embedded_max_entangled,
    failing_once,
    horodecki_2x4,
    min_eig,
    paired_bases,
    random_product_vector,
    random_pt_invariant,
    random_local_unitary,
    random_ppt_mixture,
    shared_e_rank_n,
    split_premise_state,
    transformed_pt_invariant,
    werner,
)


def oracle_weight(matrix, v):
    """1 / <v|x> for the solution x of matrix x = v on the range, from the spectrum."""
    w, u = np.linalg.eigh(matrix)
    keep = w > 1e-12 * w.max()
    x = u[:, keep] @ ((u[:, keep].conj().T @ v) / w[keep])
    return 1.0 / np.real(np.vdot(v, x))


class TestLambdaBounds:
    """The weight ``subtract`` takes for one candidate: the smaller of its two bounds."""

    def test_own_projector_gives_one(self):
        rng = np.random.default_rng(0)
        pv = random_product_vector(rng, 3)
        state = DensityState(pv.projector())
        _new, lam, case, v = subtract(state, [pv])
        assert v is pv
        assert lam == pytest.approx(1.0, rel=1e-10)
        assert case == "iii"

    def test_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(1)
        m, gens, _ = build_separable(rng, 3, 2)
        state = DensityState(m)
        v = gens[0]
        _new, lam, _case, _v = subtract(state, [v])
        # independent oracles: solve rho x = |e,f> and rho^T_A x = |e*,f> on the ranges
        lam0 = oracle_weight(state.matrix, v.vector)
        lamb0 = oracle_weight(state.pt_matrix, v.conjugate_partner.vector)
        assert lam == pytest.approx(min(lam0, lamb0), rel=1e-9)

    def test_rejects_vector_outside_range(self):
        rng = np.random.default_rng(2)
        m, _, _ = build_separable(rng, 3, 2)
        state = DensityState(m)
        outside = random_product_vector(rng, 3)
        assert subtract(state, [outside]) is None

    def test_kernel_induced_weights_tie(self):
        rng = np.random.default_rng(3)
        for n in (3, 4):
            m, _, _ = build_separable(rng, n, n)
            state = DensityState(m)
            from sep2n.productfinder import kernel_product_vector
            v = kernel_product_vector(state)
            e = v.e
            ehat = np.array([-np.conj(e[1]), np.conj(e[0])])
            w = state.matrix @ np.kron(ehat, v.f)
            g = np.conj(ehat[0]) * w[:n] + np.conj(ehat[1]) * w[n:]
            induced = ProductVector.from_e_f(ehat, g)
            _new, lam, case, _v = subtract(state, [induced])
            assert case == "iii"
            # closed form: 1 / <g|f> rescaled to the unit-normalized vector
            lam_closed = float(np.vdot(g, g).real) / float(np.real(np.vdot(g, v.f)))
            assert lam == pytest.approx(lam_closed, rel=1e-8)


class TestSubtract:
    def test_single_projector_to_zero(self):
        rng = np.random.default_rng(4)
        pv = random_product_vector(rng, 2)
        state = DensityState(pv.projector())
        new_state, lam, case, _v = subtract(state, [pv])
        assert lam == pytest.approx(1.0, rel=1e-10)
        assert case == "iii"
        assert new_state.norm < 1e-12

    def test_two_term_rank_drop(self):
        rng = np.random.default_rng(5)
        m, gens, _ = build_separable(rng, 3, 2)
        state = DensityState(m)
        assert (state.rank, state.pt_rank) == (2, 2)
        new_state, lam, case, _v = subtract(state, gens[:1])
        assert new_state.rank == eig_rank(new_state.matrix)
        assert new_state.rank in (1, 2)
        if case == "i":
            assert (new_state.rank, new_state.pt_rank) == (1, 2)
        elif case == "ii":
            assert (new_state.rank, new_state.pt_rank) == (2, 1)
        else:
            assert (new_state.rank, new_state.pt_rank) == (1, 1)

    def test_positivity_boundary(self):
        rng = np.random.default_rng(6)
        m, _, _ = build_separable(rng, 4, 6)
        state = DensityState(m)
        vectors = paired_products(*paired_bases(state.range_basis, state.pt_range_basis))
        assert vectors
        new_state, lam, _, v = subtract(state, vectors[:1])
        assert min_eig(new_state.matrix) >= -1e-9 * state.norm
        assert min_eig(new_state.pt_matrix) >= -1e-9 * state.norm
        over = state.matrix - 1.01 * lam * v.projector()
        assert (min_eig(over) < -1e-9 * state.norm
                or min_eig(partial_transpose_matrix(over, 4)) < -1e-9 * state.norm)


class TestStripSupport:
    def test_restricted_second_factor(self):
        rng = np.random.default_rng(7)
        n = 4
        m = np.zeros((8, 8), dtype=complex)
        for _ in range(3):
            e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f = np.zeros(n, dtype=complex)
            f[[1, 2]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            m += ProductVector.from_e_f(e, f).projector()
        state = DensityState(m)
        stripped, iso = strip_support(state)
        assert stripped.n == 2
        assert iso.shape == (4, 2)
        # isometry reproduces the original matrix
        w = np.kron(np.eye(2), iso)
        assert np.allclose(w @ stripped.matrix @ w.conj().T, state.matrix, atol=1e-10)

    def test_full_support_identity(self):
        rng = np.random.default_rng(8)
        m, _, _ = build_separable(rng, 3, 6)
        state = DensityState(m)
        stripped, iso = strip_support(state)
        assert stripped is state
        assert np.allclose(iso, np.eye(3))

    def test_single_basis_projector(self):
        pv = ProductVector.from_e_f(np.array([1.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]))
        state = DensityState(pv.projector())
        stripped, iso = strip_support(state)
        assert stripped.n == 1


class TestReduceByKernel:
    def test_rank_n_reduction_bookkeeping(self):
        rng = np.random.default_rng(9)
        for n in (3, 4):
            m, _, _ = build_separable(rng, n, n)
            state = DensityState(m)
            from sep2n.productfinder import kernel_product_vector
            v = kernel_product_vector(state)
            reduced, (weight, pv), iso = reduce_by_kernel(state, v)
            assert reduced.n == n - 1
            assert reduced.rank == state.rank - 1
            assert reduced.pt_rank == state.pt_rank - 1
            assert weight > 0

    def test_separability_preserved_on_construction(self):
        # rank-N state in the planted-kernel normal form: the reduction
        # must reproduce the state as (subtracted term + embedded remainder)
        # and the remainder must decompose constructively
        rng = np.random.default_rng(10)
        from test_productfinder import _separable_with_planted_kernel
        n = 3
        m, pv, ehat = _separable_with_planted_kernel(rng, n, product_terms=2, eta_rank=1)
        state = DensityState(m)
        assert state.rank == n
        reduced, (weight, sub_pv), iso = reduce_by_kernel(state, pv)
        assert reduced.n == n - 1
        assert abs(abs(np.vdot(sub_pv.e, ehat / np.linalg.norm(ehat))) - 1) < 1e-8
        w = np.kron(np.eye(2), iso)
        rebuilt = weight * sub_pv.projector() + w @ reduced.matrix @ w.conj().T
        assert np.linalg.norm(rebuilt - m, 2) < 1e-10 * np.linalg.norm(m, 2)
        v2, _ = analyze(reduced)
        assert v2.kind is VerdictKind.SEPARABLE

    def test_pt_invariant_stays_invariant(self):
        rng = np.random.default_rng(11)
        n = 3
        # invariant state with a real-e kernel vector, built in normal form
        f = np.zeros(n, dtype=complex)
        f[0] = 1.0
        m = np.zeros((2 * n, 2 * n), dtype=complex)
        for _ in range(4):
            er = rng.standard_normal(2)
            fhat = np.zeros(n, dtype=complex)
            fhat[1:] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            m += ProductVector.from_e_f(er.astype(complex), fhat).projector()
        ehat_block = rng.standard_normal((n, n))
        eta = ehat_block @ ehat_block.T
        er0 = np.array([1.0, 0.0])
        ehat0 = np.array([0.0, 1.0])
        m += np.kron(np.outer(ehat0, ehat0), eta)
        state = DensityState(m)
        assert np.linalg.norm(state.matrix - state.pt_matrix) < 1e-12
        pv = ProductVector.from_e_f(er0.astype(complex), f)
        assert np.linalg.norm(state.matrix @ pv.vector) < 1e-10
        reduced, _, _ = reduce_by_kernel(state, pv)
        assert np.linalg.norm(reduced.matrix - reduced.pt_matrix) < 1e-8 * reduced.norm

    @pytest.mark.parametrize("rank_rel_tol, annihilated", [(1e-9, False), (1e-8, False),
                                                           (1e-6, True), (1e-4, True)])
    def test_support_violation_threshold_is_the_rank_cutoff(self, rank_rel_tol, annihilated):
        # rho = diag(0, 1, eps, 1) on |00>, |01>, |10>, |11>: |0,0> is in the
        # kernel and rho|1,0> = eps |1,0>, which the state annihilates exactly
        # when eps lies at or below its rank cutoff
        eps = 1e-7
        state = DensityState(np.diag([0.0, 1.0, eps, 1.0]).astype(complex),
                             tol=ToleranceConfig(rank_rel_tol=rank_rel_tol))
        v = ProductVector.from_e_f(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert (eps <= rank_rel_tol) == annihilated
        if annihilated:
            with pytest.raises(sepengine.SupportViolation):
                reduce_by_kernel(state, v)
        else:
            _reduced, (weight, pv), _iso = reduce_by_kernel(state, v)
            assert abs(weight - eps) <= 1e-12 * eps
            assert np.allclose(pv.vector, [0, 0, 1, 0])


class TestDecomposeRankN:
    def test_base_case(self):
        rng = np.random.default_rng(12)
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pv = ProductVector.from_e_f(e, np.ones(1))
        state = DensityState(1.7 * pv.projector())
        cert = decompose_rank_n(state)
        assert len(cert.terms) == 1
        assert verify_certificate(state, cert)

    def test_four_projector_roundtrip(self):
        rng = np.random.default_rng(13)
        m, _, _ = build_separable(rng, 4, 4)
        state = DensityState(m)
        cert = decompose_rank_n(state)
        assert len(cert.terms) == 4
        rec = cert.reconstruct(8)
        assert np.linalg.norm(rec - m, 2) <= 1e-8 * np.linalg.norm(m, 2)

    def test_transpose_rank_matches(self):
        rng = np.random.default_rng(14)
        for n in (2, 3, 4, 5):
            m, _, _ = build_separable(rng, n, n)
            state = DensityState(m)
            assert state.rank == n
            assert state.pt_rank == n


def counting(monkeypatch, name):
    """Wrap ``sepengine.<name>`` so that the returned list collects one entry per call."""
    real, calls = getattr(sepengine, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sepengine, name, counted)
    return calls


class TestOneShotRankN:
    """All N terms from one kernel search, against the step-by-step loop."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_loop_term_by_term(self, n, monkeypatch):
        states = [DensityState(build_separable(np.random.default_rng([n, i]), n, n)[0])
                  for i in range(20)]
        reductions = counting(monkeypatch, "reduce_by_kernel")
        one_shot = [decompose_rank_n(state) for state in states]
        assert reductions == []
        monkeypatch.setattr(sepengine, "_all_kernel_terms", lambda *a: None)
        for state, cert in zip(states, one_shot):
            loop = decompose_rank_n(state)
            assert len(cert.terms) == len(loop.terms) == n
            for (w1, pv1), (w2, pv2) in zip(cert.terms, loop.terms):
                assert abs(w1 - w2) <= 1e-9 * max(w1, w2)
                assert abs(np.vdot(pv1.vector, pv2.vector)) >= 1 - 1e-9
        assert len(reductions) == 20 * (n - 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_local_unitary_keeps_one_shot(self, n):
        for i in range(20):
            m = build_separable(np.random.default_rng([n, i]), n, n)[0]
            w = random_local_unitary(np.random.default_rng([n, i, 1]), n)
            rotated = w @ m @ w.conj().T
            verdict, trace = analyze(rotated)
            assert verdict.kind is VerdictKind.SEPARABLE
            assert len(verdict.certificate.terms) == n
            assert [s.op for s in trace.steps] == ["rank-n-decompose"]
            assert verify_certificate(rotated, verdict.certificate)


class TestRankNFallback:
    """Where the one-shot declines, each pass reduces once and searches again."""

    # (kernel searches, reductions) per N: every pass searches once and retries
    # the one-shot, so at N = 3 and 6 the last passes decompose at once
    SEARCHES_REDUCTIONS = {3: (2, 1), 4: (3, 3), 5: (4, 4), 6: (5, 4)}

    @pytest.mark.parametrize("n", range(3, 7))
    def test_shared_e_curve(self, n, monkeypatch):
        m, vecs = shared_e_rank_n(np.random.default_rng([n, 1]), n)
        state = DensityState(m)
        assert state.rank == n
        # |e_perp, f> is in the kernel for a plane of f's: a curve of product vectors
        e = vecs[0].e
        others = np.array([v.f for v in vecs[2:]]).reshape(n - 2, n)
        plane = np.linalg.svd(others.conj())[2][n - 2:].conj()
        assert plane.shape == (2, n)
        for f in plane:
            assert np.linalg.norm(m @ np.kron([-np.conj(e[1]), np.conj(e[0])], f)) < 1e-12
        found = kernel_product_vectors(state)
        assert sepengine._all_kernel_terms(state, found) is None
        searches = counting(monkeypatch, "kernel_product_vectors")
        reductions = counting(monkeypatch, "reduce_by_kernel")
        cert = decompose_rank_n(state)
        assert (len(searches), len(reductions)) == self.SEARCHES_REDUCTIONS[n]
        assert len(cert.terms) == n
        assert verify_certificate(m, cert)

    def test_shared_e_states(self):
        # the 120 shared-e states at N = 3..6; a reduction that leaves the PSD
        # cone stops the passes with NonGenericInput instead of raising ValueError
        certified = 0
        for n in range(3, 7):
            for i in range(30):
                m, _ = shared_e_rank_n(np.random.default_rng([n, i]), n)
                try:
                    cert = decompose_rank_n(DensityState(m))
                except NonGenericInput:
                    continue
                assert verify_certificate(m, cert)
                certified += 1
        assert certified == 120

    def test_shared_e_analyze_verdicts(self):
        kinds = Counter()
        for n in range(3, 7):
            for i in range(30):
                m, _ = shared_e_rank_n(np.random.default_rng([n, i]), n)
                verdict, _ = analyze(m)
                kinds[verdict.kind] += 1
                if verdict.kind is VerdictKind.SEPARABLE:
                    assert verify_certificate(m, verdict.certificate)
        assert kinds == {VerdictKind.SEPARABLE: 120}

    def test_terms_must_sum_to_the_state(self):
        state = DensityState(build_separable(np.random.default_rng(22), 4, 4)[0])
        found = kernel_product_vectors(state)
        assert sepengine._all_kernel_terms(state, found) is not None
        # every term is genuine, but one is counted twice and one is missing
        doubled = [found[0]] + found[:3]
        assert sepengine._all_kernel_terms(state, doubled) is None

    def test_term_check_failure_runs_loop(self, monkeypatch):
        m = build_separable(np.random.default_rng(21), 4, 4)[0]
        monkeypatch.setattr(sepengine, "_kernel_terms",
                            failing_once(sepengine._kernel_terms, NonGenericInput("planted")))
        searches = counting(monkeypatch, "kernel_product_vectors")
        reductions = counting(monkeypatch, "reduce_by_kernel")
        cert = decompose_rank_n(DensityState(m))
        # the first pass reduces once; the second decomposes the rest at once
        assert (len(searches), len(reductions)) == (2, 1)
        assert len(cert.terms) == 4
        assert verify_certificate(m, cert)


class TestBiorthogonal:
    def test_unique_two_term_expansion(self):
        rng = np.random.default_rng(15)
        v1 = random_product_vector(rng, 2)
        v2 = random_product_vector(rng, 2)
        m = 0.5 * v1.projector() + 0.5 * v2.projector()
        state = DensityState(m)
        verdict = biorthogonal_check(state, [v1, v2])
        assert verdict.kind is VerdictKind.SEPARABLE
        weights = sorted(w for w, _ in verdict.certificate.terms)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-10)

    def test_rank_five_separable(self):
        rng = np.random.default_rng(16)
        m, _, _ = build_separable(rng, 4, 5)
        state = DensityState(m)
        vectors = paired_products(*paired_bases(state.range_basis, state.pt_range_basis))
        verdict = biorthogonal_check(state, vectors)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verify_certificate(state, verdict.certificate)

    def test_negative_coefficient_witness(self):
        # generic spans hold no third product vector, so the instance lives
        # in a shared-e family where the span is product-rich; the mixture
        # stays PSD and PPT while one expansion coefficient is forced to -0.1
        rng = np.random.default_rng(17)
        e = rng.standard_normal(2).astype(complex)
        fs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        v1, v2, v3 = (ProductVector.from_e_f(e, f) for f in fs)
        m = v1.projector() + v2.projector() - 0.1 * v3.projector()
        assert min_eig(m) > -1e-10
        assert min_eig(partial_transpose_matrix(m, 2)) > -1e-10
        state = DensityState(m)
        verdict = biorthogonal_check(state, [v1, v2, v3])
        assert verdict.kind is VerdictKind.ENTANGLED_PPT
        assert 2 in verdict.witness["negative_indices"]
        coeff = verdict.witness["coefficients"][2]
        assert coeff.real == pytest.approx(-0.1, abs=1e-8)

    def test_negative_on_nearly_dependent_pair_is_refitted(self):
        # v3 lies 1e-4 from v1, as two close roots do, so the projectors are
        # nearly dependent and a coefficient of -5e-8 on v3 is below what a
        # witness may rest on; the fit without v3 reconstructs the state
        rng = np.random.default_rng(19)
        v1, v2 = random_product_vector(rng, 2), random_product_vector(rng, 2)
        v3 = ProductVector.from_alpha(v1.alpha + 1e-4, v1.f)
        state = DensityState(v1.projector() + v2.projector() - 5e-8 * v3.projector())
        verdict = biorthogonal_check(state, [v1, v2, v3])
        assert verdict.kind is VerdictKind.SEPARABLE
        assert [pv for _, pv in verdict.certificate.terms] == [v1, v2]
        assert verify_certificate(state, verdict.certificate)

    def test_dependent_projectors_rejected(self):
        rng = np.random.default_rng(18)
        v1 = random_product_vector(rng, 2)
        m = v1.projector() + 0.3 * np.eye(4)
        state = DensityState(m)
        with pytest.raises(DependentProjectors):
            biorthogonal_check(state, [v1, v1])


class TestPtInvariantDecompose:
    def test_maximally_mixed(self):
        for n in (2, 3):
            state = DensityState(np.eye(2 * n, dtype=complex) / (2 * n))
            cert = pt_invariant_decompose(state)
            assert verify_certificate(state, cert)

    def test_random_shifted_invariant(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 4):
            m = random_pt_invariant(rng, n)
            state = DensityState(m)
            cert = pt_invariant_decompose(state)
            assert verify_certificate(state, cert)

    def test_rank_n_delegates(self):
        rng = np.random.default_rng(20)
        n = 3
        # invariant rank-n states: real product vectors only
        m = np.zeros((6, 6), dtype=complex)
        for _ in range(n):
            e = rng.standard_normal(2).astype(complex)
            f = rng.standard_normal(n) + 1j * 0
            m += ProductVector.from_e_f(e, f).projector()
        state = DensityState(m)
        assert np.linalg.norm(state.matrix - state.pt_matrix) < 1e-12
        cert = pt_invariant_decompose(state)
        assert len(cert.terms) == n
        assert verify_certificate(state, cert)

    def test_rejects_non_invariant(self):
        rng = np.random.default_rng(21)
        m, _, _ = build_separable(rng, 2, 4)
        state = DensityState(m)
        if np.linalg.norm(state.matrix - state.pt_matrix) > 1e-6:
            with pytest.raises(NotPTInvariant):
                pt_invariant_decompose(state)

    def test_one_state_per_real_e_step(self, built_tols):
        # full rank 8 at N = 4: the symmetrized input, then one state per real-e
        # step down to rank N, where the kernel search builds none
        state = DensityState(random_pt_invariant(np.random.default_rng(3), 4))
        assert state.rank == 8
        built_tols.clear()
        cert = pt_invariant_decompose(state)
        assert len(built_tols) == 5
        assert verify_certificate(state, cert)

    def test_nested_run_skips_the_analyze_bookkeeping(self, monkeypatch):
        # analyze's own pass takes one support spectrum, which also gives the
        # borderline count, and its PT-invariant stage leaves the invariance
        # test to the decomposition
        spectra = counting(monkeypatch, "_stripped_support")
        tests = []
        real_test = sepengine.operator_norm_at_most

        def counted(m, *args, **kwargs):
            tests.append(m.shape)
            return real_test(m, *args, **kwargs)

        monkeypatch.setattr(sepengine, "operator_norm_at_most", counted)
        state = DensityState(random_pt_invariant(np.random.default_rng(3), 3))
        pt_invariant_decompose(state)
        nested, nested_spectra = len(tests), len(spectra)
        _verdict, trace = analyze(state)
        assert [s.op for s in trace.steps] == ["pt-invariant"]
        assert len(spectra) - nested_spectra == nested_spectra + 1
        # the nested run's norm tests and analyze's re-verification, no other test
        assert len(tests) - nested == nested + 1


class TestSymmetricSplit:
    def test_exactly_invariant_reduces_to_invariant_path(self):
        rng = np.random.default_rng(22)
        m = random_pt_invariant(rng, 3)
        state = DensityState(m)
        verdict = symmetric_split_check(state)
        assert verdict is not None and verdict.kind is VerdictKind.SEPARABLE
        assert verify_certificate(state, verdict.certificate)

    def test_premise_bounded_states_certified(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            m = split_premise_state(rng, n, target=0.8)
            state = DensityState(m)
            verdict = symmetric_split_check(state)
            assert verdict is not None
            assert verify_certificate(state, verdict.certificate)

    def test_spin_terms_keep_the_per_term_bits(self):
        # the sigma_y terms, built as one stack, equal one from_e_f per eigenvector of B
        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            state = DensityState(split_premise_state(rng, n, target=0.8))
            terms = symmetric_split_check(state).certificate.terms
            m = state.matrix
            lam_b, vec_b = np.linalg.eigh(hermitize(-0.5j * (m[:n, n:] - m[n:, :n])))
            cut = 1e-14 * max(float(np.max(np.abs(lam_b))), state.norm)
            keep = [i for i in range(n) if abs(lam_b[i]) > cut]
            assert keep
            for (w, pv), i in zip(terms[len(terms) - len(keep):], keep):
                e = np.array([1.0, -1j * (1.0 if lam_b[i] >= 0 else -1.0)], dtype=complex)
                ref = ProductVector.from_e_f(e, vec_b[:, i])
                assert w == float(2 * abs(lam_b[i]))
                assert pv.e.tobytes() == ref.e.tobytes() and pv.f.tobytes() == ref.f.tobytes()
                assert pv.vector.tobytes() == ref.vector.tobytes()
                assert np.complex128(pv.alpha).tobytes() == np.complex128(ref.alpha).tobytes()

    @staticmethod
    def nearly_psd_split_state():
        """A state whose least eigenvalue, -9e-10, passes psd_tol against ||rho|| = 1.

        Its symmetric part rho_s keeps that eigenvalue but has norm 1/2
        (e = (1, i)/sqrt(2) and e* average to the identity on C2), so
        rho_s alone fails the same PSD test.
        """
        e, f = np.array([1.0, 1j]) / np.sqrt(2), np.eye(3)
        terms = [(1.0, np.kron(e, f[0])), (1.0, np.kron(e, f[1])),
                 (0.3, np.kron([0, 1], f[2])), (-0.9e-9, np.kron([1, 0], f[2]))]
        return sum(w * np.outer(v, v.conj()) for w, v in terms)

    def test_state_accepted_by_density_state_does_not_raise(self):
        state = DensityState(self.nearly_psd_split_state())
        assert state.is_ppt and state.min_eigenvalue < 0
        verdict = symmetric_split_check(state)
        assert verdict is None or verify_certificate(state, verdict.certificate)

    def test_analyze_falls_back_on_it_without_raising(self, monkeypatch):
        # with the passes stopped at once, analyze runs the fallbacks on the input
        monkeypatch.setattr(sepengine, "_STAGES", (sepengine._zero_remainder, sepengine._strip))
        m = self.nearly_psd_split_state()
        verdict, trace = analyze(m)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert trace.steps[-1].op == "fallback-sufficient"
        assert verify_certificate(m, verdict.certificate)


class TestPtSymmetrizingSearch:
    def test_pt_invariant_state_needs_no_transform(self):
        rng = np.random.default_rng(25)
        state = DensityState(random_pt_invariant(rng, 2))
        verdict = pt_symmetrizing_search(state)
        assert verdict is not None and verdict.kind is VerdictKind.SEPARABLE
        assert verify_certificate(state, verdict.certificate)

    def test_constructed_transform_recovered(self):
        # a 1e-9 relative invariance defect still passes the search's 1e-8 test
        rng = np.random.default_rng(26)
        for n in range(2, 9):
            for defect in (0.0, 1e-9) * 8:
                state = DensityState(transformed_pt_invariant(rng, n, defect))
                verdict = pt_symmetrizing_search(state)
                assert verdict is not None and verdict.kind is VerdictKind.SEPARABLE
                assert verify_certificate(state, verdict.certificate)

    def test_unsymmetrizable_states_return_none(self):
        # an NPT state can never be made PT-invariant by a local transform
        assert pt_symmetrizing_search(DensityState(embedded_max_entangled(2))) is None
        # nor can a generic full-rank PPT state: 2N^2 real equations, 4 unknowns
        m, _, _ = build_separable(np.random.default_rng(30), 3, 12)
        state = DensityState(m)
        assert state.rank == 6 and state.is_ppt
        assert pt_symmetrizing_search(state) is None

    def test_transformed_state_analyzed_separable(self):
        # the passes stop on these states at N >= 4 and the symmetric split
        # fits 1 of the 40, so without the solve-based fallback all 28 with
        # N >= 4 end inconclusive; the corpus holds no such family
        swept = Counter()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            m = transformed_pt_invariant(rng, n)
            if n < 4:
                continue
            verdict, trace = analyze(m)
            assert verdict.kind is VerdictKind.SEPARABLE, seed
            assert trace.steps[-1].op == "fallback-sufficient"
            assert verify_certificate(m, verdict.certificate)
            swept[n] += 1
        assert swept == {4: 7, 5: 8, 6: 13}


class TestVerifyCertificate:
    def test_pipeline_certificate_verifies(self):
        rng = np.random.default_rng(27)
        m, _, _ = build_separable(rng, 3, 3)
        verdict, _ = analyze(m)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verify_certificate(m, verdict.certificate)

    def test_perturbed_weight_fails(self):
        rng = np.random.default_rng(28)
        m, _, _ = build_separable(rng, 3, 3)
        verdict, _ = analyze(m)
        terms = list(verdict.certificate.terms)
        terms[0] = (terms[0][0] + 1e-3, terms[0][1])
        assert not verify_certificate(m, SeparabilityCertificate(terms))

    def test_reconstruct_is_the_weighted_projector_sum(self):
        rng = np.random.default_rng(31)
        terms = [(float(w), random_product_vector(rng, 3)) for w in rng.uniform(0.1, 2, 7)]
        explicit = sum(w * pv.projector() for w, pv in terms)
        recon = SeparabilityCertificate(terms).reconstruct(6)
        assert recon.dtype == complex and recon.shape == (6, 6)
        assert np.linalg.norm(recon - explicit, 2) <= 1e-14 * np.linalg.norm(explicit, 2)

    def test_reconstruct_without_terms_is_zero(self):
        recon = SeparabilityCertificate([]).reconstruct(6)
        assert recon.dtype == complex and np.array_equal(recon, np.zeros((6, 6)))

    def test_reconstruct_refuses_vectors_of_another_size(self):
        pv = random_product_vector(np.random.default_rng(32), 3)
        with pytest.raises(ValueError, match="dimension 8"):
            SeparabilityCertificate([(1.0, pv)]).reconstruct(8)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_reconstruct_at_extreme_weights(self, scale):
        m, _, _ = build_separable(np.random.default_rng(33), 3, 4)
        cert = analyze(m)[0].certificate
        scaled = SeparabilityCertificate([(w * scale, pv) for w, pv in cert.terms])
        assert np.isfinite(scaled.reconstruct(6)).all()
        assert verify_certificate(m * scale, scaled)

    def test_empty_certificate_on_zero(self):
        assert verify_certificate(np.zeros((4, 4)), SeparabilityCertificate([]))

    def test_nonpositive_weight_rejected(self):
        rng = np.random.default_rng(29)
        pv = random_product_vector(rng, 2)
        with pytest.raises(ValueError):
            verify_certificate(pv.projector(), SeparabilityCertificate([(-1.0, pv)]))

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_nonfinite_weight_rejected(self, weight):
        pv = random_product_vector(np.random.default_rng(30), 2)
        with pytest.raises(ValueError, match="positive and finite"):
            verify_certificate(pv.projector(), SeparabilityCertificate([(weight, pv)]))

    def test_non_product_terms_rejected(self):
        # the spectral decomposition of an entangled state reconstructs it,
        # but its eigenvectors are not products of a qubit e and an f in C4
        m = horodecki_2x4(0.5)
        assert analyze(m)[0].kind is VerdictKind.ENTANGLED_PPT
        w, u = np.linalg.eigh(m)
        terms = [(float(w[i]), ProductVector.from_e_f(u[:, i], np.ones(1)))
                 for i in range(w.size) if w[i] > 1e-12]
        with pytest.raises(ValueError, match="shape"):
            verify_certificate(m, SeparabilityCertificate(terms))


@pytest.mark.parametrize("check", [
    lambda m: verify_certificate(m, SeparabilityCertificate([])),
    two_qubit_decompose,
], ids=["verify_certificate", "two_qubit_decompose"])
@pytest.mark.parametrize("matrix, message", [
    (np.zeros((0, 0)), "shape"),
    (np.eye(3), "shape"),
    (np.ones((4, 2)), "shape"),
    (np.ones(4), "2-D"),
    (np.diag([np.inf, 0, 0, 0]), "non-finite"),
    (np.diag([np.nan, 1, 1, 1]), "non-finite"),
    (np.diag([1, 1, 1, 1j * np.inf]), "non-finite"),
], ids=["empty", "odd", "non-square", "one-dimensional", "inf", "nan", "complex-inf"])
def test_raw_matrix_refused(check, matrix, message):
    with pytest.raises(ValueError, match=message):
        check(matrix)


class TestTwoQubitDecompose:
    @staticmethod
    def certified(m):
        cert = two_qubit_decompose(m)
        assert cert is not None
        assert len(cert.terms) <= 4
        assert verify_certificate(m, cert)
        # far inside the certificate bound: the phases close the quadrilateral
        # to rounding also when a triangle of it is flat, as at rank 3
        err = np.linalg.norm(cert.reconstruct(4) - m, 2)
        assert err <= 1e-13 * np.linalg.norm(m, 2)
        return cert

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3])
    def test_separable_werner(self, p):
        self.certified(werner(p))

    def test_entangled_werner_declines(self):
        # just past the boundary p = 1/3 the state is NPT, hence entangled
        assert two_qubit_decompose(werner(0.34)) is None
        assert analyze(werner(0.34))[0].kind is VerdictKind.ENTANGLED_NPT

    def test_bell_state_declines(self):
        assert two_qubit_decompose(embedded_max_entangled(2)) is None

    @pytest.mark.parametrize("m", [np.eye(4), np.diag([1.0, 0, 0, 1])],
                             ids=["identity", "diag1001"])
    def test_repeated_takagi_values(self, m):
        # every Takagi value of the identity is 1/2 after the square roots,
        # and both of diag(1,0,0,1) are 1: an SVD-based Takagi fails on these
        self.certified(m.astype(complex))

    def test_pure_product(self):
        pv = random_product_vector(np.random.default_rng(40), 2)
        self.certified(pv.projector())

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_seeded_mixtures(self, rank):
        for seed in range(20):
            self.certified(build_separable(np.random.default_rng([41, rank, seed]), 2, rank)[0])

    def test_random_ppt_states(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            self.certified(random_ppt_mixture(rng, 2))

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(43)
        for m in (werner(1 / 3), np.eye(4), random_ppt_mixture(rng, 2),
                  build_separable(rng, 2, 3)[0]):
            self.certified(m * scale)

    def test_rank_zero_gives_the_empty_certificate(self):
        zero = np.zeros((4, 4))
        for state in (zero, DensityState(zero, require_psd=False)):
            cert = two_qubit_decompose(state)
            assert cert.terms == [] and verify_certificate(state, cert)

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError, match="4 x 4"):
            two_qubit_decompose(np.eye(6))

    @pytest.mark.parametrize("matrix, message", [
        (np.diag([1.0, 1, 1, -1]), "not PSD"),
        (np.array([[0.0, 1, 0, 0]] + [[0.0] * 4] * 3), "not Hermitian"),
    ], ids=["indefinite", "single-off-diagonal-entry"])
    def test_raw_matrix_must_be_hermitian_psd(self, matrix, message):
        # a certificate of its PSD part would not verify; a state refuses it alike
        with pytest.raises(ValueError, match=message):
            two_qubit_decompose(matrix)
        with pytest.raises(ValueError, match=message):
            DensityState(matrix)


@pytest.fixture(scope="module")
def benchmark_corpus():
    """The module ``perfbench/corpus.py``, which builds the benchmark's labelled inputs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_benchmark_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # the dataclass decorator looks its module up
    spec.loader.exec_module(corpus)
    return corpus


@pytest.fixture(scope="module")
def range_enum_302_item_102(benchmark_corpus):
    """Item ``102_sep_r12_n8`` of the benchmark's range_enum corpus at seed 302.

    A separable mixture of 12 product projectors on C2 x C8, so its rank sum
    is 24 = 3N and the paired search runs once, finite.
    """
    return next(item for item in benchmark_corpus.build("range_enum", 302)
                if item.name == "102_sep_r12_n8")


class TestAnalyze:
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_benchmark_separable_item_at_every_scale(self, range_enum_302_item_102, scale):
        # the paired search must return this input's 16 product vectors at
        # every scale; a spurious 17th makes the expansion go negative, a
        # false entangled_ppt
        item = range_enum_302_item_102
        assert item.label == "separable"
        m = item.matrix * scale
        verdict, _ = analyze(m)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verify_certificate(m, verdict.certificate)

    @pytest.mark.parametrize("seed", [4242, 5150])
    def test_benchmark_two_qubit_items_separable(self, benchmark_corpus, seed):
        # every PPT state on C2 x C2 is separable (Horodecki 1996): the 16
        # range_enum (N, rank) = (2, 3) inputs and the 68 sampled_reduction
        # N = 2 inputs
        items = [item for workload in ("range_enum", "sampled_reduction")
                 for item in benchmark_corpus.build(workload, seed) if item.n == 2]
        assert len(items) == 16 + 68
        for item in items:
            assert item.label == "separable"
            verdict, _ = analyze(item.matrix)
            assert verdict.kind is VerdictKind.SEPARABLE, item.name
            assert verify_certificate(item.matrix, verdict.certificate)

    def test_two_qubit_verdict_survives_local_maps(self):
        # local unitaries, positive scaling and swapping the two basis vectors
        # of the second factor keep a separable state separable
        rng = np.random.default_rng(44)
        swap = np.kron(np.eye(2), [[0, 1], [1, 0]])
        for i in range(12):
            m = random_ppt_mixture(rng, 2) if i % 2 else build_separable(rng, 2, 2 + i % 3)[0]
            u = random_local_unitary(rng, 2)
            for variant in (u @ m @ u.conj().T, rng.uniform(1e-3, 1e3) * m, swap @ m @ swap):
                verdict, _ = analyze(variant)
                assert verdict.kind is VerdictKind.SEPARABLE
                assert verify_certificate(variant, verdict.certificate)

    def test_maximally_entangled_is_npt(self):
        verdict, trace = analyze(embedded_max_entangled(2))
        assert verdict.kind is VerdictKind.ENTANGLED_NPT
        assert verdict.witness["pt_min_eigenvalue"] < 0

    def test_no_svd_norm_on_constructive_paths(self, monkeypatch):
        # threshold tests are decided by entry brackets on these paths
        calls = []
        original = matrixcore.operator_norm

        def counting(m):
            calls.append(1)
            return original(m)

        monkeypatch.setattr(matrixcore, "operator_norm", counting)
        rng = np.random.default_rng(63)
        rank_n, _, _ = build_separable(rng, 4, 4)
        for m in (rank_n, random_pt_invariant(rng, 4)):
            verdict, _ = analyze(m)
            assert verdict.kind is VerdictKind.SEPARABLE
        assert len(calls) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_n_mixtures(self, n):
        rng = np.random.default_rng(30 + n)
        m, _, _ = build_separable(rng, n, n)
        verdict, trace = analyze(m)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert len(verdict.certificate.terms) == n
        assert verify_certificate(m, verdict.certificate)

    def test_trace_ranks_nonincreasing(self):
        rng = np.random.default_rng(31)
        m = random_ppt_mixture(rng, 3)
        verdict, trace = analyze(m)
        last = None
        for step in trace.steps:
            for ranks in (step.ranks_before, step.ranks_after):
                if ranks is None:
                    continue
                if last is not None:
                    assert sum(ranks) <= sum(last)
                last = ranks

    def test_entangled_ppt_only_with_exhaustive_flag(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            m = random_ppt_mixture(rng, int(rng.integers(2, 5)))
            verdict, trace = analyze(m)
            if verdict.kind is VerdictKind.ENTANGLED_PPT:
                assert trace.exhaustive_enumeration
                assert not trace.nonexhaustive_subtraction

    def test_spurious_dimensions_stripped(self):
        rng = np.random.default_rng(33)
        n = 4
        m = np.zeros((8, 8), dtype=complex)
        for _ in range(2):
            e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f = np.zeros(n, dtype=complex)
            f[[0, 3]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            m += ProductVector.from_e_f(e, f).projector()
        verdict, trace = analyze(m)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert any(s.op == "strip" for s in trace.steps)
        assert verify_certificate(m, verdict.certificate)

    def test_accepts_state_or_matrix(self):
        rng = np.random.default_rng(34)
        m, _, _ = build_separable(rng, 2, 2)
        v1, _ = analyze(m)
        v2, _ = analyze(DensityState(m))
        assert v1.kind == v2.kind == VerdictKind.SEPARABLE

    def test_no_false_npt_on_separable_states(self):
        # the transpose test must never fire on a constructed mixture
        rng = np.random.default_rng(35)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            count = int(rng.integers(1, 2 * n + 3))
            m, _, _ = build_separable(rng, n, count)
            assert DensityState(m).is_ppt

    def test_no_entangled_claim_on_borderline_spectra(self):
        # two nearly parallel generators park an eigenvalue on the rank
        # cutoff; the fragile integer-rank decisions must never escalate a
        # separable state to an entangled verdict
        for i in range(25):
            rng = np.random.default_rng(20_000 + i)
            eps = 1e-4
            e1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            m = ProductVector.from_e_f(e1, f1).projector()
            f2 = f1 + eps * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            m = m + ProductVector.from_e_f(e1 + eps * rng.standard_normal(2), f2).projector()
            v3 = ProductVector.from_e_f(rng.standard_normal(2) + 1j * rng.standard_normal(2),
                                        rng.standard_normal(3) + 1j * rng.standard_normal(3))
            m = m + v3.projector()
            verdict, _ = analyze(m)
            assert verdict.kind in (VerdictKind.SEPARABLE, VerdictKind.INCONCLUSIVE)
            if verdict.kind is VerdictKind.SEPARABLE:
                assert verify_certificate(m, verdict.certificate)


# A configuration near the defaults but equal to none of them, so that every
# stage still takes its usual route and a default built anywhere shows.
OWN_TOL = ToleranceConfig(rank_rel_tol=2e-9, psd_tol=2e-9, root_residual_tol=2e-8,
                          cert_recon_tol=2e-8)


def _both_fallbacks(monkeypatch):
    """A locally transformed PT-invariant state that only the symmetrizing search certifies.

    The split check still runs, but its verdict is dropped.
    """
    real = sepengine.symmetric_split_check
    monkeypatch.setattr(sepengine, "symmetric_split_check", lambda st: real(st) and None)
    return DensityState(transformed_pt_invariant(np.random.default_rng(0), 4), tol=OWN_TOL)


@pytest.fixture
def built_tols(monkeypatch):
    """The tolerances of every DensityState built while the test runs."""
    built = []
    real_init = DensityState.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.tol)
    monkeypatch.setattr(DensityState, "__init__", init)
    return built


class TestToleranceOwnership:
    """A state's ToleranceConfig is the only tolerance on every path that has a state."""

    @pytest.mark.parametrize("build, ops, stages", [
        (lambda mp: DensityState(random_pt_invariant(np.random.default_rng(3), 3), tol=OWN_TOL),
         ["pt-invariant"], {"pt_invariant_decompose", "real_e_products", "products_in_subspace"}),
        (lambda mp: DensityState(build_separable(np.random.default_rng(5), 3, 4)[0], tol=OWN_TOL),
         ["biorthogonal"], {"paired_products", "biorthogonal_check"}),
        (lambda mp: DensityState(random_ppt_mixture(np.random.default_rng(1), 4), tol=OWN_TOL),
         ["subtract-sample"] * 4 + ["fallback-sufficient"],
         {"paired_products", "symmetric_split_check"}),
        (_both_fallbacks, ["subtract-sample"] * 4 + ["fallback-sufficient"],
         {"symmetric_split_check", "pt_symmetrizing_search", "pt_invariant_decompose"}),
    ], ids=["pt-invariant", "paired-finite", "sampled-fallback",
            "both-fallbacks"])
    def test_every_built_state_and_search_carries_the_state_tol(self, monkeypatch, built_tols,
                                                                 build, ops, stages):
        state = build(monkeypatch)
        passed, called = [], set()

        def recording(module, name, tol_at):
            """Record the tolerance argument at ``tol_at``, or the tolerances of the state."""
            real = getattr(module, name)

            def fn(*args, **kwargs):
                called.add(name)
                passed.append((name, args[0].tol if tol_at is None else
                               args[tol_at] if len(args) > tol_at else kwargs["tol"]))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, fn)

        recording(productfinder, "products_in_subspace", 2)
        for name, tol_at in [("paired_products", 4), ("real_e_products", 2),
                             ("pt_invariant_decompose", None),
                             ("decompose_rank_n", None), ("biorthogonal_check", None),
                             ("symmetric_split_check", None), ("pt_symmetrizing_search", None)]:
            recording(sepengine, name, tol_at)

        _verdict, trace = analyze(state)
        assert [s.op for s in trace.steps] == ops
        assert stages <= called
        assert all(t is OWN_TOL for t in built_tols)
        assert passed and all(t is OWN_TOL for _name, t in passed), passed

    def test_raw_matrix_gets_the_defaults(self, built_tols):
        verdict, _ = analyze(random_pt_invariant(np.random.default_rng(3), 3))
        assert verdict.kind is VerdictKind.SEPARABLE
        assert built_tols and all(t == ToleranceConfig() for t in built_tols)

    def test_no_public_function_taking_a_state_has_tol(self):
        checked = []
        for module in (sepengine, productfinder):
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                params = inspect.signature(fn).parameters
                if {"state", "rho_in"} & set(params):
                    checked.append(name)
                    assert "tol" not in params, name
        assert {"analyze", "verify_certificate", "two_qubit_decompose", "decompose_rank_n",
                "pt_invariant_decompose", "biorthogonal_check", "symmetric_split_check",
                "pt_symmetrizing_search", "kernel_product_vectors",
                "kernel_product_vector"} <= set(checked)
