"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import numpy as np
import pytest

from sep2n.matrixcore import DensityState, operator_norm, partial_transpose_matrix
from sep2n.productfinder import _pencil_roots, build_paired_system, paired_products
from sep2n.sepengine import VerdictKind, analyze, symmetric_split_check, verify_certificate

from helpers import (
    build_separable,
    eig_rank,
    embedded_max_entangled,
    paired_bases,
    random_ppt_mixture,
    random_pt_invariant,
    split_premise_state,
)

SUBTRACTION_OPS = ("kernel-reduce", "subtract-sample")


def report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def suite_one():
    """50 random N-term product mixtures per N in 2..6, analyzed once."""
    out = {}
    for n in range(2, 7):
        per = []
        for i in range(50):
            rng = np.random.default_rng(1000 * n + i)
            m, gens, _ = build_separable(rng, n, n)
            state = DensityState(m)
            verdict, trace = analyze(state)
            per.append((m, state, verdict, trace))
        out[n] = per
    return out


@pytest.fixture(scope="module")
def mixed_pipeline_runs():
    """A batch of assorted inputs whose traces feed the safety criteria."""
    runs = []
    for i in range(12):
        rng = np.random.default_rng(500 + i)
        n = int(rng.integers(2, 5))
        m, _, _ = build_separable(rng, n, n)
        runs.append((m, *analyze(m)))
    for i in range(10):
        rng = np.random.default_rng(600 + i)
        n = int(rng.integers(2, 5))
        m = random_pt_invariant(rng, n)
        runs.append((m, *analyze(m)))
    for i in range(10):
        rng = np.random.default_rng(700 + i)
        n = int(rng.integers(2, 5))
        m = random_ppt_mixture(rng, n)
        runs.append((m, *analyze(m)))
    for i in range(8):
        rng = np.random.default_rng(800 + i)
        m, _, _ = build_separable(rng, 4, int(rng.integers(5, 7)))
        runs.append((m, *analyze(m)))
    return runs


def test_criterion_01_rank_n_constructive_decomposition(suite_one):
    for n, per in suite_one.items():
        for m, state, verdict, _trace in per:
            assert verdict.kind is VerdictKind.SEPARABLE, f"N={n}: {verdict}"
            assert len(verdict.certificate.terms) == n
            rec = verdict.certificate.reconstruct(2 * n)
            err = operator_norm(rec - m) / operator_norm(m)
            assert err <= 1e-8
    report(1, "rank-N mixtures decompose into exactly N verified terms (N=2..6, 50 each)")


def test_criterion_02_transpose_rank_matches(suite_one):
    for n, per in suite_one.items():
        for _m, state, _verdict, trace in per:
            assert state.pt_rank == n == eig_rank(state.pt_matrix)
            decision = next(s for s in trace.steps
                            if s.op in ("kernel-reduce", "rank-n-decompose", "base-case"))
            assert decision.ranks_before[1] == n
    report(2, "transpose rank equals N at the decision point on every suite-1 state")


def test_criterion_03_pt_invariant_states():
    for n in range(2, 6):
        for i in range(50):
            rng = np.random.default_rng(2000 * n + i)
            m = random_pt_invariant(rng, n)
            verdict, _trace = analyze(m)
            assert verdict.kind is VerdictKind.SEPARABLE, f"N={n} i={i}"
            rec = verdict.certificate.reconstruct(2 * n)
            assert operator_norm(rec - m) / operator_norm(m) <= 1e-7
    report(3, "partial-transpose-invariant states certify separable (N=2..5, 50 each)")


def test_criterion_04_bounded_asymmetry_states():
    for n in (2, 3, 4):
        for i in range(50):
            rng = np.random.default_rng(3000 * n + i)
            m = split_premise_state(rng, n, target=0.8)
            pt = partial_transpose_matrix(m, n)
            premise = (np.linalg.norm(np.linalg.inv(m + pt), 2)
                       * np.linalg.norm(m - pt, 2))
            assert premise <= 0.9
            state = DensityState(m)
            cert = symmetric_split_check(state)
            assert cert is not None
            assert verify_certificate(state, cert)
    report(4, "full-range states with bounded transpose asymmetry all certify (150 states)")


def test_criterion_05_peres_detection(suite_one):
    for n in range(2, 7):
        verdict, _ = analyze(embedded_max_entangled(n))
        assert verdict.kind is VerdictKind.ENTANGLED_NPT
    for n, per in suite_one.items():
        for _m, state, verdict, _trace in per:
            assert state.is_ppt
            assert verdict.kind is not VerdictKind.ENTANGLED_NPT
    report(5, "embedded maximally entangled states flagged NPT; zero false alarms on suite 1")


def test_criterion_07_rank_five_enumeration():
    for i in range(30):
        rng = np.random.default_rng(4000 + i)
        m, gens, _ = build_separable(rng, 4, 5)
        state = DensityState(m)
        assert (state.rank, state.pt_rank) == (5, 5)
        # 3 + 3 constraint rows compress to k1 = k2 = 2, so the pencil has
        # k1^2 + k2^2 = 8 rows and at most 8 finite candidate roots
        cs = build_paired_system(state.range_basis, state.pt_range_basis)
        assert _pencil_roots(cs).size <= 8
        found = paired_products(*paired_bases(state.range_basis, state.pt_range_basis))
        assert type(found) is list and len(found) <= 5
        for v in found:
            res1 = np.linalg.norm(v.vector - state.range_basis
                                  @ (state.range_basis.conj().T @ v.vector))
            partner = v.conjugate_partner.vector
            res2 = np.linalg.norm(partner - state.pt_range_basis
                                  @ (state.pt_range_basis.conj().T @ partner))
            assert res1 <= 1e-7 and res2 <= 1e-7
        for g in gens:
            overlap = max(abs(np.vdot(g.vector, v.vector)) for v in found)
            assert overlap >= 1 - 1e-7
    report(7, "rank-(5,5) instances: <= 8 pencil candidates, <= 5 roots, "
              "all generators recovered (30 runs)")


def _assert_safe(label, norm_before, min_eigs, drop, case):
    floor = -1e-9 * norm_before
    assert min(min_eigs) >= floor, f"{label}: eigen floor violated"
    expected = {"i": (1, 0), "ii": (0, 1), "iii": (1, 1)}[case]
    assert drop == expected, f"{label}: declared {case}, observed {drop}"


def test_criterion_11_subtraction_safety(mixed_pipeline_runs, suite_one):
    steps_checked = 0
    traces = [(m, trace) for m, _v, trace in mixed_pipeline_runs]
    traces += [(m, trace) for per in suite_one.values() for m, _s, _v, trace in per]
    for m, trace in traces:
        for step in trace.steps:
            if step.op not in SUBTRACTION_OPS:
                continue
            drop = (step.ranks_before[0] - step.ranks_after[0],
                    step.ranks_before[1] - step.ranks_after[1])
            _assert_safe(step.op, step.norm_before, step.min_eig_after, drop, step.case)
            steps_checked += 1
    # a rank-N certificate is N tied subtractions: each term alone leaves the
    # state and its transpose positive, with both ranks one lower
    for per in suite_one.values():
        for m, state, verdict, _trace in per:
            for weight, pv in verdict.certificate.terms:
                after = DensityState(m - weight * pv.projector(), require_psd=False)
                drop = (state.rank - after.rank, state.pt_rank - after.pt_rank)
                _assert_safe("certificate term", state.norm,
                             (after.min_eigenvalue, after.pt_min_eigenvalue), drop, "iii")
                steps_checked += 1
    assert steps_checked >= 400
    report(11, f"positivity floor and rank trichotomy hold on {steps_checked} subtractions")


def test_criterion_12_verdict_honesty(mixed_pipeline_runs, suite_one):
    separable = entangled_ppt = 0
    everything = [(m, v, t) for m, v, t in mixed_pipeline_runs]
    everything += [(m, v, t) for per in suite_one.values() for m, _s, v, t in per]
    for m, verdict, trace in everything:
        if verdict.kind is VerdictKind.SEPARABLE:
            assert verify_certificate(m, verdict.certificate)
            separable += 1
        elif verdict.kind is VerdictKind.ENTANGLED_PPT:
            assert trace.exhaustive_enumeration
            assert not trace.nonexhaustive_subtraction
            entangled_ppt += 1
    assert separable >= 250
    report(12, f"all {separable} certificates re-verify; "
               f"{entangled_ppt} PPT-entangled verdicts all carry the exhaustive flag")
