"""Every exit of ``sepengine.analyze``, pinned by its full outcome.

Each test fixes the verdict kind, the reason, the sequence of trace ops,
the trace notes and both enumeration flags.  The first group runs on
natural inputs; the second reaches the remaining exits by replacing the
collaborators that ``analyze`` looks up in the ``sepengine`` namespace at
call time.
"""

import numpy as np
import pytest

from sep2n import sepengine
from sep2n.matrixcore import DensityState
from sep2n.productfinder import InfiniteFamily, NonGenericInput, ProductVector
from sep2n.sepengine import (
    REASON_INFINITE_FAMILY,
    REASON_NON_GENERIC,
    REASON_REDUCTION_STALLED,
    DependentProjectors,
    SupportViolation,
    Verdict,
    VerdictKind,
    analyze,
    verify_certificate,
)

from helpers import (
    build_separable,
    embedded_max_entangled,
    failing_once,
    horodecki_2x4,
    random_ppt_mixture,
    random_pt_invariant,
    shared_e_rank_n,
)

SEP = VerdictKind.SEPARABLE
PPT = VerdictKind.ENTANGLED_PPT
INC = VerdictKind.INCONCLUSIVE
NOT_FOUND = "kernel product vector not found despite guaranteed existence"
NEG_AFTER_SAMPLING = "negative expansion after non-exhaustive subtraction"
PAIRED_CURVE = ("paired search degenerated: singular pencil: the determinants share a "
                "self-conjugate factor, whose zeros may form a curve")
KERNEL_NOT_PSD = "kernel reduction failed: matrix is not PSD (min eigenvalue "
TWO_QUBIT_DECLINED = "two-qubit declined: concurrence > 1e-09 x trace"


def rank_n(n=3):
    return build_separable(np.random.default_rng(2), n, n)[0]


def sampled():
    """N=4, rank 8: rank sum 16 > 3N, so the paired search returns a family."""
    return build_separable(np.random.default_rng(0), 4, 8)[0]


def finite():
    """N=3, rank 4: rank sum 8 <= 3N, a finite enumeration."""
    return build_separable(np.random.default_rng(5), 3, 4)[0]


def check(result, kind, reason, ops, notes, exhaustive=False, nonexhaustive=False):
    verdict, trace = result
    assert verdict.kind is kind
    assert verdict.reason == reason
    assert [s.op for s in trace.steps] == ops
    assert trace.notes == notes
    assert trace.exhaustive_enumeration is exhaustive
    assert trace.nonexhaustive_subtraction is nonexhaustive
    return verdict, trace


def raising(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


@pytest.fixture
def no_fallbacks(monkeypatch):
    """Make the sufficient fallbacks fail, so a stop ends in its reason."""
    monkeypatch.setattr(sepengine, "symmetric_split_check", lambda *a, **k: None)
    monkeypatch.setattr(sepengine, "pt_symmetrizing_search", lambda *a, **k: None)


def negative_expansion(state, vectors):
    return Verdict(PPT, witness={"planted": len(vectors)})


# ---------------------------------------------------------------------------
# natural inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [round(0.1 * k, 1) for k in range(1, 10)])
def test_horodecki_empty_enumeration(b):
    verdict, trace = check(analyze(horodecki_2x4(b)), PPT, None, ["enumeration-empty"], [],
                           exhaustive=True)
    assert verdict.witness == {"enumerated_vectors": 0}
    assert (trace.steps[0].n_before, trace.steps[0].ranks_before) == (4, (5, 5))


def test_npt():
    check(analyze(embedded_max_entangled(3)), VerdictKind.ENTANGLED_NPT, None, ["peres"], [])


def test_base_case():
    m = build_separable(np.random.default_rng(1), 1, 2)[0]
    verdict, _ = check(analyze(m), SEP, None, ["base-case"], [])
    assert verify_certificate(m, verdict.certificate)


def test_rank_n():
    verdict, trace = check(analyze(rank_n()), SEP, None, ["rank-n-decompose"], [])
    assert len(verdict.certificate.terms) == 3
    assert trace.steps[0].detail == "terms=3"


def test_shared_e_kernel_reduce():
    # two terms share one e, so the kernel holds a curve and the one-shot declines
    m, _ = shared_e_rank_n(np.random.default_rng([3, 1]), 3)
    verdict, trace = check(analyze(m), SEP, None, ["kernel-reduce", "rank-n-decompose"], [])
    assert (trace.steps[0].case, trace.steps[0].n_after) == ("iii", 2)
    assert verify_certificate(m, verdict.certificate)


def test_two_qubit():
    m = random_ppt_mixture(np.random.default_rng(6), 2)
    verdict, trace = check(analyze(m), SEP, None, ["two-qubit"], [])
    assert trace.steps[0].detail == f"terms={len(verdict.certificate.terms)}" == "terms=4"
    assert verify_certificate(m, verdict.certificate)


def near_bell(p):
    """p |Phi+><Phi+| + (1 - p)(0.6 |01><01| + 0.4 |00><00|): rank 3, concurrence p.

    The partial transpose is negative only to second order in p, so for a
    small p the state passes the PPT test within tolerance.
    """
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return p * np.outer(phi, phi) + (1 - p) * np.diag([0.4, 0.6, 0.0, 0.0])


def test_two_qubit_natural_decline():
    # the passes stop at the decline, and nothing else may call the state entangled
    state = DensityState(near_bell(1e-5))
    assert state.is_ppt and -1e-10 < state.pt_min_eigenvalue < 0
    check(analyze(state), INC, REASON_NON_GENERIC, [], [TWO_QUBIT_DECLINED])
    assert analyze(near_bell(3e-5))[0].kind is not PPT


def kernel_reduction_not_psd(monkeypatch):
    """Rank 3 on C2 x C3 whose kernel reduction leaves a state that is not PSD.

    The first kernel search returns only its first vector, with f moved by
    1e-8 relative, so the tied subtraction overshoots; later searches, such
    as the fallbacks' own, are left alone.  Returns the matrix and its
    ``analyze`` result, whose one note is checked.
    """
    search = sepengine.kernel_product_vectors

    def perturbed(state):
        if calls:
            return search(state)
        calls.append(state)
        v = search(state)[0]
        d = [1, 1j] @ np.random.default_rng(0).standard_normal((2, v.f.size))
        return [ProductVector.from_e_f(v.e, v.f + 1e-8 * d / np.linalg.norm(d))]

    calls = []
    monkeypatch.setattr(sepengine, "kernel_product_vectors", perturbed)
    m = rank_n()
    result = analyze(m)
    notes = result[1].notes
    assert len(notes) == 1 and notes[0].startswith(KERNEL_NOT_PSD)
    return m, result


def test_kernel_reduction_not_psd(monkeypatch):
    m, result = kernel_reduction_not_psd(monkeypatch)
    verdict, _ = check(result, SEP, None, ["fallback-sufficient"], result[1].notes)
    assert verify_certificate(m, verdict.certificate)


def test_kernel_reduction_not_psd_without_fallbacks(monkeypatch, no_fallbacks):
    _, result = kernel_reduction_not_psd(monkeypatch)
    check(result, INC, REASON_NON_GENERIC, [], result[1].notes)


def test_subnormal_scale(monkeypatch):
    # entries of about 1e-311 are brought into [1/4, 1) by an even power of two first
    monkeypatch.setattr(sepengine, "symmetric_split_check", raising(AssertionError("fallback ran")))
    m = rank_n() * 1e-310
    verdict, _ = check(analyze(m), SEP, None, ["rank-n-decompose"], ["input rescaled by 2**1030"])
    assert verify_certificate(m, verdict.certificate)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_near_overflow_scale():
    # a product state whose entry is near the largest double: hermitizing halves
    # before it adds, so nothing overflows before the door rescales it
    m = np.diag([1e308, 0.0, 0.0, 0.0]).astype(complex)
    verdict, _ = check(analyze(m), SEP, None, ["strip", "base-case"],
                       ["input rescaled by 2**-1024"])
    assert verify_certificate(m, verdict.certificate)


def test_pt_invariant():
    check(analyze(random_pt_invariant(np.random.default_rng(3), 3)), SEP, None, ["pt-invariant"],
          [])


def test_finite_expansion():
    check(analyze(finite()), SEP, None, ["biorthogonal"], [], exhaustive=True)


def test_sampled_negative_expansion():
    check(analyze(sampled()), INC, REASON_REDUCTION_STALLED, ["subtract-sample"] * 4,
          [NEG_AFTER_SAMPLING], nonexhaustive=True)


def test_sampled_then_separable_expansion():
    m = random_ppt_mixture(np.random.default_rng(2), 4)
    check(analyze(m), SEP, None, ["subtract-sample"] * 4 + ["biorthogonal"], [], nonexhaustive=True)


def test_sampled_then_fallback():
    m = random_ppt_mixture(np.random.default_rng(1), 4)
    verdict, _ = check(analyze(m), SEP, None, ["subtract-sample"] * 4 + ["fallback-sufficient"],
                       [NEG_AFTER_SAMPLING], nonexhaustive=True)
    assert verify_certificate(m, verdict.certificate)


def test_stripped_then_fallback():
    # the input above on C2 x C5 with an empty fifth level: the fallbacks run on
    # its stripped support and their terms are lifted back through the 5 x 4 isometry
    m = np.zeros((10, 10), dtype=complex)
    levels = [0, 1, 2, 3, 5, 6, 7, 8]
    m[np.ix_(levels, levels)] = random_ppt_mixture(np.random.default_rng(1), 4)
    verdict, _ = check(analyze(m), SEP, None,
                       ["strip"] + ["subtract-sample"] * 4 + ["fallback-sufficient"],
                       [NEG_AFTER_SAMPLING], nonexhaustive=True)
    assert all(pv.f.shape == (5,) for _w, pv in verdict.certificate.terms)
    assert verify_certificate(m, verdict.certificate)


# ---------------------------------------------------------------------------
# exits reached through replaced collaborators
# ---------------------------------------------------------------------------

def test_support_violation(monkeypatch, no_fallbacks):
    # the one-shot decomposition declines, and the reduction meets the same failure
    monkeypatch.setattr(sepengine, "_kernel_terms", raising(SupportViolation("planted")))
    check(analyze(rank_n()), INC, REASON_NON_GENERIC, [],
          ["support violation during kernel reduction"])


def test_support_violation_on_pt_invariant_route(monkeypatch):
    # the nested kernel reductions of the PT-invariant stage and of both
    # fallbacks stop on the violation; none of them lets it escape analyze.
    # After two samples the ranges are equal and of dimension N + 1, so a
    # pair sits at every real e: the paired search refuses that curve
    monkeypatch.setattr(sepengine, "_kernel_terms", raising(SupportViolation("planted")))
    check(analyze(random_pt_invariant(np.random.default_rng(3), 3)), INC, REASON_NON_GENERIC,
          ["subtract-sample"] * 2, [PAIRED_CURVE], nonexhaustive=True)


def test_kernel_search_misses_rank_n(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "kernel_product_vectors", lambda *a, **k: [])
    check(analyze(rank_n()), INC, REASON_NON_GENERIC, [],
          [f"constructive decomposition degenerated: {NOT_FOUND}"])


def test_kernel_search_raises_on_rank_n(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "kernel_product_vectors", raising(NonGenericInput("planted")))
    check(analyze(rank_n()), INC, REASON_NON_GENERIC, [],
          ["constructive decomposition degenerated: planted"])


def test_kernel_reduction_raises_on_rank_n(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "_kernel_terms", raising(NonGenericInput("planted")))
    check(analyze(rank_n()), INC, REASON_NON_GENERIC, [],
          ["constructive decomposition degenerated: planted"])


def test_kernel_search_misses_with_transpose_rank_mismatch(monkeypatch, no_fallbacks):
    state = DensityState(rank_n())
    monkeypatch.setattr(state, "pt_rank", 4)
    monkeypatch.setattr(sepengine, "kernel_product_vectors", lambda *a, **k: [])
    check(analyze(state), INC, REASON_NON_GENERIC, [],
          ["rank 3 equals support but transpose rank is 4",
           f"constructive decomposition degenerated: {NOT_FOUND}"])


def test_two_qubit_declines(monkeypatch, no_fallbacks):
    # a decline ends the passes: the paired search never sees N = 2
    monkeypatch.setattr(sepengine, "two_qubit_decompose", lambda *a, **k: None)
    monkeypatch.setattr(sepengine, "paired_products", raising(AssertionError("paired search ran")))
    m = build_separable(np.random.default_rng(0), 2, 3)[0]
    check(analyze(m), INC, REASON_NON_GENERIC, [], [TWO_QUBIT_DECLINED])


def test_paired_search_nongeneric(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "paired_products", raising(NonGenericInput("planted")))
    check(analyze(finite()), INC, REASON_NON_GENERIC, [], ["paired search degenerated: planted"])


def test_dependent_projectors(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "biorthogonal_check", raising(DependentProjectors("planted")))
    check(analyze(finite()), INC, REASON_NON_GENERIC, [], ["dependent projectors: planted"])


def test_exhaustive_negative_expansion(monkeypatch):
    monkeypatch.setattr(sepengine, "biorthogonal_check", negative_expansion)
    verdict, trace = check(analyze(finite()), PPT, None, ["biorthogonal"], [], exhaustive=True)
    assert verdict.witness == {"planted": int(trace.steps[0].detail.split("=")[1])}


def always_borderline(monkeypatch):
    """Make every support spectrum read as borderline."""
    real = sepengine._stripped_support
    monkeypatch.setattr(sepengine, "_stripped_support", lambda state: (*real(state)[:2], 1))


def test_borderline_empty_enumeration(monkeypatch, no_fallbacks):
    always_borderline(monkeypatch)
    check(analyze(horodecki_2x4(0.5)), INC, REASON_NON_GENERIC, [],
          ["empty enumeration discarded: borderline rank decisions"])


def test_borderline_negative_expansion(monkeypatch, no_fallbacks):
    always_borderline(monkeypatch)
    monkeypatch.setattr(sepengine, "biorthogonal_check", negative_expansion)
    check(analyze(finite()), INC, REASON_NON_GENERIC, [],
          ["negative expansion discarded: borderline rank decisions"])


def test_empty_enumeration_after_sampling(monkeypatch, no_fallbacks):
    real = sepengine.paired_products

    def paired(h1, c1, h2, c2, tol=None):
        # empty once the rank sum has come down to 3N = 12
        return real(h1, c1, h2, c2, tol) if h1.shape[1] + h2.shape[1] > 12 else []

    monkeypatch.setattr(sepengine, "paired_products", paired)
    check(analyze(sampled()), INC, REASON_REDUCTION_STALLED, ["subtract-sample"] * 4,
          ["empty enumeration after non-exhaustive subtraction"], nonexhaustive=True)


def test_infinite_family_without_subtractable_sample(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "paired_products", lambda *a, **k: InfiniteFamily([]))
    check(analyze(sampled()), INC, REASON_INFINITE_FAMILY, [], [])


def test_infinite_family_below_threshold(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "paired_products", lambda *a, **k: InfiniteFamily([]))
    check(analyze(finite()), INC, REASON_INFINITE_FAMILY, [],
          ["infinite family below the 3N threshold (non-generic)"])


def test_sample_subtraction_fails(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "subtract", raising(ValueError("planted")))
    check(analyze(sampled()), INC, REASON_INFINITE_FAMILY, [],
          ["sample subtraction failed: planted"])


def test_nongeneric_outranks_infinite_family(monkeypatch, no_fallbacks):
    # rank 4 > N = 3, so a failed kernel search only records its reason
    monkeypatch.setattr(sepengine, "kernel_product_vectors", raising(NonGenericInput("planted")))
    monkeypatch.setattr(sepengine, "paired_products", lambda *a, **k: InfiniteFamily([]))
    check(analyze(finite()), INC, REASON_NON_GENERIC, [],
          ["infinite family below the 3N threshold (non-generic)"])


def test_term_check_fails_once(monkeypatch):
    # the one-shot declines; the first vector reduces, and the next pass decomposes at once
    monkeypatch.setattr(sepengine, "_kernel_terms",
                        failing_once(sepengine._kernel_terms, NonGenericInput("planted")))
    verdict, _ = check(analyze(rank_n()), SEP, None, ["kernel-reduce", "rank-n-decompose"], [])
    assert len(verdict.certificate.terms) == 3


def test_failed_certificate_reverification(monkeypatch):
    monkeypatch.setattr(sepengine, "verify_certificate", lambda *a, **k: False)
    check(analyze(rank_n()), INC, REASON_REDUCTION_STALLED, ["rank-n-decompose"],
          ["certificate failed re-verification; downgrading"])


def test_pass_limit(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "MAX_PIPELINE_PASSES", 2)
    check(analyze(sampled()), INC, REASON_REDUCTION_STALLED, ["subtract-sample"] * 2, [],
          nonexhaustive=True)


def test_pt_invariant_failure_records_reason(monkeypatch, no_fallbacks):
    monkeypatch.setattr(sepengine, "pt_invariant_decompose", raising(NonGenericInput("planted")))
    monkeypatch.setattr(sepengine, "paired_products", lambda *a, **k: InfiniteFamily([]))
    check(analyze(random_pt_invariant(np.random.default_rng(3), 3)), INC, REASON_NON_GENERIC, [],
          [])


def test_zero_remainder(monkeypatch):
    def to_zero(state, candidates):
        zero = DensityState(np.zeros_like(state.matrix), require_psd=False)
        return zero, 1.0, "iii", candidates[0]

    monkeypatch.setattr(sepengine, "subtract", to_zero)
    monkeypatch.setattr(sepengine, "verify_certificate", lambda *a, **k: True)
    verdict, _ = check(analyze(sampled()), SEP, None, ["subtract-sample"], [], nonexhaustive=True)
    assert len(verdict.certificate.terms) == 1
