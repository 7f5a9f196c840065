"""Soundness of the PT-invariant route under real local maps and positive scales.

A state sigma equal to its partial transpose is separable, and so is
(A (x) B) sigma (A (x) B)^dag for any invertible A and B, scaled by any
positive number.  With A real the transformed state is still equal to its
partial transpose, so ``analyze`` takes the PT-invariant stage.  The
property test asserts soundness only: the verdict is never
``entangled_ppt``, and every certificate, whether from ``analyze`` or from
``pt_invariant_decompose`` directly, re-verifies.  Its examples are
derandomized, so the run is the same every time.  A fixed set of 200 such
states must moreover all end ``separable``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from sep2n.matrixcore import DensityState
from sep2n.productfinder import NonGenericInput
from sep2n.sepengine import VerdictKind, analyze, pt_invariant_decompose, verify_certificate

from helpers import random_pt_invariant

SETTINGS = settings(max_examples=50, derandomize=True, database=None, deadline=None)


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=2, max_value=6),
       log_scale=st.floats(min_value=-150, max_value=150))
def test_mapped_pt_invariant_state_is_never_entangled_ppt(seed, n, log_scale):
    rng = np.random.default_rng(seed)
    sigma = random_pt_invariant(rng, n)
    ab = np.kron(rng.standard_normal((2, 2)),
                 rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = 10.0**log_scale * (ab @ sigma @ ab.conj().T)
    verdict, _ = analyze(m)
    assert verdict.kind is not VerdictKind.ENTANGLED_PPT
    if verdict.kind is VerdictKind.SEPARABLE:
        assert verify_certificate(m, verdict.certificate)
    try:
        cert = pt_invariant_decompose(DensityState(m))
    except (NonGenericInput, ValueError):
        return
    assert verify_certificate(m, cert)


def test_mapped_pt_invariant_states_are_separable():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        sigma = random_pt_invariant(rng, n)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ab = np.kron(a, b)
        m = 10.0 ** rng.uniform(-150, 150) * (ab @ sigma @ ab.conj().T)
        verdict, _ = analyze(m)
        assert verdict.kind is VerdictKind.SEPARABLE, (seed, verdict.reason)
        assert verify_certificate(m, verdict.certificate)
