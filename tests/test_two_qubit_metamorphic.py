"""Metamorphic properties of ``analyze`` on C2 x C2.

Every PPT state on C2 x C2 is separable (Horodecki 1996), and an invertible
local map A (x) B or a positive scale keeps a separable state separable.
So a transformed, scaled mixture of product projectors must end
``separable`` with a certificate that re-verifies.  A tiny admixture of an
entangled pure state is NPT, separable, or PPT only within tolerance, and
must never be called ``entangled_ppt``.  The examples are derandomized, so
the run is the same every time.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from sep2n.productfinder import ProductVector
from sep2n.sepengine import VerdictKind, analyze, verify_certificate

from helpers import random_product_vector

SETTINGS = settings(max_examples=50, derandomize=True, database=None, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
counts = st.integers(min_value=1, max_value=6)
log_scales = st.floats(min_value=-150, max_value=150)


def _unitary(rng, d):
    return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]


def _invertible(rng):
    """A 2 x 2 matrix with singular values 1 and one in [0.2, 1]."""
    return _unitary(rng, 2) @ np.diag([1.0, rng.uniform(0.2, 1.0)]) @ _unitary(rng, 2)


def _mixture(rng, count, shared_e):
    """Unit-trace mixture of ``count`` product projectors, all with one e if ``shared_e``.

    A shared e puts the state on |e><e| (x) C2, where a small entangled
    admixture leaves the partial transpose negative only to second order.
    """
    vecs = [random_product_vector(rng, 2) for _ in range(count)]
    if shared_e:
        vecs = [ProductVector.from_e_f(vecs[0].e, v.f) for v in vecs]
    m = sum(rng.uniform(0.5, 1.5) * v.projector() for v in vecs)
    return m / np.real(np.trace(m))


def _local_map(rng, m, log_scale):
    ab = np.kron(_invertible(rng), _invertible(rng))
    return 10.0**log_scale * (ab @ m @ ab.conj().T)


def _entangled(rng):
    """U (x) V (cos t |00> + sin t |11>) with Schmidt angle t in [0.2, pi/4]."""
    t = rng.uniform(0.2, np.pi / 4)
    return np.kron(_unitary(rng, 2), _unitary(rng, 2)) @ np.array([np.cos(t), 0, 0, np.sin(t)])


@SETTINGS
@given(seed=seeds, count=counts, shared_e=st.booleans(), log_scale=log_scales)
def test_mapped_product_mixture_is_separable(seed, count, shared_e, log_scale):
    rng = np.random.default_rng(seed)
    m = _local_map(rng, _mixture(rng, count, shared_e), log_scale)
    verdict, _ = analyze(m)
    assert verdict.kind is VerdictKind.SEPARABLE
    assert verify_certificate(m, verdict.certificate)


@SETTINGS
@given(seed=seeds, count=counts, shared_e=st.booleans(), log_scale=log_scales,
       log_p=st.floats(min_value=-12, max_value=-4))
def test_entangled_admixture_is_never_entangled_ppt(seed, count, shared_e, log_scale, log_p):
    rng = np.random.default_rng(seed)
    psi = _entangled(rng)
    m = _mixture(rng, count, shared_e) + 10.0**log_p * np.outer(psi, psi.conj())
    m = _local_map(rng, m, log_scale)
    verdict, _ = analyze(m)
    assert verdict.kind is not VerdictKind.ENTANGLED_PPT
    if verdict.kind is VerdictKind.SEPARABLE:
        assert verify_certificate(m, verdict.certificate)
