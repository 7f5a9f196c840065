"""Rank-N inputs that the benchmark corpus lacks, through ``analyze`` at three scales.

A PPT state of rank N on C2 x CN is separable, a sum of N product
projectors whose f's form a basis.  Seven families stress the closed-form
block split where M has repeated eigenvalues or the first block A is
singular:

- generic: N random product projectors;
- shared e: the first two terms share one e, so M has a repeated eigenvalue;
- equal e: every term has the same e, so M is a multiple of the identity;
- conjugate e: the second e is the complex conjugate of the first, so two
  eigenvalues of M share their real part, also in the turned qubit basis;
- e = |0>: one term has e = |0>, so M has the eigenvalue 0;
- e = |1>: one term has e = |1>, so A is singular and S holds that term;
- e near |1>: one e lies within 1e-7 of |1>, so A is singular only up to
  rounding.  The B entry of that term, 1e-7 of its weight, may lie within
  ``cert_recon_tol``; then the Schur complement takes the term, plus one
  more term of about that size, and the certificate holds N + 1 terms;

and each of them again under a random local unitary U (x) V.  Each input is
analyzed at scales 1, 1e150 and 1e-150 and must end ``separable`` in one
``rank-n-decompose`` step of N terms (N + 1 allowed near |1>), with a
certificate that re-verifies against the scaled input, after no
product-vector search and with no DensityState built beyond the input's.
"""

import numpy as np
import pytest

from sep2n import matrixcore, productfinder
from sep2n.sepengine import VerdictKind, analyze, verify_certificate

from helpers import random_local_unitary

SCALES = (1.0, 1e150, 1e-150)
PER_FAMILY = 40


def _cvec(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _mixture(rng, es):
    """Weighted product projectors of the rows of ``es`` with random complex f's."""
    m = sum(rng.uniform(0.5, 1.5) * np.outer(v, v.conj())
            for v in (np.kron(e, _cvec(rng, len(es))) for e in es))
    return m / np.real(np.trace(m))


def _generic(rng, n):
    return [_cvec(rng, 2) for _ in range(n)]


def _shared_e(rng, n):
    es = _generic(rng, n)
    es[1] = es[0]
    return es


def _conjugate_e(rng, n):
    es = _generic(rng, n)
    es[1] = es[0].conj()
    return es


def _equal_e(rng, n):
    return [_cvec(rng, 2)] * n


def _one_e(e):
    return lambda rng, n: _generic(rng, n - 1) + [np.array(e, dtype=complex)]


FAMILIES = {"generic": _generic, "shared_e": _shared_e, "conjugate_e": _conjugate_e,
            "equal_e": _equal_e,
            "e0": _one_e([1, 0]), "e1": _one_e([0, 1]), "near_e1": _one_e([1e-7, 1])}


@pytest.fixture
def counted(monkeypatch):
    """Count product-vector searches and DensityState constructions."""
    calls = {"products_in_subspace": 0, "DensityState": 0}
    search, build = productfinder.products_in_subspace, matrixcore.DensityState.__init__

    def searched(*args, **kwargs):
        calls["products_in_subspace"] += 1
        return search(*args, **kwargs)

    def built(self, *args, **kwargs):
        calls["DensityState"] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(productfinder, "products_in_subspace", searched)
    monkeypatch.setattr(matrixcore.DensityState, "__init__", built)
    return calls


@pytest.mark.parametrize("rotated", [False, True], ids=["product_basis", "local_unitary"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rank_n_family_splits_at_once_at_every_scale(family, rotated, counted):
    rng = np.random.default_rng([7, *family.encode()])
    for i in range(PER_FAMILY):
        n = int(rng.integers(2, 9))
        m = _mixture(rng, FAMILIES[family](rng, n))
        if rotated:
            w = random_local_unitary(rng, n)
            m = w @ m @ w.conj().T
        for scale in SCALES:
            counted.update(dict.fromkeys(counted, 0))
            verdict, trace = analyze(scale * m)
            assert verdict.kind is VerdictKind.SEPARABLE, (i, n, scale, verdict.reason, trace.notes)
            assert [s.op for s in trace.steps] == ["rank-n-decompose"], (i, n, scale)
            assert len(verdict.certificate.terms) in ((n, n + 1) if family == "near_e1" else (n,))
            assert verify_certificate(scale * m, verdict.certificate)
            assert counted == {"products_in_subspace": 0, "DensityState": 1}
