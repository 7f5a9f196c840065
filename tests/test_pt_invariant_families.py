"""PT-invariant inputs that the benchmark corpus lacks, through ``analyze`` at three scales.

Every state equal to its partial transpose is separable.  Four families
stress the closed-form decomposition where its blocks are singular or its
spectra sit near the rank cutoff:

- mixtures of real-e product projectors with some e = |0> or |1>, so that
  the block A or C is singular;
- rank-N real-e mixtures, whose certificate must have exactly N terms;
- full-rank states whose least eigenvalue is 1e-6 of the norm;
- real-e mixtures plus 1e-9 Tr(rho) times the identity, whose spectra are
  borderline;
- real-e mixtures in which every third e lies within 1e-7 to 1e-3 of |0>
  or |1>, so that A or C is singular only up to rounding.

Each input is analyzed at scales 1, 1e150 and 1e-150 and must end
``separable`` with a certificate that re-verifies against the scaled input.
"""

import numpy as np
import pytest

from sep2n.sepengine import VerdictKind, analyze, verify_certificate

from helpers import random_pt_invariant

SCALES = (1.0, 1e150, 1e-150)
PER_FAMILY = 75


def _real_e_mixture(rng, n, k, basis_e=False, near_basis_e=False):
    """k weighted real-e product projectors with complex f.

    With ``basis_e`` the first e is |0> or |1> and each other one is with
    probability 2/3; with ``near_basis_e`` every third e has one entry
    shrunk by a factor of 1e-7 to 1e-3.
    """
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(k):
        choice = rng.integers(3) if basis_e else 2
        if basis_e and j == 0:
            choice = rng.integers(2)
        e = np.eye(2)[choice] if choice < 2 else rng.standard_normal(2)
        if near_basis_e and j % 3 == 0:
            e[rng.integers(2)] *= 10.0 ** rng.uniform(-7, -3)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = np.kron(e, f)
        m += rng.uniform(0.1, 1.0) * np.outer(v, v.conj())
    return m / np.real(np.trace(m))


def _basis_e_mixture(rng, n):
    return _real_e_mixture(rng, n, int(rng.integers(1, 2 * n + 1)), basis_e=True)


def _rank_n_mixture(rng, n):
    return _real_e_mixture(rng, n, n)


def _near_singular(rng, n):
    return random_pt_invariant(rng, n, margin=1e-6)


def _borderline_noise(rng, n):
    m = _real_e_mixture(rng, n, int(rng.integers(1, 2 * n + 1)))
    return m + 1e-9 * np.real(np.trace(m)) * np.eye(2 * n)


def _near_basis_e(rng, n):
    return _real_e_mixture(rng, n, int(rng.integers(n, 2 * n + 1)), near_basis_e=True)


FAMILIES = {"basis_e": _basis_e_mixture, "rank_n": _rank_n_mixture,
            "near_singular": _near_singular, "borderline_noise": _borderline_noise,
            "near_basis_e": _near_basis_e}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pt_invariant_family_is_certified_at_every_scale(family, seed):
    rng = np.random.default_rng([seed, *family.encode()])
    for i in range(PER_FAMILY):
        n = int(rng.integers(2, 9))
        m = FAMILIES[family](rng, n)
        for scale in SCALES:
            verdict, trace = analyze(scale * m)
            assert verdict.kind is VerdictKind.SEPARABLE, (i, n, scale, verdict.reason, trace.notes)
            assert verify_certificate(scale * m, verdict.certificate)
            if family == "rank_n":
                assert len(verdict.certificate.terms) == n
