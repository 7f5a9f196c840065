"""Seeded, labelled corpus of states on C2 x CN for the sep2n benchmark.

Every input is built here from numpy alone; the library under test only
ever receives the finished matrices.  Labels come from the construction,
never from the program:

- ``separable``: mixtures of product projectors, states equal to their
  partial transpose (separable on C2 x CN), and PPT states with N <= 3
  (Horodecki 1996);
- ``ppt_entangled``: P. Horodecki's 1997 family on C2 x C4;
- ``npt``: states whose partial transpose has a clearly negative eigenvalue;
- ``unlabelled``: random PPT mixtures with N >= 4, whose status is unknown.

Basis index is ``i*N + k`` (qubit index i, second-factor index k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

SEPARABLE = "separable"
PPT_ENTANGLED = "ppt_entangled"
NPT = "npt"
UNLABELLED = "unlabelled"

# Eigenvalues below this share of the largest do not count toward a rank; a
# mixture that falls short of its intended rank is drawn again, so neither
# the label nor the family rests on a borderline rank.
RANK_GAP = 1e-6
HORODECKI_B = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class Item:
    """One labelled input: ``family`` names the construction, ``n`` the size."""

    name: str
    family: str
    n: int
    label: str
    matrix: np.ndarray


def _pt(m: np.ndarray, n: int) -> np.ndarray:
    out = m.copy()
    out[:n, n:] = m[n:, :n]
    out[n:, :n] = m[:n, n:]
    return out


def _eig_rank(m: np.ndarray) -> int:
    w = np.abs(np.linalg.eigvalsh(m))
    return int(np.count_nonzero(w > RANK_GAP * w.max()))


def _cvec(rng, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def separable_mixture(rng, n: int, terms: int) -> np.ndarray:
    """Unit-trace mixture of ``terms`` random product projectors of full rank."""
    while True:
        m = np.zeros((2 * n, 2 * n), dtype=complex)
        for _ in range(terms):
            v = np.kron(_cvec(rng, 2), _cvec(rng, n))
            v /= np.linalg.norm(v)
            m += rng.uniform(0.5, 1.5) * np.outer(v, v.conj())
        if _eig_rank(m) == min(terms, 2 * n) and _eig_rank(_pt(m, n)) == min(terms, 2 * n):
            return m / np.real(np.trace(m))


def pt_invariant(rng, n: int) -> np.ndarray:
    """Full-rank state equal to its partial transpose."""
    dim = 2 * n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    h = (h + _pt(h, n)) / 2
    wmin = float(np.min(np.linalg.eigvalsh(h)))
    m = h + (abs(wmin) + 0.1 * np.linalg.norm(h, 2)) * np.eye(dim)
    return m / np.real(np.trace(m))


def random_ppt(rng, n: int) -> np.ndarray:
    """Random full-rank state mixed with white noise until its transpose is PSD."""
    dim = 2 * n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    raw = g @ g.conj().T
    raw /= np.real(np.trace(raw))
    pt_min = float(np.min(np.linalg.eigvalsh(_pt(raw, n))))
    mix = 0.0
    if pt_min < 0:
        mix = min(1.0, 1.05 * (-pt_min) / (-pt_min + 1.0 / dim))
    return (1 - mix) * raw + mix * np.eye(dim) / dim


def horodecki_2x4(b: float) -> np.ndarray:
    """P. Horodecki's PPT-entangled state on C2 x C4, 0 < b < 1."""
    m = np.zeros((8, 8))
    for k in range(4):
        m[k, k] = b
    for k in range(3):
        m[k, 5 + k] = m[5 + k, k] = b
        m[5 + k, 5 + k] = b
    s = np.sqrt(1 - b * b) / 2
    m[4, 4] = m[7, 7] = (1 + b) / 2
    m[4, 7] = m[7, 4] = s
    return m.astype(complex) / (7 * b + 1)


def npt_state(rng, n: int) -> np.ndarray:
    """Random entangled pure state plus 10% white noise; the transpose is not PSD."""
    dim = 2 * n
    while True:
        v = _cvec(rng, dim)
        v /= np.linalg.norm(v)
        m = 0.9 * np.outer(v, v.conj()) + 0.1 * np.eye(dim) / dim
        if float(np.min(np.linalg.eigvalsh(_pt(m, n)))) < -1e-3:
            return m


def _horodecki(rng, b: float | None = None) -> np.ndarray:
    """The state at ``b``, or at a ``b`` drawn from HORODECKI_B."""
    return horodecki_2x4(HORODECKI_B[rng.integers(len(HORODECKI_B))] if b is None else b)


def _spec(family, size, label, count, make, **kw):
    return family, size, label, count, partial(make, **kw)


# (family, N, label, count, maker) per workload.  Each corpus holds at least
# 110 requests, so that at least ten samples lie beyond p90.  The counts put
# p50 and p90 inside families whose latency does not depend on the seed's
# mix of verdicts, and keep one pass over the corpus to a few seconds.
CORPORA = {
    "constructive": [
        *[_spec("rank_n", n, SEPARABLE, 33, separable_mixture, n=n, terms=n) for n in (4, 6, 8)],
        *[_spec("pt_invariant", n, SEPARABLE, 4, pt_invariant, n=n) for n in (4, 6, 8)],
    ],
    "range_enum": [
        *[_spec(f"sep_r{rank}", n, SEPARABLE, count, separable_mixture, n=n, terms=rank)
          for n, rank, count in ((2, 3, 16), (3, 4, 16), (4, 5, 16), (4, 6, 16), (6, 8, 16),
                                 (6, 9, 16), (8, 10, 3), (8, 12, 5))],
        *[_spec("horodecki", 4, PPT_ENTANGLED, 1, _horodecki, b=b) for b in HORODECKI_B],
    ],
    "sampled_reduction": [
        *[_spec("sep_r2n", n, SEPARABLE, count, separable_mixture, n=n, terms=2 * n)
          for n, count in ((2, 34), (4, 12), (6, 12), (8, 2))],
        # every PPT state on C2 x C2 is separable (Horodecki 1996).  Few at
        # N=6: a separable verdict there costs 40% more than an inconclusive
        # one, so their seed-dependent mix would move p90.
        *[_spec("random_ppt", n, SEPARABLE if n <= 3 else UNLABELLED, count, random_ppt, n=n)
          for n, count in ((2, 34), (4, 12), (6, 2), (8, 2))],
    ],
    # consecutive pairs of one family form one directory of the batch; the
    # counts (all even) put p50 among horodecki/rank_n N=4 and p90 in the
    # middle of sep_r2n N=4, the slowest family
    "cli_batch": [
        _spec("npt", 3, NPT, 30, npt_state, n=3),
        _spec("npt", 4, NPT, 30, npt_state, n=4),
        _spec("rank_n", 3, SEPARABLE, 28, separable_mixture, n=3, terms=3),
        _spec("rank_n", 4, SEPARABLE, 24, separable_mixture, n=4, terms=4),
        _spec("horodecki", 4, PPT_ENTANGLED, 24, _horodecki),
        _spec("pt_invariant", 3, SEPARABLE, 16, pt_invariant, n=3),
        _spec("pt_invariant", 4, SEPARABLE, 14, pt_invariant, n=4),
        _spec("sep_r2n", 3, SEPARABLE, 14, separable_mixture, n=3, terms=6),
        _spec("sep_r2n", 4, SEPARABLE, 44, separable_mixture, n=4, terms=8),
    ],
}


def build(workload: str, seed: int, scale: float = 1.0) -> list[Item]:
    """The labelled corpus of one workload; identical for identical arguments.

    ``scale`` multiplies every family's count (at least one each); the
    benchmark's smoke test uses it to run at tiny sizes.
    """
    rng = np.random.default_rng([seed, sorted(CORPORA).index(workload)])
    items = []
    for family, n, label, count, make in CORPORA[workload]:
        for _ in range(max(1, round(count * scale))):
            name = f"{len(items):03d}_{family}_n{n}"
            items.append(Item(name, family, n, label, make(rng)))
    return items
