"""How many ``analyze`` verdicts move under transforms that must not move them.

Run from the repository root:

    python3 tools/flip_counts.py --seeds 4242 5150

For every workload of ``perfbench/corpus.py`` and every seed, each corpus
matrix is passed to ``sepengine.analyze`` as built and once under each
transform below; a flip is an input whose verdict kind differs from the
one it gets as built (a call that raises counts as its own kind).  None of
the transforms changes whether a state is separable, so every count should
be 0.

- ``x2``, ``x(1+2^-52)``, ``x1e150``, ``x1e-150``, ``x1e300``, ``x1e-300``:
  positive scalings, the second by one ulp;
- ``perm``: a random permutation of the C^N basis, (I2 (x) P) rho (I2 (x) P)^T;
- ``unitary``: a random local unitary U (x) V, with U and V from QR of complex
  Gaussian matrices.

The permutation and the unitary of an input are drawn from its own
generator, ``default_rng([seed, workload index, item index])``, so every
count repeats exactly.  One line per workload and seed gives the number of
inputs and the flips per transform.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
from sep2n import sepengine  # noqa: E402


SCALINGS = {"x2": 2.0, "x(1+2^-52)": 1.0 + 2.0 ** -52, "x1e150": 1e150, "x1e-150": 1e-150,
            "x1e300": 1e300, "x1e-300": 1e-300}
TRANSFORMS = (*SCALINGS, "perm", "unitary")


def transformed(rng, matrix: np.ndarray, n: int) -> list[np.ndarray]:
    """One input on C2 x CN under each transform, in the order of TRANSFORMS."""
    perm = np.kron(np.eye(2), np.eye(n)[rng.permutation(n)])
    u, v = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            for d in (2, n))
    unitary = np.kron(u, v)
    return ([scale * matrix for scale in SCALINGS.values()]
            + [perm @ matrix @ perm.T, unitary @ matrix @ unitary.conj().T])


def kind(matrix: np.ndarray) -> str:
    """The verdict kind of one ``analyze`` call, or the type of what it raised."""
    try:
        return sepengine.analyze(matrix)[0].kind.value
    except Exception as exc:  # a raising call is a verdict of its own
        return f"raised {type(exc).__name__}"


def flips(workload: str, seed: int, corpus_scale: float) -> tuple[int, dict]:
    """The number of inputs of one corpus and the flips per transform."""
    index = sorted(corpus.CORPORA).index(workload)
    counts = dict.fromkeys(TRANSFORMS, 0)
    items = corpus.build(workload, seed, scale=corpus_scale)
    for k, item in enumerate(items):
        base = kind(item.matrix)
        rng = np.random.default_rng([seed, index, k])
        for name, matrix in zip(TRANSFORMS, transformed(rng, item.matrix, item.n)):
            counts[name] += kind(matrix) != base
    return len(items), counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[4242])
    parser.add_argument("--corpus-scale", type=float, default=1.0,
                        help="multiplies every family's count, as in corpus.build")
    args = parser.parse_args(argv)
    print(f"{'workload':<18} {'seed':>6} {'inputs':>6} " + " ".join(f"{t:>10}" for t in TRANSFORMS))
    for workload in sorted(corpus.CORPORA):
        for seed in args.seeds:
            size, counts = flips(workload, seed, args.corpus_scale)
            print(f"{workload:<18} {seed:>6} {size:>6} "
                  + " ".join(f"{counts[t]:>10}" for t in TRANSFORMS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
