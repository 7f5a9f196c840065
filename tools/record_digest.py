"""One SHA-256 per benchmark workload over full ``analyze`` records.

Run from the repository root:

    python3 tools/record_digest.py --seeds 301 302 --scales 1 1e150 1e-150

For every workload of ``perfbench/corpus.py``, seed and input scale, each
corpus matrix is multiplied by the scale and passed to ``sepengine.analyze``.
The record of a call holds the verdict kind, the reason, every certificate
term (weight as a float hex string, the exact bytes of e and f, alpha), the
witness and the whole reduction trace (every step field and note), with
every float written exactly.  A call that raises is recorded by its
exception type and message.  Two checkouts print the same digest for a
workload exactly when every record of it is bit-identical, so comparing
the output of this script in both checkouts checks that a change keeps
every result.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
from sep2n import sepengine  # noqa: E402


def canonical(x) -> str:
    """Exact text of a record value: floats in hex, arrays as raw bytes."""
    if isinstance(x, enum.Enum):
        return repr(x.value)
    if x is None or isinstance(x, (bool, str, int)):
        return repr(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (complex, np.complexfloating)):
        return f"({float(x.real).hex()},{float(x.imag).hex()})"
    if isinstance(x, np.integer):
        return repr(int(x))
    if isinstance(x, np.ndarray):
        return f"array{x.dtype.str}{x.shape}:{x.tobytes().hex()}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k!r}:{canonical(v)}" for k, v in sorted(x.items())) + "}"
    if dataclasses.is_dataclass(x):
        fields = ",".join(f"{f.name}={canonical(getattr(x, f.name))}"
                          for f in dataclasses.fields(x))
        return f"{type(x).__name__}({fields})"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def record(matrix: np.ndarray) -> str:
    try:
        verdict, trace = sepengine.analyze(matrix)
    except Exception as exc:  # a raising call is part of the record
        return f"raised {type(exc).__name__}: {exc}"
    return canonical((verdict, trace))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[301])
    parser.add_argument("--scales", type=float, nargs="+", default=[1.0])
    args = parser.parse_args(argv)
    for workload in sorted(corpus.CORPORA):
        digest = hashlib.sha256()
        count = 0
        for seed in args.seeds:
            items = corpus.build(workload, seed)
            for scale in args.scales:
                for item in items:
                    digest.update(record(item.matrix * scale).encode())
                    digest.update(b"\n")
                    count += 1
        print(f"{workload:<18} {count:>5} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
