"""Two SHA-256 digests per benchmark workload over ``analyze`` records.

Run from the repository root:

    python3 tools/record_digest.py --seeds 301 302 --scales 1 1e150 1e-150

For every workload of ``perfbench/corpus.py``, seed and input scale, each
corpus matrix is multiplied by the scale and passed to ``sepengine.analyze``.
The record of a call holds the verdict kind, the reason, every certificate
term (weight as a float hex string, the exact bytes of e and f, alpha), the
witness and the whole reduction trace (every step field and note), with
every float written exactly.  A call that raises is recorded by its
exception type and message.  Two checkouts print the same full digest for
a workload exactly when every record of it is bit-identical, so comparing
the output of this script in both checkouts checks that a change keeps
every result.

The second digest hashes, in the same order, only each call's verdict kind
and reason (or its exception type).  It is equal in two checkouts exactly
when no input's verdict moved; equal verdict counts are not enough, since
moves in opposite directions cancel.

Below each workload's digests follows one line per input labelled
``separable`` that ``analyze`` calls ``entangled_ppt``, naming its seed,
scale and corpus item, so two checkouts' outputs also say which known false
verdicts a change added or removed.
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


def records(matrix: np.ndarray) -> tuple[str, str, sepengine.VerdictKind | None]:
    """The full record of one ``analyze`` call, its verdict record and verdict kind.

    The kind is None for a call that raised.
    """
    try:
        verdict, trace = sepengine.analyze(matrix)
    except Exception as exc:  # a raising call is part of the record
        return f"raised {type(exc).__name__}: {exc}", f"raised {type(exc).__name__}", None
    return canonical((verdict, trace)), canonical((verdict.kind, verdict.reason)), verdict.kind


def record(matrix: np.ndarray) -> str:
    return records(matrix)[0]


def digests(inputs) -> tuple[str, str, list[str]]:
    """Full-record and verdict digests over ``(name, label, matrix)`` inputs, in order.

    The third value lists the names of the inputs labelled separable that
    ``analyze`` calls entangled_ppt.
    """
    full, verdicts = hashlib.sha256(), hashlib.sha256()
    false_ppt = []
    for name, label, matrix in inputs:
        line, verdict, kind = records(matrix)
        full.update(line.encode() + b"\n")
        verdicts.update(verdict.encode() + b"\n")
        if label == corpus.SEPARABLE and kind is sepengine.VerdictKind.ENTANGLED_PPT:
            false_ppt.append(name)
    return full.hexdigest(), verdicts.hexdigest(), false_ppt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[301])
    parser.add_argument("--scales", type=float, nargs="+", default=[1.0])
    args = parser.parse_args(argv)
    for workload in sorted(corpus.CORPORA):
        inputs = []
        for seed in args.seeds:
            items = corpus.build(workload, seed)
            inputs += [(f"seed {seed} scale {scale:g} {item.name}", item.label, item.matrix * scale)
                       for scale in args.scales for item in items]
        full, verdicts, false_ppt = digests(inputs)
        print(f"{workload:<18} {len(inputs):>5} {full} {verdicts}")
        for name in false_ppt:
            print(f"{workload:<18} entangled_ppt on separable: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
