"""Names kept only for ``perfbench/tracing.py``; the polynomial elimination is deleted.

The searches find roots as eigenvalues of one operator-determinant pencil
(``productfinder._pencil_roots``).  The benchmark tracer still binds the five
names below, so each is one function that raises ``NotImplementedError``.
"""


def eliminate_paired(*_args, **_kwargs):
    """Raise ``NotImplementedError``; no library path calls this."""
    raise NotImplementedError("the polynomial elimination is deleted; see productfinder._pencil_roots")


univariate_roots = verify_roots = eliminate_pair = eliminate_single = eliminate_paired
