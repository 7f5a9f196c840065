"""``sep2n.polyelim`` is a stub that holds only the names the benchmark tracer binds.

The polynomial elimination is deleted; ``perfbench/tracing.py`` still looks
up these names, so each is bound to one function that raises.  A change to
the tracer that drops them deletes the stub, the re-export in
``productfinder`` and this file together.
"""

import pytest

from sep2n import polyelim, productfinder

from test_tracer_contract import tracing

STUB_NAMES = {*tracing.TRACED["polyelim"], "eliminate_paired"}


def test_stub_defines_exactly_the_traced_names():
    assert {name for name in vars(polyelim) if not name.startswith("_")} == STUB_NAMES
    assert productfinder.eliminate_paired is polyelim.eliminate_paired


@pytest.mark.parametrize("name", sorted(STUB_NAMES))
def test_every_stub_name_raises(name):
    with pytest.raises(NotImplementedError):
        getattr(polyelim, name)(None)
