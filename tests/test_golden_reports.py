"""Byte-exact state files and reports of ``sep2n analyze`` for a few fixed states.

Each case writes a state file with ``state_to_json`` and analyzes it with
``cli.run_analysis``.  The SHA-256 of the state file's text, and of the
report's JSON without its ``timings``, must equal the digests recorded
here.  Between them the cases hold every complex value the CLI encodes: a
state matrix with a signed zero and a subnormal entry, certificate terms,
a witness of complex expansion coefficients, ``subtract-sample`` steps at
complex alpha, and the closed-form real-e terms of a PT-invariant state.  A
change to the JSON encoding, or to any bit of a report, changes a digest.

The digests were recorded with numpy 2.4 on x86-64; another LAPACK build
may round the analysis differently.
"""

import hashlib
import json

import numpy as np
import pytest

from sep2n.cli import run_analysis, state_to_json

from helpers import (
    build_separable,
    embedded_max_entangled,
    horodecki_2x4,
    random_ppt_mixture,
    random_product_vector,
    random_pt_invariant,
)


def _npt_with_edge_entries():
    m = embedded_max_entangled(3)
    m[1, 2], m[2, 1] = 5e-324j, -5e-324j
    m[3, 4] = m[4, 3] = -0.0
    return m


def _horodecki_plus_product():
    # one product projector added to the b = 0.5 state: the enumeration finds
    # vectors, and their expansion is negative
    pv = random_product_vector(np.random.default_rng(0), 4)
    m = horodecki_2x4(0.5) + 0.05 * pv.projector()
    return m / np.real(np.trace(m))


CASES = {
    "certificate": lambda: build_separable(np.random.default_rng(3), 3, 3)[0],
    "horodecki": lambda: horodecki_2x4(0.5),
    "negative_expansion": _horodecki_plus_product,
    "npt": _npt_with_edge_entries,
    "pt_invariant": lambda: random_pt_invariant(np.random.default_rng(3), 4),
    "subtract_sample": lambda: random_ppt_mixture(np.random.default_rng(2), 4),
}

# (state file, report) digests per case
DIGESTS = {
    "certificate": ("7d466e0dc805a8a96c89c5d8f4dbed6d718d637870e71069f974fa667ebde5c3",
                    "ed9bb039bf24d9867cbea023178194b3f33b815bdf7b422197d480e06af8580c"),
    "horodecki": ("94df5b751d513a344622a3d574b2acac4aff5dac0d5e4ffb46c9ac343a5ad9f1",
                  "c7f8e9670fff60b493c409cb19aa281c46119ba16cfbd311e1b95a5c56b73025"),
    "negative_expansion": ("fef0dea653bb8560135ff81a70b7a97696849182e933e3dc3ad27719e46061c0",
                           "4b29c4e4c06a7b8e95587d99ab5472a623a52ceef953eeabb5bbd572015a7c43"),
    "npt": ("dde8509c102458ec292542027ff9365c724dc6d70ac4cfb56134edb607c89dc1",
            "d0e8f6aa17b37b0ee383dac9afdf5f90d44f4debe12f1b71ffcd9f3051391de5"),
    "pt_invariant": ("c3e2430e4148b65760ae72d2ac29553f158042757dc0ec94e43840ec85c98cc0",
                     "728ccd803b44d706c944aefae1d3a5c4046a348fcf03c98b91d884f991107082"),
    "subtract_sample": ("167dcdf9171ad8b93d635f2edf4d76ac65a762d5cd7a8c90889d8247f0cb70b3",
                        "162eb2377badfd19134fe523f1e74c5e6575672297d5423909e5fec51e4c980b"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bits(tmp_path, name):
    m = CASES[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(state_to_json(m, m.shape[0] // 2, label=name),
                               sort_keys=True, indent=2))
    doc, _code = run_analysis(path)
    report = doc["report"]
    steps = [s["op"] for s in report["trace"]["steps"]]
    if name == "certificate":
        assert report["certificate"]["terms"]
    elif name == "horodecki":
        assert report["verdict"] == "entangled_ppt" and steps == ["enumeration-empty"]
    elif name == "negative_expansion":
        assert report["verdict"] == "entangled_ppt" and steps == ["biorthogonal"]
        assert all(len(c) == 2 for c in report["witness"]["coefficients"])
    elif name == "npt":
        assert report["verdict"] == "entangled_npt"
    elif name == "pt_invariant":
        # full rank 8 at N = 4: N terms from the first block and N from the
        # Schur complement, every e real
        assert report["verdict"] == "separable" and steps == ["pt-invariant"]
        terms = report["certificate"]["terms"]
        assert len(terms) == 8 and all(im == 0 for t in terms for _re, im in t["e"])
    else:
        alphas = [s["alpha"] for s in report["trace"]["steps"] if s["op"] == "subtract-sample"]
        assert any(isinstance(a, list) and a[1] != 0 for a in alphas)
    got = (_sha(path.read_text()), _sha(json.dumps(report, sort_keys=True, indent=2)))
    assert got == DIGESTS[name]
