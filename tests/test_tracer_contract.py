"""The names ``perfbench/tracing.py`` binds in sep2n.

The benchmark's span tracer looks its functions up by name; a library
change that deletes or renames one breaks ``perfbench/run.py --trace 1``.
These checks name the missing binding at once, without running a workload.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from sep2n import cli, productfinder, sepengine
from sep2n.matrixcore import DensityState

from helpers import build_separable, embedded_max_entangled, transformed_pt_invariant

TOOL = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", TOOL)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span", tracing.SPAN_NAMES)
def test_every_traced_name_resolves(span):
    mod_name, fn_name = span.split(".")
    assert callable(getattr(tracing.MODULES[mod_name], fn_name, None)), span


def test_counted_result_types_exist():
    assert isinstance(productfinder.InfiniteFamily, type)
    assert issubclass(productfinder.NonGenericInput, Exception)


def test_run_analysis_returns_report_and_code(tmp_path):
    # the tracer's counter reads ``result[0]["timings"]["seconds"]``
    path = tmp_path / "npt.json"
    path.write_text(json.dumps(cli.state_to_json(embedded_max_entangled(2), 2)))
    doc, code = cli.run_analysis(path)
    assert isinstance(doc["timings"]["seconds"], float) and code == 2


def test_paired_counter_counts_a_sampled_family_as_infinite():
    # the sampled family is a list of samples, still told apart by its type
    eye = np.eye(6, dtype=complex)
    state = DensityState(build_separable(np.random.default_rng(5), 3, 3)[0])
    tracer = tracing.Tracer()
    with tracer.installed():
        sampled = productfinder.paired_products(eye, eye[:, :0], eye, eye[:, :0])
        finite = productfinder.paired_products(state.range_basis, state.kernel_basis,
                                               state.pt_range_basis, state.pt_kernel_basis)
    assert isinstance(sampled, productfinder.InfiniteFamily) and len(sampled) == 8
    assert type(finite) is list and len(finite) == 3
    assert tracer.calls["productfinder.paired_products"] == 2
    assert tracer.counters["productfinder.paired_products.infinite"] == 1
    assert tracer.counters["productfinder.paired_products.nongeneric"] == 0


def test_symmetrizing_counter_counts_a_returned_certificate():
    # the search returns a certificate or None; a hit is a certificate
    hit = DensityState(transformed_pt_invariant(np.random.default_rng(0), 4))
    miss = DensityState(embedded_max_entangled(2))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sepengine.pt_symmetrizing_search(hit) is not None
        assert tracer.counters["sepengine.pt_symmetrizing_search.hits"] == 1
        assert sepengine.pt_symmetrizing_search(miss) is None
    assert tracer.calls["sepengine.pt_symmetrizing_search"] == 2
    assert tracer.counters["sepengine.pt_symmetrizing_search.hits"] == 1
