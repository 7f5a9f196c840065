"""Verdicts on the benchmark's range_enum and constructive corpora against their construction.

An ``entangled_ppt`` verdict claims that the paired enumeration was
exhaustive, so it must never land on an input built as a separable mixture;
and every Horodecki state, PPT and entangled by construction, must get it.
Every range_enum input built as a separable mixture, at rank sum at most 3N,
and every constructive input must moreover be certified ``separable``,
unscaled and scaled far from 1.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sep2n.sepengine import VerdictKind, analyze

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
_corpus_spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
corpus = importlib.util.module_from_spec(_corpus_spec)
sys.modules[_corpus_spec.name] = corpus  # its dataclass looks the module up there
_corpus_spec.loader.exec_module(corpus)


@pytest.mark.parametrize("seed", [4242, 5150, 6607])
def test_range_enum_entangled_ppt_only_on_horodecki(seed):
    wrong = []
    for item in corpus.build("range_enum", seed):
        kind = analyze(item.matrix)[0].kind
        claimed = kind is VerdictKind.ENTANGLED_PPT
        if claimed != (item.label == corpus.PPT_ENTANGLED):
            wrong.append((item.name, kind.value))
    assert wrong == []


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("seed", [4242, 5150, 6607])
def test_range_enum_separable_inputs_are_certified(seed, scale):
    missed = []
    for item in corpus.build("range_enum", seed):
        if item.label == corpus.SEPARABLE:
            kind = analyze(item.matrix * scale)[0].kind
            if kind is not VerdictKind.SEPARABLE:
                missed.append((item.name, kind.value))
    assert missed == []


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("seed", [4242, 5150, 6607])
def test_constructive_inputs_are_certified(seed, scale):
    # rank-N and PT-invariant states: the kernel reductions alone certify them
    missed = []
    for item in corpus.build("constructive", seed):
        kind = analyze(item.matrix * scale)[0].kind
        if kind is not VerdictKind.SEPARABLE:
            missed.append((item.name, item.label, kind.value))
    assert missed == []
