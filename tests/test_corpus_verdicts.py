"""Verdicts on the benchmark's corpora against their construction.

An ``entangled_ppt`` verdict claims that the paired enumeration was
exhaustive, so it must never land on an input built as a separable mixture;
and every Horodecki state, PPT and entangled by construction, must get it.
Every range_enum input built as a separable mixture, at rank sum at most 3N,
and every constructive input must moreover be certified ``separable``,
unscaled and scaled far from 1.  On the workloads whose reductions can stall,
sampled_reduction and cli_batch, the count of ``separable`` verdicts may
rise but not fall below what it is.
"""

from collections import Counter

import pytest

from sep2n.sepengine import VerdictKind, analyze

from helpers import perfbench_corpus

corpus = perfbench_corpus()


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


@pytest.mark.parametrize("workload, least", [("sampled_reduction", {corpus.SEPARABLE: 70,
                                                                    corpus.UNLABELLED: 6}),
                                              ("cli_batch", {corpus.SEPARABLE: 97})])
def test_stalling_workloads_lose_no_separable(workload, least):
    # a one-sided ratchet at seed 4242: more `separable` verdicts are welcome,
    # fewer per label fail, and a separable-labelled input is never entangled_ppt
    separable, wrong = Counter(), []
    for item in corpus.build(workload, 4242):
        kind = analyze(item.matrix)[0].kind
        separable[item.label] += kind is VerdictKind.SEPARABLE
        if item.label == corpus.SEPARABLE and kind is VerdictKind.ENTANGLED_PPT:
            wrong.append(item.name)
    assert wrong == []
    assert all(separable[label] >= count for label, count in least.items()), dict(separable)
