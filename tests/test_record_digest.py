"""``tools/record_digest.py``: exact record text and a repeatable digest."""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_digest.py"
_spec = importlib.util.spec_from_file_location("record_digest", TOOL)
record_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_digest)

canonical = record_digest.canonical
record = record_digest.record
corpus = record_digest.corpus


class TestCanonical:
    def test_signed_zeros_differ(self):
        assert canonical(0.0) != canonical(-0.0)
        assert canonical(complex(0.0, 0.0)) != canonical(complex(0.0, -0.0))
        assert canonical(np.array([0.0])) != canonical(np.array([-0.0]))

    def test_arrays_one_ulp_apart_differ(self):
        a = np.array([1.0 + 2.0j, 0.3 - 0.1j])
        b = a.copy()
        b[1] = complex(np.nextafter(b[1].real, 1.0), b[1].imag)
        assert canonical(a) != canonical(b)
        assert canonical(a) == canonical(a.copy())
        assert canonical(float(a[1].real)) != canonical(float(b[1].real))

    def test_real_and_imaginary_parts_differ(self):
        assert canonical(complex(1.0, 2.0)) != canonical(complex(2.0, 1.0))
        assert canonical(np.complex128(1.0)) != canonical(np.complex128(1.0j))
        assert canonical(np.array([1.0 + 0.0j])) != canonical(np.array([1.0j]))


def test_raising_input_is_recorded_by_its_exception():
    line = record(np.ones((3, 3), dtype=complex))
    assert line == "raised ValueError: density matrix must be 2N x 2N, got shape (3, 3)"


def test_digest_over_corpus_items_repeats():
    items = [item for item in corpus.build("constructive", 301, scale=0.05) if item.n <= 4]
    assert items

    def digest():
        h = hashlib.sha256()
        for item in items:
            h.update(record(item.matrix).encode())
            h.update(b"\n")
        return h.hexdigest()

    assert digest() == digest()


def test_verdict_digest_moves_only_with_a_verdict(monkeypatch):
    items = [item for item in corpus.build("constructive", 301, scale=0.05) if item.n <= 4]
    outcomes = [record_digest.sepengine.analyze(item.matrix) for item in items]
    i = next(i for i, (v, _) in enumerate(outcomes) if v.certificate and v.certificate.terms)
    verdict, trace = outcomes[i]

    def digests(changed):
        calls = iter(outcomes[:i] + [(changed, trace)] + outcomes[i + 1:])
        monkeypatch.setattr(record_digest.sepengine, "analyze", lambda matrix: next(calls))
        return record_digest.digests([(item.name, item.label, item.matrix) for item in items])

    full, verdicts, _ = digests(verdict)
    (w, pv), *rest = verdict.certificate.terms
    one_ulp = dataclasses.replace(verdict, certificate=dataclasses.replace(
        verdict.certificate, terms=[(float(np.nextafter(w, 2 * w)), pv)] + rest))
    full_cert, verdicts_cert, _ = digests(one_ulp)
    assert full_cert != full and verdicts_cert == verdicts
    kind = dataclasses.replace(verdict, kind=record_digest.sepengine.VerdictKind.INCONCLUSIVE)
    full_kind, verdicts_kind, _ = digests(kind)
    assert full_kind != full and verdicts_kind != verdicts


def test_names_separable_inputs_called_entangled_ppt(monkeypatch, capsys):
    items = [item for item in corpus.build("constructive", 301, scale=0.05) if item.n <= 4][:3]
    items[1] = dataclasses.replace(items[1], label=corpus.NPT)
    verdict, trace = record_digest.sepengine.analyze(items[0].matrix)
    kinds = record_digest.sepengine.VerdictKind

    def analyze(matrix):
        # entangled_ppt at scale 1 only, whatever the label
        kind = kinds.ENTANGLED_PPT if np.trace(matrix).real < 2.0 else kinds.SEPARABLE
        return dataclasses.replace(verdict, kind=kind), trace

    monkeypatch.setattr(record_digest.sepengine, "analyze", analyze)
    monkeypatch.setattr(corpus, "CORPORA", {"constructive": corpus.CORPORA["constructive"]})
    monkeypatch.setattr(corpus, "build", lambda workload, seed: items)
    assert record_digest.main(["--seeds", "301", "302", "--scales", "1", "1e150"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["constructive", "12"]
    prefix = "constructive       entangled_ppt on separable: "
    assert lines[1:] == [f"{prefix}seed {seed} scale 1 {items[i].name}"
                         for seed in (301, 302) for i in (0, 2)]


# The full and the verdict digest of each workload at seed 4242 and scale 1.
# A change that moves any bit of a record changes its workload's full digest,
# and one that moves any verdict, in either direction, also its verdict
# digest; such a change updates the pin and says why in CHANGES.md.  Like the
# golden reports, the digests assume numpy 2.4 on x86-64.
PINNED_DIGESTS = {
    "cli_batch": ("0ffe79833a24840fdbf099cfc1286d2c81a82e4afc92807b3e0b043fb73b5ac1",
                  "0d1584e871c63da0723236e86ec4c47049d88a04ab1e2f8dddaa5eba5d22b5a5"),
    "constructive": ("0a9bb80fc683e8b30138bc7677976e788a091439554032fa71429005c53fa16b",
                     "be7ee14461032367f2f8b5ad2a32fd6bcc27a9374966de035ece3877c3133db1"),
    "range_enum": ("53fe95f43db6cca3e0e96c3244eb9d942a62e3379dce0990f54df693200eba60",
                   "46771c7ef8c8427bb75462d9215a4bd5b7e4d48c41f21891e10b2a6e1072649d"),
    "sampled_reduction": ("88296839230cf3baf4fe27f35925f4c53147cfb846e355c70ca2bcdbdf10e023",
                          "5d3742aa20ba00ff9f829e9a070524732e74525e400686c0d6b6b5460da6ae16"),
}


def test_verdict_digests_are_pinned():
    assert sorted(corpus.CORPORA) == sorted(PINNED_DIGESTS)
    got = {workload: record_digest.digests([(item.name, item.label, item.matrix)
                                            for item in corpus.build(workload, 4242)])[:2]
           for workload in PINNED_DIGESTS}
    assert got == PINNED_DIGESTS
