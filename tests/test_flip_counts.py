"""``tools/flip_counts.py``: one line of flip counts per workload and seed."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from sep2n.sepengine import analyze

TOOL = Path(__file__).resolve().parent.parent / "tools" / "flip_counts.py"
_spec = importlib.util.spec_from_file_location("flip_counts", TOOL)
flip_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flip_counts)


def test_output_shape(capsys):
    workloads = sorted(flip_counts.corpus.CORPORA)
    assert flip_counts.main(["--seeds", "11", "--corpus-scale", "0.001"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "seed", "inputs", *flip_counts.TRANSFORMS]
    assert [row.split()[:2] for row in rows] == [[w, "11"] for w in workloads]
    columns = len(flip_counts.TRANSFORMS)
    for row in rows:
        inputs, *counts = (int(x) for x in row.split()[2:])
        assert inputs == len(flip_counts.corpus.CORPORA[row.split()[0]])
        assert len(counts) == columns and all(0 <= c <= inputs for c in counts)
        assert re.fullmatch(rf"\S+ +\d+ +\d+( +\d+){{{columns}}}", row)


def test_transforms_keep_the_spectrum():
    rng = np.random.default_rng(3)
    m = flip_counts.corpus.separable_mixture(rng, n=3, terms=4)
    w = np.linalg.eigvalsh(m)
    images = flip_counts.transformed(np.random.default_rng(4), m, 3)
    scales = list(flip_counts.SCALINGS.values()) + [1.0, 1.0]
    assert len(images) == len(flip_counts.TRANSFORMS)
    for image, scale in zip(images, scales):
        assert np.allclose(np.linalg.eigvalsh(image) / scale, w, atol=1e-12)


def _record(verdict, trace, j=0):
    """A record of one analysis with every trace number in units of 2**j, exactly."""
    def scaled(x):
        return None if x is None else np.ldexp(x, j).tolist()
    steps = [(s.op, s.case, s.alpha, s.ranks_before, s.ranks_after, s.n_before, s.n_after,
              s.detail, scaled(s.lam), scaled(s.norm_before), scaled(s.min_eig_after))
             for s in trace.steps]
    return (verdict.kind, verdict.reason, steps, trace.notes, trace.exhaustive_enumeration,
            trace.nonexhaustive_subtraction)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("workload", sorted(flip_counts.corpus.CORPORA))
def test_power_of_two_scaling_is_exact(workload):
    """``analyze(rho * 2**k)`` is the exact image of ``analyze(rho)`` for k = +-1000."""
    for item in flip_counts.corpus.build(workload, 4242, scale=0.05):
        verdict, trace = analyze(item.matrix)
        for k in (1000, -1000):
            image, image_trace = analyze(flip_counts.scaled(item.matrix, 2.0 ** k))
            terms = verdict.certificate.terms if verdict.certificate else []
            image_terms = image.certificate.terms if image.certificate else []
            assert len(image_terms) == len(terms), (item.name, k)
            for (w, pv), (w_image, pv_image) in zip(terms, image_terms):
                assert w_image == np.ldexp(w, k), (item.name, k)
                assert pv_image.e.tobytes() == pv.e.tobytes()
                assert pv_image.f.tobytes() == pv.f.tobytes()
            # the trace keeps the units of the rescaled state, rho * 2**(k + door)
            door = re.fullmatch(r"input rescaled by 2\*\*(-?\d+)", image_trace.notes.pop())
            assert door, (item.name, k)
            j = k + int(door.group(1))
            assert _record(image, image_trace) == _record(verdict, trace, j), (item.name, k)


@pytest.mark.parametrize("real", [True, False])
def test_invertible_factor_is_not_unitary(real):
    rng = np.random.default_rng(5)
    for d in (2, 3, 8):
        a = flip_counts._invertible(rng, d, real)
        s = np.linalg.svd(a, compute_uv=False)
        assert 0.5 <= s.min() and s.max() <= 2.0 and s.max() - s.min() > 1e-3
        assert np.isrealobj(a) == real


def test_invertible_transform_keeps_rank_and_ppt():
    # (A (x) B) rho (A (x) B)^dag of a separable rank-4 mixture on C2 x C3 is
    # again PSD and PPT of rank 4, but its spectrum moves
    m = flip_counts.corpus.separable_mixture(np.random.default_rng(3), n=3, terms=4)
    image = flip_counts.transformed(np.random.default_rng(4), m, 3)[
        flip_counts.TRANSFORMS.index("invertible")]
    assert np.allclose(image, image.conj().T, atol=1e-15)
    for x in (image, flip_counts.corpus._pt(image, 3)):
        w = np.linalg.eigvalsh(x)
        assert w[0] > -1e-12 * w[-1]
        assert np.count_nonzero(w > 1e-9 * w[-1]) == 4
    assert not np.allclose(np.linalg.eigvalsh(image), np.linalg.eigvalsh(m), atol=1e-3)
