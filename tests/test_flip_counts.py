"""``tools/flip_counts.py``: one line of flip counts per workload and seed."""

import importlib.util
import re
from pathlib import Path

import numpy as np

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
