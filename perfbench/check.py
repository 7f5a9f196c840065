"""Independent check of sep2n outputs against the corpus labels.

Certificates are re-checked here from their terms alone: rho is rebuilt as
``sum_i w_i |e_i f_i><e_i f_i|`` with numpy and the relative operator-norm
error is compared with ``cert_recon_tol``.  ``sep2n.verify_certificate`` is
never called.

Every input ends in one of three outcomes:

- ``correct``: ``separable`` with a certificate that passes the re-check on
  an input not labelled entangled, or an entangled verdict that matches
  the label;
- ``failed``: the call raised, a certificate failed the re-check, or the
  verdict contradicts the label;
- ``undecided``: ``inconclusive``, or an entangled-PPT verdict on an
  unlabelled input.  Neither correct nor failed.

Unlabelled inputs are PPT by construction, so ``entangled_npt`` on them is
a failure.

A failure of kind ``false_entangled_ppt`` is the known defect of the
enumeration (an ``entangled_ppt`` verdict on a separable input); it is
counted in ``failed`` but does not make the run incorrect.  Every other
kind of failure does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from corpus import NPT, PPT_ENTANGLED, SEPARABLE, UNLABELLED

SEP, NPT_V, PPT_V, INC = "separable", "entangled_npt", "entangled_ppt", "inconclusive"
KNOWN_DEFECT = "false_entangled_ppt"


@dataclass(frozen=True)
class Outcome:
    status: str          # "correct", "failed" or "undecided"
    failure: str = ""    # kind of failure when status == "failed"


def reconstruction_error(rho: np.ndarray, terms) -> float:
    """Relative operator-norm error of ``sum w |e (x) f><e (x) f|`` against rho.

    ``terms`` holds ``(weight, e, f)`` triples; a nonpositive or non-finite
    weight gives an infinite error.
    """
    recon = np.zeros_like(rho, dtype=complex)
    for weight, e, f in terms:
        if not (np.isfinite(weight) and weight > 0):
            return float("inf")
        v = np.kron(np.asarray(e, dtype=complex), np.asarray(f, dtype=complex))
        recon += weight * np.outer(v, v.conj())
    scale = float(np.linalg.norm(rho, 2))
    return float(np.linalg.norm(rho - recon, 2)) / scale


def classify(label: str, verdict: str, cert_error: float | None, cert_tol: float) -> Outcome:
    """Outcome of one verdict; ``verdict`` is ``"raised"`` when the call raised."""
    if verdict == "raised":
        return Outcome("failed", "raised")
    if verdict == SEP:
        if cert_error is None or not cert_error <= cert_tol:
            return Outcome("failed", "certificate_rejected")
        if label in (SEPARABLE, UNLABELLED):
            return Outcome("correct")
        return Outcome("failed", "separable_on_entangled")
    if verdict == NPT_V:
        return Outcome("correct") if label == NPT else Outcome("failed", "false_entangled_npt")
    if verdict == PPT_V:
        if label == PPT_ENTANGLED:
            return Outcome("correct")
        if label == SEPARABLE:
            return Outcome("failed", KNOWN_DEFECT)
        if label == NPT:
            return Outcome("failed", "missed_npt")
        return Outcome("undecided")
    if verdict == INC:
        return Outcome("failed", "missed_npt") if label == NPT else Outcome("undecided")
    return Outcome("failed", f"unknown_verdict:{verdict}")


def library_terms(certificate):
    """``(weight, e, f)`` triples from a ``SeparabilityCertificate``."""
    return [(w, pv.e, pv.f) for w, pv in certificate.terms]


def report_terms(report: dict):
    """``(weight, e, f)`` triples parsed from a report's JSON certificate."""
    def vec(pairs):
        return np.array([complex(re, im) for re, im in pairs])
    return [(float(t["weight"]), vec(t["e"]), vec(t["f"]))
            for t in report["certificate"]["terms"]]
