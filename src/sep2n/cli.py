"""Command-line front end: analyze, generate, verify, batch.

File formats are JSON with complex numbers as [re, im] pairs and a
format_version field.  Exit codes: 0 separable, 2 NPT-entangled, 3
PPT-entangled, 4 inconclusive, 1 input/usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from .matrixcore import DensityState, ToleranceConfig, hermitize, partial_transpose_matrix
from .productfinder import ProductVector
from .sepengine import (
    REASON_REDUCTION_STALLED,
    ReductionTrace,
    SeparabilityCertificate,
    Verdict,
    VerdictKind,
    analyze,
    verify_certificate,
)

FORMAT_VERSION = 1
TOL_ENV_VAR = "SEP2N_TOL_FILE"

EXIT_CODES = {
    VerdictKind.SEPARABLE: 0,
    VerdictKind.ENTANGLED_NPT: 2,
    VerdictKind.ENTANGLED_PPT: 3,
    VerdictKind.INCONCLUSIVE: 4,
}


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON encoding helpers
# ---------------------------------------------------------------------------

def _complex_to_json(a) -> list:
    """A complex scalar or array as [re, im] pairs, nested as the array is."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _j2c(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise InputError(f"expected [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[_j2c(z) for z in row] for row in rows], dtype=complex)


def _vector_from_json(entries) -> np.ndarray:
    return np.array([_j2c(z) for z in entries], dtype=complex)


def certificate_to_json(cert: SeparabilityCertificate) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "terms": [
            {"weight": float(w), "e": _complex_to_json(pv.e), "f": _complex_to_json(pv.f)}
            for w, pv in cert.terms
        ],
    }


def certificate_from_json(data) -> SeparabilityCertificate:
    if isinstance(data, dict) and isinstance(data.get("certificate"), dict):
        data = data["certificate"]
    if not isinstance(data, dict) or "terms" not in data:
        raise InputError("no certificate terms found")
    terms = []
    for i, t in enumerate(data["terms"]):
        bad = f"bad certificate term {i}"
        try:
            weight, e, f = t["weight"], _vector_from_json(t["e"]), _vector_from_json(t["f"])
            # bools are ints; an int too large for a float overflows in isfinite
            if isinstance(weight, bool) or not (isinstance(weight, (int, float))
                                                and math.isfinite(weight)):
                raise InputError(f"{bad}: weight must be a finite number, got {json.dumps(weight)}")
            if not (e.size and f.size and np.isfinite(e).all() and np.isfinite(f).all()):
                raise InputError(f"{bad}: e and f must be nonempty with finite entries")
            terms.append((float(weight), ProductVector.from_e_f(e, f)))
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{bad}: {exc!r}") from exc
    return SeparabilityCertificate(terms)


def _trace_to_json(trace: ReductionTrace) -> dict:
    steps = []
    for s in trace.steps:
        steps.append({
            "op": s.op,
            "lam": s.lam,
            "case": s.case,
            "alpha": "inf" if (s.op.startswith(("kernel", "subtract")) and s.alpha is None)
                     else (_complex_to_json(s.alpha) if s.alpha is not None else None),
            "ranks_before": list(s.ranks_before) if s.ranks_before else None,
            "ranks_after": list(s.ranks_after) if s.ranks_after else None,
            "n_before": s.n_before,
            "n_after": s.n_after,
            "min_eig_after": list(s.min_eig_after) if s.min_eig_after else None,
            "detail": s.detail,
        })
    return {
        "steps": steps,
        "exhaustive_enumeration": trace.exhaustive_enumeration,
        "nonexhaustive_subtraction": trace.nonexhaustive_subtraction,
        "notes": list(trace.notes),
    }


# ---------------------------------------------------------------------------
# state file IO
# ---------------------------------------------------------------------------

def load_tolerances(flag_overrides: dict | None = None,
                    file_overrides: dict | None = None) -> ToleranceConfig:
    """Resolve tolerances: CLI flags > state-file overrides > env file > defaults."""
    sources = []  # (where the overrides come from, the parsed JSON), lowest priority first
    env_path = os.environ.get(TOL_ENV_VAR)
    if env_path:
        try:
            with open(env_path) as fh:
                sources.append((f"tolerance config {env_path}", json.load(fh)))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read tolerance config {env_path}: {exc}") from exc
    if file_overrides is not None:
        sources.append(("'tolerances' field of the state file", file_overrides))
    data: dict = {}
    for source, overrides in sources:
        if not isinstance(overrides, dict):
            raise InputError(f"{source} must be a JSON object, got {json.dumps(overrides)}")
        for key, value in overrides.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputError(f"{source}: {key!r} must be a number, got {json.dumps(value)}")
        data.update(overrides)
    data.update(flag_overrides or {})
    known = {f.name for f in fields(ToleranceConfig)}
    unknown = set(data) - known
    if unknown:
        raise InputError(f"unknown tolerance keys: {sorted(unknown)}")
    try:
        return ToleranceConfig(**data)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid tolerance config: {exc}") from exc


def state_to_json(matrix: np.ndarray, n: int, label: str = "",
                  tolerances: dict | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "n": int(n),
        "matrix": _complex_to_json(matrix),
    }
    if label:
        doc["label"] = label
    if tolerances:
        doc["tolerances"] = tolerances
    return doc


def load_state(path, flag_overrides: dict | None = None) -> tuple[DensityState, dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc or "n" not in doc:
        raise InputError(f"{path}: state file needs 'n' and 'matrix' fields")
    n = doc["n"]
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"{path}: bad 'n' field: {n!r} is not an integer")
    try:
        matrix = _matrix_from_json(doc["matrix"])
    except (InputError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad matrix encoding: {exc}") from exc
    if matrix.shape != (2 * n, 2 * n):
        raise InputError(f"{path}: matrix shape {matrix.shape} inconsistent with n={n}")
    tol = load_tolerances(flag_overrides, doc.get("tolerances"))
    try:
        state = DensityState(matrix, n=n, tol=tol)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return state, doc


def _write_json(path, doc: dict) -> None:
    try:
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _witness_to_json(witness: dict | None):
    if witness is None:
        return None
    out = {}
    for k, v in witness.items():
        if isinstance(v, complex):
            out[k] = _complex_to_json(v)
        elif isinstance(v, (list, tuple)):
            out[k] = [_complex_to_json(x) if isinstance(x, complex) else x for x in v]
        else:
            out[k] = v
    return out


def run_analysis(path) -> tuple[dict, int]:
    return _analysis_report(*load_state(path))


def _analysis_report(state: DensityState, doc: dict) -> tuple[dict, int]:
    """Analyze a loaded state; returns its report and exit code."""
    start = time.perf_counter()
    verdict, trace = analyze(state)
    elapsed = time.perf_counter() - start
    reverified = None
    cert = None if verdict.certificate is None else certificate_to_json(verdict.certificate)
    if verdict.kind is VerdictKind.SEPARABLE:
        # round-trip the certificate through its serialized form before
        # trusting it in the report
        reverified = verify_certificate(state, certificate_from_json(cert))
        if not reverified:
            verdict = Verdict(VerdictKind.INCONCLUSIVE, reason=REASON_REDUCTION_STALLED)
            cert = None
            trace.notes.append("serialized certificate failed re-verification")
    report = {
        "format_version": FORMAT_VERSION,
        "label": doc.get("label", ""),
        "n": state.n,
        "verdict": verdict.kind.value,
        "reason": verdict.reason,
        "ranks": {"rho": state.rank, "rho_ta": state.pt_rank},
        "certificate": cert,
        "witness": _witness_to_json(verdict.witness),
        "trace": _trace_to_json(trace),
        "warnings": list(trace.notes),
        "tolerances": state.tol.as_dict(),
        "reverified": reverified,
    }
    return {"report": report, "timings": {"seconds": elapsed}}, EXIT_CODES[verdict.kind]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_state(kind: str, n: int, rank: int | None, seed: int) -> tuple[np.ndarray, str]:
    """Deterministic test-state construction; self-checked before returning."""
    rng = np.random.default_rng(seed)
    if n < 1:
        raise InputError("n must be >= 1")
    dim = 2 * n
    if kind in ("separable", "rank-n-separable"):
        count = n if kind == "rank-n-separable" else (rank if rank is not None else dim)
        if count < 1 or count > 4 * dim:
            raise InputError(f"rank {count} out of range")
        m = np.zeros((dim, dim), dtype=complex)
        vecs = [ProductVector.from_e_f(rng.standard_normal(2) + 1j * rng.standard_normal(2),
                                       rng.standard_normal(n) + 1j * rng.standard_normal(n))
                for _ in range(count)]
        for pv in vecs:
            m += rng.uniform(0.5, 1.5) * pv.projector()
        m /= np.real(np.trace(m))
        state = DensityState(m, n=n)
        if kind == "rank-n-separable" and state.rank != n:
            raise InputError(f"generated rank {state.rank}, expected {n}; try another seed")
        if not state.is_ppt:
            raise InputError("generated separable state failed the transpose check")
        label = f"{kind} n={n} terms={count} seed={seed}"
    elif kind == "pt-invariant":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = hermitize(g)
        h = (h + partial_transpose_matrix(h, n)) / 2
        wmin = float(np.min(np.linalg.eigvalsh(h)))
        m = h + (abs(wmin) + 0.1 * np.linalg.norm(h, 2)) * np.eye(dim)
        m /= np.real(np.trace(m))
        if np.linalg.norm(m - partial_transpose_matrix(m, n), 2) > 1e-12:
            raise InputError("pt-invariant construction failed")
        label = f"pt-invariant n={n} seed={seed}"
    elif kind == "npt":
        if n < 2:
            raise InputError("npt needs n >= 2")
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0       # |0>|1st>
        vec[n + 1] = 1.0   # |1>|2nd>
        m = np.outer(vec, vec.conj())
        m /= np.real(np.trace(m))
        if float(np.min(np.linalg.eigvalsh(partial_transpose_matrix(m, n)))) >= 0:
            raise InputError("npt construction failed")
        label = f"npt n={n}"
    elif kind == "random-ppt":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw = g @ g.conj().T
        raw /= np.real(np.trace(raw))
        pt_min = float(np.min(np.linalg.eigvalsh(partial_transpose_matrix(raw, n))))
        mix = 0.0
        if pt_min < 0:
            mix = min(1.0, 1.05 * (-pt_min) / (-pt_min + 1.0 / dim))
        m = (1 - mix) * raw + mix * np.eye(dim) / dim
        if float(np.min(np.linalg.eigvalsh(partial_transpose_matrix(m, n)))) < -1e-12:
            raise InputError("random-ppt mixing failed")
        label = f"random-ppt n={n} seed={seed}"
    else:
        raise InputError(f"unknown kind {kind!r}")
    return m, label


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _parse_tol_flags(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--tol expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise InputError(f"--tol {pair!r}: {exc}") from exc
    return out


def cmd_analyze(args) -> int:
    state, doc = load_state(args.input, _parse_tol_flags(args.tol))
    out = args.report or (str(args.input) + ".report.json")
    # a report that cannot be written is refused before the analysis runs
    if not Path(out).parent.is_dir():
        raise InputError(f"cannot write {out}: directory {Path(out).parent} does not exist")
    report, code = _analysis_report(state, doc)
    _write_json(out, report)
    r = report["report"]
    print(f"{args.input}: {r['verdict']}"
          + (f" ({r['reason']})" if r["reason"] else "")
          + f"  ranks={r['ranks']['rho']},{r['ranks']['rho_ta']}"
          + (f"  terms={len(r['certificate']['terms'])}" if r["certificate"] else ""))
    return code


def cmd_generate(args) -> int:
    matrix, label = generate_state(args.kind, args.n, args.rank, args.seed)
    doc = state_to_json(matrix, args.n, label=label)
    _write_json(args.out, doc)
    print(f"wrote {args.out}: {label}")
    return 0


def cmd_verify(args) -> int:
    state, _doc = load_state(args.state)
    try:
        with open(args.certificate) as fh:
            cert_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read certificate {args.certificate}: {exc}") from exc
    if isinstance(cert_doc, dict) and "report" in cert_doc:
        cert_doc = cert_doc["report"]
    cert = certificate_from_json(cert_doc)
    try:
        ok = verify_certificate(state, cert)
    except ValueError as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        return 1
    print("certificate " + ("verifies" if ok else "FAILS reconstruction"))
    return 0 if ok else 1


def _batch_row(path: Path, out_dir: Path) -> tuple[str, str, float, str | None]:
    """Analyze one file of ``batch`` and write its report; returns its table row."""
    try:
        report, _code = run_analysis(path)
        _write_json(out_dir / (path.stem + ".report.json"), report)
        return path.name, report["report"]["verdict"], report["timings"]["seconds"], None
    except InputError as exc:
        return path.name, "error", 0.0, str(exc)
    except Exception as exc:  # one failing file must not abort the directory
        print(f"{path.name}:\n{traceback.format_exc()}", file=sys.stderr, end="")
        return path.name, "error", 0.0, f"{type(exc).__name__}: {exc}"


def cmd_batch(args) -> int:
    """Analyze a directory's state files in turn, so each file's seconds are its own."""
    directory = Path(args.directory)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    inputs = sorted(p for p in directory.glob("*.json")
                    if not p.name.endswith(".report.json"))
    out_dir = Path(args.out_dir) if args.out_dir else directory
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from exc
    results = [_batch_row(path, out_dir) for path in inputs]

    counts = Counter(verdict for _name, verdict, _s, _err in results)
    times = [seconds for _name, _verdict, seconds, err in results if err is None]
    print(f"{'file':<32} {'verdict':<16} {'seconds':>8}")
    for name, verdict, seconds, err in results:
        extra = f"  ({err})" if err else ""
        print(f"{name:<32} {verdict:<16} {seconds:>8.3f}{extra}")
    print("-" * 58)
    for verdict in sorted(counts):
        print(f"{verdict:<20} {counts[verdict]}")
    if times:
        times.sort()
        p50 = times[len(times) // 2]
        p90 = times[min(len(times) - 1, int(0.9 * len(times)))]
        print(f"timing p50={p50:.3f}s p90={p90:.3f}s max={times[-1]:.3f}s")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sep2n",
                                     description="Separability analysis on C2 x CN")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one state file")
    p.add_argument("input")
    p.add_argument("--tol", action="append", metavar="KEY=VALUE",
                   help="tolerance override (repeatable)")
    p.add_argument("--report", help="report output path (default: <input>.report.json)")

    p = sub.add_parser("generate", help="write a test state")
    p.add_argument("--kind", required=True,
                   choices=["separable", "rank-n-separable", "pt-invariant", "npt", "random-ppt"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="verify a certificate against a state")
    p.add_argument("state")
    p.add_argument("certificate")

    p = sub.add_parser("batch", help="analyze every *.json state in a directory")
    p.add_argument("directory")
    # accepted so that existing command lines keep working; it has no effect
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out-dir", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error exits 1, as 2 means NPT
        if not exc.code:
            raise
        return 1
    # looked up per call: the parser is cached, and a command patched later must run
    commands = {"analyze": cmd_analyze, "generate": cmd_generate,
                "verify": cmd_verify, "batch": cmd_batch}
    try:
        return commands[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
