"""Benchmark of sep2n: labelled corpus, four workloads, optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload range_enum --seed 1 --seconds 20 --trace 0

The corpus is generated from ``--seed`` (see ``corpus.py``).  Load comes
from one process: one closed-loop caller of ``sepengine.analyze`` for the
library workloads, and ``sep2n batch --jobs 2`` through ``cli.main`` for
``cli_batch``, where one request is one batch over a directory of two state
files followed by ``sep2n verify`` on each separable report.  Every output is
checked independently (``check.py``).

``--trace 0`` measures the end-to-end metrics.  Requests cycle over the
corpus until ``--seconds`` have passed and every request ran at least
``MIN_REPEATS`` times.  After every request a fixed numpy reference task
runs, and every request time is rescaled by ``REF_UNIT_S / t_ref``, with
``t_ref`` the median time of the reference runs nearest to it.  That
cancels the speed drift of a shared machine, which reaches tens of percent
between minutes; the raw wall times are printed beside the rescaled ones.  A request's
latency is the median of its rescaled times, so p50 and p90 are taken over
one value per request (at least 110 per corpus, so at least ten lie beyond
p90), and ``states_per_s`` is the corpus size over the sum of the request
latencies.  Set-up time is rescaled the same way.

``--trace 1`` alternates untraced and traced passes over the corpus and
reports per-layer metrics per pass, raw, together with the tracing
overhead.  In both modes the behaviour guard holds: every input gets the
same verdict on every pass, traced or not, and set-up rebuilds identical
inputs from the seed; a breach makes the run incorrect.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "sep2n" / "__init__.py").is_file():
    sys.exit(f"error: no sep2n sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402
from sep2n import cli, matrixcore, sepengine  # noqa: E402

MIN_REPEATS = 3
REF_WINDOW = 25
SETUP_REPEATS = 9
BATCH_JOBS = 2
FILES_PER_BATCH = 2
# Typical time of one ReferenceTask.run() on the machine the benchmark was
# calibrated on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4 on
# OpenBLAS), so rescaled times read as times on that machine.
REF_UNIT_S = 6.3e-4


class ReferenceTask:
    """Fixed numpy and interpreter work whose time tracks the machine's speed.

    It mirrors the mix inside sep2n (small complex eigendecompositions and
    SVDs, Kronecker products, Python arithmetic) but never calls sep2n, so a
    change to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = []
        for _ in range(8):
            g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            self.mats.append(g + g.conj().T)

    def run(self) -> float:
        """Do the fixed work once; returns its wall time."""
        t0 = time.perf_counter()
        acc = 0.0
        for m in self.mats:
            w, v = np.linalg.eigh(m)
            s = np.linalg.svd(m[:, :6], compute_uv=False)
            x = np.kron(v[:2, 0], v[:, 1])
            acc += float(w[0]) + float(s[0]) + abs(np.vdot(x, x))
            for k in range(10):
                acc += k * 0.5
        return time.perf_counter() - t0


class Result(NamedTuple):
    """Verdict of one input and what the check needs to judge it."""

    verdict: str
    terms: list | None = None
    cli_verify_ok: bool = True


# ---------------------------------------------------------------------------
# requests: one analyze call, or one batch over a directory plus verifies
# ---------------------------------------------------------------------------

def analyze_request(item) -> dict:
    try:
        verdict, _trace = sepengine.analyze(item.matrix)
    except Exception:  # counted as a failed input; the run goes on
        traceback.print_exc(file=sys.stderr)
        return {item.name: Result("raised")}
    terms = check.library_terms(verdict.certificate) if verdict.certificate else None
    return {item.name: Result(verdict.kind.value, terms)}


def write_state(path: Path, item) -> None:
    """State file in the CLI's format, written here so inputs never change with the program."""
    doc = {"format_version": 1, "n": item.n, "label": item.name,
           "matrix": [[[z.real, z.imag] for z in row] for row in item.matrix.tolist()]}
    path.write_text(json.dumps(doc))


def batch_request(directory: Path) -> dict:
    """``sep2n batch --jobs 2`` on a directory, then ``sep2n verify`` per separable report."""
    out = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["batch", str(directory), "--jobs", str(BATCH_JOBS)])
        for state in sorted(directory.glob("*.state.json")):
            name = state.name[:-len(".state.json")]
            report_path = directory / f"{name}.state.report.json"
            if not report_path.exists():
                out[name] = Result("raised")
                continue
            report = json.loads(report_path.read_text())["report"]
            verdict = report["verdict"]
            if verdict == check.SEP:
                ok = cli.main(["verify", str(state), str(report_path)]) == 0
                out[name] = Result(verdict, check.report_terms(report), ok)
            else:
                out[name] = Result(verdict)
    return out


class Workload:
    """The corpus of one workload, its requests, and the verdicts seen so far."""

    def __init__(self, name: str, seed: int, scale: float, work_dir: Path):
        self.name = name
        self.items = corpus.build(name, seed, scale)
        self.by_name = {item.name: item for item in self.items}
        self.results: dict[str, Result] = {}
        self.violations: list[str] = []
        if name != "cli_batch":
            self.requests = [(analyze_request, item) for item in self.items]
            self.groups = [(item.family, item.n) for item in self.items]
            return
        self.requests, self.groups = [], []
        for k in range(0, len(self.items), FILES_PER_BATCH):
            d = work_dir / f"batch_{k:03d}"
            d.mkdir(parents=True)
            chunk = self.items[k:k + FILES_PER_BATCH]
            for item in chunk:
                write_state(d / f"{item.name}.state.json", item)
            self.requests.append((batch_request, d))
            self.groups.append((chunk[0].family, chunk[0].n))

    def request(self, index: int, results: dict | None = None) -> float:
        """Run one request; returns its wall time and flags verdicts that changed."""
        results = self.results if results is None else results
        fn, arg = self.requests[index]
        t0 = time.perf_counter()
        out = fn(arg)
        elapsed = time.perf_counter() - t0
        for name, res in out.items():
            first = results.setdefault(name, res)
            if first.verdict != res.verdict:
                self.violations.append(f"{name}: {first.verdict} then {res.verdict}")
        return elapsed

    def run_pass(self, results: dict | None = None) -> float:
        return sum(self.request(i, results) for i in range(len(self.requests)))


def setup(name: str, seed: int, scale: float, work_dir: Path, reference: ReferenceTask):
    """Build the corpus and its files, then warm up; repeated.

    Each repeat writes to a fresh directory, and the previous one is removed
    outside the timed part.  Returns the workload and the median set-up time,
    rescaled by the median reference time between repeats and raw.
    """
    durations, refs, violations, workload, first = [], [], [], None, None
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = Workload(name, seed, scale, work_dir / f"setup_{k}")
        workload.request(0)
        durations.append(time.perf_counter() - t0)
        refs.append(reference.run())
        shutil.rmtree(work_dir / f"setup_{k - 1}", ignore_errors=True)
        matrices = [item.matrix for item in workload.items]
        if first is not None and not all(
                (a == b).all() for a, b in zip(first, matrices, strict=True)):
            violations.append("the same seed built different inputs")
        first = matrices
    workload.results.clear()
    workload.violations.extend(violations)
    setup_raw = statistics.median(durations)
    return workload, (setup_raw * REF_UNIT_S / statistics.median(refs), setup_raw)


# ---------------------------------------------------------------------------
# checking and reporting
# ---------------------------------------------------------------------------

def judge(workload: Workload, results: dict):
    """Outcome of every input, failure counts by kind, and the run's ``correct`` flag."""
    tol = matrixcore.ToleranceConfig().cert_recon_tol
    outcomes = {}
    for name, res in results.items():
        item = workload.by_name[name]
        err = None if res.terms is None else check.reconstruction_error(item.matrix, res.terms)
        outcome = check.classify(item.label, res.verdict, err, tol)
        if outcome.status != "failed" and not res.cli_verify_ok:
            outcome = check.Outcome("failed", "cli_verify_rejected")
        outcomes[name] = outcome
    failures = Counter(o.failure for o in outcomes.values() if o.status == "failed")
    for violation in workload.violations:
        print(f"behaviour guard: {violation}")
    correct = (set(outcomes) == set(workload.by_name) and not workload.violations
               and set(failures) <= {check.KNOWN_DEFECT})
    return outcomes, failures, correct


def print_verdicts(workload: Workload, results: dict, outcomes: dict, failures: Counter) -> dict:
    n = len(outcomes)
    status = Counter(o.status for o in outcomes.values())
    verdicts = Counter(r.verdict for r in results.values())
    shares = {"decided_correct_share": status["correct"] / n, "failed_share": status["failed"] / n}
    print(f"verdicts {dict(sorted(verdicts.items()))}")
    print(f"decided_correct_share {shares['decided_correct_share']:.4f} (n={n})")
    print(f"failed_share {shares['failed_share']:.4f} (n={n}) {dict(sorted(failures.items()))}")
    per_family = Counter((workload.by_name[k].family, workload.by_name[k].n, r.verdict)
                         for k, r in results.items())
    for (fam, size, verdict), count in sorted(per_family.items()):
        print(f"  {fam:<13} n={size:<2} {verdict:<14} {count}")
    return {"verdicts": verdicts, **shares}


def as_metrics(table: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}


def end_to_end(workload: Workload, seconds: float, setup: tuple, reference: ReferenceTask):
    n_req = len(workload.requests)
    log = []  # (request index, request time, reference time) in run order
    runs = [0] * n_req
    start = time.perf_counter()
    while runs[-1] < MIN_REPEATS or time.perf_counter() - start < seconds:
        index = len(log) % n_req
        log.append((index, workload.request(index), reference.run()))
        runs[index] += 1
    wall = time.perf_counter() - start
    outcomes, failures, correct = judge(workload, workload.results)

    # every request time is rescaled by the median reference time of the
    # REF_WINDOW runs on either side; a request's latency is the median of
    # its rescaled times
    ref_times = [r for _, _, r in log]
    local = [statistics.median(ref_times[max(0, k - REF_WINDOW):k + REF_WINDOW + 1])
             for k in range(len(log))]
    times = [[] for _ in range(n_req)]
    scaled = [[] for _ in range(n_req)]
    for (index, t, _), ref in zip(log, local):
        times[index].append(t)
        scaled[index].append(t * REF_UNIT_S / ref)
    latency = [statistics.median(ts) for ts in scaled]
    raw = [statistics.median(ts) for ts in times]
    setup_s, setup_raw = setup
    p90 = statistics.quantiles(latency, n=10)[-1]
    table = {
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "states_per_s": (len(workload.items) / sum(latency), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_table = {"latency_p50_ms": statistics.median(raw) * 1e3,
                 "latency_p90_ms": statistics.quantiles(raw, n=10)[-1] * 1e3,
                 "states_per_s": len(workload.items) / sum(raw), "setup_s": setup_raw}
    per_request = f"n={n_req}, median of {min(runs)}+ runs each"
    samples = {"latency_p50_ms": per_request,
               "latency_p90_ms": f"{per_request}, {sum(t > p90 for t in latency)} beyond p90",
               "states_per_s": f"{len(workload.items)} inputs over the summed latencies",
               "setup_s": f"n={SETUP_REPEATS}, median",
               "peak_rss_mb": "n=1"}
    request = "one batch plus verifies" if workload.name == "cli_batch" else "one analyze call"
    print(f"requests={n_req} ({request}) runs={len(log)} wall_s={wall:.3f} "
          f"local reference time {min(local) * 1e6:.1f}..{max(local) * 1e6:.1f}us")
    for key, (value, unit) in table.items():
        raw_note = f", raw {raw_table[key]:.6g}" if key in raw_table else ""
        print(f"{key} {value:.6g} {unit} ({samples[key]}{raw_note})")
    print_verdicts(workload, workload.results, outcomes, failures)
    groups: dict = {}
    for key, t in zip(workload.groups, latency):
        groups.setdefault(key, []).append(t * 1e3)
    for (fam, size), ts in sorted(groups.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  latency ms {fam:<13} n={size:<2} median {statistics.median(ts):8.2f} "
              f"min {min(ts):8.2f} max {max(ts):8.2f} ({len(ts)})")
    return outcomes, failures, correct, as_metrics(table)


def per_layer(workload: Workload, seconds: float):
    """Traced passes alternate with untraced ones, which give the overhead."""
    tracer = tracing.Tracer()
    traced: dict = {}
    untraced_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        untraced_s += workload.run_pass()
        with tracer.installed():
            traced_s += workload.run_pass(traced)
        passes += 1
    for name, res in workload.results.items():
        if traced[name].verdict != res.verdict:
            workload.violations.append(f"{name}: {res.verdict} untraced, "
                                       f"{traced[name].verdict} traced")
    outcomes, failures, correct = judge(workload, traced)
    summary = print_verdicts(workload, traced, outcomes, failures)

    calls, self_s, c = tracer.calls, tracer.self_s, tracer.counters

    def ratio(num, den):  # 0 when nothing was attempted
        return num / den if den else 0.0

    table = {}
    for name in tracing.SPAN_NAMES:
        table[f"{name}.calls"] = (calls[name] / passes, "count")
        table[f"{name}.self_s"] = (self_s[name] / passes, "s")
    table.update({
        "polyelim.verify_roots.candidates": (c["polyelim.verify_roots.candidates"] / passes, "count"),
        "polyelim.verify_roots.accept_ratio": (
            ratio(c["polyelim.verify_roots.accepted"], c["polyelim.verify_roots.candidates"]),
            "ratio"),
        "polyelim.univariate_roots.degree_sum": (
            c["polyelim.univariate_roots.degree_sum"] / passes, "count"),
        "productfinder.kernel_product_vector.hit_ratio": (
            ratio(c["productfinder.kernel_product_vector.hits"],
                  calls["productfinder.kernel_product_vector"]), "ratio"),
        "productfinder.paired_products.infinite": (
            c["productfinder.paired_products.infinite"] / passes, "count"),
        "productfinder.paired_products.nongeneric": (
            c["productfinder.paired_products.nongeneric"] / passes, "count"),
        "sepengine.pt_symmetrizing_search.hit_ratio": (
            ratio(c["sepengine.pt_symmetrizing_search.hits"],
                  calls["sepengine.pt_symmetrizing_search"]), "ratio"),
        "cli.batch.report_seconds_sum": (c["cli.batch.report_seconds_sum"] / passes, "s"),
        "cli.batch.wall_s": (tracer.total_s["cli.cmd_batch"] / passes, "s"),
        "trace.untraced_pass_s": (untraced_s / passes, "s"),
        "trace.traced_pass_s": (traced_s / passes, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "verdict.decided_correct_share": (summary["decided_correct_share"], "ratio"),
        "verdict.failed_share": (summary["failed_share"], "ratio"),
    })
    for kind in (check.SEP, check.NPT_V, check.PPT_V, check.INC):
        table[f"verdict.{kind}"] = (summary["verdicts"][kind], "count")

    print(f"traced passes={passes} overhead={traced_s / untraced_s:.3f}x "
          f"(untraced pass {untraced_s / passes:.3f} s, traced pass {traced_s / passes:.3f} s)")
    total_self = sum(self_s.values()) or 1.0
    for name in sorted(tracing.SPAN_NAMES, key=lambda s: -self_s[s]):
        if calls[name]:
            print(f"  {name:<40} calls/pass {calls[name] / passes:>9.1f}  "
                  f"self {self_s[name] / total_self:6.1%}")
    return outcomes, failures, correct, as_metrics(table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier of every family's count in the corpus")
    args = parser.parse_args(argv)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        reference = ReferenceTask()
        workload, setup_times = setup(args.workload, args.seed, args.scale, work_dir, reference)
        print(f"workload={args.workload} seed={args.seed} inputs={len(workload.items)} "
              f"trace={args.trace}")
        if args.trace:
            outcomes, failures, correct, metrics = per_layer(workload, args.seconds)
        else:
            outcomes, failures, correct, metrics = end_to_end(workload, args.seconds,
                                                              setup_times, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": sum(failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
