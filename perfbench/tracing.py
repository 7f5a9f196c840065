"""Span tracing of sep2n from outside the library.

Each traced function is replaced, for the life of a ``Tracer.installed()``
block, at every module binding through which a caller can look it up (for
example ``sepengine.paired_products`` as well as
``productfinder.paired_products``), so each call passes through exactly one
wrapper.  ``DensityState`` is timed by wrapping its ``__init__``: replacing
the class would break the ``isinstance`` checks inside ``analyze``.

Spans nest on one stack per thread, because ``sep2n batch`` runs analyses on
a thread pool.  A span's self time is its duration minus the durations of
its direct children on the same thread, so the self time of
``cli.cmd_batch`` includes its wait for the pool.  Only aggregates are kept:
calls, self time, total time, and the counters that ratios need.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

from sep2n import cli, matrixcore, polyelim, productfinder, sepengine

MODULES = {
    "matrixcore": matrixcore,
    "polyelim": polyelim,
    "productfinder": productfinder,
    "sepengine": sepengine,
    "cli": cli,
}

TRACED = {
    "matrixcore": ("DensityState", "operator_norm", "numerical_rank_kernel", "psd_difference_check"),
    "polyelim": ("univariate_roots", "verify_roots", "eliminate_pair", "eliminate_single"),
    "productfinder": ("products_in_subspace", "kernel_product_vector", "build_paired_system",
                      "eliminate_paired", "paired_products", "real_e_products"),
    "sepengine": ("strip_support", "reduce_by_kernel", "subtract", "decompose_rank_n",
                  "pt_invariant_decompose", "biorthogonal_check", "symmetric_split_check",
                  "pt_symmetrizing_search", "verify_certificate", "analyze"),
    "cli": ("load_state", "run_analysis", "cmd_batch", "cmd_verify"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _count_verify_roots(counters, args, result, exc):
    if exc is None:
        counters["polyelim.verify_roots.candidates"] += len(args[0])
        counters["polyelim.verify_roots.accepted"] += len(result.roots)


def _count_univariate_roots(counters, args, result, exc):
    counters["polyelim.univariate_roots.degree_sum"] += args[0].degree


def _count_kernel_hit(counters, args, result, exc):
    counters["productfinder.kernel_product_vector.hits"] += result is not None


def _count_paired(counters, args, result, exc):
    counters["productfinder.paired_products.infinite"] += isinstance(
        result, productfinder.InfiniteFamily)
    counters["productfinder.paired_products.nongeneric"] += isinstance(
        exc, productfinder.NonGenericInput)


def _count_symmetrizing_hit(counters, args, result, exc):
    counters["sepengine.pt_symmetrizing_search.hits"] += result is not None


def _count_report_seconds(counters, args, result, exc):
    if exc is None:
        counters["cli.batch.report_seconds_sum"] += result[0]["timings"]["seconds"]


COUNTERS = {
    "polyelim.verify_roots": _count_verify_roots,
    "polyelim.univariate_roots": _count_univariate_roots,
    "productfinder.kernel_product_vector": _count_kernel_hit,
    "productfinder.paired_products": _count_paired,
    "sepengine.pt_symmetrizing_search": _count_symmetrizing_hit,
    "cli.run_analysis": _count_report_seconds,
}


class Tracer:
    """Aggregated spans and counters for the traced functions of sep2n."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(float)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += duration - frame[0]
                    self.total_s[name] += duration
                    if count is not None:
                        count(self.counters, args, result, exc)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        patches = []  # (owner, attribute, original)
        try:
            for mod_name, fns in TRACED.items():
                home = MODULES[mod_name]
                for fn_name in fns:
                    name = f"{mod_name}.{fn_name}"
                    original = getattr(home, fn_name)
                    if isinstance(original, type):
                        init = original.__init__
                        patches.append((original, "__init__", init))
                        original.__init__ = self._wrap(name, init)
                        continue
                    wrapper = self._wrap(name, original)
                    for mod in MODULES.values():
                        if getattr(mod, fn_name, None) is original:
                            patches.append((mod, fn_name, original))
                            setattr(mod, fn_name, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
