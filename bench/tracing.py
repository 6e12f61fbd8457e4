"""Spans around the calls into each luequiv module, patched in from outside.

Each target is patched where its caller looks it up (a module global, a
class attribute, ``numpy.linalg.svd``), so the library needs no hooks.  A
target that no longer exists is recorded as absent instead of failing, and
every patch is undone when the ``Tracer.installed`` block exits.

A span is ``[check_id, span_id, parent_id, layer, start, end, work]``; spans
stay in memory until the run ends.  A layer's self time is the sum of its
spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time

import numpy as np

# (layer, owner path, attribute): owner is a module or class under luequiv
TARGETS = (
    ("matfile.load", "luequiv.cli", "load_matrix"),
    ("equivalence.check", "luequiv.cli", "check_equivalence"),
    ("states.validate", "luequiv.equivalence", "validate_density"),
    ("spectral.eig", "luequiv.equivalence", "eig_hermitian"),
    ("spectral.degeneracy", "luequiv.equivalence", "degeneracy_profile"),
    ("spectral.rank_one", "luequiv.equivalence", "rank_one_test"),
    ("spectral.rank_one", "luequiv.decompose", "rank_one_test"),
    ("search.run", "luequiv.equivalence", "run_search"),
    ("search.seed", "luequiv.search", "discrete_seeds"),
    ("search.descent", "luequiv.search", "coordinate_descent"),
    ("equivalence.align", "luequiv.equivalence.PhaseContext", "align_pass"),
    ("equivalence.block_align", "luequiv.equivalence.BlockContext", "align_pass"),
    ("equivalence.objective", "luequiv.equivalence.PhaseContext", "eval_full"),
    ("equivalence.objective", "luequiv.equivalence.BlockContext", "eval_full"),
    ("equivalence.line", "luequiv.equivalence.PhaseContext", "eval_coord_batch"),
    ("equivalence.line", "luequiv.equivalence.BlockContext", "eval_coord_batch"),
    ("decompose.factor", "luequiv.equivalence", "factor_full"),
    ("equivalence.verify", "luequiv.equivalence", "verify_witness"),
    ("linalg.svd", "numpy.linalg", "svd"),
)
ROOT = "cli"
LAYERS = tuple(dict.fromkeys([ROOT] + [t[0] for t in TARGETS]))
# a restart succeeds at the default --tol-rank 1e-7: f <= rank_tol^2
RESTART_SUCCESS_F = 1e-14


def _resolve(path: str):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def _svd_mbytes(args, kwargs) -> float:
    a = args[0] if args else kwargs.get("a")
    shape = np.shape(a)
    if len(shape) < 2:
        return 0.0
    return 16.0 * float(np.prod(shape)) / 1e6


class Tracer:
    """Collects spans for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.check_id = -1
        self.absent: list[str] = []
        self._stack: list[list] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer
            work = None
            if layer == "equivalence.line":
                # the greedy quarter-turn pass is seeding work, not line search
                if any(s[3] == "search.seed" for s in stack):
                    name = "search.seed"
                work = len(args[3]) if len(args) > 3 else len(kwargs["values"])
            elif layer == "linalg.svd":
                work = _svd_mbytes(args, kwargs)
            parent = stack[-1][1] if stack else None
            span = [self.check_id, len(spans), parent, name, 0.0, 0.0, work]
            spans.append(span)
            stack.append(span)
            span[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if layer == "search.descent" and isinstance(out, tuple) and len(out) > 1:
                span[6] = int(out[1] <= RESTART_SUCCESS_F)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        undo = []
        patched = set()
        try:
            for layer, owner_path, attr in TARGETS:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    continue
                undo.append((owner, attr, attr in vars(owner), fn))
                setattr(owner, attr, self._wrap(layer, fn))
                patched.add(layer)
            self.absent = [layer for layer in LAYERS if layer != ROOT and layer not in patched]
            yield self
        finally:
            for owner, attr, own, fn in reversed(undo):
                if own:
                    setattr(owner, attr, fn)
                else:
                    delattr(owner, attr)

    @contextlib.contextmanager
    def check(self, check_id: int):
        """The root span of one check: the call into ``luequiv.cli.main``."""
        self.check_id = check_id
        span = [check_id, len(self.spans), None, ROOT, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        span[4] = time.perf_counter()
        try:
            yield
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: spans, self seconds, and summed work annotations."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] is not None:
                child_time[s[2]] += s[5] - s[4]
        out = {layer: {"calls": 0, "self_s": 0.0, "work": 0.0} for layer in LAYERS}
        for s in self.spans:
            t = out[s[3]]
            t["calls"] += 1
            t["self_s"] += (s[5] - s[4]) - child_time[s[1]]
            if s[6] is not None:
                t["work"] += s[6]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(
                {
                    "fields": ["check", "span", "parent", "layer", "start", "end", "work"],
                    "absent": self.absent,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def layer_metrics(totals: dict[str, dict[str, float]], checks: int, overhead_frac: float) -> dict:
    """The per-layer metrics, each a mean per check, as name -> (value, unit)."""

    def per(layer, key):
        return totals[layer][key] / checks

    restarts = totals["search.descent"]["calls"]
    return {
        "equivalence.align_passes": (per("equivalence.align", "calls"), "count"),
        "equivalence.align_s": (per("equivalence.align", "self_s"), "s"),
        "equivalence.block_align_passes": (per("equivalence.block_align", "calls"), "count"),
        "equivalence.block_align_s": (per("equivalence.block_align", "self_s"), "s"),
        "equivalence.line_evals": (per("equivalence.line", "calls"), "count"),
        "equivalence.line_s": (per("equivalence.line", "self_s"), "s"),
        "equivalence.objective_evals": (per("equivalence.objective", "calls"), "count"),
        "equivalence.objective_s": (per("equivalence.objective", "self_s"), "s"),
        "search.seed_s": (per("search.seed", "self_s"), "s"),
        "search.seed_evals": (per("search.seed", "work"), "count"),
        "search.restarts": (restarts / checks, "count"),
        "search.restart_success_ratio": (
            totals["search.descent"]["work"] / restarts if restarts else 0.0, "ratio"),
        "search.descent_self_s": (per("search.descent", "self_s"), "s"),
        "search.run_self_s": (per("search.run", "self_s"), "s"),
        "linalg.svd_calls": (per("linalg.svd", "calls"), "count"),
        "linalg.svd_s": (per("linalg.svd", "self_s"), "s"),
        "linalg.svd_mbytes_computed": (per("linalg.svd", "work"), "MB"),
        "spectral.eig_s": (per("spectral.eig", "self_s"), "s"),
        "spectral.degeneracy_s": (per("spectral.degeneracy", "self_s"), "s"),
        "spectral.rank_one_calls": (per("spectral.rank_one", "calls"), "count"),
        "spectral.rank_one_s": (per("spectral.rank_one", "self_s"), "s"),
        "states.validate_s": (per("states.validate", "self_s"), "s"),
        "decompose.factor_s": (per("decompose.factor", "self_s"), "s"),
        "equivalence.verify_s": (per("equivalence.verify", "self_s"), "s"),
        "equivalence.check_self_s": (per("equivalence.check", "self_s"), "s"),
        "matfile.load_s": (per("matfile.load", "self_s"), "s"),
        "cli.self_s": (per(ROOT, "self_s"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
