"""Span tracing installed from outside the program, around each layer's calls.

The benchmark records per-layer time without touching ``src/``: a
:class:`Tracer` replaces a layer function or method *where it is looked up*
with a wrapper that records a span, and puts every original back on
:meth:`Tracer.restore`.  A module-level function bound into several modules
by ``from ... import`` is wrapped in each of them (``markowitz_ordering`` is
looked up in ``repro.core.bf``, ``repro.core.clude`` and
``repro.query.spec``), because rebinding it in its home module would miss the
copies.

A span's *self* time is its duration minus the time covered by its direct
child spans on the same thread; layer metrics report self time, so nested
layers (a cold tier calling the executor calling Crout) never count twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Sentinel for "the class had no attribute of its own" (an inherited method).
_ABSENT = object()

#: Root span names: the benchmark's own units of work, against which layer
#: coverage and layer shares are measured.
ROOT_SPANS = ("bench.round", "serve.batch")


def _groups_found(_args, result) -> Dict[str, float]:
    return {"groups": float(result is not None)}


def _groups_resolved(_args, result) -> Dict[str, float]:
    return {"groups": float(len(result[0]))}


def _scan_accepted(_args, result) -> Dict[str, float]:
    return {"accepted": float(result is not None)}


def _solve_columns(args, _result) -> Dict[str, float]:
    block = args[2]
    return {"cols": float(block.shape[1]) if getattr(block, "ndim", 1) == 2 else 1.0}


def _plan_units(args, _result) -> Dict[str, float]:
    return {"units": float(len(args[1].units))}


def _cluster_count(_args, result) -> Dict[str, float]:
    return {"clusters": float(len(result))}


#: (module, owner attribute path, span name, counter) for every traced call.
#: An owner path with a dot names ``Class.method``; otherwise a module-level
#: function, wrapped in that module's namespace.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # serve: one admission window executed by the serving thread (a root).
    ("repro.serve.server", "MeasureServer._execute_batch", "serve.batch", None),
    # query: planning, the ladder, each tier, the shared candidate scan.
    ("repro.query.planner", "QueryPlanner.plan", "query.plan", None),
    ("repro.query.planner", "QueryPlanner.execute", "query.execute", None),
    ("repro.query.resolution", "ResolutionLadder.resolve", "query.ladder", None),
    ("repro.query.resolution", "HitTier.try_resolve", "query.tier.hit", _groups_found),
    ("repro.query.resolution", "StoreRestoreTier.try_resolve",
     "query.tier.store_restore", _groups_found),
    ("repro.query.resolution", "VerbatimReuseTier.resolve_batch",
     "query.tier.verbatim_reuse", _groups_resolved),
    ("repro.query.resolution", "CorrectedReuseTier.resolve_batch",
     "query.tier.corrected_reuse", _groups_resolved),
    ("repro.query.resolution", "RefreshTier.resolve_batch",
     "query.tier.refresh", _groups_resolved),
    ("repro.query.resolution", "ColdTier.resolve_batch", "query.tier.cold", _groups_resolved),
    ("repro.query.resolution", "CandidateScan.lookup", "query.scan", _scan_accepted),
    # policy: the corrected tier's rank choice.
    ("repro.policy.corrected", "CorrectedPolicy.correct", "policy.correct", None),
    # graphs: system deltas (ladder scoring/refresh; QC reuse imports lazily).
    ("repro.query.resolution", "system_delta", "graphs.system_delta", None),
    ("repro.graphs.matrixkind", "system_delta", "graphs.system_delta", None),
    # lu: ordering, symbolic phase, numeric phase, updates, SMW, solves.
    ("repro.core.bf", "markowitz_ordering", "lu.markowitz", None),
    ("repro.core.clude", "markowitz_ordering", "lu.markowitz", None),
    ("repro.query.spec", "markowitz_ordering", "lu.markowitz", None),
    ("repro.core.clude", "symbolic_decomposition", "lu.symbolic", None),
    ("repro.lu.crout", "symbolic_decomposition", "lu.symbolic", None),
    ("repro.core.bf", "crout_decompose", "lu.crout", None),
    ("repro.query.spec", "crout_decompose", "lu.crout", None),
    ("repro.core.clude", "crout_decompose_into", "lu.crout", None),
    ("repro.core.clude", "bennett_update", "lu.bennett", None),
    # REFRESH work units import bennett_update from its home module per call.
    ("repro.lu.bennett", "bennett_update", "lu.bennett", None),
    ("repro.query.cache", "bennett_update", "lu.bennett", None),
    ("repro.lu.smw", "WoodburyCorrector.__init__", "lu.smw_setup", None),
    ("repro.lu.smw", "WoodburyCorrector.solve_many", "lu.smw_solve", None),
    ("repro.query.spec", "solve_reordered_system_many", "lu.solve_many", _solve_columns),
    ("repro.lu.smw", "solve_reordered_system_many", "lu.solve_many", _solve_columns),
    ("repro.core.result", "solve_reordered_system_many", "lu.solve_many", _solve_columns),
    # core: the offline CLUDE sequence decomposition.
    ("repro.core.solver", "EMSSolver.decompose", "core.decompose", None),
    ("repro.core.solver", "EMSSolver.run_batch", "core.series", None),
    ("repro.core.clude", "alpha_clustering", "core.clustering", _cluster_count),
    ("repro.core.clude", "decompose_cluster_clude", "core.cluster_unit", None),
    # exec: the serial executor's dispatch around FACTOR/REFRESH/CLUDE units.
    ("repro.exec.executors", "SerialExecutor.execute", "exec.execute", _plan_units),
)


class Tracer:
    """Records spans from wrappers it installs; puts every original back.

    Spans are kept in memory as ``(name, thread, depth, duration, self)``
    tuples and reduced only when the run ends.  Each thread keeps its own
    span stack, so the serving thread's spans nest independently of the
    client thread's.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self.spans: List[Tuple[str, int, int, float, float]] = []
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> None:
        self._stack().append([time.perf_counter(), 0.0])

    def end(self, name: str, counts: Optional[Dict[str, float]] = None) -> None:
        finished = time.perf_counter()
        stack = self._stack()
        started, child_time = stack.pop()
        duration = finished - started
        if stack:
            stack[-1][1] += duration
        self.spans.append(
            (name, threading.get_ident(), len(stack), duration, duration - child_time)
        )
        if counts:
            with self._lock:
                for key, value in counts.items():
                    counter = f"{name}.{key}"
                    self.counts[counter] = self.counts.get(counter, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a ``with`` block (the benchmark's roots)."""
        self.begin()
        try:
            yield
        finally:
            self.end(name)

    # ------------------------------------------------------------------ #
    # Installing and removing wrappers
    # ------------------------------------------------------------------ #
    def _wrapper(self, original, name: str, counter: Optional[Callable]):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.begin()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(name)
                raise
            tracer.end(name, counter(args, result) if counter else None)
            return result

        traced.perfbench_span = name
        return traced

    def install(self) -> None:
        """Wrap every layer target, remembering each original for restore."""
        for module_name, path, name, counter in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            attribute = path
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(owner, class_name)
                own = owner.__dict__.get(attribute, _ABSENT)
            else:
                own = owner.__dict__[attribute]
            self._patches.append((owner, attribute, own))
            setattr(owner, attribute, self._wrapper(getattr(owner, attribute), name, counter))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attribute, own = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds."""
        reduced: Dict[str, Dict[str, float]] = {}
        for name, _thread, _depth, duration, self_time in self.spans:
            entry = reduced.setdefault(name, {"calls": 0.0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += self_time
        return reduced

    def coverage(self) -> Tuple[float, float]:
        """(root seconds, seconds of spans directly under a root).

        A layer span counts as directly under a root when it sits one level
        below a root span on the same thread; their ratio says how much of
        the benchmark's own work the layer spans account for.
        """
        roots = 0.0
        covered = 0.0
        for name, _thread, depth, duration, self_time in self.spans:
            if name in ROOT_SPANS and depth == 0:
                roots += duration
                covered += duration - self_time
        return roots, covered


def installed_targets_restored() -> bool:
    """True when no traced wrapper is left on any layer target."""
    for module_name, path, _name, _counter in LAYER_TARGETS:
        owner = importlib.import_module(module_name)
        attribute = path
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(owner, class_name)
        if hasattr(getattr(owner, attribute), "perfbench_span"):
            return False
    return True
