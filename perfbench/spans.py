"""In-memory span recorder and the class-level layer wrappers.

:class:`Tracer` keeps a stack of open spans.  Every span closes into a
per-name aggregate (calls, total time, self time), so hot layers called
millions of times cost a few list operations each and no memory per
call.  Coarse spans (cells, workload builds, compiles, trace
generation, replay loops, co-runs) are also kept as full records
``(id, name, start, end, parent id, cell id)`` and written out when the
benchmark ends.  Self time is a span's duration minus the time its
child spans cover.

:func:`install` wraps the pipeline's layer entry points at class (or
module) level and returns an undo function; nothing under ``src/`` is
edited.  A nested call into the layer already on top of the stack (an
engine's ``pop_candidate`` delegating to its region queue) merges into
the open span, so counts are calls into the layer, not Python calls.
"""

import functools
import time

_clock = time.perf_counter


class _Frame:
    """One open span.  ``anchor`` is the id of the nearest kept record,
    this span's own when it is coarse: the parent of coarse spans opened
    inside it."""

    __slots__ = ("name", "start", "child", "span_id", "parent_id", "anchor")

    def __init__(self, name, start, span_id, parent_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.anchor = span_id if span_id is not None else parent_id


class Tracer:
    """Span stack plus aggregates; one instance per traced pass."""

    def __init__(self, coarse=()):
        self.coarse = frozenset(coarse)
        self.stack = []
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counters = {}
        self.records = []
        self.cell_id = None
        self._ids = 0

    def open(self, name):
        """Push a span; returns False when it merges into an open one."""
        stack = self.stack
        if stack and stack[-1].name == name:
            return False
        parent_id = stack[-1].anchor if stack else None
        span_id = None
        if name in self.coarse:
            self._ids += 1
            span_id = self._ids
        stack.append(_Frame(name, _clock(), span_id, parent_id))
        return True

    def close(self):
        """Pop the top span into the aggregates."""
        end = _clock()
        frame = self.stack.pop()
        duration = end - frame.start
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = (self.self_time.get(name, 0.0)
                                + duration - frame.child)
        if self.stack:
            self.stack[-1].child += duration
        if frame.span_id is not None:
            self.records.append((frame.span_id, name, frame.start, end,
                                 frame.parent_id, self.cell_id))

    def count(self, name, amount=1):
        """Add to a named counter (work done at a span boundary)."""
        self.counters[name] = self.counters.get(name, 0) + amount


def _wrap(tracer, fn, name, after=None):
    """``fn`` inside a span named ``name``.

    ``after`` is an optional ``(snapshot, record)`` pair that counts the
    work a call did: ``before = snapshot(args, kwargs)`` runs ahead of
    the call and ``record(args, kwargs, before, result)`` after it.
    """
    open_, close = tracer.open, tracer.close

    if after is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not open_(name):
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                close()
        return wrapper

    snapshot, record = after

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        before = snapshot(args, kwargs)
        if not open_(name):
            result = fn(*args, **kwargs)
        else:
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
        record(args, kwargs, before, result)
        return result
    return counted


def _subclasses(root):
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


#: Span names kept as full records (the rest are aggregates only).
COARSE = (
    "cell", "workloads.build", "compiler.compile", "trace.gen",
    "sim.replay", "cpu.core", "cpu.vectorized", "corun", "corun.fused",
    "corun.stepped", "execute",
)

#: Prefetch-engine training hooks (``prefetch.train``).
TRAIN_HOOKS = ("on_l2_access", "on_l2_miss", "on_demand_fill",
               "on_prefetch_fill", "on_directive", "on_candidate_dropped")


def install(tracer):
    """Wrap every layer entry point; return a function that undoes it."""
    import repro.sim.multicore as multicore
    import repro.sim.runner as runner
    import repro.sim.vectorized as vectorized
    from repro.cpu.core import Core
    from repro.mem.cache import Cache
    from repro.mem.controller import MemoryController
    from repro.mem.hierarchy import Hierarchy
    from repro.metrics.collector import MetricsCollector
    from repro.prefetch.base import Prefetcher
    from repro.prefetch.pending import PendingQueue
    from repro.prefetch.regionqueue import RegionQueue
    from repro.sim.multicore import MultiCoreSimulator
    from repro.sim.multicore_fused import FusedMultiCoreSimulator
    from repro.sim.simulator import Simulator
    from repro.trace.interp import Interpreter
    from repro.workloads.base import Workload

    undo = []

    def patch(owner, attr, name, after=None):
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, after))

    count = tracer.count
    calls = tracer.calls

    def issue_snapshot(args, _kwargs):
        ctrl = args[0]
        return ctrl.prefetches_issued, ctrl.prefetches_dropped_resident

    def issue_record(args, _kwargs, before, _result):
        ctrl = args[0]
        issued = ctrl.prefetches_issued - before[0]
        count("controller.calls")
        if issued:
            count("controller.issued", issued)
        else:
            count("controller.idle_calls")
        count("prefetch.dropped",
              ctrl.prefetches_dropped_resident - before[1])

    def gen_record(_args, _kwargs, _before, trace):
        count("trace.refs", trace.ref_count)

    def replay_snapshot(_args, kwargs):
        return calls.get("cpu.vectorized", 0), kwargs.get("backend")

    def replay_record(args, _kwargs, before, _result):
        stats = args[0].hierarchy.stats
        count("replay.refs", stats.loads + stats.stores)
        # Simulator.run_compiled(backend="vectorized") silently takes
        # the fused loop when vectorized.supports() declines.
        if before[1] == "vectorized":
            if calls.get("cpu.vectorized", 0) == before[0]:
                count("cpu.vectorized_fallbacks")
            else:
                count("cpu.vectorized_cells")
        else:
            count("cpu.fused_cells")

    def no_snapshot(_args, _kwargs):
        return None

    def corun_counter(kind):
        def record(args, _kwargs, _before, _result):
            for cell in args[0].cells:
                stats = cell.hierarchy.stats
                count("corun.refs", stats.loads + stats.stores)
            count("corun.%s_cells" % kind)
        return no_snapshot, record

    for cls in _subclasses(Workload):
        if "build" in cls.__dict__:
            patch(cls, "build", "workloads.build")
    patch(runner, "compile_hints", "compiler.compile")
    patch(multicore, "compile_hints", "compiler.compile")
    patch(Interpreter, "run_columns", "trace.gen", (no_snapshot, gen_record))
    patch(Simulator, "run_compiled", "sim.replay",
          (replay_snapshot, replay_record))
    patch(Core, "execute_compiled", "cpu.core")
    patch(Core, "execute_vectorized", "cpu.core")
    patch(vectorized, "execute_vectorized", "cpu.vectorized")
    patch(Hierarchy, "access_after_l1_miss", "mem.miss_path")
    patch(MemoryController, "demand_fetch", "mem.demand_fetch")
    patch(MemoryController, "issue_prefetches", "controller.issue",
          (issue_snapshot, issue_record))
    for cls in _subclasses(Prefetcher) + [RegionQueue, PendingQueue]:
        if "pop_candidate" in cls.__dict__:
            patch(cls, "pop_candidate", "prefetch.pop")
        for hook in TRAIN_HOOKS:
            if hook in cls.__dict__:
                patch(cls, hook, "prefetch.train")
    patch(Cache, "fill_prefetch_block", "l2.fill_prefetch")
    patch(MetricsCollector, "tick", "metrics.tick")
    patch(MetricsCollector, "finalize", "metrics.tick")
    patch(FusedMultiCoreSimulator, "run", "corun.fused",
          corun_counter("fused"))
    patch(MultiCoreSimulator, "run", "corun.stepped",
          corun_counter("stepped"))
    patch(multicore, "execute_corun", "corun")
    patch(runner, "execute", "execute")

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
