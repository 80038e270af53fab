"""The cell workloads: two single-core sweeps and a multi-core co-run.

A *cell* is one spec resolved to its result through
``repro.sim.batch.run_batch`` (``jobs=1``) against a fresh
``ResultCache``, followed by ``WARM_REPEATS`` warm re-requests of the
same spec that the cache answers.  A *pass* runs every cell of the
workload's matrix once, in matrix order, from cold state: a fresh
result cache, an empty trace store (memory and disk) and an empty
built-workload cache, so every pass pays workload builds and trace
generation exactly as a fresh sweep does.  Passes repeat until the run's seconds are spent; the first
pass always completes, later ones stop at the deadline.  Each cell's
figures are the median over its passes (and its warm re-requests), so
the metrics do not depend on where the deadline cut the last pass.
"""

import os
import random
import shutil
import time
from dataclasses import replace

from common import (
    SLO_MS, Outcome, median, refs_of, result_bytes, sha256, tail,
)

#: The pointer-heavy workloads the chase engine targets (ammp, mcf,
#: parser, twolf): their prefetching cells spend most of their replay in
#: the controller issue loop, the region queue and the engines.  At the
#: repository's sweep size one pass over these four x five schemes takes
#: about 24 s on a 2-vCPU host, ammp/srp alone 6 s; the other four
#: pointer/heap workloads (bzip2, vpr, sphinx, equake) would add 18 s
#: more, beyond what one run can hold.
PREFETCH_WORKLOADS = ("ammp", "mcf", "parser", "twolf")
PREFETCH_SCHEMES = ("srp", "chase", "grp", "gaze", "srp-adaptive")
#: Demand-side schemes: ``none`` never enters the controller issue
#: loop, and stride's stream buffers issue a few prefetches per hundred
#: references.
DEMAND_SCHEMES = ("none", "stride")

#: References per single-core cell: the experiments CLI's ``--refs``
#: default, which the repository's sweeps and the arena run.
SWEEP_REFS = 40000
#: Per-core references of the co-run cells: the co-run experiments'
#: ``CORUN_REFS``.
CORUN_REFS = 5000

#: Per-layer figures that depend only on code and seed; the drift check
#: requires them to repeat exactly.
DETERMINISTIC = (
    "trace.store_hit_ratio", "cpu.vectorized_fallbacks",
    "mem.miss_path_per_kref", "mem.demand_fetch_per_kref",
    "controller.issue_calls_per_kref", "controller.idle_call_ratio",
    "controller.issued_per_kref", "prefetch.pops_per_kref",
    "prefetch.dropped_ratio", "prefetch.useful_ratio",
)

#: Warm re-requests after each cold cell; the cell's warm time is their
#: median over all passes.
WARM_REPEATS = 20

#: Cells re-executed on the reference path per run (seeded choice).
REFERENCE_SAMPLE = {"sweep-prefetch": 2, "sweep-demand": 3,
                    "corun-rushhour": 1}


def matrix(name, seed):
    """The workload's cells, in execution order.

    The seed picks ``RunSpec.seed`` per benchmark; every scheme of one
    benchmark shares it, as in a real sweep, so unhinted schemes share
    one generated trace.
    """
    from repro import CoRunSpec, RunSpec
    from repro.workloads import workload_names

    rng = random.Random(seed)
    names = workload_names()
    seeds = {workload: rng.randrange(1, 1 << 31) for workload in names}
    if name == "sweep-prefetch":
        return [RunSpec.create(w, s, limit_refs=SWEEP_REFS, seed=seeds[w])
                for w in PREFETCH_WORKLOADS for s in PREFETCH_SCHEMES]
    if name == "sweep-demand":
        return [RunSpec.create(w, s, limit_refs=SWEEP_REFS, seed=seeds[w])
                for w in names for s in DEMAND_SCHEMES]
    if name == "corun-rushhour":
        corun_seed = rng.randrange(1, 1 << 31)
        return [
            CoRunSpec.create(names, "srp", limit_refs=CORUN_REFS,
                             seed=corun_seed),
            CoRunSpec.create(["mcf", "swim"], "none", limit_refs=CORUN_REFS,
                             seed=corun_seed),
        ]
    raise KeyError(name)


def cold_state(workdir):
    """Fresh result cache, trace store and build cache for one pass."""
    import repro.sim.runner as runner
    from repro import ResultCache
    from repro.trace.store import reset_default_store

    for stale in ("results", "traces"):
        shutil.rmtree(os.path.join(workdir, stale), ignore_errors=True)
    os.environ["REPRO_TRACE_CACHE"] = os.path.join(workdir, "traces")
    reset_default_store()
    # The built-workload memo has no public reset; clearing it is what
    # makes every pass pay its builds.
    runner._BUILD_CACHE.clear()
    return ResultCache(os.path.join(workdir, "results"))


def run_cell(spec, cache, warm_repeats):
    """One cold cell, then ``warm_repeats`` re-requests of it; returns
    the cold time, the result and ``(seconds, result)`` per re-request."""
    from repro import run_batch

    clock = time.perf_counter
    start = clock()
    [result] = run_batch([spec], jobs=1, cache=cache)
    cold_s = clock() - start
    warm = []
    for _ in range(warm_repeats):
        start = clock()
        [again] = run_batch([spec], jobs=1, cache=cache)
        warm.append((clock() - start, again))
    return cold_s, result, warm


def backend_of(spec):
    """The replay loop ``auto`` resolves to, before any silent fallback."""
    from repro import CoRunSpec
    from repro.sim.multicore_fused import supports
    from repro.sim.runner import resolve_backend, resolve_corun_backend

    if isinstance(spec, CoRunSpec):
        backend = resolve_corun_backend(spec.backend)
        if backend == "fused" and not supports(spec.machine_config()):
            backend = "stepped (fused declined)"
        return "corun-" + backend
    return resolve_backend(spec.backend)


def measure(name, seed, seconds, workdir, trace):
    """Run the timed passes, the output checks and (optionally) a traced
    pass; return an :class:`Outcome`."""
    import resource

    from repro import CoRunSpec, execute, execute_corun
    from repro.sim.stats import result_to_json

    specs = matrix(name, seed)
    out = Outcome(name)
    cold = [[] for _ in specs]
    warm = [[] for _ in specs]
    expected = [None] * len(specs)
    refs = [0] * len(specs)
    failed = [0] * len(specs)
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        cache = cold_state(workdir)
        for i, spec in enumerate(specs):
            if passes and time.perf_counter() >= deadline:
                break
            cold_s, result, again = run_cell(spec, cache, WARM_REPEATS)
            body = result_bytes(result)
            if expected[i] is None:
                expected[i] = body
                refs[i] = refs_of(result)
            cold[i].append(cold_s)
            failed[i] += body != expected[i]
            for warm_s, hit in again:
                warm_ok = result_bytes(hit) == body
                warm[i].append((warm_s, warm_ok))
                failed[i] += not warm_ok
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output check, outside the timed region: a seeded sample of cells
    # re-executed on the reference path must give identical bytes.
    rng = random.Random(seed ^ 0x5EED)
    sample = rng.sample(range(len(specs)),
                        min(REFERENCE_SAMPLE[name], len(specs)))
    for i in sample:
        spec = specs[i]
        if isinstance(spec, CoRunSpec):
            reference = execute_corun(replace(spec, backend="stepped"))
        else:
            reference = execute(spec, reference=True)
        same = result_to_json(reference).encode() == expected[i]
        out.note("reference check %s: %s" % (
            spec.label(), "identical" if same else "MISMATCH"))
        if not same:
            failed[i] += len(cold[i]) + len(warm[i])

    med = [median(times) for times in cold]
    warm_med = [median([t for t, _ in samples]) for samples in warm]
    attempted = sum(len(c) + len(w) for c, w in zip(cold, warm))
    within = sum(1 for samples in warm for t, ok in samples
                 if ok and t * 1000.0 <= SLO_MS)
    cell_tail, cell_label = tail([m * 1000.0 for m in med])
    req_tail, req_label = tail([m * 1000.0 for m in warm_med])
    out.attempted = attempted
    out.failed = sum(failed)
    out.metric("refs_per_s", sum(refs) / sum(med), "refs/s")
    out.metric("cell_ms_p50", median(med) * 1000.0, "ms")
    out.metric("cell_ms_tail", cell_tail, "ms", cell_label)
    out.metric("req_ms_p50", median(warm_med) * 1000.0, "ms")
    out.metric("req_ms_tail", req_tail, "ms", req_label)
    out.metric("req_slo_ratio", within / sum(len(w) for w in warm),
               "fraction", "warm re-requests within %d ms" % SLO_MS)
    out.metric("peak_rss_mb", peak_rss_mb, "MB")
    out.note("%d cells, %d passes (%d cell executions), %d refs per pass"
             % (len(specs), passes, sum(len(c) for c in cold), sum(refs)))
    backends = {}
    for spec in specs:
        backend = backend_of(spec)
        backends[backend] = backends.get(backend, 0) + 1
    out.note("backend resolved by auto: %s" % ", ".join(
        "%s %d/%d" % (b, n, len(specs)) for b, n in sorted(backends.items())))
    out.digest = sha256(b"\n".join(expected))
    out.counts["result_digest"] = out.digest
    if trace:
        traced_pass(out, specs, expected, sum(med), workdir)
    return out


def traced_pass(out, specs, expected, untraced_s, workdir):
    """One more cold pass with every layer wrapped; fills per-layer
    metrics and checks the traced bytes against the untraced ones.

    ``untraced_s`` is the untraced pass time (the sum of the cells'
    median cold times); the traced pass's cold cell times minus it is
    the tracing overhead."""
    import spans
    from repro.trace.store import default_store

    tracer = spans.Tracer(coarse=spans.COARSE)
    cache = cold_state(workdir)
    results = []
    traced_s = 0.0
    uninstall = spans.install(tracer)
    try:
        for i, spec in enumerate(specs):
            tracer.cell_id = i
            tracer.open("cell")
            try:
                cold_s, result, _ = run_cell(spec, cache, 0)
            finally:
                tracer.close()
            traced_s += cold_s
            results.append(result)
    finally:
        uninstall()
    store = default_store()
    mismatched = 0
    for i, result in enumerate(results):
        if result_bytes(result) != expected[i]:
            mismatched += 1
            out.note("traced result of %s differs from untraced: MISMATCH"
                     % specs[i].label())
    out.failed += mismatched
    out.attempted += len(specs)
    out.note("traced pass: %d/%d results byte-identical to the untraced "
             "run" % (len(specs) - mismatched, len(specs)))
    out.layers = layer_metrics(tracer, results, store, traced_s - untraced_s)
    out.spans = tracer.records
    for key in DETERMINISTIC:
        out.counts[key] = out.layers[key][0]
    c = tracer.counters
    out.note("backend actually run (traced pass): vectorized %d, fused %d, "
             "vectorized->fused fallbacks %d, co-run fused %d, co-run "
             "stepped %d" % (c.get("cpu.vectorized_cells", 0),
                             c.get("cpu.fused_cells", 0),
                             c.get("cpu.vectorized_fallbacks", 0),
                             c.get("corun.fused_cells", 0),
                             c.get("corun.stepped_cells", 0)))


def layer_metrics(tracer, results, store, overhead_s):
    """Per-layer metrics from one traced pass (see BENCHMARK.json)."""
    c = tracer.counters

    def t(name):
        return tracer.total.get(name, 0.0)

    def s(name):
        return tracer.self_time.get(name, 0.0)

    def n(name):
        return tracer.calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    krefs = (c.get("replay.refs", 0) + c.get("corun.refs", 0)) / 1000.0

    def per_kref(count):
        return ratio(count, krefs)

    issued = c.get("controller.issued", 0)
    dropped = c.get("prefetch.dropped", 0)
    hits = store.memory_hits + store.disk_hits
    useful = fills = 0
    for result in results:
        for stats in getattr(result, "cores", [result]):
            useful += stats.l2["useful_prefetches"]
            fills += stats.l2["prefetch_fills"]
    replay_s = t("sim.replay") + t("corun.fused") + t("corun.stepped")
    coruns = {record[0] for record in tracer.records if record[1] == "corun"}
    solo_s = sum(end - start
                 for _id, name, start, end, parent, _cell in tracer.records
                 if name == "execute" and parent in coruns)
    cpu_s = s("cpu.core") + s("cpu.vectorized")
    return {
        "workloads.build_s": (t("workloads.build"), "s"),
        "compiler.compile_s": (t("compiler.compile"), "s"),
        "trace.gen_s": (t("trace.gen"), "s"),
        "trace.gen_us_per_ref": (
            ratio(t("trace.gen"), c.get("trace.refs", 0)) * 1e6, "us"),
        "trace.store_hit_ratio": (ratio(hits, hits + store.misses),
                                  "fraction"),
        "cpu.self_s": (cpu_s, "s"),
        "cpu.us_per_ref": (ratio(cpu_s, c.get("replay.refs", 0)) * 1e6,
                           "us"),
        "cpu.vectorized_fallbacks": (c.get("cpu.vectorized_fallbacks", 0),
                                     "count"),
        "mem.miss_path_self_s": (s("mem.miss_path") + s("mem.demand_fetch"),
                                 "s"),
        "mem.miss_path_per_kref": (per_kref(n("mem.miss_path")), "1/kref"),
        "mem.demand_fetch_per_kref": (per_kref(n("mem.demand_fetch")),
                                      "1/kref"),
        "controller.issue_self_s": (s("controller.issue"), "s"),
        "controller.issue_calls_per_kref": (
            per_kref(c.get("controller.calls", 0)), "1/kref"),
        "controller.idle_call_ratio": (
            ratio(c.get("controller.idle_calls", 0),
                  c.get("controller.calls", 0)), "fraction"),
        "controller.issued_per_kref": (per_kref(issued), "1/kref"),
        "controller.us_per_issued": (
            ratio(t("controller.issue"), issued) * 1e6, "us"),
        "prefetch.pop_self_s": (s("prefetch.pop"), "s"),
        "prefetch.pops_per_kref": (per_kref(n("prefetch.pop")), "1/kref"),
        "prefetch.dropped_ratio": (ratio(dropped, issued + dropped),
                                   "fraction"),
        "prefetch.train_s": (t("prefetch.train"), "s"),
        "prefetch.useful_ratio": (ratio(useful, fills), "fraction"),
        "l2.fill_prefetch_self_s": (s("l2.fill_prefetch"), "s"),
        "metrics.tick_s": (t("metrics.tick"), "s"),
        "corun.run_s": (t("corun.fused") + t("corun.stepped"), "s"),
        "corun.solo_s": (solo_s, "s"),
        "corun.sched_self_s": (s("corun.fused") + s("corun.stepped"), "s"),
        "replay.total_s": (replay_s, "s"),
        "tracing.overhead_s": (overhead_s, "s"),
        "tracing.uncovered_ratio": (ratio(s("sim.replay"), replay_s),
                                           "fraction"),
    }
