"""Benchmark runner: end-to-end metrics, or per-layer metrics when traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-prefetch --seed 1 \\
        --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``sweep-prefetch`` — four pointer-heavy benchmarks x five prefetching
  schemes through ``repro.sim.batch.run_batch``;
* ``sweep-demand`` — all 18 benchmarks x ``none``/``stride``;
* ``corun-rushhour`` — ``repro.sim.multicore.execute_corun`` on the
  18-core srp mix and an mcf+swim pair, with solo baselines;
* ``serve-mixed`` — an open loop against ``python -m repro.serve``
  through ``repro.serve.client.ServeClient``.

All times are host wall time.  The simulated machine is not validated
against real hardware, so no accuracy figure is reported.  Every run
prints each metric by name with its unit, one result digest for the
workload, and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes the same untraced measurement,
then a traced pass with every layer entry point wrapped
(``perfbench/spans.py``), and reports the per-layer metrics.  A result
that differs from the reference path, from another execution of the
same cell, or from the traced pass fails the operation and makes the
run exit 1.  Everything is written under ``.perfbench_work/`` in the
repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("sweep-prefetch", "sweep-demand", "corun-rushhour",
             "serve-mixed")

#: Environment that would pin a backend or inject faults; the benchmark
#: measures the defaults.
SCRUBBED_ENV = ("REPRO_BACKEND", "REPRO_CORUN_BACKEND", "REPRO_FAULT_PLAN",
                "REPRO_CACHE_DIR", "REPRO_TRACE_CACHE")

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: What a fresh process imports before the first cell can run.
SETUP_SNIPPET = (
    "import repro\n"
    "from repro.sim import runner, multicore_fused\n"
    "runner.resolve_backend()\n"
    "runner.resolve_corun_backend()\n"
)


def child_env(workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir
    env["REPRO_TRACE_CACHE"] = os.path.join(workdir, "traces")
    return env


def measure_setup(workdir):
    """Median wall time of a fresh interpreter importing the pipeline."""
    from common import median

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                       env=child_env(workdir), cwd=workdir, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return median(times)


def code_fingerprint():
    """Hash of every Python source the run executes."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def drift_check(out, seed):
    """Compare the result digest and the deterministic counts with the
    last run of the same code, workload and seed; record this run's."""
    drift_dir = os.path.join(WORK, "drift")
    os.makedirs(drift_dir, exist_ok=True)
    path = os.path.join(drift_dir, "%s-seed%d.json" % (out.workload, seed))
    fingerprint = code_fingerprint()
    previous = None
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        if previous.get("fingerprint") != fingerprint:
            previous = None
    record = {"fingerprint": fingerprint, "counts": {}}
    drifted = []
    if previous is not None:
        record["counts"].update(previous["counts"])
        for key, value in out.counts.items():
            if key in previous["counts"] and previous["counts"][key] != value:
                drifted.append(key)
    record["counts"].update(out.counts)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if previous is None:
        out.note("drift check: first run of this code and seed, recorded")
    elif drifted:
        out.note("drift check: DRIFT in %s" % ", ".join(sorted(drifted)))
    else:
        out.note("drift check: %d digests/counts repeat exactly"
                 % len([k for k in out.counts if k in previous["counts"]]))
    return not drifted


def write_spans(out, seed):
    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    path = os.path.join(spans_dir, "%s-seed%d.jsonl" % (out.workload, seed))
    with open(path, "w") as fh:
        for span_id, name, start, end, parent, cell in out.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "cell": cell}) + "\n")
    return path


def run(args, workdir):
    if args.workload == "serve-mixed":
        import loadgen
        out = loadgen.measure(args.seed, args.seconds, workdir,
                              child_env(workdir))
    else:
        import cells
        setup_s = measure_setup(workdir)
        out = cells.measure(args.workload, args.seed, args.seconds, workdir,
                            args.trace)
        out.metric("setup_s", setup_s, "s",
                   "median of %d fresh-interpreter imports" % SETUP_REPEATS)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        out = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    shown = out.layers if args.trace else out.metrics
    unknown = set(shown) - {metric["name"] for metric in declared}
    if unknown:
        raise KeyError("metrics missing from BENCHMARK.json: %s"
                       % ", ".join(sorted(unknown)))
    # A layer the workload never enters reads zero.
    shown = {metric["name"]: shown.get(metric["name"], (0.0, metric["unit"]))
             for metric in declared}

    if out.missing:
        out.note("no samples for %s" % ", ".join(out.missing))
    correct = (out.failed == 0 and not out.missing
               and drift_check(out, args.seed))

    if args.trace and out.spans:
        out.note("spans written to %s" % os.path.relpath(
            write_spans(out, args.seed), ROOT))
    for note in out.notes:
        print("%s: %s" % (out.workload, note))
    print("%s: result digest %s" % (out.workload, out.digest))
    for name, (value, unit) in sorted(shown.items()):
        label = out.labels.get(name)
        print("%s: %-34s %14.6g %-8s%s" % (
            out.workload, name, value, unit,
            "  (%s)" % label if label else ""))
    print("%s: attempted %d, failed %d" % (out.workload, out.attempted,
                                           out.failed))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(shown.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
