"""The serve-mixed workload: an open loop against ``python -m repro.serve``.

One process sends requests on a fixed schedule (``RATE`` per second)
from ``SENDERS`` threads, each taking the next scheduled request and
waiting for its due time when early.  A request is timed from its due
time, not from when a free thread sent it, so a stall also charges the
requests queued behind it; how late the generator ran is reported as
``loadgen.lag_ms_max``.  The seeded mix:

* ``fresh`` — ``POST /runs`` of a spec no one computed before: the
  server's supervisor runs it in a child process and writes the result
  cache, while the client polls ``GET /results/<digest>`` every
  ``RESULT_POLL_S`` until the bytes arrive (404 until then);
* ``resubmit`` — ``POST /runs`` of a spec computed during set-up (the
  supervisor's cache-hit path), then ``GET /results/<digest>``;
* ``get`` — ``GET /results/<digest>`` of a set-up result.

Submissions end when their result bytes arrive, read with
``GET /results/<digest>``; they do not wait on the job's progress
stream, which checks the job journal every 50 ms and would put the
latency in 50 ms steps.  Job state is never polled through
``GET /jobs/<id>``, which races the worker that fills in the job's
cells and intermittently answers 500 (a known server defect); a
workload here must not fail on its own.  Every submitted job's terminal
snapshot is read from its progress stream after the loop, outside the
timed spans, and a job that did not end ``done`` fails its request.
Every non-2xx answer other than a pending fresh result's 404, every
timeout and every wrong byte counts as a failed request, with no retry.
After the loop, every distinct result's bytes are compared with an
in-process ``repro.execute`` of the same spec.

The mix has no production trace behind it.  It gives each of the three
server paths (compute then cache write, cache-hit job, cache read)
about a third of the requests, so all three show in every run.  The
rate sits below the knee, which a probe at these cell sizes put between
4 and 8 req/s on two cores, so the run measures service time rather
than an ever-growing queue.  Cells are 3k references, the size of that
probe; one fresh cell then computes in 75-270 ms.

The server runs under ``serve_main.py``, which reports the peak memory
of the server and of its largest supervisor child when stopped.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

from common import (
    SLO_MS, Outcome, median, ratio, result_bytes, sha256, tail,
)
from serve_main import PEAK_PREFIX

HERE = os.path.dirname(os.path.abspath(__file__))


RATE = 5.0
SENDERS = 2
SERVER_WORKERS = 2
REFS = 3000
SHARE_FRESH = 0.35
SHARE_RESUBMIT = 0.30
SETUP_REPEATS = 3
#: Seconds a request may take before it counts as timed out.
REQUEST_TIMEOUT = 30.0
#: Seconds between a fresh submission's ``GET /results`` polls.
RESULT_POLL_S = 0.01
#: (workload, scheme) pairs for generated specs, chosen so that one
#: cell costs about the same (40-65 ms in-process at 3k references)
#: whichever is drawn.
POOL = (("swim", "grp"), ("gzip", "srp"), ("vpr", "grp"),
        ("equake", "none"), ("twolf", "gaze"), ("mesa", "grp"),
        ("sphinx", "stride"), ("wupwise", "srp"))


class ServerProcess:
    """One ``python -m repro.serve`` child on an ephemeral port."""

    def __init__(self, workdir, env, tag):
        self.cache_dir = os.path.join(workdir, "serve-%s" % tag)
        self.log_path = os.path.join(workdir, "serve-%s.log" % tag)
        env = dict(env)
        env["REPRO_TRACE_CACHE"] = os.path.join(self.cache_dir, "traces")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_main.py"),
             "--port", "0",
             "--cache-dir", self.cache_dir,
             "--workers", str(SERVER_WORKERS), "--jobs", "1"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=workdir, start_new_session=True)
        self.url = self._wait_url()

    def _wait_url(self):
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                for line in fh:
                    if line.startswith("serving on "):
                        return line.split()[-1]
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server did not start; see %s" % self.log_path)

    def stop(self):
        """Stop the server, then anything left in its process group, and
        return the peak resident memory in MB that it reported as
        ``(server, largest supervisor child)``, or None when it printed
        none.  SIGTERM, not Ctrl-C: a process started in the background
        may inherit SIGINT as ignored."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # no process of the group is left
            pass
        self._log.close()
        with open(self.log_path) as fh:
            for line in fh:
                if line.startswith(PEAK_PREFIX):
                    fields = dict(item.split("=")
                                  for item in line.split()[3:])
                    return (int(fields["self"]) / 1024.0,
                            int(fields["children"]) / 1024.0)
        return None


def follow(client, job_id):
    """The terminal job snapshot, read from the progress stream."""
    final = None
    for record in client.stream_job(job_id):
        if record.get("kind") == "job":
            final = record["job"]
    return final


def job_ok(job):
    return (job is not None and job["state"] == "done"
            and all(cell["status"] == "ok" for cell in job["cells"]))


def setup(workdir, env, hot_specs, tag):
    """Start a server, check it answers, compute the hot set."""
    from repro.serve.client import ServeClient

    server = ServerProcess(workdir, env, tag)
    try:
        client = ServeClient(server.url, timeout=REQUEST_TIMEOUT)
        client.healthz()
        reply = client.submit(hot_specs)
        if not job_ok(follow(client, reply["job"])):
            raise RuntimeError("hot-set job failed")
    except BaseException:
        server.stop()
        raise
    return server, reply["digests"]


def schedule(seed, seconds, hot_specs):
    """The seeded request list of ``(kind, spec)``.

    The shares of each kind, and of each pool pair among fresh specs,
    are exact; the seed orders them and draws the fresh specs' seeds.
    """
    from repro import RunSpec

    rng = random.Random(seed)
    total = int(seconds * RATE)
    n_fresh = round(total * SHARE_FRESH)
    n_resubmit = round(total * SHARE_RESUBMIT)
    kinds = (["fresh"] * n_fresh + ["resubmit"] * n_resubmit
             + ["get"] * (total - n_fresh - n_resubmit))
    rng.shuffle(kinds)
    pairs = [POOL[i % len(POOL)] for i in range(n_fresh)]
    rng.shuffle(pairs)
    targets = [hot_specs[i % len(hot_specs)] for i in range(total)]
    rng.shuffle(targets)
    requests = []
    for kind, target in zip(kinds, targets):
        if kind == "fresh":
            workload, scheme = pairs.pop()
            target = RunSpec.create(workload, scheme, limit_refs=REFS,
                                    seed=rng.randrange(1, 1 << 31))
        requests.append((kind, target))
    return requests


def hot_set(seed):
    """The set-up results that resubmissions and reads ask for: one per
    pool pair, so every seed reads the same mix of result shapes."""
    from repro import RunSpec

    rng = random.Random(seed ^ 0x407)
    return [RunSpec.create(workload, scheme, limit_refs=REFS,
                           seed=rng.randrange(1, 1 << 31))
            for workload, scheme in POOL]


def send(client, kind, spec, digest_of, rec):
    """Execute one request into ``rec`` (never raises)."""
    from repro.serve.client import ServeError

    clock = time.perf_counter
    try:
        if kind == "get":
            digest = digest_of[spec]
        else:
            start = clock()
            reply = client.submit(spec)
            rec["post_s"] = clock() - start
            rec["job_id"] = reply["job"]
            digest = reply["digests"][0]
        start = clock()
        while True:
            get_start = clock()
            try:
                _status, body, _etag = client.result_bytes(digest)
                break
            except ServeError as exc:
                # A fresh result is 404 until its job writes the cache.
                if kind != "fresh" or exc.status != 404:
                    raise
            if get_start - rec["sent"] > REQUEST_TIMEOUT:
                raise TimeoutError("no result after %.0f s" % REQUEST_TIMEOUT)
            time.sleep(RESULT_POLL_S)
        rec["done"] = clock()
        rec["wait_s"] = get_start - start
        rec["get_s"] = rec["done"] - get_start
        rec["digest"] = digest
        rec["body"] = body
    except ServeError as exc:
        rec["error"] = "HTTP %d" % exc.status
        rec["status"] = exc.status
    except (OSError, TimeoutError, ValueError, KeyError) as exc:
        rec["error"] = "%s: %s" % (type(exc).__name__, exc)


def open_loop(url, requests, digest_of):
    """Send every request on schedule; return one record per request."""
    from repro.serve.client import ServeClient

    client = ServeClient(url, timeout=REQUEST_TIMEOUT)
    records = [{"kind": kind} for kind, _ in requests]
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            due = start + index / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rec = records[index]
            rec["due"] = due
            rec["sent"] = time.perf_counter()
            kind, spec = requests[index]
            rec["spec"] = spec
            send(client, kind, spec, digest_of, rec)

    threads = [threading.Thread(target=sender, name="loadgen-%d" % i)
               for i in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def measure(seed, seconds, workdir, env):
    from repro import execute
    from repro.serve.client import ServeClient, ServeError

    os.environ["REPRO_TRACE_CACHE"] = os.path.join(workdir, "traces")
    hot = hot_set(seed)
    setups = []
    server = None
    for rep in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        server, digests = setup(workdir, env, hot, rep)
        setups.append(time.perf_counter() - start)
    digest_of = dict(zip(hot, digests))
    requests = schedule(seed, seconds, hot)
    try:
        records, wall_s = open_loop(server.url, requests, digest_of)
        client = ServeClient(server.url, timeout=REQUEST_TIMEOUT)
        # A submission ends when its bytes arrive; its job's terminal
        # snapshot (timestamps, cell status) is read afterwards.
        for rec in records:
            if "job_id" in rec:
                try:
                    rec["job"] = follow(client, rec["job_id"])
                except (ServeError, OSError, ValueError) as exc:
                    rec["job"] = None
                    rec.setdefault("error", "job stream: %s" % exc)
                if "error" not in rec and not job_ok(rec["job"]):
                    rec["error"] = "job not done"
    finally:
        peak = server.stop()

    # Output check, outside the timed region: every distinct result the
    # server returned must equal an in-process execute() of its spec.
    # Each spec runs from a fresh build, as in the server's per-cell
    # child process: a build the process already replayed under another
    # seed can give different bytes (seen on bzip2 and sphinx).
    import repro.sim.runner as runner

    expected = {}
    for rec in records:
        if "body" in rec and rec["digest"] not in expected:
            runner._BUILD_CACHE.clear()
            expected[rec["digest"]] = result_bytes(execute(rec["spec"]))
    out = Outcome("serve-mixed")
    for rec in records:
        if "body" in rec and rec["body"] != expected[rec["digest"]]:
            rec["error"] = "wrong bytes"
        if "error" not in rec and rec["done"] - rec["sent"] > REQUEST_TIMEOUT:
            rec["error"] = "timeout"
    good = [rec for rec in records if "error" not in rec]
    errors = {}
    for rec in records:
        if "error" in rec:
            errors[rec["error"]] = errors.get(rec["error"], 0) + 1
    latency_ms = [(rec["done"] - rec["due"]) * 1000.0 for rec in good]
    fresh = [rec for rec in good if rec["kind"] == "fresh"]
    job_run_ms = [(rec["job"]["finished"] - rec["job"]["started"]) * 1000.0
                  for rec in fresh]
    fresh_refs = sum(hier["loads"] + hier["stores"] for hier in (
        json.loads(rec["body"])["hier"] for rec in fresh))
    req_tail, req_label = tail(latency_ms)
    cell_tail, cell_label = tail(job_run_ms)
    out.attempted = len(records)
    out.failed = len(records) - len(good)
    out.metric("refs_per_s", ratio(fresh_refs, sum(job_run_ms) / 1000.0),
               "refs/s", "fresh cells' references per second of job run")
    out.metric("cell_ms_p50", median(job_run_ms), "ms",
               "job run of fresh submissions")
    out.metric("cell_ms_tail", cell_tail, "ms", cell_label)
    out.metric("req_ms_p50", median(latency_ms), "ms")
    out.metric("req_ms_tail", req_tail, "ms", req_label)
    out.metric("req_slo_ratio",
               ratio(sum(1 for ms in latency_ms if ms <= SLO_MS),
                     len(records)),
               "fraction", "of %d sent, correct within %d ms"
               % (len(records), SLO_MS))
    out.metric("setup_s", median(setups), "s",
               "median of %d server start-ups with hot-set fill"
               % SETUP_REPEATS)
    out.metric("peak_rss_mb", peak and max(peak), "MB",
               peak and "largest of server %.1f MB and its largest "
               "supervisor child %.1f MB" % peak)
    kinds = {}
    for rec in records:
        kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
    out.note("open loop at %.1f req/s, %d senders, %.1f s: %s" % (
        RATE, SENDERS, wall_s,
        ", ".join("%s %d" % kv for kv in sorted(kinds.items()))))
    if errors:
        out.note("failed requests: %s" % ", ".join(
            "%s x%d" % kv for kv in sorted(errors.items())))
    out.note("%d distinct results compared with in-process execute()"
             % len(expected))
    out.digest = sha256(b"\n".join(
        digest.encode() + b" " + body
        for digest, body in sorted(expected.items())))
    out.counts["result_digest"] = out.digest

    jobs = [rec for rec in records if rec.get("job")]
    resubmits = [rec for rec in good if rec["kind"] == "resubmit"]
    cached = sum(rec["job"]["progress"]["cached"] for rec in jobs)
    computed = sum(rec["job"]["progress"]["computed"] for rec in jobs)
    covered = [(rec["done"] - rec["due"],
                rec.get("post_s", 0.0) + rec.get("wait_s", 0.0)
                + rec["get_s"]) for rec in good]
    latency_s = sum(t for t, _ in covered)
    out.layer("cache.hit_ratio", ratio(cached, cached + computed),
              "fraction")
    out.layer("serve.post_ms_p50", median(
        [rec["post_s"] * 1000.0 for rec in jobs if "post_s" in rec]), "ms")
    out.layer("serve.queue_wait_ms_p50", median(
        [(rec["job"]["started"] - rec["job"]["created"]) * 1000.0
         for rec in jobs]), "ms")
    out.layer("serve.job_run_ms_p50", median(
        [(rec["job"]["finished"] - rec["job"]["started"]) * 1000.0
         for rec in resubmits]), "ms")
    out.layer("serve.result_get_ms_p50", median(
        [rec["get_s"] * 1000.0 for rec in good]), "ms")
    out.layer("serve.http_5xx", sum(1 for rec in records
                                    if rec.get("status", 0) >= 500), "count")
    out.layer("loadgen.lag_ms_max", max(
        ((rec["sent"] - rec["due"]) * 1000.0 for rec in records),
        default=None), "ms")

    out.layer("tracing.overhead_s", 0.0, "s")
    out.layer("tracing.uncovered_ratio", ratio(
        latency_s - sum(c for _, c in covered), latency_s), "fraction")
    return out
