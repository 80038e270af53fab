"""Shared helpers: statistics, result bytes and the per-run outcome."""

import hashlib
import math

#: Latency limit behind ``req_slo_ratio``, on every workload.
SLO_MS = 1000.0

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    """The median, or None for no values."""
    values = sorted(values)
    n = len(values)
    if not n:
        return None
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2.0


def tail(values):
    """The highest nearest-rank percentile leaving ``TAIL_BEYOND``
    samples beyond it; the maximum when that percentile would not lie
    above the median.  Returns ``(value, label)``; the label names the
    percentile and the sample count; ``(None, ...)`` for no values."""
    values = sorted(values)
    n = len(values)
    if not n:
        return None, "no samples"
    pct = math.floor(100.0 * (n - TAIL_BEYOND) / n) if n > TAIL_BEYOND else 0
    if pct <= 50:
        return values[-1], "max of %d samples" % n
    rank = math.ceil(pct / 100.0 * n)
    return values[rank - 1], "p%d of %d samples" % (pct, n)


def ratio(part, whole):
    """``part / whole``, or None when ``whole`` is 0."""
    return part / whole if whole else None


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def result_bytes(result):
    """Canonical wire bytes of a result (``result_to_json``)."""
    from repro.sim.stats import result_to_json

    return result_to_json(result).encode("utf-8")


def refs_of(result):
    """Simulated references a result covers (all cores of a co-run)."""
    return sum(stats.hier["loads"] + stats.hier["stores"]
               for stats in getattr(result, "cores", [result]))


class Outcome:
    """What one run measured: metrics, notes, counts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}
        self.labels = {}
        self.layers = {}
        self.notes = []
        self.counts = {}
        self.missing = []
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def metric(self, name, value, unit, label=None):
        """Record an end-to-end metric.  None means the run produced no
        samples for it: it reads 0 and the run is not correct."""
        if value is None:
            self.missing.append(name)
            value, label = 0.0, "no samples"
        self.metrics[name] = (float(value), unit)
        if label:
            self.labels[name] = label

    def layer(self, name, value, unit):
        """Record a per-layer metric; None as for :meth:`metric`."""
        if value is None:
            self.missing.append(name)
            value = 0.0
        self.layers[name] = (float(value), unit)


    def note(self, text):
        self.notes.append(text)
