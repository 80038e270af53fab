"""``python -m repro.serve`` that reports its peak memory when stopped.

Usage (what ``loadgen.ServerProcess`` runs)::

    python3 perfbench/serve_main.py --port 0 --cache-dir DIR ...

The arguments go to ``repro.serve`` unchanged.  On SIGTERM the server
prints one line::

    peak rss kb: self=<VmHWM of the server> children=<largest child>

and exits.  The supervisor runs every cell in a forked child that it
waits for, so ``RUSAGE_CHILDREN`` holds the peak of the processes that
did the simulation work; the server's own peak covers the HTTP layer,
the job threads and the result cache.
"""

import os
import resource
import runpy
import signal
import sys

PEAK_PREFIX = "peak rss kb:"


def main():
    server_pid = os.getpid()

    def stop(_signum, _frame):
        if os.getpid() != server_pid:
            # A supervisor child inherited this handler; it just ends.
            os._exit(128 + signal.SIGTERM)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write("%s self=%d children=%d\n"
                         % (PEAK_PREFIX, own, children))
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    sys.argv = ["repro.serve"] + sys.argv[1:]
    runpy.run_module("repro.serve", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
