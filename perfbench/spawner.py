"""Runs the benchmark's child processes and reports, for each, its wall
time, exit code and peak resident memory.

Linux carries a parent's memory high-water mark into a forked child's
rusage, so children forked from the benchmark itself would report the
benchmark's size once it has parsed a few outputs.  This small process is
started before the benchmark grows and forks every child instead.  It reads
one JSON request per line on stdin and answers one JSON line per request.
On SIGTERM it kills the running child, waits for it and exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

_running: list = []


def _terminate(signum, frame):
    for proc in _running:
        proc.kill()
        proc.wait()
    sys.exit(1)


def serve() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], env=req["env"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _running.append(proc)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            _running.remove(proc)
        print(json.dumps({"seconds": seconds, "rc": proc.returncode,
                          "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    serve()
