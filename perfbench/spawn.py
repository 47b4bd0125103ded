"""Run one command; report its wall time, peak RSS and exit code.

Usage::

    python3 -S perfbench/spawn.py <fd> <timeout_s> <program> [args...]

Writes ``{"wall_s", "rss_mb", "rc"}`` as JSON to file descriptor ``fd`` and
kills the command after ``timeout_s`` seconds. The benchmark starts every
command through this launcher because Linux starts a child's peak RSS
(``ru_maxrss``) at the peak RSS of the process that spawned it: a command
started straight from the benchmark, which holds generated inputs and
in-process re-fits, would report at least the benchmark's own peak. This
launcher holds only a bare interpreter, less than any gssnmf command.
The command's reaped children, such as sweep workers, count in its peak.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    fd, timeout_s, argv = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    t0 = perf_counter()
    proc = subprocess.Popen(argv)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with os.fdopen(fd, "w") as fh:
        json.dump({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                   "rc": proc.returncode}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
