"""Spawns the benchmark's child interpreters from a small process of its own.

On Linux a child's ``ru_maxrss`` also counts the peak RSS of the process
that spawned it: the kernel carries the spawner's high-water mark across
``exec``.  The harness grows while it parses listings, draws samples and
runs its speed probe, so it does not spawn its jobs itself; it starts
this script and sends it one JSON request per line on stdin::

    {"args": ["-m", "cpbasis.cli", "series", ...], "out": "FILE"}

For each request it runs ``sys.executable *args`` with stdout to ``FILE``,
waits for the exit, and answers one JSON line with the spawn time on the
system's monotonic clock, the wall time from spawn to reaped exit, the
child's user + system CPU time, its peak RSS in MB and its exit code.
It exits at the end of its stdin.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *request["args"]], stdout=out)
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "start": start,
            "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "code": proc.returncode,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
