"""Run one `cpbasis` command and check its exit code, stdout digest and peak memory.

    python tests/reach.py MB DIGEST ARGV...

Runs ``python -m cpbasis.cli ARGV`` as a child, with the package found as
this interpreter finds it (``PYTHONPATH=src`` in a checkout), and hashes
its stdout with SHA-256 as it streams, so no output is held.  The child's
own peak resident set comes from ``os.wait4``.  Exits 1 when the child
exits nonzero, when DIGEST is not ``-`` and is not the hex digest of the
stdout, or when the peak is over MB MiB; otherwise 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound, expected, *command = argv
    child = subprocess.Popen(
        [sys.executable, "-m", "cpbasis.cli", *command], stdout=subprocess.PIPE
    )
    digest = hashlib.sha256()
    for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(chunk)
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = code = os.waitstatus_to_exitcode(status)
    failures = []
    if code:
        failures.append(f"exit code {code}")
    if expected != "-" and digest.hexdigest() != expected:
        failures.append(f"stdout digest {digest.hexdigest()} is not {expected}")
    if usage.ru_maxrss > int(bound) * 1024:  # KiB on Linux
        failures.append(f"peak RSS {usage.ru_maxrss} KiB is over {bound} MB")
    for failure in failures:
        print(f"{' '.join(command)}: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
