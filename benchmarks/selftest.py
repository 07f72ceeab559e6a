"""Harness self-test: the three workloads at a small size, and a negative case.

    python3 benchmarks/selftest.py

Records the expected outputs of small versions of the workloads (each
confirmed by its second route), runs every workload untraced and traced
against them, then runs each again with one deliberately wrong expected
value, which must give ``error_rate > 0`` and a failing exit status.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import record
import run

SMALL = {
    "enumerate": {
        "job": {"command": "enumerate", "kind": "std", "rank": 1, "level": 1, "max_degree": 8},
        "samples": {"rank": 2, "level": 1, "degrees": [3, 8], "per_degree": 10},
    },
    "series": {
        "job": {"command": "series", "kind": "fs", "rank": 2, "level": 1, "max_degree": 10},
        "samples": {"rank": 2, "level": 1, "degrees": [5, 10], "per_degree": 10},
    },
    "verify": {
        "samples": {"rank": 2, "level": 1, "degrees": [5, 8], "per_degree": 10},
        "audits": [[1, 1, 2]],
        "branching": [2, 2],
    },
}

# one wrong expected value per workload, each caught by a different check
CORRUPTIONS = {
    "enumerate": lambda e: e.update(sha256="0" * 64),
    "series": lambda e: e["coeffs"].__setitem__(-1, e["coeffs"][-1] + 1),
    "verify": lambda e: e.update(samples_sha256="0" * 64),
}


def run_small(name: str, trace: int, seed: int, expected: dict):
    """Run one small workload in-process; return its exit status and summary.

    The summary is None when the run printed none (the benchmark could not run).
    """
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv, workloads=SMALL, expected=expected)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]) if code != 2 and lines else None


def main() -> int:
    expected = record.record(SMALL)
    problems = []
    for name in SMALL:
        for trace, seed in ((0, run.DEFAULT_SEED), (1, run.DEFAULT_SEED + 5)):
            code, summary = run_small(name, trace, seed, expected)
            if code != 0 or not summary["correct"] or summary["failed"]:
                problems.append(f"{name} --trace {trace}: failed on correct expectations")
        wrong = copy.deepcopy(expected)
        CORRUPTIONS[name](wrong[name])
        code, summary = run_small(name, 0, run.DEFAULT_SEED, wrong)
        if code != 1 or summary["correct"] or summary["failed"] == 0:
            problems.append(f"{name}: a wrong expected value did not fail the run")
        else:
            print(f"{name}: negative case failed {summary['failed']} of {summary['attempted']}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
