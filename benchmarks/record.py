"""Record each workload's expected outputs, confirming each by a second route.

    python3 benchmarks/record.py        # rewrites benchmarks/expected.json

* enumerate: the CLI listing's sha256, row count and layer sizes.  The
  layer sizes must equal the fs(2l) series of the inequality engine,
  which is the coincidence of the two bases.
* series: the CLI coefficients.  They must equal the layer sizes of
  ``enumerate_basis(..., method="divisibility")``.
* every workload: a digest of the point-check samples drawn for the
  default seed, with their verdicts.  All three routes must give every
  sample its drawn verdict (and, for enumerate, list it exactly when it
  is admissible), the audits must report no mismatch and every
  branching case must hold.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

import run

sys.path.insert(0, str(run.SRC))  # for the second routes and the sample draw

from cpbasis import BasisKind, enumerate_basis, graded_series  # noqa: E402


class RecordError(Exception):
    """An output could not be confirmed by its second route."""


def confirm(ok: bool, what: str) -> None:
    if not ok:
        raise RecordError(what)


def record_job(job: dict) -> tuple[dict, set | None]:
    """Expected output of one CLI job, and its listing if it has one."""
    child = run.spawn(run.child_args("cli", run.cli_args(job), None))
    confirm(child.code == 0, f"{job['command']} exited with {child.code}")
    top = job["max_degree"]
    if job["command"] == "enumerate":
        confirm(job["kind"] == "std", "the coincidence route needs a std listing")
        rows = run.parse_listing(child.out)
        confirm(rows is not None, "unreadable listing")
        sizes = Counter(-degree for degree, _ in rows)
        layers = [sizes[m] for m in range(top + 1)]
        fs = BasisKind("fs", 2 * job["rank"], job["level"])
        second = list(graded_series(fs, top).coeffs)
        confirm(layers == second, f"listing layers {layers} != fs series {second}")
        entry = {
            "sha256": hashlib.sha256(child.out).hexdigest(),
            "rows": len(rows),
            "layers": layers,
        }
        return entry, set(rows)
    confirm(job["kind"] == "fs", "the divisibility route is the second one for fs only")
    coeffs = json.loads(child.out)["coeffs"]
    basis = BasisKind(job["kind"], job["rank"], job["level"])
    second = [len(layer) for layer in enumerate_basis(basis, top, method="divisibility")]
    confirm(coeffs == second, f"series {coeffs} != divisibility layers {second}")
    return {"coeffs": coeffs}, None


def record(workloads: dict, seed: int = run.DEFAULT_SEED) -> dict:
    run.RESULTS.mkdir(exist_ok=True)
    expected = {}
    with run.launcher():
        for name, spec in workloads.items():
            entry, listing = record_job(spec["job"]) if "job" in spec else ({}, None)
            sample_file, verdicts, digest = run.draw_samples(name, spec, seed)
            args = run.spotcheck_args(spec, sample_file)
            child = run.spawn(run.child_args("spotcheck", args, None))
            sample_file.unlink()
            tally = run.Tally()
            report = run.check_spot(child, tally, verdicts, listing)
            confirm(report is not None and not tally.failures, f"{name}: {tally.failures}")
            entry["samples_sha256"] = digest
            expected[name] = entry
    return expected


if __name__ == "__main__":
    expected = record(run.WORKLOADS)
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")
    print(json.dumps(expected))
