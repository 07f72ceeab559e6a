#!/usr/bin/env python3
"""The cpbasis benchmark.  From the root of a checkout:

    python3 benchmarks/run.py --workload enumerate --seed 0 --seconds 40 --trace 0

Workloads are closed loops driven by this single process, with no
threads: one job at a time, run to completion, each in a fresh
interpreter that ``launch.py`` spawns for it, because the library keeps
whole enumerations and leading-term sets in unbounded ``lru_cache``s and
a repeat inside one process would time a dictionary lookup.

* ``enumerate``: ``cpbasis enumerate`` of std(2,2) down to degree -9 as
  CSV (141,863 rows).  Wide alphabet, shallow, divisibility search; the
  only job whose output is a listing.
* ``series``: ``cpbasis series`` of fs(2,3) down to degree -20.  Narrow
  alphabet, deep, path-sum search; only counts are wanted.
* ``verify``: the library script ``spotcheck.py``: oracle audits of
  (2,3,3) and (3,2,3), 504 seeded fs(4,2) partitions of degree 11-16
  decided three ways, and the branching identity on the 6x6 grid.  No
  search runs at all.

After each enumerate or series job ``spotcheck.py`` checks 504 seeded
samples from the job's own six deepest degrees in its own interpreter;
that gives those workloads their check metrics, and for enumerate every
sample must be listed exactly when it is admissible.  ``--seed`` draws
the point-check samples once per run; every repetition checks the same
ones.  The CLI jobs take no random input.

Every output is checked exactly against ``expected.json``.  With
``--trace 0`` the job is repeated as often as fits in ``--seconds`` and
the end-to-end metrics are medians over repetitions, or percentiles over
every check of the run.  Their times are taken at a reference host speed:
the speed of the host drifts by a fifth and more from one minute to the
next, CPU time with it, so a fixed pure-Python probe that shares no code
with cpbasis is timed before and after every child, and each child's
times are divided by its slowdown, the mean of the two probes over
``PROBE_S``.  A change to cpbasis moves them as much as the raw times;
the raw times and slowdowns go to the results file.  With ``--trace 1`` one
untraced and one traced repetition run (``traced.py``), and the per-layer
metrics come from the traced one.  Each metric is printed with its unit,
a results file with a provenance header goes to ``benchmarks/results/``,
and the last line of stdout is the JSON summary.  Exit status: 0 when
every output is correct, 1 when any is not, 2 when the benchmark cannot
run at all (then no summary is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # names the metrics and their units
DEFAULT_SEED = 0
SETUPS_PER_REP = 4
# CPU seconds of `probe` at the reference speed: its typical time on a quiet
# 2-core Intel Xeon host with CPython 3.11, where the benchmark was defined
PROBE_S = 0.25

# "samples": fs basis, degree range and samples per degree of the point checks.
# Every workload checks the 6 * 84 = 504 samples that verify's definition
# asks for ("about 500"); after a CLI job they come from the job's own basis
# (fs(4,2) is std(2,2) after transport) at its six deepest degrees.
WORKLOADS = {
    "enumerate": {
        "job": {"command": "enumerate", "kind": "std", "rank": 2, "level": 2, "max_degree": 9},
        "samples": {"rank": 4, "level": 2, "degrees": [4, 9], "per_degree": 84},
    },
    "series": {
        "job": {"command": "series", "kind": "fs", "rank": 2, "level": 3, "max_degree": 20},
        "samples": {"rank": 2, "level": 3, "degrees": [15, 20], "per_degree": 84},
    },
    "verify": {
        "samples": {"rank": 4, "level": 2, "degrees": [11, 16], "per_degree": 84},
        "audits": [[2, 3, 3], [3, 2, 3]],
        "branching": [6, 6],
    },
}

# prints the child's clock once `import cpbasis` is complete, and where it came from
SETUP_CODE = "import time, cpbasis; print(repr(time.monotonic()), cpbasis.__file__)"


_launcher: subprocess.Popen | None = None  # the running launch.py, see `launcher`


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no expected outputs)."""


class Tally:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 1.0


@dataclass
class Child:
    """One finished child interpreter."""

    start: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    out: bytes
    slowdown: float = 1.0  # the host's slowness around the child, see `probe`


def child_env() -> dict:
    # the checkout's sources only; a fixed hash seed keeps set iteration order,
    # and with it the search's inner loops, the same from run to run
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


@contextlib.contextmanager
def launcher():
    """Start ``launch.py`` for `spawn`; close it and wait for its exit at the end.

    It spawns every child, because a child's ``ru_maxrss`` would also
    count this process's own peak RSS.
    """
    global _launcher
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py")], cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    _launcher = proc
    try:
        yield
    finally:
        _launcher = None
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()


def spawn(args) -> Child:
    """Run a fresh interpreter on `args` to exit, through the launcher.

    The wall time runs from just before the spawn to the reaped exit,
    stdout written out; CPU time (user + system) and peak RSS are the
    child's ``rusage`` from ``wait4``.
    """
    out = RESULTS / f"child-{os.getpid()}.out"
    _launcher.stdin.write(json.dumps({"args": list(args), "out": str(out)}) + "\n")
    _launcher.stdin.flush()
    reply = _launcher.stdout.readline()
    if not reply:
        raise BenchError("the launcher stopped")
    reply = json.loads(reply)
    data = out.read_bytes()
    out.unlink()
    return Child(
        reply["start"], reply["wall_s"], reply["cpu_s"], reply["peak_rss_mb"], reply["code"], data
    )


def probe() -> float:
    """CPU seconds of a fixed pure-Python task: tuple keys, dict updates, a sort.

    It runs in this process and shares no code with cpbasis, so its time
    follows only the speed the host gives the benchmark at the moment.
    """
    start = time.process_time()
    counts = {}
    for i in range(150_000):
        key = (i % 97, i % 89, i * 7 % 1013)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.process_time() - start


def pin_to_one_cpu() -> None:
    """Run this process, and so every child it spawns, on one CPU.

    Virtual CPUs of a shared host are slowed by their neighbours apart,
    so the probe and the children it scales must run on the same one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_time() -> float:
    """Seconds from spawn to ``import cpbasis`` complete, in a fresh interpreter."""
    child = spawn(["-c", SETUP_CODE])
    fields = child.out.split()
    if child.code or len(fields) != 2:
        raise BenchError("cannot import cpbasis from the checkout's src/")
    if Path(fields[1].decode()).resolve() != SRC / "cpbasis" / "__init__.py":
        raise BenchError(f"cpbasis was imported from {fields[1].decode()}, not src/")
    return float(fields[0]) - child.start


def cli_args(job: dict) -> list[str]:
    args = [
        job["command"], "--kind", job["kind"], "--rank", str(job["rank"]),
        "--level", str(job["level"]), "--max-degree", str(job["max_degree"]),
    ]
    return args + ["--format", "csv"] if job["command"] == "enumerate" else args


def parse_listing(out: bytes):
    """Rows of ``cpbasis enumerate --format csv``: (degree, factors) pairs."""
    try:
        reader = csv.reader(io.StringIO(out.decode()))
        if next(reader, None) != ["degree", "factors"]:
            return None
        return [(int(degree), factors) for degree, factors in reader]
    except ValueError:
        return None


def check_job(child: Child, job: dict, expected: dict, tally: Tally):
    """Check a CLI job's output exactly.

    Returns the number of partitions it listed or counted and, for a
    listing, its set of (degree, factors) rows; (None, None) on failure.
    """
    name = job["command"]
    if not tally.check(child.code == 0, f"{name}: exit code {child.code}"):
        return None, None
    if name == "enumerate":
        digest = hashlib.sha256(child.out).hexdigest()
        rows = parse_listing(child.out) or []
        layers = Counter(-degree for degree, _ in rows)
        ok = (
            digest == expected["sha256"]
            and len(rows) == expected["rows"]
            and [layers[m] for m in range(job["max_degree"] + 1)] == expected["layers"]
        )
        if not tally.check(ok, f"enumerate: output differs (sha256 {digest})"):
            return None, None
        return len(rows), set(rows)
    try:
        coeffs = json.loads(child.out)["coeffs"]
    except (ValueError, KeyError, TypeError):
        coeffs = None
    if not tally.check(coeffs == expected["coeffs"], f"series: coefficients {coeffs}"):
        return None, None
    return sum(coeffs), None


def check_spot(child: Child, tally: Tally, verdicts: list[bool], listing=None):
    """Check a point-check report; return it, or None if unusable.

    All three routes must give each sample the verdict it was drawn with,
    and with a listing at hand it must be listed exactly when admissible.
    """
    if not tally.check(child.code == 0, f"point checks: exit code {child.code}"):
        return None
    try:
        report = json.loads(child.out)
    except ValueError:
        tally.check(False, "point checks: unreadable report")
        return None
    if not tally.check(len(report["samples"]) == len(verdicts), "point checks: samples lost"):
        return None
    for (degree, factors, accepted, agree), drawn in zip(report["samples"], verdicts):
        tally.check(agree and accepted == drawn, f"the routes disagree on {factors}")
        if listing is not None:
            tally.check(
                ((degree, factors) in listing) == accepted,
                f"listing membership of {factors} contradicts its checks",
            )
    for audit in report["audits"]:
        tally.check(audit["mismatches"] == 0, f"oracle audit mismatches: {audit}")
    for ell, m, holds in report["branching"]:
        tally.check(holds, f"branching fails at ell={ell}, m={m}")
    return report


def child_args(job: str, args: list[str], report: Path | None) -> list[str]:
    """Interpreter arguments for a CLI or point-check job, traced into `report` if given."""
    if report is not None:
        return [str(HERE / "traced.py"), str(report), job, *args]
    if job == "cli":
        return ["-m", "cpbasis.cli", *args]
    return [str(HERE / "spotcheck.py"), *args]


def read_report(path: Path, child: Child, tally: Tally):
    """Load a traced child's report; take its post-job time off its wall time."""
    try:
        with open(path) as fh:
            report = json.loads(fh.readline())
            child.wall_s -= float(fh.readline())
    except (OSError, ValueError):
        tally.check(False, f"traced job left no report at {path.name}")
        return None
    finally:
        path.unlink(missing_ok=True)
    tally.check(
        report["enumerate_cache_hits"] == 0,
        "the enumeration cache was hit inside one traced job",
    )
    if report["replay"] is not None:
        tally.check(report["replay"]["same"], "the replay does not reproduce the enumeration")
    return report


def draw_samples(name: str, spec: dict, seed: int):
    """Draw a run's point-check samples from `seed` into a file.

    Returns the file, the drawn verdicts and a digest of both.
    """
    import spotcheck  # needs the checkout's src on sys.path

    want = spec["samples"]
    lo, hi = want["degrees"]
    samples, verdicts = spotcheck.draw(
        want["rank"], want["level"], range(lo, hi + 1), want["per_degree"], seed
    )
    path = RESULTS / f"{name}-seed{seed}.samples.json"
    path.write_text(json.dumps(samples))
    digest = hashlib.sha256(json.dumps([samples, verdicts]).encode()).hexdigest()
    return path, verdicts, digest


def spotcheck_args(spec: dict, sample_file: Path) -> list[str]:
    """Arguments of ``spotcheck.py`` for a workload and its drawn samples."""
    params = {
        "samples": str(sample_file),
        "rank": spec["samples"]["rank"],
        "level": spec["samples"]["level"],
        "audits": spec.get("audits", []),
        "branching": spec.get("branching", [0, 0]),
    }
    return [json.dumps(params)]


def run_rep(name: str, spec: dict, expected: dict, seed: int, samples, tally: Tally,
            traced=False, before=None):
    """One repetition: the job and, after a CLI job, its point checks.

    `samples` is the run's sample file and drawn verdicts; `before` a
    probe time taken just before, if any.  Each child's slowdown is the
    mean of the probes before and after it over ``PROBE_S``.  Returns the
    children run (the job first), their traced reports, the number of
    partitions the job listed, counted or decided, and the check latencies.
    """
    job = spec.get("job")
    sample_file, verdicts = samples
    steps = [("cli", cli_args(job))] if job else []
    steps.append(("spotcheck", spotcheck_args(spec, sample_file)))
    children, reports = [], []
    items, listing, latencies = None, None, []
    before = before or probe()
    for kind, args in steps:
        report = RESULTS / f"{name}-seed{seed}-{kind}.trace.json" if traced else None
        child = spawn(child_args(kind, args, report))
        after = probe()
        child.slowdown = (before + after) / (2 * PROBE_S)
        before = after
        children.append(child)
        if report is not None:
            reports.append(read_report(report, child, tally))
        if kind == "cli":
            items, listing = check_job(child, job, expected, tally)
            continue
        spot = check_spot(child, tally, verdicts, listing)
        if spot is not None:
            latencies = spot["latencies_s"]
            items = items if job else len(spot["samples"])
    return {
        "job": children[0],
        "children": children,
        "reports": reports,
        "items": items,
        "latencies": latencies,
    }


def end_to_end_metrics(setups: list[float], reps: list[dict]) -> dict:
    """Medians over the run's repetitions (``setup_s``: over its start-ups).

    Every time is at the reference speed: divided by the slowdown of the
    child it was taken in.  The check metrics pool the checks of every
    repetition; each repetition makes 504, so p98 keeps ten or more
    beyond it even in a run of one repetition.
    """
    def median(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    jobs = [rep["job"] for rep in reps]
    latencies = [
        lat / rep["children"][-1].slowdown for rep in reps for lat in rep["latencies"]
    ]
    return {
        "setup_s": median(setups),
        "wall_s": median([child.wall_s / child.slowdown for child in jobs]),
        "cpu_s": median([child.cpu_s / child.slowdown for child in jobs]),
        "peak_rss_mb": median([child.peak_rss_mb for child in jobs]),
        "partitions_per_s": median(
            [rep["items"] * rep["job"].slowdown / rep["job"].wall_s
             for rep in reps if rep["items"]]
        ),
        "checks_per_s": len(latencies) / sum(latencies) if latencies else None,
        "check_p50_ms": statistics.median(latencies) * 1e3 if latencies else None,
        "check_p98_ms": (
            statistics.quantiles(latencies, n=50)[-1] * 1e3 if len(latencies) > 1 else None
        ),
    }


def per_layer_metrics(plain: dict, traced: dict, cli_bytes: int) -> dict:
    """Per-layer figures from the traced repetition's spans, counts and replay.

    A layer's self time is its spans' duration minus what their child
    spans cover.  ``basis.walk_s`` is derived: enumeration time minus the
    replayed build and sort.
    """
    total, own, calls = Counter(), Counter(), Counter()
    counts, cache = Counter(), Counter()
    replayed = Counter()
    for report in filter(None, traced["reports"]):
        spans = report["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - covered[index]
            if parent < 0 or spans[parent][0] != name:
                total[name] += end - start
        counts.update(report["counts"])
        for hits, misses in report["cache"].values():
            cache["hits"] += hits
            cache["misses"] += misses
        if report["replay"]:
            replayed["build_s"] += report["replay"]["build_s"]
            replayed["sort_s"] += report["replay"]["sort_s"]
    checks = calls["basis.admissible_by_inequalities"] + calls["basis.admissible_by_divisibility"]
    return {
        "basis.enumerate_s": total["basis.enumerate_basis"],
        "basis.walk_s": total["basis.enumerate_basis"] - replayed["build_s"] - replayed["sort_s"],
        "basis.partitions_out": counts["partitions_out"],
        "partitions.build_s": replayed["build_s"],
        "partitions.sort_s": replayed["sort_s"],
        "basis.check_ineq_s": own["basis.admissible_by_inequalities"],
        "basis.check_div_s": own["basis.admissible_by_divisibility"],
        "basis.checks": checks,
        "basis.accept_ratio": counts["accepted"] / checks if checks else 0.0,
        "leading.terms_s": own["leading.fs_leading_terms"] + own["leading.std_leading_terms"],
        "leading.cache_hits": cache["hits"],
        "leading.cache_misses": cache["misses"],
        "leading.terms_built": counts["terms_built"],
        "ident.transport_s": own["ident.transport_partition"],
        "ident.transports": calls["ident.transport_partition"],
        "oracle.audit_s": total["oracle.audit_windows"],
        "oracle.supports": calls["oracle.relation_support"],
        "oracle.support_partitions": counts["support_partitions"],
        "oracle.minimum_s": own["oracle.brute_leading_term"],
        "rootdata.weyl_dim_s": total["rootdata.weyl_dim"],
        "rootdata.weyl_dim_calls": calls["rootdata.weyl_dim"],
        "cli.self_s": own["cli.main"],
        "cli.bytes_out": cli_bytes,
        "trace.overhead_s": sum(c.wall_s / c.slowdown for c in traced["children"])
        - sum(c.wall_s / c.slowdown for c in plain["children"]),
    }


def provenance(args) -> dict:
    """Where and how a results file was made."""
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            found = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = found.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, as ``BENCHMARK.json`` lists them."""
    listed = load_json(BENCHMARK)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in listed}


def main(argv=None, workloads=WORKLOADS, expected=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = workloads[args.workload]
    tally = Tally()
    try:
        if not (SRC / "cpbasis" / "__init__.py").is_file():
            raise BenchError(f"no cpbasis sources under {SRC}")
        wanted = (expected or load_json(EXPECTED))[args.workload]
        units = metric_units(args.trace)
        RESULTS.mkdir(exist_ok=True)
        sys.path.insert(0, str(SRC))
        pin_to_one_cpu()
        with launcher():
            setup_time()  # compiles the bytecode once, so every timed start finds it
            header = provenance(args)
            sample_file, verdicts, digest = draw_samples(args.workload, spec, args.seed)
            if args.seed == DEFAULT_SEED:
                tally.check(digest == wanted["samples_sha256"], f"samples differ: {digest}")
            samples = sample_file, verdicts
            setups, reps = [], []
            if args.trace:
                plain = run_rep(args.workload, spec, wanted, args.seed, samples, tally)
                traced = run_rep(
                    args.workload, spec, wanted, args.seed, samples, tally, traced=True
                )
                cli_bytes = len(traced["job"].out) if "job" in spec else 0
                metrics = per_layer_metrics(plain, traced, cli_bytes)
                reps = [plain, traced]
            else:
                # as many repetitions as fit in --seconds, judged by their mean length
                started = time.monotonic()
                elapsed = 0.0
                while not reps or elapsed * (len(reps) + 1) / len(reps) <= args.seconds:
                    before = probe()
                    setups += [setup_time() * PROBE_S / before for _ in range(SETUPS_PER_REP)]
                    reps.append(run_rep(
                        args.workload, spec, wanted, args.seed, samples, tally, before=before
                    ))
                    elapsed = time.monotonic() - started
                metrics = end_to_end_metrics(setups, reps)
        sample_file.unlink()
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(metrics)} differ from {BENCHMARK.name}")
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    for name, value in metrics.items():
        print(f"{name:28} {value!r:>24} {units[name]}")
    failed = len(tally.failures)
    print(f"{'error_rate':28} {tally.error_rate!r:>24} ({failed} of {tally.attempted})")
    for note in tally.failures[:20]:
        print(f"FAILED: {note}", file=sys.stderr)
    summary = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    results = {
        "provenance": header,
        **summary,
        "error_rate": tally.error_rate,
        "failures": tally.failures,
        "setup_s_samples": setups,
        "repetitions": [
            {
                "wall_s": [c.wall_s for c in rep["children"]],
                "cpu_s": [c.cpu_s for c in rep["children"]],
                "slowdown": [c.slowdown for c in rep["children"]],
                "peak_rss_mb": [c.peak_rss_mb for c in rep["children"]],
                "partitions": rep["items"],
            }
            for rep in reps
        ],
        "spans": [r["spans"] for r in reps[-1]["reports"] if r] if args.trace else [],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(results, fh)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
