"""Traced child: run one job in-process with spans around the public functions.

    python3 benchmarks/traced.py REPORT cli series --kind fs --rank 2 --level 3 --max-degree 20
    python3 benchmarks/traced.py REPORT spotcheck '<json spec>'

Each public function is replaced, on every module whose callers look it
up there, by a wrapper that records a span (name, start, end, parent).
Per-object calls such as ``ColoredPartition.__init__`` are not wrapped;
instead the enumeration a job returns is replayed through the public
``ColoredPartition`` constructor and ``sort_key`` after the job.  Spans
stay in memory and go to REPORT as one line of JSON when the job has
finished; a second line gives the seconds spent after the job (replay
and report), which the parent takes off the traced wall time.  The
job's stdout is exactly what the untraced job prints.
"""

from __future__ import annotations

import json
import sys
import time

from cpbasis import basis, cli, ident, leading, oracle, rootdata
from cpbasis.partitions import ColoredPartition

import spotcheck

# span name -> (defining module, modules whose callers look the name up)
TARGETS = {
    "basis.enumerate_basis": (basis, (basis, cli)),
    "basis.admissible_by_inequalities": (basis, (basis,)),
    "basis.admissible_by_divisibility": (basis, (basis,)),
    "leading.fs_leading_terms": (leading, (leading, basis, oracle, cli)),
    "leading.std_leading_terms": (leading, (leading, basis, cli)),
    "ident.transport_partition": (ident, (ident, leading, basis, cli)),
    "oracle.audit_windows": (oracle, (oracle, cli)),
    "oracle.brute_leading_term": (oracle, (oracle,)),
    "oracle.relation_support": (oracle, (oracle,)),
    "rootdata.verify_branching": (rootdata, (rootdata, cli)),
    "rootdata.weyl_dim": (rootdata, (rootdata, cli)),
}


class Tracer:
    """Spans and counts of one traced job."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.layers = None
        self.originals: dict = {}
        self.counts = {
            "partitions_out": 0,
            "accepted": 0,
            "support_partitions": 0,
            "terms_built": 0,
        }
        self._terms_seen: set = set()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observers().get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if observe is not None:
                observe(name, args, result)
            return result

        return traced

    def _observers(self):
        return {
            "basis.enumerate_basis": self._enumerated,
            "basis.admissible_by_inequalities": self._decided,
            "basis.admissible_by_divisibility": self._decided,
            "leading.fs_leading_terms": self._terms,
            "leading.std_leading_terms": self._terms,
            "oracle.relation_support": self._support,
        }

    def _enumerated(self, name, args, layers):
        if self.layers is None:
            self.layers = layers
        self.counts["partitions_out"] += sum(len(layer) for layer in layers)

    def _decided(self, name, args, ok):
        self.counts["accepted"] += bool(ok)

    def _terms(self, name, args, terms):
        # a fresh process builds each (name, args) once; later calls are cache hits
        if (name, args) not in self._terms_seen:
            self._terms_seen.add((name, args))
            self.counts["terms_built"] += len(terms)

    def _support(self, name, args, support):
        self.counts["support_partitions"] += len(support.partitions)

    def install(self):
        for name, (home, sites) in TARGETS.items():
            attr = name.split(".")[1]
            self.originals[name] = getattr(home, attr)
            traced = self.wrap(name, self.originals[name])
            for module in sites:
                setattr(module, attr, traced)


def replay(layers) -> dict:
    """Rebuild and re-sort an enumeration the way the search produced it.

    The search pushes factors in ascending (|degree|, color position)
    order, which is the reverse of a partition's canonical factor order,
    and appends each layer in lexicographic order of those push
    sequences.  Rebuilding from reversed factors and sorting that order
    by ``sort_key`` repeats both steps on the same inputs.
    """
    alphabet = layers[0][0].alphabet
    position = {c.pair: i for i, c in enumerate(alphabet.colors())}
    width = len(position)

    def push_order(p):
        return tuple(
            (-f.degree - 1) * width + position[f.color.pair] for f in reversed(p.factors)
        )

    pushed = [[p.factors[::-1] for p in layer] for layer in layers]
    clock = time.perf_counter
    start = clock()
    built = [[ColoredPartition(alphabet, fs) for fs in layer] for layer in pushed]
    build_s = clock() - start
    found = [sorted(layer, key=push_order) for layer in layers]
    start = clock()
    ordered = [sorted(layer, key=lambda p: p.sort_key) for layer in found]
    sort_s = clock() - start
    same = all(
        tuple(b) == layer and tuple(o) == layer
        for b, o, layer in zip(built, ordered, layers)
    )
    return {"build_s": build_s, "sort_s": sort_s, "same": same}


def main(argv) -> int:
    report_path, job, *args = argv
    tracer = Tracer()
    tracer.install()
    entry = {"cli": cli.main, "spotcheck": spotcheck.main}[job]
    code = tracer.wrap(f"{job}.main", entry)(args)
    sys.stdout.flush()
    job_end = time.monotonic()
    report = {
        "exit": code,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "cache": {
            name: list(tracer.originals[name].cache_info()[:2])
            for name in ("leading.fs_leading_terms", "leading.std_leading_terms")
        },
        "enumerate_cache_hits": basis._enumerate_cached.cache_info().hits,
        "replay": replay(tracer.layers) if tracer.layers else None,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
        # second line: time spent after the job, which the parent takes off the wall time
        fh.write(f"\n{time.monotonic() - job_end!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
