#!/usr/bin/env python3
"""A/A (or A/B) comparison of two result documents from ``run.py --json``.

    python3 benchmarks/perf/compare.py A.json B.json

One row per workload x end-to-end metric: both values, how much *worse*
B is than A as a share of A (negative = better), the metric's bound
(``catalog.END_TO_END``, from which ``BENCHMARK.json`` is generated),
and a verdict.  ``fail_ratio`` has no relative
bound: any increase fails.  Exits 1 when any pairing is outside its
bound.  Exact-count per-layer metrics (when both documents are traced
runs of one seed) must agree exactly.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402

#: Per-layer metrics that are pure functions of the seed.
EXACT = ("eventloop.events_per_call", "eventloop.sim_ms_per_call",
         "slot.signals_per_call")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (a - b) / a if better == "higher" else (b - a) / a


def report(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> int:
    limits = {m: (better, bound)
              for m, _, better, bound in catalog.END_TO_END}
    outside: List[str] = []
    print("\n%-8s %-16s %14s %14s %9s %7s  %s"
          % ("workload", "metric", "A", "B", "B worse", "bound", "verdict"))
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            continue
        for metric, value_a in a["metrics"].items():
            value_b = b["metrics"][metric]
            better, bound = limits[metric]
            worse = worse_by(value_a, value_b, better)
            ok = worse <= bound
            if not ok:
                outside.append("%s %s" % (name, metric))
            print("%-8s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s"
                  % (name, metric, value_a, value_b, worse * 100,
                     bound * 100, "ok" if ok else "OUTSIDE"))
        ok = b["fail_ratio"] <= a["fail_ratio"]
        if not ok:
            outside.append("%s fail_ratio" % name)
        print("%-8s %-16s %14.6f %14.6f %9s %7s  %s"
              % (name, "fail_ratio", a["fail_ratio"], b["fail_ratio"], "",
                 "none", "ok" if ok else "OUTSIDE"))
        if "per_layer" in a and "per_layer" in b \
                and doc_a["seed"] == doc_b["seed"] and name != "live":
            for metric in EXACT:
                if a["per_layer"][metric] != b["per_layer"][metric]:
                    outside.append("%s %s (exact)" % (name, metric))
                    print("%-8s %-16s %r != %r  NOT EXACT"
                          % (name, metric, a["per_layer"][metric],
                             b["per_layer"][metric]))
    if outside:
        print("\noutside the bound: %s" % ", ".join(outside))
        return 1
    print("\nevery pairing within its bound")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path) as fh:
            docs.append(json.load(fh))
    return report(docs[0], docs[1])


if __name__ == "__main__":
    raise SystemExit(main())
