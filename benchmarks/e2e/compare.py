"""Compare two sets of runs: ``python3 benchmarks/e2e/compare.py A.json B.json``.

A set is what ``run.py`` writes when run without ``--workload``.  For
each (end-to-end metric, workload) it prints both medians, both
quartile ranges, the bound ``BENCHMARK.json`` fixes and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — no regression shown, but a side's quartile range is
  wider than the bound, so "unchanged" cannot be claimed (unless every
  run of B reads better than every run of A);
* ``ok``         — otherwise.

Exits non-zero when any pair regressed.  Comparing two sets of the same
commit is the benchmark's own steadiness check; comparing parent and
change is every later before/after.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def values_of(run_set: dict) -> dict:
    """``(workload, metric) -> values`` over the set's runs."""
    out: dict = {}
    for run in run_set["runs"]:
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; the quartiles are the median for one run."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a_median, a_q1, a_q3 = summary(a)
    b_median, b_q1, b_q3 = summary(b)
    if sign * (b_median - a_median) > bound * abs(a_median):
        return "regressed"
    spreads = ((a_q3 - a_q1) / abs(a_median), (b_q3 - b_q1) / abs(b_median))
    if max(spreads) > bound:
        b_always_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "ok" if b_always_better else "unresolved"
    return "ok"


def compare(set_a: dict, set_b: dict, spec: dict) -> tuple[list[str], int]:
    """``(report lines, number of regressed pairs)``."""
    a_values, b_values = values_of(set_a), values_of(set_b)
    lines = [
        f"{'workload':<16} {'metric':<24} {'A median':>11} {'A q1..q3':>23} "
        f"{'B median':>11} {'B q1..q3':>23} {'bound':>6}  verdict"
    ]
    regressed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            regressed += outcome == "regressed"
            a_median, a_q1, a_q3 = summary(a)
            b_median, b_q1, b_q3 = summary(b)
            lines.append(
                f"{workload:<16} {metric['name']:<24} {a_median:>11.5g} "
                f"{a_q1:>11.5g}..{a_q3:<10.5g} {b_median:>11.5g} "
                f"{b_q1:>11.5g}..{b_q3:<10.5g} {metric['bound']:>6.3g}  {outcome}"
            )
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    set_a, set_b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    lines, regressed = compare(set_a, set_b, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
