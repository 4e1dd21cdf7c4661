#!/usr/bin/env python
"""The benchmark-regression gate.

Runs the gate benchmarks (query throughput, parallel ingest, WAL
overhead), collects the ``BENCH_<name>.json`` files they emit, and
compares every metric against the committed baselines under
``benchmarks/results/<name>.baseline.json``.  A metric that is more
than ``--threshold`` (default 25%) *worse* than its baseline —
direction-aware: lower throughput, higher overhead — fails the gate.

Usage::

    python benchmarks/bench_gate.py                    # run + compare
    python benchmarks/bench_gate.py --no-run           # compare only
    python benchmarks/bench_gate.py --update-baselines # bless current

Baselines are machine-relative; re-bless them (``--update-baselines``)
when the CI runner class changes, not to paper over a regression.

``BENCH_GATE_INJECT_SLOWDOWN=0.7`` (read by the benchmarks' JSON
writer) degrades every emitted metric by 30% — the hook used to verify
the gate actually trips.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

GATE_BENCHMARKS = {
    "query_throughput": "benchmarks/bench_query_throughput.py",
    "pipeline_parallel": "benchmarks/bench_pipeline_parallel.py",
    "wal_overhead": "benchmarks/bench_wal_overhead.py",
    "segment_serving": "benchmarks/bench_segment_serving.py",
    "graph_match": "benchmarks/bench_graph_match.py",
    "cohort": "benchmarks/bench_cohort.py",
}


def _run_benchmarks(names: list[str]) -> int:
    files = [GATE_BENCHMARKS[name] for name in names]
    command = [sys.executable, "-m", "pytest", "-q", *files]
    print("running:", " ".join(command), flush=True)
    return subprocess.call(command, cwd=REPO_ROOT)


def _load(path: Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _compare(name: str, threshold: float) -> list[str]:
    """Failure messages for one benchmark (empty = clean)."""
    current = _load(REPO_ROOT / f"BENCH_{name}.json")
    baseline = _load(RESULTS_DIR / f"{name}.baseline.json")
    if current is None:
        return [f"{name}: no BENCH_{name}.json produced"]
    if baseline is None:
        print(f"  {name}: no baseline committed yet (skipping comparison)")
        return []
    failures = []
    for metric, entry in sorted(baseline["metrics"].items()):
        if not entry.get("gate", True):
            continue  # report-only metric, too volatile to gate on
        got = current["metrics"].get(metric)
        if got is None:
            failures.append(f"{name}.{metric}: metric disappeared")
            continue
        base_value = float(entry["value"])
        value = float(got["value"])
        direction = entry["direction"]
        if base_value == 0:
            continue
        if direction == "higher":
            ratio = value / base_value
            regressed = ratio < 1.0 - threshold
        else:
            ratio = base_value / value
            regressed = ratio < 1.0 - threshold
        marker = "FAIL" if regressed else "ok"
        print(
            f"  {name}.{metric}: {value:.2f} vs baseline "
            f"{base_value:.2f} ({direction} is better) -> "
            f"{ratio:.2f}x [{marker}]"
        )
        if regressed:
            failures.append(
                f"{name}.{metric}: {value:.2f} is "
                f"{(1.0 - ratio) * 100:.0f}% worse than baseline "
                f"{base_value:.2f} (threshold {threshold * 100:.0f}%)"
            )
    return failures


def _update_baselines(names: list[str]) -> int:
    RESULTS_DIR.mkdir(exist_ok=True)
    missing = 0
    for name in names:
        source = REPO_ROOT / f"BENCH_{name}.json"
        if not source.exists():
            print(f"  {name}: no BENCH_{name}.json to bless", file=sys.stderr)
            missing += 1
            continue
        target = RESULTS_DIR / f"{name}.baseline.json"
        shutil.copyfile(source, target)
        print(f"  blessed {target}")
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--no-run",
        action="store_true",
        help="skip running the benchmarks; compare existing JSON only",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="bless the current BENCH_*.json as the new baselines",
    )
    parser.add_argument(
        "--bench",
        action="append",
        choices=sorted(GATE_BENCHMARKS),
        default=None,
        help="restrict to one benchmark (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    names = args.bench or sorted(GATE_BENCHMARKS)

    if not args.no_run:
        status = _run_benchmarks(names)
        if status != 0:
            print("benchmarks failed; gate cannot evaluate", file=sys.stderr)
            return status

    if args.update_baselines:
        return _update_baselines(names)

    print("comparing against committed baselines:")
    failures = []
    for name in names:
        failures.extend(_compare(name, args.threshold))
    if failures:
        print("\nBENCHMARK REGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("gate passed: no metric regressed beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
