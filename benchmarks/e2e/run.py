"""bench_e2e: the layered end-to-end benchmark.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload search_distinct --seed 0 \\
        --seconds 6 --trace 0

prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` the run is repeated with timing wrappers installed and
the per-layer metrics are printed instead.  ``--out FILE`` also writes
the full report (spreads, checks, and the spans of a traced run).

Without ``--workload`` it runs a set — every workload, ``--runs`` seeds
starting at ``--seed``, each run in its own process — and writes the
set to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = ROOT / "BENCHMARK.json"


def contract_line(report: dict) -> str:
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in report["metrics"].items()
            },
        }
    )


def print_report(report: dict) -> None:
    kind = "per-layer (traced)" if report["trace"] else "end-to-end"
    print(f"workload {report['workload']}  seed {report['seed']}  {kind}")
    detail = report.get("detail", {})
    for name, (value, unit) in report["metrics"].items():
        line = f"  {name:<38} {value:>14.6g} {unit}"
        row = detail.get(name, {})
        if "q1" in row:
            line += f"   q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}"
        if "samples" in row:
            line += f"   samples {row['samples']}"
        print(line)
    for name, outcome in report["checks"].items():
        print(f"  check {name}: {outcome}")
    print(
        f"  attempted {report['attempted']}  failed {report['failed']}  "
        f"correct {report['correct']}"
    )


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    report = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.update_golden
    )
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    for key in ("spans", "request_routes"):
        report.pop(key, None)
    print_report(report)
    print(contract_line(report))
    return 0 if report["correct"] else 1


def run_set(args) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    runs = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in range(args.seed, args.seed + args.runs):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "result": result})
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    text = json.dumps({"trace": args.trace, "seconds": args.seconds, "runs": runs})
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    spec_seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--out")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_set(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
