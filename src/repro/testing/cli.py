"""``python -m repro.testing`` — the fuzzing CLI.

Runs the differential oracles and metamorphic invariants over seeded
case batches.  On failure the case is shrunk to a minimal reproducer
and written to a replayable JSON seed file::

    python -m repro.testing --cases 500 --seed 0
    python -m repro.testing --subsystem graph --cases 50
    python -m repro.testing --replay fuzz-failure.json

Exit status is 0 when every case agrees with its oracle, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.testing.differential import (
    SUBSYSTEMS,
    check_case,
    run,
)
from repro.testing.shrink import shrink


def _failure_category(message: str) -> str:
    """Coarse failure class: keeps the shrinker from wandering onto a
    *different* bug (or a checker crash) while minimizing."""
    return message.split(":", 1)[0]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description=(
            "Differential & metamorphic correctness harness: fuzz the "
            "optimized search/graph/CRF/temporal implementations "
            "against brute-force oracles."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=200,
        help="cases per subsystem (default 200)",
    )
    parser.add_argument(
        "--subsystem",
        action="append",
        choices=SUBSYSTEMS,
        default=None,
        help="restrict to one subsystem (repeatable; default: all)",
    )
    parser.add_argument(
        "--out",
        default="fuzz-failure.json",
        help="where to write the shrunk failing case (default "
        "fuzz-failure.json)",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run a previously saved failure file instead of fuzzing",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report the raw failing case without minimizing it",
    )
    return parser


def _replay(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        saved = json.load(handle)
    subsystem = saved["subsystem"]
    case = saved.get("shrunk_case") or saved["case"]
    message = check_case(subsystem, case)
    if message is None:
        print(f"replay[{subsystem}]: case no longer fails (fixed)")
        return 0
    print(f"replay[{subsystem}]: still failing\n{message}")
    return 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.replay:
        return _replay(args.replay)

    subsystems = tuple(args.subsystem) if args.subsystem else SUBSYSTEMS
    report = run(
        subsystems=subsystems,
        seed=args.seed,
        cases=args.cases,
        on_progress=lambda name, n: print(
            f"  {name:<11} {n} cases", flush=True
        ),
    )
    total = sum(report.counts.values())
    print(
        f"ran {total} cases (seed={args.seed}) in {report.elapsed:.1f}s; "
        f"digest {report.digest[:16]}"
    )
    if report.ok:
        print("all subsystems agree with their oracles")
        return 0

    failure = report.failures[0]
    print(
        f"\nFAILURE in {failure.subsystem} "
        f"(seed={failure.seed}, case #{failure.case_index}):\n"
        f"{failure.message}\n"
    )
    shrunk = failure.case
    if not args.no_shrink:
        print("shrinking ...", flush=True)
        category = _failure_category(failure.message)

        def same_failure(candidate: dict) -> bool:
            message = check_case(failure.subsystem, candidate)
            return (
                message is not None
                and _failure_category(message) == category
            )

        shrunk = shrink(failure.case, same_failure)
        print(f"shrunk case: {json.dumps(shrunk, ensure_ascii=False)}")
    payload = {
        "subsystem": failure.subsystem,
        "seed": failure.seed,
        "case_index": failure.case_index,
        "message": check_case(failure.subsystem, shrunk),
        "case": failure.case,
        "shrunk_case": shrunk,
        "replay": f"python -m repro.testing --replay {args.out}",
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, ensure_ascii=False)
    print(f"wrote replayable failure to {args.out}")
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
