"""Every benchmark on disk is run by some CI job, and every benchmark a
CI job names is on disk.

A bench nobody runs is a claim nobody defends (the paper's three
quality benches sat ungated for ten PRs), and a job naming a deleted
bench fails only after the merge.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOWS = REPO_ROOT / ".github" / "workflows"
BENCH_PATH = re.compile(r"benchmarks/(bench_\w+\.py)")


def _benches_named_by_ci() -> set[str]:
    named: set[str] = set()
    for workflow in ("ci.yml", "nightly.yml"):
        text = (WORKFLOWS / workflow).read_text(encoding="utf-8")
        # Comment lines describe jobs; only steps run anything.
        steps = "\n".join(
            line for line in text.splitlines()
            if not line.lstrip().startswith("#")
        )
        named.update(BENCH_PATH.findall(steps))
    return named


def _benches_on_disk() -> set[str]:
    benchmarks = REPO_ROOT / "benchmarks"
    return {path.name for path in benchmarks.glob("bench_*.py")}


def test_every_bench_on_disk_is_run_by_a_workflow():
    assert _benches_on_disk() - _benches_named_by_ci() == set()


def test_every_bench_a_workflow_names_exists():
    assert _benches_named_by_ci() - _benches_on_disk() == set()
