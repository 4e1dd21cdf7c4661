"""Every benchmark and example on disk is run by some CI job, and
every benchmark or example a CI job names is on disk.

A bench nobody runs is a claim nobody defends (the paper's three
quality benches sat ungated for ten PRs), and a job naming a deleted
bench fails only after the merge.  The examples are held to the same
rule: ``tests/test_reachability.py`` counts them as what reaches
``corpus.export``.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOWS = REPO_ROOT / ".github" / "workflows"
BENCH_PATH = re.compile(r"benchmarks/(bench_\w+\.py)")
EXAMPLE_PATH = re.compile(r"examples/(\w+\.py)")


def _named_by_ci(pattern: re.Pattern) -> set[str]:
    named: set[str] = set()
    for workflow in ("ci.yml", "nightly.yml"):
        text = (WORKFLOWS / workflow).read_text(encoding="utf-8")
        # Comment lines describe jobs; only steps run anything.
        steps = "\n".join(
            line for line in text.splitlines()
            if not line.lstrip().startswith("#")
        )
        named.update(pattern.findall(steps))
    return named


def _on_disk(directory: str, glob: str) -> set[str]:
    return {path.name for path in (REPO_ROOT / directory).glob(glob)}


def test_every_bench_on_disk_is_run_by_a_workflow():
    on_disk = _on_disk("benchmarks", "bench_*.py")
    assert on_disk - _named_by_ci(BENCH_PATH) == set()


def test_every_bench_a_workflow_names_exists():
    on_disk = _on_disk("benchmarks", "bench_*.py")
    assert _named_by_ci(BENCH_PATH) - on_disk == set()


def test_every_example_on_disk_is_run_by_a_workflow():
    on_disk = _on_disk("examples", "*.py")
    assert on_disk - _named_by_ci(EXAMPLE_PATH) == set()


def test_every_example_a_workflow_names_exists():
    on_disk = _on_disk("examples", "*.py")
    assert _named_by_ci(EXAMPLE_PATH) - on_disk == set()
