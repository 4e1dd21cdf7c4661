"""The AST lint: rule detection, scoping, and clean-tree invariant."""

from pathlib import Path

from repro.testing.lint import lint_file, lint_paths


def _lint_source(tmp_path, source, relative="src/repro/mod.py"):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_file(path, tmp_path)


class TestExistingRules:
    def test_bare_except_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path, "try:\n    pass\nexcept:\n    pass\n"
        )
        assert any("REPRO001" in f for f in findings)

    def test_mutable_default_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, "def f(x=[]):\n    return x\n")
        assert any("REPRO002" in f for f in findings)

    def test_time_time_only_in_deterministic_scope(self, tmp_path):
        source = "import time\n\nt = time.time()\n"
        assert any(
            "REPRO003" in f
            for f in _lint_source(
                tmp_path, source, "src/repro/testing/gen.py"
            )
        )
        assert not any(
            "REPRO003" in f
            for f in _lint_source(tmp_path, source, "src/repro/bench.py")
        )


class TestUnboundedQueues:
    def test_unbounded_queue_flagged(self, tmp_path):
        for source in (
            "import queue\nq = queue.Queue()\n",
            "import asyncio\nq = asyncio.Queue()\n",
            "from queue import Queue\nq = Queue()\n",
            "import queue\nq = queue.Queue(maxsize=0)\n",
            "import queue\nq = queue.Queue(0)\n",
            "import queue\nq = queue.LifoQueue()\n",
            "import queue\nq = queue.SimpleQueue()\n",
        ):
            findings = _lint_source(tmp_path, source)
            assert any("REPRO004" in f for f in findings), source

    def test_bounded_queue_clean(self, tmp_path):
        for source in (
            "import queue\nq = queue.Queue(maxsize=32)\n",
            "import queue\nq = queue.Queue(8)\n",
            "import asyncio\nq = asyncio.Queue(maxsize=16)\n",
            # A computed bound is trusted: the rule targets the
            # silent unbounded default, not dynamic configuration.
            "import queue\nq = queue.Queue(maxsize=limit)\n",
        ):
            findings = _lint_source(tmp_path, source)
            assert not findings, (source, findings)

    def test_tests_tree_is_exempt(self, tmp_path):
        source = "import queue\nq = queue.Queue()\n"
        findings = _lint_source(tmp_path, source, "tests/test_x.py")
        assert not any("REPRO004" in f for f in findings)

    def test_unrelated_calls_not_flagged(self, tmp_path):
        source = "class Queue:\n    pass\n\nq = make.Queue()\nr = deque()\n"
        findings = _lint_source(tmp_path, source)
        assert not any("REPRO004" in f for f in findings)


class TestLibraryPrint:
    def test_print_in_library_flagged(self, tmp_path):
        source = "def fit():\n    print('epoch 0')\n"
        findings = _lint_source(tmp_path, source, "src/repro/ml/model.py")
        assert any("REPRO005" in f for f in findings)

    def test_print_outside_library_not_flagged(self, tmp_path):
        source = "print('report')\n"
        for relative in (
            "src/repro/testing/cli.py",
            "tests/test_x.py",
            "benchmarks/bench_x.py",
            "examples/demo.py",
        ):
            findings = _lint_source(tmp_path, source, relative)
            assert not any("REPRO005" in f for f in findings), relative


def test_repository_is_lint_clean():
    root = Path(__file__).resolve().parent.parent
    findings = lint_paths(["src", "tests", "benchmarks"], root)
    assert findings == []
