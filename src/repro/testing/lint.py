"""Stdlib-only AST lint for hazards the test suite can't catch.

Five rules, each motivated by a real failure mode in this codebase:

* **REPRO001 — bare ``except:``** (everywhere).  The runtime layer's
  whole point is that failures are isolated *and visible*; a bare
  except silently eats ``KeyboardInterrupt``/``SystemExit`` and any
  bug it never anticipated.
* **REPRO002 — mutable default arguments** (everywhere).  A shared
  ``[]``/``{}`` default aliases state across calls — deadly in a
  module where engines and caches are constructed repeatedly under
  fuzzing.
* **REPRO003 — ``time.time()`` in deterministic code** (harness
  modules under ``src/repro/testing/`` and the ``tests/`` tree).
  Oracles and generated cases must be replayable byte-for-byte;
  wall-clock reads are hidden nondeterminism.  Benchmarks and runtime
  metrics legitimately measure time and are exempt.
* **REPRO004 — unbounded queues** (everywhere except ``tests/``).
  ``queue.Queue()`` / ``asyncio.Queue()`` with no ``maxsize`` (or
  ``maxsize=0``) buffers without limit — under overload it queues
  toward memory exhaustion and unbounded latency instead of shedding.
  Bounded admission is a serving invariant; pass an explicit positive
  ``maxsize``.  Tests may build unbounded queues as scaffolding.
* **REPRO005 — ``print()`` in library code** (``src/repro/`` outside
  ``src/repro/testing/``).  The library reports through return values,
  ``/stats`` and exceptions; a print is output no caller asked for and
  none can capture.  The harness CLIs under ``repro.testing`` print
  their reports and are exempt.

Run as ``python -m repro.testing.lint [paths...]``; exits 1 when any
violation is found.  No third-party dependencies — this must run on a
bare CI python.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

DEFAULT_PATHS = ["src", "tests", "benchmarks"]

# Directories whose code must be deterministic (REPRO003 scope).
DETERMINISTIC_PARTS = (
    ("src", "repro", "testing"),
    ("tests",),
)

# Library code that must not print (REPRO005 scope), and its exemption.
LIBRARY_PARTS = ("src", "repro")
HARNESS_PARTS = ("src", "repro", "testing")

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set)
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict"}

# Queue constructors whose default maxsize=0 means "unbounded"
# (REPRO004).  Matched as bare names (from-imports) and as attributes
# of the queue/asyncio/multiprocessing modules.
_QUEUE_NAMES = {"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"}
_QUEUE_MODULES = {"queue", "asyncio", "multiprocessing"}


def _is_mutable_default(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in _MUTABLE_CALLS
    return False


def _in_deterministic_scope(path: Path) -> bool:
    parts = path.parts
    return any(
        parts[: len(prefix)] == prefix for prefix in DETERMINISTIC_PARTS
    )


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: Path, deterministic: bool):
        self.path = path
        self.deterministic = deterministic
        self.bounded_queues = path.parts[:1] != ("tests",)
        self.library = (
            path.parts[:2] == LIBRARY_PARTS
            and path.parts[:3] != HARNESS_PARTS
        )
        self.findings: list[tuple[int, str, str]] = []

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.findings.append(
                (
                    node.lineno,
                    "REPRO001",
                    "bare 'except:' swallows SystemExit/KeyboardInterrupt; "
                    "catch a concrete exception type",
                )
            )
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self.findings.append(
                    (
                        default.lineno,
                        "REPRO002",
                        f"mutable default argument in {node.name}(); "
                        "use None and construct inside the body",
                    )
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.deterministic:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                self.findings.append(
                    (
                        node.lineno,
                        "REPRO003",
                        "time.time() in deterministic test/oracle code; "
                        "pass timestamps in or use a seeded source",
                    )
                )
        if self.bounded_queues:
            self._check_queue_bound(node)
        if (
            self.library
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            self.findings.append(
                (
                    node.lineno,
                    "REPRO005",
                    "print() in library code; return the value or "
                    "record it in the metrics registry",
                )
            )
        self.generic_visit(node)

    def _queue_name(self, node: ast.Call) -> str | None:
        """The constructor's name when it builds a stdlib queue."""
        func = node.func
        if isinstance(func, ast.Name) and func.id in _QUEUE_NAMES:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _QUEUE_NAMES
            and isinstance(func.value, ast.Name)
            and func.value.id in _QUEUE_MODULES
        ):
            return f"{func.value.id}.{func.attr}"
        return None

    def _check_queue_bound(self, node: ast.Call) -> None:
        name = self._queue_name(node)
        if name is None:
            return
        # maxsize is the first positional argument or a keyword; a
        # missing bound or a literal <= 0 means unbounded.  A non-
        # literal bound is trusted (it may be computed) — the rule
        # targets the silent default, not dynamic configuration.
        bound = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "maxsize":
                bound = keyword.value
        if name.endswith("SimpleQueue"):
            unbounded = True  # SimpleQueue has no maxsize at all
        elif bound is None:
            unbounded = True
        elif isinstance(bound, ast.Constant):
            unbounded = (
                isinstance(bound.value, int) and bound.value <= 0
            )
        else:
            unbounded = False
        if unbounded:
            self.findings.append(
                (
                    node.lineno,
                    "REPRO004",
                    f"unbounded {name}(); overload must shed, not "
                    "buffer — pass a positive maxsize",
                )
            )


def lint_file(path: Path, root: Path) -> list[str]:
    """Human-readable findings for one file (empty = clean)."""
    relative = path.relative_to(root) if path.is_relative_to(root) else path
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [f"{relative}:{exc.lineno}: SYNTAX {exc.msg}"]
    visitor = _Visitor(relative, _in_deterministic_scope(relative))
    visitor.visit(tree)
    return [
        f"{relative}:{line}: {code} {message}"
        for line, code, message in sorted(visitor.findings)
    ]


def lint_paths(paths: list[str], root: Path) -> list[str]:
    findings: list[str] = []
    for entry in paths:
        target = root / entry
        if target.is_file():
            findings.extend(lint_file(target, root))
            continue
        for path in sorted(target.rglob("*.py")):
            findings.extend(lint_file(path, root))
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.lint", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root the default paths resolve against",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    findings = lint_paths(args.paths or DEFAULT_PATHS, root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("lint clean")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
