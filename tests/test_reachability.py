"""Every module under ``src/repro`` is reached by something that runs.

A module only its own tests import is a substrate nobody exercises: it
costs reading and upkeep and defends no claim.  Reached means one of

* the import closure of the application, ``repro.api.app`` and
  ``repro.pipeline``;
* the import closure of a file under ``benchmarks/`` or ``examples/``;
* a dotted target in the end-to-end benchmark's ``SPAN_TARGETS``.

The fuzz kit, ``repro.testing``, is exempt.  ``from package import
name`` reaches the module that defines ``name`` according to the
package ``__init__``; a re-export in a package ``__init__`` does not by
itself reach the module it names.  The code is parsed, never imported.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
APPLICATION = ("repro.api.app", "repro.pipeline")
EXEMPT = "repro.testing"


def _module_paths() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_paths()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _imported_names(path: Path) -> set[str]:
    """Dotted ``module`` / ``module.name`` strings a file imports,
    function-local imports included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _reexports(package: str) -> dict[str, str]:
    """Name -> dotted origin for the names a package ``__init__`` imports."""
    exports = {}
    source = MODULES[package].read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origin = f"{node.module}.{alias.name}"
                exports[alias.asname or alias.name] = origin
    return exports


def _module_of(dotted: str) -> str | None:
    """The ``repro`` module a dotted import name lands in, following
    package re-exports; None outside ``src/repro``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix not in MODULES:
            continue
        if cut < len(parts) and _is_package(prefix):
            origin = _reexports(prefix).get(parts[cut])
            if origin is not None and origin != dotted:
                return _module_of(origin)
        return prefix
    return None


def _span_targets() -> list[str]:
    spans = REPO_ROOT / "benchmarks" / "e2e" / "spans.py"
    for node in ast.parse(spans.read_text(encoding="utf-8")).body:
        if (
            isinstance(node, ast.AnnAssign)
            and node.target.id == "SPAN_TARGETS"
        ):
            targets = ast.literal_eval(node.value)
            return [path for paths in targets.values() for path in paths]
    raise AssertionError("benchmarks/e2e/spans.py defines no SPAN_TARGETS")


def _reached() -> set[str]:
    entry_files = [
        path
        for directory in ("benchmarks", "examples")
        for path in (REPO_ROOT / directory).rglob("*.py")
    ]
    frontier = [
        *APPLICATION,
        *(_module_of(name) for name in _span_targets()),
        *(
            _module_of(name)
            for path in entry_files
            for name in _imported_names(path)
        ),
    ]
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module is None or module in reached:
            continue
        reached.add(module)
        # Importing a module imports every package above it.
        parent = module.rpartition(".")[0]
        if parent:
            frontier.append(parent)
        if not _is_package(module):
            frontier.extend(
                _module_of(name) for name in _imported_names(MODULES[module])
            )
    return reached


def test_every_module_is_reached_by_something_that_runs():
    unreached = {
        module
        for module in set(MODULES) - _reached()
        if module != EXEMPT and not module.startswith(EXEMPT + ".")
    }
    assert unreached == set()
