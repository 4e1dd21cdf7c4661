"""Only the record stores journal.

The docstore and the review queue are the system of record: they
journal every mutation and are replayed after a crash.  The graph and
the keyword index are derived from them (``CreateApplication.
derive_report``) and must not journal, or recovery would have two
sources for one fact.  A module journals when it defines
``durable_apply`` / ``durable_snapshot`` / ``durable_restore``,
assigns a ``journal`` attribute, or appends to one.  ``repro.durability``
declares that protocol and drives it.  The code is parsed, never
imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
RECORD_STORES = ("docstore/store.py", "review/queue.py")
PROTOCOL = "durability/"
DURABLE_METHODS = {"durable_apply", "durable_snapshot", "durable_restore"}


def _journals(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in DURABLE_METHODS:
            return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "journal"
            and isinstance(node.ctx, ast.Store)
        ):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "journal"
        ):
            return True
    return False


def test_only_the_record_stores_journal():
    journaling = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _journals(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert [
        module
        for module in journaling
        if module not in RECORD_STORES and not module.startswith(PROTOCOL)
    ] == []
