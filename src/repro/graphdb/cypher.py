"""Mini-Cypher: the query language of the Neo4j analog.

Implements the subset CREATe uses to index and search case-report
graphs:

* ``CREATE (a:Label {k: 'v'}), (a)-[:REL]->(b:Label {...})``
* ``MATCH (a:Label {k: 'v'})-[r:REL]->(b) WHERE a.k CONTAINS 'x'
  RETURN a, b.k, r LIMIT 10``
* ``EXPLAIN MATCH ...`` — run the statement through the cost-based
  planner and return one row per plan step (estimated vs. actual
  cardinality) plus a final ``result`` summary row instead of the
  match rows; output is stable for a fixed graph + query.

Node labels map to the ``_label`` node property; relationship types map
to edge labels.  ``WHERE`` supports ``=``, ``<>``, ``CONTAINS`` and
``AND``; ``RETURN`` supports variables, ``var.property`` and
``count(*)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.docstore.store import sort_key
from repro.exceptions import CypherError
from repro.graphdb.graph import Node, PropertyGraph
from repro.graphdb.match import (
    EdgePattern,
    GraphPattern,
    NodePattern,
    iter_edge_bindings,
    match_pattern,
)

_TOKEN_RE = re.compile(
    r"""
      (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
    | (?P<number>-?\d+(?:\.\d+)?)
    | (?P<arrow><-|->|-)
    | (?P<symbol>[(){}\[\],:.=*]|<>)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset(
    {
        "CREATE", "MATCH", "WHERE", "RETURN", "LIMIT", "AND",
        "CONTAINS", "ORDER", "BY", "DESC", "ASC", "COUNT", "EXPLAIN",
    }
)


@dataclass
class _Token:
    kind: str
    value: str


def _lex(query: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(query):
        match = _TOKEN_RE.match(query, pos)
        if match is None:
            raise CypherError(
                f"cannot tokenize cypher at position {pos}: "
                f"{query[pos:pos + 20]!r}"
            )
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "name" and value.upper() in _KEYWORDS:
            tokens.append(_Token("keyword", value.upper()))
        else:
            tokens.append(_Token(kind, value))
    return tokens


@dataclass
class _ParsedNode:
    var: str
    label: str | None
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class _ParsedEdge:
    source_var: str
    target_var: str
    var: str | None
    label: str | None
    directed: bool


@dataclass
class _Condition:
    var: str
    key: str
    op: str  # '=', '<>', 'CONTAINS'
    value: Any


@dataclass
class _ReturnItem:
    kind: str  # 'var', 'property', 'count'
    var: str = ""
    key: str = ""


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._anon_counter = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> _Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise CypherError("unexpected end of query")
        self._pos += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> _Token:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            raise CypherError(
                f"expected {value or kind}, got {token.value!r}"
            )
        return token

    def _accept(self, kind: str, value: str | None = None) -> _Token | None:
        token = self._peek()
        if (
            token is not None
            and token.kind == kind
            and (value is None or token.value == value)
        ):
            self._pos += 1
            return token
        return None

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    # -- grammar ----------------------------------------------------------------

    def parse_patterns(self) -> tuple[list[_ParsedNode], list[_ParsedEdge]]:
        nodes: list[_ParsedNode] = []
        edges: list[_ParsedEdge] = []
        seen_vars: set[str] = set()
        while True:
            node = self._parse_node()
            if node.var not in seen_vars:
                nodes.append(node)
                seen_vars.add(node.var)
            else:
                self._merge_node(nodes, node)
            left_var = node.var
            while self._peek() is not None and self._peek().value in ("-", "<-"):
                edge, direction_right = self._parse_edge_segment()
                right = self._parse_node()
                if right.var not in seen_vars:
                    nodes.append(right)
                    seen_vars.add(right.var)
                else:
                    self._merge_node(nodes, right)
                if direction_right:
                    edges.append(
                        _ParsedEdge(left_var, right.var, edge[0], edge[1], edge[2])
                    )
                else:
                    edges.append(
                        _ParsedEdge(right.var, left_var, edge[0], edge[1], edge[2])
                    )
                left_var = right.var
            if not self._accept("symbol", ","):
                break
        return nodes, edges

    @staticmethod
    def _merge_node(nodes: list[_ParsedNode], update: _ParsedNode) -> None:
        for node in nodes:
            if node.var == update.var:
                if update.label is not None:
                    node.label = update.label
                node.properties.update(update.properties)
                return

    def _parse_node(self) -> _ParsedNode:
        self._expect("symbol", "(")
        var = None
        token = self._peek()
        if token is not None and token.kind == "name":
            var = self._next().value
        label = None
        if self._accept("symbol", ":"):
            label = self._expect("name").value
        properties: dict[str, Any] = {}
        if self._accept("symbol", "{"):
            properties = self._parse_properties()
        self._expect("symbol", ")")
        if var is None:
            self._anon_counter += 1
            var = f"_anon{self._anon_counter}"
        return _ParsedNode(var, label, properties)

    def _parse_properties(self) -> dict[str, Any]:
        properties: dict[str, Any] = {}
        if self._accept("symbol", "}"):
            return properties
        while True:
            key = self._expect("name").value
            self._expect("symbol", ":")
            properties[key] = self._parse_literal()
            if self._accept("symbol", "}"):
                return properties
            self._expect("symbol", ",")

    def _parse_literal(self) -> Any:
        token = self._next()
        if token.kind == "string":
            return _unquote(token.value)
        if token.kind == "number":
            text = token.value
            return float(text) if "." in text else int(text)
        if token.kind == "name" and token.value in ("true", "false"):
            return token.value == "true"
        if token.kind == "name" and token.value == "null":
            return None
        raise CypherError(f"expected literal, got {token.value!r}")

    def _parse_edge_segment(
        self,
    ) -> tuple[tuple[str | None, str | None, bool], bool]:
        """Parse ``-[r:REL]->`` / ``<-[r:REL]-`` / ``-[r:REL]-``.

        Returns ((var, label, directed), direction_right).
        """
        leading = self._next()
        reversed_dir = leading.value == "<-"
        if leading.value not in ("-", "<-"):
            raise CypherError(f"expected edge, got {leading.value!r}")
        var = None
        label = None
        if self._accept("symbol", "["):
            token = self._peek()
            if token is not None and token.kind == "name":
                var = self._next().value
            if self._accept("symbol", ":"):
                label = self._expect("name").value
            self._expect("symbol", "]")
        trailing = self._next()
        if trailing.value == "->":
            if reversed_dir:
                raise CypherError("edge cannot have arrows on both ends")
            return (var, label, True), True
        if trailing.value == "-":
            if reversed_dir:
                return (var, label, True), False
            return (var, label, False), True
        raise CypherError(f"malformed edge ending: {trailing.value!r}")

    def parse_where(self) -> list[_Condition]:
        conditions = []
        while True:
            var = self._expect("name").value
            self._expect("symbol", ".")
            key = self._expect("name").value
            token = self._next()
            if token.kind == "symbol" and token.value in ("=", "<>"):
                op = token.value
            elif token.kind == "keyword" and token.value == "CONTAINS":
                op = "CONTAINS"
            else:
                raise CypherError(f"unknown comparison: {token.value!r}")
            value = self._parse_literal()
            conditions.append(_Condition(var, key, op, value))
            if not self._accept("keyword", "AND"):
                return conditions

    def parse_return(self) -> list[_ReturnItem]:
        items = []
        while True:
            if self._accept("keyword", "COUNT"):
                self._expect("symbol", "(")
                self._expect("symbol", "*")
                self._expect("symbol", ")")
                items.append(_ReturnItem("count"))
            else:
                var = self._expect("name").value
                if self._accept("symbol", "."):
                    key = self._expect("name").value
                    items.append(_ReturnItem("property", var, key))
                else:
                    items.append(_ReturnItem("var", var))
            if not self._accept("symbol", ","):
                return items


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


class CypherEngine:
    """Executes mini-Cypher statements against a :class:`PropertyGraph`.

    Example:
        >>> engine = CypherEngine(PropertyGraph())
        >>> _ = engine.run("CREATE (a:Event {label: 'fever'})")
        >>> engine.run("MATCH (a:Event) RETURN a.label")
        [{'a.label': 'fever'}]
    """

    def __init__(self, graph: PropertyGraph | None = None):
        self.graph = graph if graph is not None else PropertyGraph()
        self._create_counter = 0

    def run(self, query: str) -> list[dict[str, Any]]:
        """Execute one statement; returns result rows (CREATE returns [])."""
        tokens = _lex(query)
        if not tokens:
            raise CypherError("empty query")
        parser = _Parser(tokens)
        head = parser._next()
        if head.kind != "keyword":
            raise CypherError(f"expected CREATE or MATCH, got {head.value!r}")
        if head.value == "CREATE":
            return self._run_create(parser)
        if head.value == "MATCH":
            return self._run_match(parser)
        if head.value == "EXPLAIN":
            parser._expect("keyword", "MATCH")
            return self._run_match(parser, explain=True)
        raise CypherError(f"unsupported statement: {head.value}")

    # -- CREATE ------------------------------------------------------------

    def _run_create(self, parser: _Parser) -> list[dict[str, Any]]:
        nodes, edges = parser.parse_patterns()
        if not parser.at_end():
            raise CypherError("trailing tokens after CREATE pattern")
        bound: dict[str, str] = {}
        for parsed in nodes:
            explicit_id = parsed.properties.get("nodeId")
            if parsed.var in bound and not parsed.properties and parsed.label is None:
                continue
            if explicit_id is not None:
                node_id = str(explicit_id)
            elif self.graph.has_node(parsed.var) and not parsed.properties:
                node_id = parsed.var
            else:
                self._create_counter += 1
                node_id = f"cy{self._create_counter}"
            properties = dict(parsed.properties)
            if parsed.label is not None:
                properties["_label"] = parsed.label
            # Pattern reuse of an existing variable refers to the same node.
            if parsed.var in bound:
                node_id = bound[parsed.var]
                self.graph.add_node(node_id, **properties)
            else:
                self.graph.add_node(node_id, **properties)
                bound[parsed.var] = node_id
        for parsed_edge in edges:
            source = bound.get(parsed_edge.source_var)
            target = bound.get(parsed_edge.target_var)
            if source is None or target is None:
                raise CypherError(
                    "CREATE edge references unbound variable"
                )
            self.graph.add_edge(
                source, target, parsed_edge.label or "RELATED"
            )
        return []

    # -- MATCH ---------------------------------------------------------------

    def _run_match(
        self, parser: _Parser, explain: bool = False
    ) -> list[dict[str, Any]]:
        nodes, edges = parser.parse_patterns()
        conditions: list[_Condition] = []
        if parser._accept("keyword", "WHERE"):
            conditions = parser.parse_where()
        parser._expect("keyword", "RETURN")
        return_items = parser.parse_return()
        order_by: tuple[str, str, bool] | None = None
        if parser._accept("keyword", "ORDER"):
            parser._expect("keyword", "BY")
            var = parser._expect("name").value
            parser._expect("symbol", ".")
            key = parser._expect("name").value
            descending = bool(parser._accept("keyword", "DESC"))
            if not descending:
                parser._accept("keyword", "ASC")
            order_by = (var, key, descending)
        limit = None
        if parser._accept("keyword", "LIMIT"):
            limit = int(parser._expect("number").value)
        if not parser.at_end():
            raise CypherError("trailing tokens after MATCH query")

        pattern = GraphPattern(
            nodes=[
                NodePattern(
                    parsed.var,
                    tuple(
                        sorted(
                            {
                                **parsed.properties,
                                **(
                                    {"_label": parsed.label}
                                    if parsed.label is not None
                                    else {}
                                ),
                            }.items()
                        )
                    ),
                )
                for parsed in nodes
            ],
            edges=[
                EdgePattern(e.source_var, e.target_var, e.label, e.directed)
                for e in edges
            ],
        )
        if explain:
            # Plan + execute, reporting the plan instead of the rows.
            # WHERE/RETURN/ORDER/LIMIT are parsed (and validated) but
            # apply downstream of the pattern match they describe.
            from repro.graphdb.planner import explain_pattern

            _bindings, rows = explain_pattern(self.graph, pattern)
            return rows
        bindings = match_pattern(self.graph, pattern)
        bindings = [
            binding
            for binding in bindings
            if self._where_holds(binding, conditions)
        ]
        if order_by is not None:
            var, key, descending = order_by

            def sort_value(binding):
                node = binding.get(var)
                value = node.properties.get(key) if node else None
                # sort_key gives a total order over mixed JSON types,
                # with None first ascending.
                return sort_key(value)

            bindings.sort(key=sort_value, reverse=descending)
        rows = [
            self._project(binding, return_items, pattern)
            for binding in bindings
        ]
        if any(item.kind == "count" for item in return_items):
            return [{"count": len(rows)}]
        if limit is not None:
            rows = rows[:limit]
        return rows

    @staticmethod
    def _where_holds(
        binding: dict[str, Node], conditions: list[_Condition]
    ) -> bool:
        for cond in conditions:
            node = binding.get(cond.var)
            if node is None:
                return False
            value = node.properties.get(cond.key)
            if cond.op == "=":
                if value != cond.value:
                    return False
            elif cond.op == "<>":
                if value == cond.value:
                    return False
            elif cond.op == "CONTAINS":
                if not (
                    isinstance(value, str)
                    and isinstance(cond.value, str)
                    and cond.value.lower() in value.lower()
                ):
                    return False
        return True

    def _project(
        self,
        binding: dict[str, Node],
        items: list[_ReturnItem],
        pattern: GraphPattern,
    ) -> dict[str, Any]:
        row: dict[str, Any] = {}
        edge_lookup = None
        for item in items:
            if item.kind == "count":
                continue
            if item.kind == "var":
                node = binding.get(item.var)
                if node is not None:
                    row[item.var] = {
                        "nodeId": node.node_id,
                        **node.properties,
                    }
                else:
                    # Maybe an edge variable.
                    if edge_lookup is None:
                        edge_lookup = {
                            ep: edge
                            for ep, edge in iter_edge_bindings(
                                self.graph, binding, pattern
                            )
                        }
                    row[item.var] = None
            else:
                node = binding.get(item.var)
                row[f"{item.var}.{item.key}"] = (
                    node.properties.get(item.key) if node else None
                )
        return row
