"""Textual serialisation of decision diagrams ("DDTXT").

A line-oriented exchange format preserving the shared-graph structure
exactly, so diagrams can be stored, diffed, and reloaded without a
round-trip through dense vectors.  Example document::

    DDTXT 1.0
    dims 3 2
    node 0 level=1 edges=1+0j@T,0@T
    node 1 level=1 edges=0@T,1+0j@T
    node 2 level=0 edges=0.5774+0j@0,-0.5774+0j@1,0.5774+0j@1
    root 1+0j@2

Node lines are in children-first order, so every reference ``@k``
points to an already-declared node; ``@T`` is the terminal.  Weights
use ``repr`` round-trippable complex literals.

The loader checks the structural invariants every consumer relies on
(those :func:`repro.dd.validation.validate_diagram` lists): every
weight is finite, each child sits exactly one level below its parent,
non-zero terminal edges occur only at the last level, and the root is
at level 0.  It does not check normalisation, so hand-written
documents such as the one above may use rounded weights.
"""

from __future__ import annotations

import cmath

from repro.dd.diagram import DecisionDiagram
from repro.dd.edge import Edge
from repro.dd.node import TERMINAL, DDNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import ReproError, SerializationError
from repro.registers.mixed_radix import validate_dims

__all__ = ["dumps", "loads"]

_HEADER = "DDTXT 1.0"


def _format_weight(weight: complex) -> str:
    return repr(complex(weight)).strip("()")


def dumps(dd: DecisionDiagram) -> str:
    """Serialise a decision diagram to DDTXT."""
    lines = [_HEADER, "dims " + " ".join(str(d) for d in dd.dims)]
    if dd.root.is_zero:
        lines.append("root 0j@T")
        return "\n".join(lines) + "\n"

    numbering: dict[int, int] = {}
    ordered: list[DDNode] = []

    def visit(node: DDNode) -> None:
        if id(node) in numbering or node.is_terminal:
            return
        for edge in node.edges:
            if not edge.is_zero:
                visit(edge.node)
        numbering[id(node)] = len(ordered)
        ordered.append(node)

    visit(dd.root.node)
    for index, node in enumerate(ordered):
        edge_fields = []
        for edge in node.edges:
            if edge.is_zero:
                edge_fields.append("0@T")
            elif edge.node.is_terminal:
                edge_fields.append(f"{_format_weight(edge.weight)}@T")
            else:
                edge_fields.append(
                    f"{_format_weight(edge.weight)}"
                    f"@{numbering[id(edge.node)]}"
                )
        lines.append(
            f"node {index} level={node.level} "
            f"edges={','.join(edge_fields)}"
        )
    root_ref = numbering[id(dd.root.node)]
    lines.append(f"root {_format_weight(dd.root.weight)}@{root_ref}")
    return "\n".join(lines) + "\n"


def _parse_edge(
    token: str, nodes: dict[int, DDNode], line_no: int
) -> Edge:
    if "@" not in token:
        raise SerializationError(
            f"line {line_no}: malformed edge {token!r}"
        )
    weight_text, target_text = token.rsplit("@", 1)
    try:
        weight = complex(weight_text)
    except ValueError as error:
        raise SerializationError(
            f"line {line_no}: malformed weight {weight_text!r}"
        ) from error
    if not cmath.isfinite(weight):
        raise SerializationError(
            f"line {line_no}: weight {weight_text!r} is not finite"
        )
    if target_text == "T":
        if weight == 0:
            return Edge.zero()
        return Edge(weight, TERMINAL)
    try:
        target = nodes[int(target_text)]
    except (ValueError, KeyError) as error:
        raise SerializationError(
            f"line {line_no}: unknown node reference {target_text!r}"
        ) from error
    return Edge(weight, target)


def _parse_int(text: str, what: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError as error:
        raise SerializationError(
            f"line {line_no}: malformed {what} {text!r}"
        ) from error


def _check_edge(edge: Edge, level: int, num_levels: int, line_no: int) -> None:
    """Refuse an edge that skips a level or ends early at the terminal."""
    if edge.is_zero:
        return
    if edge.node.is_terminal:
        if level != num_levels - 1:
            raise SerializationError(
                f"line {line_no}: terminal edge at level {level}, but "
                f"the register has {num_levels} levels"
            )
    elif edge.node.level != level + 1:
        raise SerializationError(
            f"line {line_no}: edge from level {level} points to a node "
            f"at level {edge.node.level}; children must sit exactly one "
            "level below"
        )


def loads(
    text: str, table: UniqueTable | None = None
) -> DecisionDiagram:
    """Parse DDTXT back into a decision diagram.

    Nodes are re-interned through the unique table, so loading a dump
    into the table of an existing session shares structure with the
    diagrams already there.

    Raises:
        SerializationError: On any malformed input, including a
            non-finite weight, a child that is not exactly one level
            below its parent, a non-zero terminal edge above the last
            level and a root edge that does not point to a level-0
            node.
    """
    if table is None:
        table = UniqueTable()
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines or lines[0] != _HEADER:
        raise SerializationError(f"missing header {_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("dims "):
        raise SerializationError("missing 'dims' declaration")
    try:
        dims = validate_dims(int(token) for token in lines[1].split()[1:])
    except (ValueError, ReproError) as error:
        raise SerializationError(
            f"malformed 'dims' declaration: {error}"
        ) from error

    nodes: dict[int, DDNode] = {}
    root: Edge | None = None
    for offset, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 4:
                raise SerializationError(
                    f"line {offset}: malformed node line"
                )
            index = _parse_int(tokens[1], "node index", offset)
            if not tokens[2].startswith("level="):
                raise SerializationError(
                    f"line {offset}: missing level field"
                )
            level = _parse_int(tokens[2][len("level="):], "level", offset)
            if not tokens[3].startswith("edges="):
                raise SerializationError(
                    f"line {offset}: missing edges field"
                )
            edges = [
                _parse_edge(token, nodes, offset)
                for token in tokens[3][len("edges="):].split(",")
            ]
            if not 0 <= level < len(dims):
                raise SerializationError(
                    f"line {offset}: level {level} out of range"
                )
            if len(edges) != dims[level]:
                raise SerializationError(
                    f"line {offset}: node at level {level} needs "
                    f"{dims[level]} edges, got {len(edges)}"
                )
            for edge in edges:
                _check_edge(edge, level, len(dims), offset)
            try:
                nodes[index] = table.get_node(level, edges)
            except OverflowError as error:
                raise SerializationError(
                    f"line {offset}: edge weight out of range"
                ) from error
        elif tokens[0] == "root":
            if len(tokens) != 2:
                raise SerializationError(
                    f"line {offset}: malformed root line"
                )
            root = _parse_edge(tokens[1], nodes, offset)
            if not root.is_zero and (
                root.node.is_terminal or root.node.level != 0
            ):
                raise SerializationError(
                    f"line {offset}: the root edge must point to a node "
                    "at level 0"
                )
        else:
            raise SerializationError(
                f"line {offset}: unknown directive {tokens[0]!r}"
            )
    if root is None:
        raise SerializationError("missing 'root' line")
    return DecisionDiagram(root, dims, table)
