"""Text and JSON formats for graphs, colorings, and partitions.

``adjlist`` (plain graphs): first line the vertex count, then one line per
edge ``u v`` with u < v.  The parser rejects a vertex count above
``MAX_GRAPH_ORDER``, loops, duplicate edges, and out-of-range endpoints.

``ecg`` (edge-colored graphs): line 1 is ``n c``; then n - 1 lines, line u
(0-based) holding the colors of the pairs (u, u+1), ..., (u, n-1), with 0
marking a non-edge of the host.  The parser rejects an order above
``MAX_GRAPH_ORDER`` from the header.  The writer is byte-exact: ASCII
decimals, single spaces, LF terminators on every line.

``partition``: one part per line, vertices as space-separated decimals; the
parts must partition 0..n-1.

The JSON form of a coloring mirrors the ecg data with an explicit edge list.
Its reader rejects what the text readers would: values that are not
integers (``true``, ``2.9``) and an edge given twice.
"""

from __future__ import annotations

from .canon import edge_index
from .coloring import EdgeColoring, coloring_from_map
from .graph import Graph, VertexSet, graph_from_edges

# Largest graph order the parsers and the CLI's ``construct`` accept.
# ``decompose`` of a dense random graph of order 400 takes about 15 s, one of
# order 200 about 2 s, and the cost grows roughly as n^3.
MAX_GRAPH_ORDER = 400

DOT_PALETTE = (
    "red",
    "blue",
    "forestgreen",
    "orange",
    "purple",
    "brown",
    "cyan",
    "magenta",
)


# ---------------------------------------------------------------------------
# adjlist
# ---------------------------------------------------------------------------


def format_adjlist(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def check_graph_order(n: int) -> None:
    if n > MAX_GRAPH_ORDER:
        raise ValueError(f"graph order {n} exceeds the limit {MAX_GRAPH_ORDER}")


def parse_adjlist(text: str) -> Graph:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("adjlist input is empty")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"bad vertex count line: {lines[0]!r}") from exc
    check_graph_order(n)
    seen: set[tuple[int, int]] = set()
    edges = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"bad edge line: {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ValueError(f"bad edge line: {line!r}") from exc
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append((u, v))
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# ecg
# ---------------------------------------------------------------------------


def format_ecg(ec: EdgeColoring) -> str:
    n = ec.host.n
    out = [f"{n} {ec.c}\n"]
    for u in range(n - 1):
        row = " ".join(str(ec.colors[edge_index(u, v)]) for v in range(u + 1, n))
        out.append(row + "\n")
    return "".join(out)


def parse_ecg(text: str) -> EdgeColoring:
    lines = text.splitlines()
    if not lines:
        raise ValueError("ecg input is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line: {lines[0]!r}")
    try:
        n, c = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad header line: {lines[0]!r}") from exc
    if n < 0 or c < 1:
        raise ValueError(f"bad header values n={n}, c={c}")
    check_graph_order(n)
    body = lines[1:]
    rows_needed = max(0, n - 1)
    if len(body) < rows_needed or any(line.strip() for line in body[rows_needed:]):
        raise ValueError(f"expected exactly {rows_needed} data lines")
    edges = []
    colors = {}
    for u in range(rows_needed):
        fields = body[u].split()
        if len(fields) != n - 1 - u:
            raise ValueError(f"line {u + 2}: expected {n - 1 - u} entries, got {len(fields)}")
        for k, field in enumerate(fields):
            v = u + 1 + k
            try:
                col = int(field)
            except ValueError as exc:
                raise ValueError(f"line {u + 2}: bad color {field!r}") from exc
            if col:
                edges.append((u, v))
                colors[(u, v)] = col
    return coloring_from_map(graph_from_edges(n, edges), c, colors)


# ---------------------------------------------------------------------------
# JSON mirror
# ---------------------------------------------------------------------------


def coloring_to_dict(ec: EdgeColoring) -> dict:
    return {
        "n": ec.host.n,
        "c": ec.c,
        "edges": [[u, v, col] for u, v, col in ec.edges_with_colors()],
    }


def coloring_from_dict(data: dict) -> EdgeColoring:
    try:
        n, c = data["n"], data["c"]
        triples = [(u, v, col) for u, v, col in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad coloring record: {exc}") from exc
    # int() would read JSON true as 1 and 2.9 as 2
    if any(type(x) is not int for x in (n, c, *(value for edge in triples for value in edge))):
        raise ValueError("bad coloring record: a value is not an integer")
    check_graph_order(n)
    colors = {(min(u, v), max(u, v)): col for u, v, col in triples}
    if len(colors) < len(triples):
        raise ValueError("bad coloring record: an edge is given twice")
    return coloring_from_map(graph_from_edges(n, colors), c, colors)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def format_dot(ec: EdgeColoring, name: str = "coloring") -> str:
    lines = [f"graph {name} {{"]
    for v in range(ec.host.n):
        lines.append(f"  {v};")
    for u, v, col in ec.edges_with_colors():
        shade = DOT_PALETTE[(col - 1) % len(DOT_PALETTE)]
        lines.append(f'  {u} -- {v} [color="{shade}", label="{col}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def format_partition(parts: list[VertexSet] | tuple[VertexSet, ...]) -> str:
    return "".join(" ".join(str(v) for v in sorted(part)) + "\n" for part in parts)


def parse_partition(text: str, n: int) -> list[VertexSet]:
    parts = []
    seen: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            members = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad vertex token") from exc
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"line {lineno}: vertex {v} out of range for n={n}")
            if v in seen:
                raise ValueError(f"line {lineno}: vertex {v} appears twice")
            seen.add(v)
        parts.append(frozenset(members))
    if len(seen) != n:
        raise ValueError("parts do not cover the vertex set")
    return parts
