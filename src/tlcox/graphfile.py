"""The graph description format, read by `parse_graph`; of the commands,
only a run given `--graph FILE` loads this module."""

from __future__ import annotations

from .coxeter import INFINITE, CoxeterGraph, GraphError, _graph, preset


def parse_graph(text: str) -> CoxeterGraph:
    """Read a graph description: `rank N`, `edge i j m` (m >= 3 or `inf`),
    or a single `preset NAME`; `#` starts a comment."""
    rank: int | None = None
    edges: dict[tuple[int, int], int | float] = {}
    preset_name: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "rank" and len(parts) == 2:
            if preset_name is not None:
                raise GraphError(f"line {lineno}: preset and rank/edge are mutually exclusive")
            if rank is not None:
                raise GraphError(f"line {lineno}: duplicate rank statement")
            try:
                rank = int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed rank") from None
            if rank < 1:
                raise GraphError(f"line {lineno}: rank must be positive")
        elif parts[0] == "edge" and len(parts) == 4:
            if preset_name is not None:
                raise GraphError(f"line {lineno}: preset and rank/edge are mutually exclusive")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed edge indices") from None
            m: int | float
            if parts[3] == "inf":
                m = INFINITE
            else:
                try:
                    m = int(parts[3])
                except ValueError:
                    raise GraphError(f"line {lineno}: malformed edge label") from None
                if m < 3:
                    raise GraphError(f"line {lineno}: explicit edge label must be >= 3")
            if i == j:
                raise GraphError(f"line {lineno}: loops are not allowed")
            key = (min(i, j), max(i, j))
            if key in edges:
                raise GraphError(f"line {lineno}: duplicate edge {key}")
            edges[key] = m
        elif parts[0] == "preset" and len(parts) == 2:
            if rank is not None or edges:
                raise GraphError(f"line {lineno}: preset and rank/edge are mutually exclusive")
            if preset_name is not None:
                raise GraphError(f"line {lineno}: duplicate preset statement")
            preset_name = parts[1]
        else:
            raise GraphError(f"line {lineno}: malformed statement: {line!r}")
    if preset_name is not None:
        return preset(preset_name)
    if rank is None:
        raise GraphError("missing rank statement")
    for (i, j) in edges:
        if not (1 <= i <= rank and 1 <= j <= rank):
            raise GraphError(f"edge {i} {j} out of range for rank {rank}")
    return _graph(rank, [(i - 1, j - 1, m) for (i, j), m in edges.items()])
