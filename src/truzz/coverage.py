"""Edge coverage as covered-edge paths.

A Path is the set of edge identifiers covered by one execution,
materialized as a frozenset for cheap intersection and difference. Edge
identifiers lie in ``[0, MAP_SIZE)``; targets are checked against that
bound when they are parsed, and edge lists when they are read.
"""

MAP_SIZE = 65536

# Edge identifiers covered by one execution.
Path = frozenset


def parse_edges(text: str) -> Path:
    """The edges of an edge list: one decimal edge id per line, blank lines
    skipped. Raises ValueError naming the first line that is not an edge id
    in ``[0, MAP_SIZE)``."""
    edges = set()
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            edge = int(line)
        except ValueError:
            raise ValueError(f"line {number}: {line!r} is not an edge id") from None
        if not 0 <= edge < MAP_SIZE:
            raise ValueError(f"line {number}: edge id {edge} out of range")
        edges.add(edge)
    return Path(edges)
