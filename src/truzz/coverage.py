"""Edge coverage as covered-edge paths.

A Path is the set of edge identifiers covered by one execution,
materialized as a frozenset for cheap intersection and difference. Edge
identifiers lie in ``[0, MAP_SIZE)``; targets are checked against that
bound when they are parsed or when an external target reports coverage.
"""

MAP_SIZE = 65536

# Edge identifiers covered by one execution.
Path = frozenset
