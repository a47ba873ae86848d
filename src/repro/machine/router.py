"""Fat-tree router topology for the NUMAlink fabric inside a node.

The Altix 3700 uses a custom fat-tree network whose bisection
bandwidth scales linearly with processor count (paper §2).  We model
the intra-node fabric as a binary fat tree over C-bricks: two bricks
at tree distance *d* (the level of their lowest common ancestor)
communicate over ``2*d`` router hops.

`build_fat_tree` also constructs the explicit networkx graph, used by
tests and the topology-analysis helpers (`bisection_links`,
`path_hops`); the hot path (`hop_count`) is the closed form, because
per-message shortest-path queries would dominate DES runtime.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import ConfigurationError
from repro.memo import memo

__all__ = [
    "hop_count",
    "hop_table",
    "build_fat_tree",
    "bisection_links",
    "tree_depth",
]


def tree_depth(n_bricks: int) -> int:
    """Depth of the binary fat tree spanning ``n_bricks`` leaves."""
    if n_bricks < 1:
        raise ConfigurationError(f"need at least one brick, got {n_bricks}")
    return max(1, (n_bricks - 1).bit_length())


def hop_count(brick_a: int, brick_b: int) -> int:
    """Router hops between two bricks in the binary fat tree.

    Same brick -> 0 hops.  Otherwise the message climbs to the lowest
    common ancestor and back down: ``2 * lca_level`` hops, where
    ``lca_level`` is the index of the highest differing bit of the
    brick numbers.
    """
    if brick_a < 0 or brick_b < 0:
        raise ConfigurationError("brick indices must be non-negative")
    if brick_a == brick_b:
        return 0
    lca_level = (brick_a ^ brick_b).bit_length()
    return 2 * lca_level


@memo(maxsize=32)
def hop_table(n_bricks: int) -> tuple[tuple[int, ...], ...]:
    """Flat all-pairs hop table: ``hop_table(n)[a][b] == hop_count(a, b)``.

    Built once per brick count (the same closed form as
    :func:`hop_count`, tabulated), so per-path hop queries on the cost
    model's hot path are two subscripts instead of xor/bit-length
    arithmetic behind a function call.  A 64-brick node is a 64x64
    int table — small enough to keep for every brick count ever seen
    in a process.
    """
    if n_bricks < 1:
        raise ConfigurationError(f"need at least one brick, got {n_bricks}")
    return tuple(
        tuple(hop_count(a, b) for b in range(n_bricks))
        for a in range(n_bricks)
    )


def build_fat_tree(n_bricks: int) -> nx.Graph:
    """Explicit binary fat-tree graph over ``n_bricks`` leaf bricks.

    Leaves are ``("brick", i)``; internal routers are
    ``("router", level, index)`` with level 1 just above the leaves.
    Edge attribute ``level`` records the tree level of the link, so
    capacity weighting (fat links near the root) can be layered on.
    """
    depth = tree_depth(n_bricks)
    hop_table(n_bricks)  # tabulate the closed form alongside the graph
    g = nx.Graph()
    for i in range(n_bricks):
        g.add_node(("brick", i))
    # Router at (level, j) covers leaves [j*2^level, (j+1)*2^level).
    for level in range(1, depth + 1):
        n_routers = (n_bricks + (1 << level) - 1) >> level
        for j in range(n_routers):
            g.add_node(("router", level, j))
            if level == 1:
                for child in (2 * j, 2 * j + 1):
                    if child < n_bricks:
                        g.add_edge(("router", 1, j), ("brick", child), level=1)
            else:
                n_children = (n_bricks + (1 << (level - 1)) - 1) >> (level - 1)
                for child in (2 * j, 2 * j + 1):
                    if child < n_children:
                        g.add_edge(
                            ("router", level, j),
                            ("router", level - 1, child),
                            level=level,
                        )
    return g


def path_hops(graph: nx.Graph, brick_a: int, brick_b: int) -> int:
    """Router hops between two bricks via the explicit graph.

    Equals :func:`hop_count` (tested property) but computed by BFS.
    """
    if brick_a == brick_b:
        return 0
    return nx.shortest_path_length(graph, ("brick", brick_a), ("brick", brick_b))


def bisection_links(n_bricks: int) -> int:
    """Number of links crossing the even/odd-half bisection.

    In a full-bisection binary fat tree this scales linearly with the
    number of bricks (paper §2: "bisection bandwidth ... scale[s]
    linearly with the number of processors").  We model one root-level
    link per brick pair spanning the cut.
    """
    if n_bricks < 2:
        return 0
    return n_bricks // 2
