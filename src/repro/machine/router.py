"""Fat-tree router topology for the NUMAlink fabric inside a node.

The Altix 3700 uses a custom fat-tree network whose bisection
bandwidth scales linearly with processor count (paper §2).  We model
the intra-node fabric as a binary fat tree over C-bricks: two bricks
at tree distance *d* (the level of their lowest common ancestor)
communicate over ``2*d`` router hops.

Only the closed form lives here: per-message shortest-path queries
would dominate DES runtime, and no runtime path needs the explicit
router graph.  ``tests/test_machine_topology.py`` builds that graph
and checks :func:`hop_count` against its breadth-first distances over
all 512 bricks of a full node.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.memo import memo

__all__ = [
    "hop_count",
    "hop_table",
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
