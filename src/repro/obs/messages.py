"""Message records and the statistics a trace analyst asks of them.

The record type and every summary computation live here, as free
functions over any iterable of message-like records (anything with
``time``/``source``/``dest``/``tag``/``nbytes`` attributes).
:class:`repro.obs.spans.Tracer` delegates to these, so any trace
front-end shares one definition of what "traffic matrix" means.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Iterable, NamedTuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MessageRecord",
    "bytes_by_rank",
    "size_histogram",
    "summary",
    "traffic_matrix",
    "window",
]

#: Default message-size histogram bucket edges (bytes).
SIZE_EDGES = (0, 64, 1024, 65536, 1 << 20, float("inf"))


class MessageRecord(NamedTuple):
    """One simulated message: injection time plus endpoints and size.

    ``arrival`` is when the message lands in the destination mailbox
    (``-1.0`` when unknown, e.g. records imported from the legacy
    shim, which never carried it).
    """

    time: float
    source: int
    dest: int
    tag: int
    nbytes: float
    arrival: float = -1.0


def bytes_by_rank(records: Iterable) -> dict[int, float]:
    """Bytes injected per source rank."""
    out: dict[int, float] = defaultdict(float)
    for r in records:
        out[r.source] += r.nbytes
    return dict(out)


def traffic_matrix(records: Iterable, n_ranks: int) -> np.ndarray:
    """Bytes sent from each rank to each rank."""
    import numpy as np  # lazy: `import repro.api` must not load numpy

    if n_ranks < 1:
        raise ConfigurationError(f"n_ranks must be >= 1: {n_ranks}")
    m = np.zeros((n_ranks, n_ranks))
    for r in records:
        m[r.source, r.dest] += r.nbytes
    return m


def size_histogram(records: Iterable, edges=SIZE_EDGES) -> dict[str, int]:
    """Message counts per size bucket."""
    counts: Counter = Counter()
    labels = [
        f"[{int(lo)}, {'inf' if hi == float('inf') else int(hi)})"
        for lo, hi in zip(edges, edges[1:])
    ]
    for r in records:
        for label, lo, hi in zip(labels, edges, edges[1:]):
            if lo <= r.nbytes < hi:
                counts[label] += 1
                break
    return {label: counts.get(label, 0) for label in labels}


def window(records: Iterable, t0: float, t1: float) -> list:
    """Records whose send time falls in ``[t0, t1)``."""
    if t1 < t0:
        raise ConfigurationError(f"empty window [{t0}, {t1})")
    return [r for r in records if t0 <= r.time < t1]


def summary(records, total_bytes: float | None = None) -> str:
    """One-paragraph human-readable digest of a message list."""
    records = list(records)
    if not records:
        return "trace: no messages"
    if total_bytes is None:
        total_bytes = sum(r.nbytes for r in records)
    times = [r.time for r in records]
    busiest = max(bytes_by_rank(records).items(), key=lambda kv: kv[1])[0]
    return (
        f"trace: {len(records)} messages, "
        f"{total_bytes:.3g} bytes total, "
        f"t in [{min(times):.3g}, {max(times):.3g}] s, "
        f"busiest sender rank {busiest}"
    )
