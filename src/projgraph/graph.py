"""Bit-packed undirected simple graphs and their basic statistics.

A dyad is an unordered node pair (i, j) with 0 <= i < j < n; it gets the
index k = j*(j-1)/2 + i (column-major upper triangle).  The map is a
bijection onto {0, ..., C(n,2)-1}.  A graph is stored as a single Python
integer whose k-th bit is set iff dyad k is an edge, so the integers in
[0, 2^C(n,2)) enumerate all graphs on n nodes, and the induced subgraph
on a prefix node set {0, ..., m-1} is simply the low C(m,2) bits.  Which
parent dyad each subgraph dyad of any node subset reads is decided in one
place, ``_dyad_map``.  Every CSV report and table is written by ``_csv_text``.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "NodeSubset",
    "dyad_count",
    "dyad_index",
    "dyad_endpoints",
    "empty_graph",
    "complete_graph",
    "graph_from_edges",
    "graph_from_index",
    "edge_count",
    "triangle_count",
    "degree_sequence",
    "mean_degree",
    "induced_subgraph",
    "is_connected",
    "parse_edge_list",
    "format_edge_list",
    "read_edge_list",
]


def dyad_count(n: int) -> int:
    """Number of dyads C(n,2) on ``n`` nodes."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    return n * (n - 1) // 2


def dyad_index(i: int, j: int) -> int:
    """Index of the dyad {i, j}; requires 0 <= i < j."""
    if not 0 <= i < j:
        raise ValueError(f"dyad endpoints must satisfy 0 <= i < j, got ({i}, {j})")
    return j * (j - 1) // 2 + i


def dyad_endpoints(k: int) -> tuple[int, int]:
    """Endpoints (i, j) of the dyad with index ``k``; inverse of dyad_index."""
    if k < 0:
        raise ValueError("dyad index must be non-negative")
    j = (1 + math.isqrt(8 * k + 1)) // 2
    if j * (j - 1) // 2 > k:
        j -= 1
    i = k - j * (j - 1) // 2
    return i, j


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes {0, ..., n-1} with bit-packed dyads.

    ``n`` and ``dyads`` are stored as Python integers: NumPy integers are
    converted, and other types (floats included) raise ``TypeError``.
    """

    n: int
    dyads: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.dyads) is not int:
            object.__setattr__(self, "n", operator.index(self.n))
            object.__setattr__(self, "dyads", operator.index(self.dyads))
        if self.n < 1:
            raise ValueError("node count must be >= 1")
        if not 0 <= self.dyads < (1 << dyad_count(self.n)):
            raise ValueError(
                f"dyad bits out of range for n={self.n}: need 0 <= dyads < 2^{dyad_count(self.n)}"
            )

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        a, b = (i, j) if i < j else (j, i)
        if not 0 <= a < b < self.n:
            raise ValueError(f"node pair ({i}, {j}) out of range for n={self.n}")
        return bool(self.dyads >> dyad_index(a, b) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (i, j), i < j, in ascending dyad-index order."""
        bits = self.dyads
        while bits:
            low = bits & -bits
            yield dyad_endpoints(low.bit_length() - 1)
            bits ^= low


@dataclass(frozen=True)
class NodeSubset:
    """Strictly increasing subset of the nodes of a parent graph.

    ``parent_n`` and the members are converted like :class:`Graph`'s
    numbers: NumPy integers become ``int``, and floats raise ``TypeError``.
    """

    parent_n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent_n", operator.index(self.parent_n))
        if self.parent_n < 1:
            raise ValueError("parent node count must be >= 1")
        members = tuple(operator.index(m) for m in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("node subset must be non-empty")
        if any(b <= a for a, b in zip(members, members[1:])):
            raise ValueError("node subset members must be strictly increasing")
        if members[0] < 0 or members[-1] >= self.parent_n:
            raise ValueError(
                f"node subset members must lie in [0, {self.parent_n}), got {members}"
            )

    def __len__(self) -> int:
        return len(self.members)


def empty_graph(n: int) -> Graph:
    return Graph(n, 0)


def complete_graph(n: int) -> Graph:
    return Graph(n, (1 << dyad_count(n)) - 1)


def graph_from_edges(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    dyads = 0
    for i, j in edges:
        a, b = (i, j) if i < j else (j, i)
        if a == b:
            raise ValueError(f"self-loop ({i}, {j}) is not allowed")
        if not 0 <= a < b < n:
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        dyads |= 1 << dyad_index(a, b)
    return Graph(n, dyads)


def graph_from_index(n: int, k: int) -> Graph:
    """Graph whose dyad bits are the binary digits of ``k``."""
    if not 0 <= k < (1 << dyad_count(n)):
        raise ValueError(f"graph index {k} out of range for n={n}")
    return Graph(n, k)


def edge_count(g: Graph) -> int:
    return g.dyads.bit_count()


def _lower_neighbors(dyads: int, j: int) -> int:
    """Bitmask over nodes i < j adjacent to j (a contiguous dyad-bit slice)."""
    return (dyads >> (j * (j - 1) // 2)) & ((1 << j) - 1)


def _adjacency_masks(g: Graph) -> list[int]:
    adj = [0] * g.n
    for j in range(1, g.n):
        low = _lower_neighbors(g.dyads, j)
        adj[j] |= low
        while low:
            bit = low & -low
            adj[bit.bit_length() - 1] |= 1 << j
            low ^= bit
    return adj


def triangle_count(g: Graph) -> int:
    """Number of unordered node triples with all three dyads present."""
    adj = _adjacency_masks(g)
    total = 0
    for j in range(1, g.n):
        low = _lower_neighbors(g.dyads, j)
        while low:
            bit = low & -low
            i = bit.bit_length() - 1
            # common neighbors k > j close a triangle i < j < k exactly once
            total += ((adj[i] & adj[j]) >> (j + 1)).bit_count()
            low ^= bit
    return total


def degree_sequence(g: Graph) -> list[int]:
    return [mask.bit_count() for mask in _adjacency_masks(g)]


def mean_degree(g: Graph) -> float:
    return 2.0 * edge_count(g) / g.n


def _dyad_map(members) -> np.ndarray:
    """Parent dyad index of each subgraph dyad, in subgraph dyad order, for
    sorted members of shape (..., m): subgraph dyad (a, b) is parent dyad
    (m_a, m_b).  Every node-subset gather reads its dyads from this map, and
    so do the star masks of the shipped statistic tables in
    :mod:`projgraph.models`."""
    members = np.asarray(members, dtype=np.int64)
    # Dyad k is the pair (a, b), a < b, with k = b(b-1)/2 + a: node b ends b dyads.
    m = members.shape[-1]
    b = np.repeat(np.arange(m), np.arange(m))
    a = np.arange(m * (m - 1) // 2) - b * (b - 1) // 2
    return (members * (members - 1) // 2)[..., b] + members[..., a]


# Index bits that one lookup table of _relabellings moves at a time.
_RELABEL_BITS = 16


@lru_cache(maxsize=8)
def _relabel_tables(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """For each relabelling of :func:`_relabellings`, one lookup table per
    ``_RELABEL_BITS`` index bits: entry v of table t is the image of the
    graph whose index is v shifted up by t * ``_RELABEL_BITS`` bits."""
    tables = []
    for perm in ((1, 0, *range(2, n)), (*range(1, n), 0)):
        # Dyad (a, b) of a graph is dyad (perm[a], perm[b]) of its image.
        moved = [dyad_index(*sorted((perm[a], perm[b])))
                 for a, b in map(dyad_endpoints, range(dyad_count(n)))]
        luts = []
        for lo in range(0, max(len(moved), 1), _RELABEL_BITS):  # one table at n = 1
            group = moved[lo:lo + _RELABEL_BITS]
            bits = np.arange(1 << len(group), dtype=np.intp)
            lut = np.zeros_like(bits)
            for j, target in enumerate(group):
                lut |= (bits >> j & 1) << target
            luts.append(lut)
        tables.append(tuple(luts))
    return tuple(tables)


def _relabellings(n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """For each block of 2^``_RELABEL_BITS`` graphs on n nodes (one block
    when there are fewer), its first index, then the indices of its graphs
    after the transposition (0 1), then after the cycle (0 1 ... n-1), of
    their nodes.  The two generate every relabelling, so a function of the
    graphs is unchanged by every relabelling iff it is by both.  A block's
    graphs share the dyads above its bits, so each image is the first lookup
    table joined with the other tables' entries, whose bits are disjoint."""
    for lo in range(0, 1 << dyad_count(n), 1 << _RELABEL_BITS):
        yield lo, *(low | sum(int(lut[lo >> t * _RELABEL_BITS & len(lut) - 1])
                              for t, lut in enumerate(high, 1))
                    for low, *high in _relabel_tables(n))


def induced_subgraph(g: Graph, s: NodeSubset) -> Graph:
    """Graph on |s| nodes keeping exactly the edges between retained nodes.

    Node a of the result corresponds to parent node ``s.members[a]``.
    """
    if s.parent_n != g.n:
        raise ValueError(
            f"invalid subset: parent_n={s.parent_n} does not match graph n={g.n}"
        )
    raw = g.dyads.to_bytes((dyad_count(g.n) + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    sub = np.packbits(bits[_dyad_map(s.members)], bitorder="little")
    return Graph(len(s.members), int.from_bytes(sub.tobytes(), "little"))


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (n=1 counts)."""
    if g.n == 1:
        return True
    adj = _adjacency_masks(g)
    visited = 1
    frontier = [0]
    while frontier:
        fresh = adj[frontier.pop()] & ~visited
        visited |= fresh
        while fresh:
            bit = fresh & -fresh
            frontier.append(bit.bit_length() - 1)
            fresh ^= bit
    return visited == (1 << g.n) - 1


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First line: node count n.  Each subsequent non-blank line: ``i j`` with
    0 <= i < j < n.  Self-loops, reversed or out-of-range pairs, and
    duplicate edges are rejected.
    """
    rows = [line.strip() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError("edge list is empty: expected a node-count line")
    try:
        n = int(rows[0])
    except ValueError:
        raise ValueError(f"invalid node-count line {rows[0]!r}") from None
    if n < 1:
        raise ValueError("node count must be >= 1")
    dyads = 0
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {row!r}: expected 'i j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed edge line {row!r}: expected integers") from None
        if i == j:
            raise ValueError(f"self-loop '{i} {j}' is not allowed")
        if not 0 <= i < j < n:
            raise ValueError(f"edge '{i} {j}' violates 0 <= i < j < n for n={n}")
        k = dyad_index(i, j)
        if dyads >> k & 1:
            raise ValueError(f"duplicate edge '{i} {j}'")
        dyads |= 1 << k
    return Graph(n, dyads)


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _cell(value: Any) -> str:
    """One CSV cell: None is blank, a bool ``true`` or ``false``, a float
    (NumPy's too) the ``repr`` of its Python float, anything else ``str``."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(rows: Iterable[Iterable[Any]]) -> str:
    """CSV text of ``rows``, each value by :func:`_cell`, each line ended by ``\\n``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()
