"""Independent reference computations used to check the program's outputs.

Nothing here imports projgraph: edge and triangle counts come from an
adjacency matrix, and the EdgeTriangle projectivity distances are
recomputed from a statistic table built with plain NumPy.
"""

from __future__ import annotations

import itertools

import numpy as np


def dyad_pairs(n: int) -> list[tuple[int, int]]:
    """Node pairs in graph-index bit order: pair (i, j), i < j, is bit j(j-1)/2 + i."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def edge_triangle_stats(n: int, edges: list[tuple[int, int]]) -> tuple[int, int]:
    """(edges, triangles) of a graph, via trace(A^3) / 6."""
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1
    return len(edges), int(np.trace(adj @ adj @ adj)) // 6


def edge_triangle_table(n: int) -> np.ndarray:
    """(2^C(n,2), 2) table of (edges, triangles) for every graph index."""
    pairs = dyad_pairs(n)
    bit = {pair: k for k, pair in enumerate(pairs)}
    idx = np.arange(1 << len(pairs), dtype=np.uint64)
    table = np.empty((idx.size, 2), dtype=np.float64)
    table[:, 0] = np.bitwise_count(idx)
    triangles = np.zeros(idx.size, dtype=np.int64)
    for a, b, c in itertools.combinations(range(n), 3):
        mask = np.uint64((1 << bit[(a, b)]) | (1 << bit[(a, c)]) | (1 << bit[(b, c)]))
        triangles += (idx & mask) == mask
    table[:, 1] = triangles
    return table


def _probs(table: np.ndarray, theta: tuple[float, float]) -> np.ndarray:
    kernel = table @ np.asarray(theta, dtype=np.float64)
    kernel -= kernel.max()
    weights = np.exp(kernel)
    return weights / weights.sum()


def edge_triangle_tv(n: int, n_sub: int, grid: list[tuple[float, float]]) -> list[float]:
    """TV distance between the n_sub-node model and the n-node prefix marginal."""
    big, small = edge_triangle_table(n), edge_triangle_table(n_sub)
    sub_bits = len(dyad_pairs(n_sub))
    sub_index = np.arange(big.shape[0], dtype=np.int64) & ((1 << sub_bits) - 1)
    out = []
    for theta in grid:
        marginal = np.bincount(sub_index, weights=_probs(big, theta), minlength=1 << sub_bits)
        out.append(float(0.5 * np.abs(marginal - _probs(small, theta)).sum()))
    return out
