"""Bit-packed graphs: indexing, statistics, subgraphs, edge-list I/O and the
CSV dialect."""

import itertools

import numpy as np
import pytest

from projgraph import (
    Graph,
    NodeSubset,
    complete_graph,
    degree_sequence,
    dyad_count,
    dyad_endpoints,
    dyad_index,
    edge_count,
    empty_graph,
    format_edge_list,
    graph_from_edges,
    graph_from_index,
    induced_subgraph,
    is_connected,
    mean_degree,
    parse_edge_list,
    read_edge_list,
    substream,
    triangle_count,
)
from projgraph.graph import _dyad_map, _relabellings


def _path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle4():
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


# --------------------------------------------------------------------------
# dyad indexing
# --------------------------------------------------------------------------


def test_dyad_count_is_binomial_coefficient():
    for n in range(1, 12):
        assert dyad_count(n) == n * (n - 1) // 2


def test_dyad_index_is_column_major_upper_triangle():
    """k = j(j-1)/2 + i enumerates dyads (0,1), (0,2), (1,2), (0,3), ..."""
    assert dyad_index(0, 1) == 0
    assert dyad_index(0, 2) == 1
    assert dyad_index(1, 2) == 2
    assert dyad_index(0, 3) == 3
    assert dyad_index(2, 3) == 5


def test_dyad_index_endpoints_round_trip():
    for n in range(2, 10):
        for i, j in itertools.combinations(range(n), 2):
            assert dyad_endpoints(dyad_index(i, j)) == (i, j)


def test_dyad_indices_of_prefix_nodes_come_first():
    """Dyads within {0..m-1} occupy indices below C(m,2), for every m.

    This prefix property is what makes completions of a prefix subgraph a
    contiguous block of graph indices, so it is load-bearing for the
    enumeration-based likelihoods.
    """
    for n in range(2, 9):
        for m in range(2, n + 1):
            inside = {dyad_index(i, j) for i, j in itertools.combinations(range(m), 2)}
            assert inside == set(range(dyad_count(m)))


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------


def test_graph_validates_dyad_range():
    with pytest.raises(ValueError):
        Graph(n=3, dyads=8)
    with pytest.raises(ValueError):
        Graph(n=3, dyads=-1)
    with pytest.raises(ValueError):
        Graph(n=0, dyads=0)


def test_graph_stores_python_integers():
    """NumPy integers (as bulk draws hand back) become Python ints, so the
    bit operations on ``dyads`` work; floats are refused."""
    g = graph_from_index(4, np.int64(7))
    assert type(g.dyads) is int and type(g.n) is int
    assert g == graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert triangle_count(g) == 1
    assert not is_connected(g)
    assert format_edge_list(g) == format_edge_list(graph_from_index(4, 7))
    assert Graph(np.intp(5), np.uint64(3)) == Graph(5, 3)


def test_graph_rejects_float_fields():
    with pytest.raises(TypeError):
        Graph(3, 2.0)
    with pytest.raises(TypeError):
        Graph(3.0, 2)


def test_graph_from_edges_rejects_bad_edges():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(-1, 2)])


def test_has_edge_and_edges_iteration():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert sorted(g.edges()) == [(0, 1), (2, 3)]


def test_node_subset_validation():
    with pytest.raises(ValueError):
        NodeSubset(parent_n=4, members=(0, 4))
    with pytest.raises(ValueError):
        NodeSubset(parent_n=4, members=(2, 1))
    with pytest.raises(ValueError):
        NodeSubset(parent_n=4, members=(1, 1))
    with pytest.raises(ValueError):
        NodeSubset(parent_n=4, members=())


def test_node_subset_converts_its_numbers_like_graph():
    """NumPy integers become int; floats are refused at construction, not
    later inside induced_subgraph or marginal_distribution."""
    subset = NodeSubset(np.int64(4), (np.int64(0), np.uint8(2)))
    assert subset == NodeSubset(4, (0, 2))
    assert type(subset.parent_n) is int
    assert all(type(m) is int for m in subset.members)
    with pytest.raises(TypeError):
        NodeSubset(4, (0.0, 1.0))
    with pytest.raises(TypeError):
        NodeSubset(4.0, (0, 1))


# --------------------------------------------------------------------------
# enumeration bijection
# --------------------------------------------------------------------------


def test_graph_index_examples():
    assert graph_from_index(3, 0).dyads == 0
    assert graph_from_index(3, 7) == complete_graph(3)


def test_graph_index_round_trip_exhaustive():
    for n in range(1, 6):
        for k in range(1 << dyad_count(n)):
            assert graph_from_index(n, k).dyads == k


def test_graph_from_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        graph_from_index(3, 8)
    with pytest.raises(ValueError):
        graph_from_index(3, -1)


# --------------------------------------------------------------------------
# counting statistics
# --------------------------------------------------------------------------


def test_edge_count_examples():
    assert edge_count(complete_graph(4)) == 6
    assert edge_count(empty_graph(5)) == 0
    assert edge_count(_path_graph(4)) == 3


def test_triangle_count_examples():
    assert triangle_count(complete_graph(3)) == 1
    assert triangle_count(complete_graph(4)) == 4
    assert triangle_count(_cycle4()) == 0


def _naive_triangles(g):
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def test_triangle_count_matches_naive_triple_loop():
    for n in range(1, 6):
        for k in range(1 << dyad_count(n)):
            g = graph_from_index(n, k)
            assert triangle_count(g) == _naive_triangles(g)
    rng = substream(1234, "triangle-oracle")
    for _ in range(200):
        g = graph_from_index(6, int(rng.integers(1 << dyad_count(6))))
        assert triangle_count(g) == _naive_triangles(g)


def test_degree_sequence_examples():
    assert degree_sequence(complete_graph(3)) == [2, 2, 2]
    assert mean_degree(complete_graph(3)) == 2.0
    assert mean_degree(empty_graph(5)) == 0.0
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert degree_sequence(star) == [3, 1, 1, 1]
    assert mean_degree(star) == 1.5


def test_degree_sum_equals_twice_edge_count_exhaustive():
    for k in range(1 << dyad_count(5)):
        g = graph_from_index(5, k)
        assert sum(degree_sequence(g)) == 2 * edge_count(g)


# --------------------------------------------------------------------------
# induced subgraphs
# --------------------------------------------------------------------------


def test_induced_subgraph_examples():
    for members in itertools.combinations(range(4), 3):
        sub = induced_subgraph(complete_graph(4), NodeSubset(4, members))
        assert sub == complete_graph(3)
    assert induced_subgraph(empty_graph(5), NodeSubset(5, (0, 2, 4))) == empty_graph(3)
    chordless = induced_subgraph(_cycle4(), NodeSubset(4, (0, 1, 2)))
    assert sorted(chordless.edges()) == [(0, 1), (1, 2)]


def test_induced_subgraph_requires_matching_parent():
    with pytest.raises(ValueError):
        induced_subgraph(complete_graph(4), NodeSubset(5, (0, 1)))


def test_induced_subgraph_is_compositional():
    """Restricting to s then to t equals restricting to the composed subset."""
    rng = substream(99, "composition")
    for _ in range(100):
        n = int(rng.integers(4, 9))
        g = graph_from_index(n, int(rng.integers(1 << dyad_count(n))))
        size_s = int(rng.integers(2, n))
        members_s = tuple(sorted(rng.choice(n, size=size_s, replace=False).tolist()))
        size_t = int(rng.integers(1, size_s + 1))
        idx_t = tuple(sorted(rng.choice(size_s, size=size_t, replace=False).tolist()))
        one = induced_subgraph(
            induced_subgraph(g, NodeSubset(n, members_s)), NodeSubset(size_s, idx_t)
        )
        composed = tuple(members_s[i] for i in idx_t)
        two = induced_subgraph(g, NodeSubset(n, composed))
        assert one == two


def _induced_subgraph_oracle(g, members):
    """The induced subgraph edge by edge, one has_edge query per node pair."""
    m = len(members)
    edges = [(a, b) for b in range(m) for a in range(b) if g.has_edge(members[a], members[b])]
    return graph_from_edges(m, edges)


def test_induced_subgraph_matches_a_per_pair_oracle():
    """Every subset size of n = 1..14, on prefix, suffix and random subsets."""
    rng = substream(7, "induced-oracle")
    for n in range(1, 15):
        for _ in range(3):
            bits = int(rng.integers(1 << 62)) | (int(rng.integers(1 << 62)) << 62)
            g = Graph(n=n, dyads=bits % (1 << dyad_count(n)))
            for size in range(1, n + 1):
                drawn = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                for members in {tuple(range(size)), tuple(range(n - size, n)), drawn}:
                    got = induced_subgraph(g, NodeSubset(n, members))
                    assert got == _induced_subgraph_oracle(g, members), (n, members)


def _relabelled(g, perm):
    return graph_from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


@pytest.mark.parametrize("n", range(1, 6))
def test_relabellings_move_each_edge_to_its_relabelled_ends(n):
    """Every graph k's image under the transposition (0 1), then under the
    cycle (0 1 ... n-1), is the graph with each edge (a, b) moved to
    (perm[a], perm[b]); below 2^16 graphs there is one block, from 0."""
    perms = ((1, 0, *range(2, n)), tuple((i + 1) % n for i in range(n)))
    total = 1 << dyad_count(n)
    ((lo, *images),) = _relabellings(n)
    assert lo == 0
    for perm, image in zip(perms, images, strict=True):
        assert image.tolist() == [_relabelled(Graph(n, k), perm).dyads for k in range(total)]


def test_relabellings_read_every_index_bit_at_n8():
    """At n = 8 each index takes two lookup tables, and the blocks of 2^16
    graphs run in order; sampled graphs of the first, second and last
    blocks move as their edges do."""
    perms = ((1, 0, *range(2, 8)), (*range(1, 8), 0))
    starts, sampled = [], []
    for lo, *images in _relabellings(8):
        starts.append(lo)
        if lo in (0, 1 << 16, (1 << dyad_count(8)) - (1 << 16)):
            sampled.append((lo, *images))
    assert starts == list(range(0, 1 << dyad_count(8), 1 << 16))
    assert len(sampled) == 3
    for lo, *images in sampled:
        for perm, image in zip(perms, images, strict=True):
            assert len(image) == 1 << 16
            for offset in range(0, 1 << 16, 997):
                assert image[offset] == _relabelled(Graph(8, lo + offset), perm).dyads


def test_dyad_map_reads_stacked_members_row_by_row():
    rng = substream(8, "dyad-map")
    for m in range(1, 9):
        members = np.sort(np.stack([rng.choice(12, size=m, replace=False) for _ in range(5)]), axis=1)
        stacked = _dyad_map(members)
        assert stacked.shape == (5, dyad_count(m))
        for row, got in zip(members, stacked):
            assert np.array_equal(got, _dyad_map(row))
            pairs = [(row[a], row[b]) for b in range(m) for a in range(b)]
            assert got.tolist() == [dyad_index(i, j) for i, j in pairs]
    assert _dyad_map((3,)).shape == (0,)
    assert _dyad_map(np.array([[0], [4]])).shape == (2, 0)


# --------------------------------------------------------------------------
# connectivity
# --------------------------------------------------------------------------


def test_is_connected_examples():
    assert is_connected(complete_graph(3))
    assert not is_connected(empty_graph(2))
    assert is_connected(_path_graph(4))
    assert is_connected(Graph(n=1, dyads=0))
    assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))


def test_is_connected_matches_component_count_exhaustive():
    def reachable(g):
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in range(g.n):
                if u not in seen and u != v and g.has_edge(u, v):
                    seen.add(u)
                    frontier.append(u)
        return len(seen)

    for k in range(1 << dyad_count(5)):
        g = graph_from_index(5, k)
        assert is_connected(g) == (reachable(g) == 5)


# --------------------------------------------------------------------------
# edge-list format
# --------------------------------------------------------------------------


def test_format_parse_round_trip():
    for k in range(1 << dyad_count(4)):
        g = graph_from_index(4, k)
        assert parse_edge_list(format_edge_list(g)) == g


def test_format_edge_list_layout():
    g = graph_from_edges(4, [(1, 3), (0, 1)])
    assert format_edge_list(g) == "4\n0 1\n1 3\n"


@pytest.mark.parametrize(
    "text",
    [
        "",  # missing node count
        "x\n",  # non-integer node count
        "3\n0 0\n",  # self loop
        "3\n2 1\n",  # endpoints out of order
        "3\n0 3\n",  # node out of range
        "3\n0 1\n0 1\n",  # duplicate edge
        "3\n0\n",  # malformed line
        "3\n0 1 2\n",  # too many fields
        "-2\n",  # negative node count
    ],
)
def test_parse_edge_list_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_parse_edge_list_allows_blank_lines():
    assert parse_edge_list("3\n\n0 2\n\n") == graph_from_edges(3, [(0, 2)])


def test_read_write_edge_list(tmp_path):
    g = graph_from_edges(5, [(0, 4), (1, 2), (2, 3)])
    path = tmp_path / "g.edgelist"
    path.write_text(format_edge_list(g), encoding="utf-8")
    assert read_edge_list(path) == g


def _mle_text():
    from projgraph import LikelihoodKind, MLEResult, format_mle_csv, model_spec

    result = MLEResult((np.float64(0.5), np.float64(-0.25)),
                       (np.float64(0.125), np.float64(1.5)), np.float64(-3.0), np.True_,
                       np.False_, np.int64(4))
    return format_mle_csv(model_spec("edge-triangle"), [(LikelihoodKind.PROPER, result)])


def _projectivity_text():
    from projgraph import ParamVector, ProjectivityReport

    return ProjectivityReport(4, 3, (ParamVector(theta=(0.5,)),), (np.float64(0.25),),
                              np.True_, np.float64(0.25), "non-projective").to_csv()


def _report_text():
    from projgraph.experiments import ExperimentReport

    row = {"cell": "n=4", "mean": np.float64(0.5), "used": np.int64(3), "gap": None,
           "flag": np.True_}
    return ExperimentReport("growth", tuple(row), (row,), {}).csv_body()


@pytest.mark.parametrize("write, want", [
    (_mle_text, "family,kind,theta_hat_1,theta_hat_2,std_err_1,std_err_2,log_lik,"
                "converged,boundary,iterations\nEdgeTriangle,proper,0.5,-0.25,0.125,1.5,"
                "-3.0,true,false,4\n"),
    (_projectivity_text, "theta_1,tv,param_equal\n0.5,0.25,true\nmax_tv,verdict\n"
                         "0.25,non-projective\n"),
    (_report_text, "cell,mean,used,gap,flag\nn=4,0.5,3,,true\n"),
], ids=["mle", "projectivity", "experiment"])
def test_every_csv_writer_speaks_one_dialect_for_numpy_scalars(write, want):
    """NumPy floats and bools are written as the bare cells of their Python
    values, a missing value as a blank, and every line ends in a newline."""
    assert write() == want
