"""Unit tests for hypergraph ingestion, rank, and connectivity."""

from __future__ import annotations

import itertools
from random import Random

import pytest
from oracles import incidence_connected

from polytutte.core import Polymatroid, RankTable
from polytutte.errors import ValidationError
from polytutte.hypergraph import (
    Hypergraph,
    connectivity_profile,
    count_four_cycles,
    hypergraph_rank,
    hypertree_polymatroid,
    is_connected,
    random_hypergraph,
    random_incidence_subgraph,
    rank_table,
)

K22 = Hypergraph(["v1", "v2"], [["v1", "v2"], ["v1", "v2"]])
TRIPLE = Hypergraph(["v1", "v2", "v3"], [["v1", "v2", "v3"]])


# -- construction ----------------------------------------------------------------


def test_rejects_empty_hyperedge():
    with pytest.raises(ValidationError):
        Hypergraph(["v1"], [[]])


def test_rejects_unknown_vertex():
    with pytest.raises(ValidationError):
        Hypergraph(["v1"], [["v2"]])


def test_duplicate_hyperedges_allowed():
    assert K22.num_edges == 2
    assert K22.hyperedges[0] == K22.hyperedges[1]


def test_json_round_trip():
    h = Hypergraph.from_json(K22.to_json())
    assert h == K22


def test_bipartite_json_form():
    data = {
        "E": ["e1", "e2"],
        "V": ["v1", "v2"],
        "edges": [["e1", "v1"], ["e1", "v2"], ["e2", "v1"], ["e2", "v2"]],
    }
    assert Hypergraph.from_json(data) == K22


# -- rank function ------------------------------------------------------------------


def test_rank_single_edges_of_k22():
    assert hypergraph_rank(K22, [1]) == 1
    assert hypergraph_rank(K22, [1, 2]) == 1


def test_rank_three_vertex_edge():
    assert hypergraph_rank(TRIPLE, [1]) == 2


def test_rank_empty_set():
    assert hypergraph_rank(K22, []) == 0


def test_rank_counts_components():
    h = Hypergraph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
    assert hypergraph_rank(h, [1, 2]) == 4 - 2


def test_rank_table_submodular_on_samples():
    rng = Random(7)
    for _ in range(25):
        h = random_hypergraph(rng, 5, 4, connected=False)
        t = rank_table(h)
        RankTable(t.n, t.f)


def test_rank_table_matches_the_incidence_forest():
    # the one-pass table against one union-find per mask, on every mask
    rng = Random(11)
    cases = [random_hypergraph(rng, 6, 8, connected=False) for _ in range(30)]
    names = [f"v{i}" for i in range(16)]
    cases.append(Hypergraph(names, [[names[i], names[(i + 1) % 16]] for i in range(16)]))
    for h in cases:
        n = h.num_edges
        expected = [
            hypergraph_rank(h, [k + 1 for k in range(n) if mask >> k & 1])
            for mask in range(1 << n)
        ]
        assert list(rank_table(h).f) == expected


# -- hypertrees ------------------------------------------------------------------------


def test_hypertrees_of_k22():
    p = hypertree_polymatroid(K22)
    assert p == Polymatroid([(1, 0), (0, 1)])
    assert p.rank_table().full_rank() == 1


def test_hypertrees_single_edge():
    p = hypertree_polymatroid(TRIPLE)
    assert p == Polymatroid([(2,)])


def test_hypertrees_three_parallel_edges():
    h = Hypergraph(["v1", "v2"], [["v1", "v2"]] * 3)
    p = hypertree_polymatroid(h)
    assert p == Polymatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_hypertrees_are_spanning_tree_degree_vectors():
    # for K22 (a 4-cycle) the spanning trees drop one of 4 edges; the E-side
    # degree vectors, shifted down by one, are exactly the hypertrees
    p = hypertree_polymatroid(K22)
    assert set(p.bases) == {(1, 0), (0, 1)}


# -- connectivity -----------------------------------------------------------------------


def test_connectivity_profile_k22():
    assert connectivity_profile(K22) == 1


def test_connectivity_profile_single_edge():
    assert connectivity_profile(TRIPLE) == 0


def test_connectivity_profile_disconnected():
    h = Hypergraph(["a", "b"], [["a"], ["b"]])
    assert connectivity_profile(h) == -1


def test_connectivity_single_vertex_star():
    h = Hypergraph(["v"], [["v"], ["v"], ["v"]])
    assert connectivity_profile(h) == 3


def test_is_connected_removal():
    assert is_connected(K22, [1])
    assert not is_connected(K22, [1, 2])


def _profile_by_union_find(h: Hypergraph) -> int:
    """The largest k such that every removal of k hyperedges leaves the
    incidence graph connected by the union-find oracle, -1 if it is not."""
    labels = range(1, h.num_edges + 1)
    best = -1
    for k in range(h.num_edges + 1):
        if not all(incidence_connected(h, r) for r in itertools.combinations(labels, k)):
            break
        best = k
    return best


def _removal_sets(h: Hypergraph):
    n = h.num_edges
    return ([k + 1 for k in range(n) if mask >> k & 1] for mask in range(1 << n))


CONNECTIVITY_CASES = {
    "no vertices": (Hypergraph([], []), -1),
    "one bare vertex": (Hypergraph(["a"], []), 0),
    "an uncovered vertex": (Hypergraph(["a", "b", "c"], [["a", "b"], ["a", "b"]]), -1),
    "parallel hyperedges": (Hypergraph(["a", "b", "c"], [["a", "b", "c"]] * 4), 3),
    "a bridge": (Hypergraph(["a", "b"], [["a"], ["a", "b"], ["b"]]), 0),
    "the 16-cycle": (
        Hypergraph([f"v{k}" for k in range(16)], [[f"v{k}", f"v{(k + 1) % 16}"] for k in range(16)]),
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CONNECTIVITY_CASES))
def test_connectivity_edge_cases_match_the_union_find(name):
    h, expected = CONNECTIVITY_CASES[name]
    for removed in _removal_sets(h):
        assert is_connected(h, removed) == incidence_connected(h, removed), removed
    assert connectivity_profile(h) == _profile_by_union_find(h) == expected


def test_connectivity_matches_the_union_find_on_random_hypergraphs():
    # the bitmask flood against the union-find on every removal set
    rng = Random(29)
    for _ in range(500):
        h = random_hypergraph(rng, 7, 7, connected=False)
        for removed in _removal_sets(h):
            assert is_connected(h, removed) == incidence_connected(h, removed), (h, removed)
        assert connectivity_profile(h) == _profile_by_union_find(h), h


@pytest.mark.parametrize("index", [0, 3])
@pytest.mark.parametrize("function", [hypergraph_rank, is_connected])
def test_hyperedge_labels_outside_one_to_e_are_refused(function, index):
    with pytest.raises(ValidationError, match=rf"element {index} outside 1\.\.2"):
        function(K22, [1, index])


# -- 4-cycles --------------------------------------------------------------------------


def test_four_cycles_k22():
    assert count_four_cycles(K22) == 1


def test_four_cycles_single_edge():
    assert count_four_cycles(TRIPLE) == 0


def test_four_cycles_three_triple_edges():
    h = Hypergraph(["v1", "v2", "v3"], [["v1", "v2", "v3"]] * 3)
    assert count_four_cycles(h) == 9


# -- random generators ---------------------------------------------------------------


def test_random_hypergraph_is_deterministic():
    a = random_hypergraph(Random(42))
    b = random_hypergraph(Random(42))
    assert a == b


def test_random_hypergraph_connected_by_default():
    rng = Random(3)
    for _ in range(20):
        assert is_connected(random_hypergraph(rng))


def test_random_subgraph_keeps_shape():
    rng = Random(5)
    h = random_hypergraph(rng, 5, 5)
    sub = random_incidence_subgraph(rng, h)
    assert sub.vertices == h.vertices
    assert sub.num_edges == h.num_edges
    for small, large in zip(sub.hyperedges, h.hyperedges):
        assert small <= large and small
