"""Hypergraphs, their incidence graphs, and the induced polymatroid.

A hypergraph is a vertex list plus an ordered multiset of nonempty vertex
subsets (hyperedges); the hyperedge order fixes the polymatroid ground-set
indexing 1..|E|.  Its incidence graph is bipartite with color classes E and
V and an edge for each (hyperedge, member vertex) pair.

The rank of a hyperedge subset E' is

    rank(E') = |union of E'| - (components of the incidence graph restricted
               to E' and the vertices it touches)

with rank(empty) = 0.  This function is submodular, and the bases of its
polymatroid are the hypertrees: degree distributions of spanning forests of
the incidence graph restricted to the E side.

hypertree_polymatroid enumerates that table under DEFAULT_MAX_BASES; for
another cap, enumerate ``rank_table(h)`` directly.

Also provided: the connectivity profile (largest k such that removing any k
hyperedge vertices keeps the incidence graph connected, V-side isolated
vertices counting as components), a 4-cycle count, and seeded random
generators used by the verification corpus.

Connectivity is tested by a flood over vertex bitmasks: one component grows
from a kept hyperedge by absorbing every hyperedge that meets it.
``hypergraph_rank`` keeps a union-find over the incidence graph
(``forest_size``), so the one-pass ``rank_table`` has an independent side
to be tested against.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Iterable, Sequence

from .core import Polymatroid, RankTable, _check_ground_size, _mask_of, enumerate_bases, json_list
from .errors import ParseError, ValidationError


class Hypergraph:
    """Named vertices plus an ordered multiset of nonempty hyperedges."""

    __slots__ = ("vertices", "hyperedges")

    def __init__(self, vertices: Sequence[str], hyperedges: Iterable[Iterable[str]]):
        names = tuple(str(v) for v in vertices)
        if len(set(names)) != len(names):
            raise ValidationError("duplicate vertex names")
        index = {v: k for k, v in enumerate(names)}
        rows = []
        for edge in hyperedges:
            members = frozenset(str(v) for v in edge)
            if not members:
                raise ValidationError("hyperedges must be nonempty")
            unknown = members - set(index)
            if unknown:
                raise ValidationError(f"unknown vertices in hyperedge: {sorted(unknown)}")
            rows.append(frozenset(index[v] for v in members))
        object.__setattr__(self, "vertices", names)
        object.__setattr__(self, "hyperedges", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.hyperedges)

    def incidence_count(self) -> int:
        """Number of edges of the incidence graph (sum of hyperedge sizes)."""
        return sum(len(e) for e in self.hyperedges)

    def __repr__(self) -> str:
        edges = [sorted(self.vertices[v] for v in e) for e in self.hyperedges]
        return f"Hypergraph(V={list(self.vertices)}, E={edges})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.vertices == other.vertices
            and self.hyperedges == other.hyperedges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.hyperedges))

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "hyperedges": [sorted(self.vertices[v] for v in e) for e in self.hyperedges],
        }

    @staticmethod
    def from_json(data: dict) -> "Hypergraph":
        """Names are JSON strings or integers; every collection is a list."""
        if "hyperedges" in data:
            edges = json_list(data["hyperedges"], "'hyperedges'")
            return Hypergraph(
                _names_at(data, "vertices"),
                [_json_names(e, "a hyperedge") for e in edges],
            )
        if "edges" in data:
            # explicit bipartite form: {"E": [...], "V": [...], "edges": [[e, v], ...]}
            e_names = _names_at(data, "E")
            if len(set(e_names)) != len(e_names):
                raise ValidationError("duplicate hyperedge names")
            v_names = _names_at(data, "V")
            incident: dict[str, list[str]] = {e: [] for e in e_names}
            for pair in json_list(data["edges"], "'edges'"):
                pair = _json_names(pair, "an incidence")
                if len(pair) != 2 or pair[0] not in incident:
                    raise ValidationError(f"bad incidence {pair}: expected [hyperedge in 'E', vertex]")
                incident[pair[0]].append(pair[1])
            return Hypergraph(v_names, [incident[e] for e in e_names])
        raise ParseError("hypergraph JSON needs 'hyperedges' or 'edges'")


def _names_at(data: dict, key: str) -> list[str]:
    """The names under ``key``: a parse error if it is missing."""
    if key not in data:
        raise ParseError(f"hypergraph JSON needs {key!r}")
    return _json_names(data[key], repr(key))


def _json_names(value, what: str) -> list[str]:
    names = json_list(value, what)
    for v in names:
        if not isinstance(v, str) and type(v) is not int:
            raise ValidationError(f"names in {what} must be JSON strings or integers, got {v!r}")
    return [str(v) for v in names]


def forest_size(num_nodes: int, edges: Iterable[tuple[int, int]]) -> int:
    """Edges in a spanning forest of the multigraph on nodes 0..num_nodes-1.

    The graph has num_nodes minus this many components; for a cycle matroid
    it is the rank of the edge set.  Union-find with path halving.
    """
    parent = list(range(num_nodes))
    merged = 0
    for u, v in edges:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            merged += 1
    return merged


def hypergraph_rank(h: Hypergraph, edges: Iterable[int]) -> int:
    """Covered-vertex count minus incidence components, for 1-based indices.

    One union-find over the incidence graph restricted to the chosen
    hyperedges: hyperedge k is node k, vertex v is node |E| + v.
    """
    n = h.num_edges
    mask = _mask_of(edges, n)
    pairs = [(k, n + v) for k in range(n) if mask >> k & 1 for v in h.hyperedges[k]]
    # covered - components = covered - (chosen + covered - forest edges)
    return forest_size(n + h.num_vertices, pairs) - mask.bit_count()


def _edge_bits(h: Hypergraph) -> list[int]:
    """Each hyperedge as a bitmask of its vertices."""
    return [sum(1 << v for v in e) for e in h.hyperedges]


def rank_table(h: Hypergraph) -> RankTable:
    """Dense rank table over hyperedge subsets (validated submodular).

    One pass over the masks in increasing order: the incidence components of
    a mask, as vertex bitmasks, are those of the mask without its lowest
    hyperedge, with the ones that hyperedge touches merged into it.  A
    component with vertex set C contributes |C| - 1 to the rank.
    """
    n = h.num_edges
    if n < 1:
        raise ValidationError("need at least one hyperedge for a polymatroid")
    _check_ground_size(n)  # before the 2^n masks, not after them
    edge_bits = _edge_bits(h)
    components: list[tuple[int, ...]] = [()]
    values = [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        merged = edge_bits[low.bit_length() - 1]
        kept = []
        value = values[rest]
        for c in components[rest]:
            if c & merged:
                merged |= c
                value -= c.bit_count() - 1
            else:
                kept.append(c)
        kept.append(merged)
        components.append(tuple(kept))
        values.append(value + merged.bit_count() - 1)
    return RankTable(n, values)  # submodularity of the rank is asserted, not assumed


def hypertree_polymatroid(h: Hypergraph) -> Polymatroid:
    """The polymatroid of hypertrees; its rank_table() is ``rank_table(h)``."""
    return enumerate_bases(rank_table(h))


def _connected(kept: Sequence[int], every: int) -> bool:
    """Is the incidence graph of the kept hyperedges, given as vertex
    bitmasks, connected once every vertex of ``every`` is in it?

    With nothing kept only the vertices remain: connected exactly when there
    is one.  Otherwise one component grows from the first kept hyperedge,
    absorbing each hyperedge that meets it, until a pass absorbs nothing.
    """
    if not kept:
        return every == 1
    component, rest = kept[0], kept[1:]
    while rest:
        left = []
        for bits in rest:
            if bits & component:
                component |= bits
            else:
                left.append(bits)
        if len(left) == len(rest):
            return False
        rest = left
    return component == every


def is_connected(h: Hypergraph, removed_edges: Iterable[int] = ()) -> bool:
    """Connectivity of the incidence graph after removing hyperedge vertices.

    All V-side vertices remain; a vertex isolated by the removal makes the
    graph disconnected.  A graph with no vertices at all counts as
    disconnected, one with a single vertex as connected.  The test is a
    flood over vertex bitmasks (``_connected``).
    """
    removed = _mask_of(removed_edges, h.num_edges)
    kept = [bits for k, bits in enumerate(_edge_bits(h)) if not removed >> k & 1]
    return _connected(kept, (1 << h.num_vertices) - 1)


def connectivity_profile(h: Hypergraph) -> int:
    """Largest k such that removing ANY k hyperedge vertices leaves the
    incidence graph connected; -1 when it is disconnected to begin with.

    Walks the kept (n - k)-sets for k = 1, 2, ...; the first k with a
    disconnected one decides, so the order within each k does not matter.
    """
    bits = _edge_bits(h)
    every = (1 << h.num_vertices) - 1
    if not _connected(bits, every):
        return -1
    n = len(bits)
    for k in range(1, n + 1):
        for kept in itertools.combinations(bits, n - k):
            if not _connected(kept, every):
                return k - 1
    return n


def count_four_cycles(h: Hypergraph) -> int:
    """4-cycles of the incidence graph: pairs of hyperedges sharing a pair of
    vertices, multiset-aware."""
    total = 0
    for a, b in itertools.combinations(h.hyperedges, 2):
        shared = len(a & b)
        total += shared * (shared - 1) // 2
    return total


def edge_degree(h: Hypergraph, k: int) -> int:
    """Size of hyperedge k (1-based), i.e. its incidence-graph degree."""
    return len(h.hyperedges[k - 1])


# -- seeded random generation (corpus support) -----------------------------------

_HYPERGRAPH_TRIES = 2000


def random_hypergraph(
    rng: Random,
    max_vertices: int = 5,
    max_edges: int = 5,
    *,
    connected: bool = True,
) -> Hypergraph:
    """Random hypergraph; with ``connected`` it retries until the incidence
    graph is connected (which also forces every vertex to be covered)."""
    for _ in range(_HYPERGRAPH_TRIES):
        nv = rng.randint(1, max_vertices)
        ne = rng.randint(1, max_edges)
        names = [f"v{i + 1}" for i in range(nv)]
        edges = []
        for _ in range(ne):
            size = rng.randint(1, nv)
            edges.append(rng.sample(names, size))
        h = Hypergraph(names, edges)
        if not connected or is_connected(h):
            return h
    raise ValidationError("could not draw a connected hypergraph; widen parameters")


def random_incidence_subgraph(rng: Random, h: Hypergraph) -> Hypergraph:
    """Random sub-hypergraph on the same vertices and hyperedge count.

    Deletes incidence edges only (shrinks hyperedges), always keeping each
    hyperedge nonempty, so the two polymatroids share a ground set and the
    smaller incidence graph is a subgraph of the larger one.
    """
    new_edges = []
    for e in h.hyperedges:
        members = sorted(e)
        keep_count = rng.randint(1, len(members))
        kept = rng.sample(members, keep_count)
        new_edges.append([h.vertices[v] for v in kept])
    return Hypergraph(h.vertices, new_edges)
