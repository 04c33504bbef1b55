"""Independent checks that tests compare polytutte with: the axioms of
rank tables and basis sets, subset-wise maxima of basis vectors, basis
enumeration by an exchange closure and by slice levels that append one
coordinate per level, incidence-graph connectivity by a union-find, and the
activity of one basis, from its transfers or from its tight sets.

These are the definitions themselves, with no shortcut, so they cost what
the definitions cost; tests run them on small inputs only.
"""

from __future__ import annotations

from typing import Sequence

from polytutte.core import (
    DEFAULT_MAX_BASES,
    Polymatroid,
    RankTable,
    Vector,
    _exchange_witness,
    _mask_of,
    _slice_table,
)
from polytutte.errors import NotABasis, SizeLimitExceeded, ValidationError
from polytutte.hypergraph import Hypergraph, forest_size


def submodularity_failure(f) -> tuple[int, int] | None:
    """The first mask pair (a, b) with f(a | b) + f(a & b) > f(a) + f(b),
    or None: every pair of masks, about 4^n / 2 comparisons."""
    size = len(f)
    for a in range(size):
        for b in range(a + 1, size):
            if f[a | b] + f[a & b] > f[a] + f[b]:
                return a, b
    return None


def local_submodularity_witness(f, n: int) -> tuple[int, int] | None:
    """The first (S + i, S + j) with f(S + i) + f(S + j) < f(S + i + j) + f(S),
    scanning the pairs i < j in lexicographic order and, for each pair, the
    masks S without i and j upward; None if there is none."""
    for i in range(n):
        for j in range(i + 1, n):
            a, b = 1 << i, 1 << j
            for s in range(1 << n):
                if not s & (a | b) and f[s | a] + f[s | b] < f[s | a | b] + f[s]:
                    return s | a, s | b
    return None


def table_category(f) -> str | None:
    """The error category the rank-table axioms give, or None if they hold."""
    if f[0] != 0:
        return "NonzeroEmptySet"
    return None if submodularity_failure(f) is None else "SubmodularityFailure"


def is_matroid_rank(f, n: int) -> bool:
    """f(empty) = 0, submodular, and every gain f(S + i) - f(S) is 0 or 1,
    checked for every S and every i outside it."""
    gains = (f[m | 1 << i] - f[m] for m in range(1 << n) for i in range(n) if not m >> i & 1)
    return f[0] == 0 and all(g in (0, 1) for g in gains) and submodularity_failure(f) is None


def spanning_forest_rank(num_vertices: int, edges) -> tuple[int, ...]:
    """Cycle-matroid rank of every edge subset of a multigraph with 1-based
    vertices: the size of a spanning forest, one union-find per mask."""
    m = len(edges)
    return tuple(
        forest_size(num_vertices + 1, [edges[i] for i in range(m) if mask >> i & 1])
        for mask in range(1 << m)
    )


def basis_set_category(rows) -> str | None:
    """The error category of equal sums and the pairwise exchange search
    (O(|B|^2 n^2)), or None if the set is a polymatroid."""
    rows = sorted(set(rows))
    if len({sum(v) for v in rows}) > 1:
        return "UnequalSums"
    return None if _exchange_witness(rows, frozenset(rows)) is None else "ExchangeFailure"


def rank_by_maxima(vectors: Sequence[Vector], n: int) -> tuple[int, ...]:
    """f(I) = max over the vectors of the I-coordinate sum: one list of 2^n
    subset sums per vector and their elementwise maxima."""
    best = None
    for v in vectors:
        sums = [0]
        for c in v:
            sums += [s + c for s in sums]
        best = sums if best is None else [a if a > b else b for a, b in zip(best, sums)]
    assert best is not None and len(best) == 1 << n
    return tuple(best)


def greedy_basis(table: RankTable, order: Sequence[int]) -> Vector:
    """Telescoping basis for an element order: each step takes the rank gain.

    The result always lies in the polymatroid of the table and attains f(I)
    for every prefix I of the order.
    """
    n = table.n
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValidationError(f"{order} is not a permutation of 1..{n}")
    out = [0] * n
    mask = 0
    prev = 0
    for t in order:
        mask |= 1 << (t - 1)
        cur = table.f[mask]
        out[t - 1] = cur - prev
        prev = cur
    return tuple(out)


def in_polytope(table: RankTable, v: Sequence[int]) -> bool:
    """Membership test against the table: all subset sums within rank, total
    sum equal to the full rank."""
    n = table.n
    if len(v) != n:
        return False
    size = 1 << n
    sums = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        s = sums[mask ^ low] + v[low.bit_length() - 1]
        if s > table.f[mask]:
            return False
        sums[mask] = s
    return sums[size - 1] == table.f[size - 1]


def exchange_closure(table: RankTable, max_bases: int = DEFAULT_MAX_BASES) -> Polymatroid:
    """Independent enumeration oracle: breadth-first closure of the greedy
    vertex under single-unit transfer moves a - e_i + e_j that stay inside
    the polytope.  Used to cross-check ``enumerate_bases``."""
    n = table.n
    start = greedy_basis(table, tuple(range(1, n + 1)))
    seen = {start}
    queue = [start]
    while queue:
        a = queue.pop()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                b = list(a)
                b[i] -= 1
                b[j] += 1
                bt = tuple(b)
                if bt in seen:
                    continue
                if in_polytope(table, bt):
                    seen.add(bt)
                    queue.append(bt)
                    if len(seen) > max_bases:
                        raise SizeLimitExceeded(max_bases)
    return Polymatroid(seen, validate=False)


def enumerate_by_levels(f, n: int, limit: int) -> list[Vector]:
    """The bases of a table in ``enumerate_bases``'s order, raising
    SizeLimitExceeded at the same points: for each level j of the last
    coordinate, the slice table's bases with j appended, copying every
    basis once per level above it."""
    if n == 1:
        return [(f[1],)]
    if n == 2:
        acc = [(a, f[3] - a) for a in range(f[3] - f[2], f[1] + 1)]
        if len(acc) > limit:
            raise SizeLimitExceeded(limit)
        return acc
    tbit = 1 << (n - 1)
    acc = []
    for j in range(f[-1] - f[-1 - tbit], f[tbit] + 1):
        acc += [v + (j,) for v in enumerate_by_levels(_slice_table(f, n, n, j), n - 1, limit)]
        if len(acc) > limit:
            raise SizeLimitExceeded(limit)
    return acc


def incidence_connected(h: Hypergraph, removed_edges=()) -> bool:
    """Is the incidence graph connected once the given 1-based hyperedges
    are removed?  One union-find over its (hyperedge, vertex) pairs, with
    hyperedge k as node k and vertex v as node |E| + v; no nodes at all
    count as disconnected."""
    n = h.num_edges
    mask = ((1 << n) - 1) & ~_mask_of(removed_edges, n)
    pairs = [(k, n + v) for k in range(n) if mask >> k & 1 for v in h.hyperedges[k]]
    total_nodes = bin(mask).count("1") + h.num_vertices
    return total_nodes > 0 and total_nodes - forest_size(n + h.num_vertices, pairs) == 1


def transfers(p: Polymatroid, a: Vector) -> list[tuple[int, int]]:
    """Every 0-based pair (j, k), j != k, with a + e_j - e_k in P, ordered by
    j and then k: one membership test per pair."""
    a = tuple(a)
    if a not in p:
        raise NotABasis(f"{a} is not a basis")
    v = list(a)
    out = []
    for j in range(len(v)):
        v[j] += 1
        for k in range(len(v)):
            if k != j:
                v[k] -= 1
                if tuple(v) in p:
                    out.append((j, k))
                v[k] += 1
        v[j] -= 1
    return out


def activities(p: Polymatroid, a: Vector) -> tuple[frozenset[int], frozenset[int]]:
    """(Int(a), Ext(a)), 1-based, by the definition: i is internally inactive
    when some transfer (j, i) has j < i, externally inactive when some
    (i, j) has j < i."""
    moves = transfers(p, a)
    int_inactive = {k for j, k in moves if j < k}
    ext_inactive = {j for j, k in moves if k < j}
    labels = range(p.n)
    return (
        frozenset(i + 1 for i in labels if i not in int_inactive),
        frozenset(i + 1 for i in labels if i not in ext_inactive),
    )


def activities_from_tight_sets(
    masks: Sequence[int], n: int
) -> tuple[frozenset[int], frozenset[int]]:
    """(Int(a), Ext(a)) from the tight sets of a: i is externally active iff
    i = min(I) for some nonempty tight I, and internally active iff
    i = min([n] - J) for some tight J != [n]."""
    full = (1 << n) - 1
    int_set = set()
    ext_set = set()
    for mask in masks:
        if mask:
            ext_set.add((mask & -mask).bit_length())
        comp = full ^ mask
        if comp:
            int_set.add((comp & -comp).bit_length())
    return frozenset(int_set), frozenset(ext_set)
