"""Deletion-contraction evaluation and the classical-matroid bridge.

The Tutte polynomial T and the interior and exterior polynomials I and X
of a polymatroid satisfy one recursion over the slices of any pivot
coordinate t, whose attained levels form the interval alpha_t..beta_t:

    F(P) = sum over levels j of w_F(j) * F(slice of P at j),   F = T, I, X

The slices at the interval ends are the deletion and contraction of t.  The
three polynomials differ only in their weight table:

    polynomial   level alpha   level beta   levels between   single level
    T            x             y            1                x + y - 1
    I            1             x            x                1
    X            y             1            y                1

A single level (alpha = beta) takes the single-level weight alone.  The base
case, one basis or one element, is the single-level weight to the power n.
One engine, ``_slice_rec``, runs the recursion for any of the three tables.

The engine works on rank tables, never on basis lists.  With f the rank
function, alpha_t = f(E) - f(E - t), beta_t = f({t}), and the slice at level
j has the rank function min(f(I), f(I + t) - j) on E - t (``core._slice_table``,
the helper ``enumerate_bases`` uses too).  Every table is normalized first:
subtracting alpha_t per element, f(S) - sum of alpha_t over S, translates the
polymatroid so that every alpha_t is 0 and the levels of t are 0..f({t}).
So the pivot, the coordinate with the widest level interval (the lowest on
ties, purely a performance heuristic; the result does not depend on it), is
an argmax over the n singleton values, and a table whose singletons are all
0 has a single basis.  Each node costs O(2^n) list work, however many bases
the polymatroid has.

Results are memoized under the normalized table (``memo_key``), so
translates of a polymatroid share entries, exactly as their translation-
normalized basis sets would; each polynomial has its own module-wide cache.
The caches are LRU maps bounded at ``DEFAULT_MEMO_CAPACITY`` entries each,
safe to share between threads, and ``clear_caches`` empties them; exactness
is unaffected by eviction.  ``tutte_dc``, ``interior_dc`` and
``exterior_dc`` take the polymatroid or table alone.  The direct evaluation
in ``activity`` stays on basis activities, and this module imports nothing
from it, so the two routes remain independent.

The bridge to matroids: for a rank-d matroid M on [n] with 0/1 basis
indicator vectors P(M), the classical Tutte polynomial equals the
two-variable polynomial pushed through the substitution

    T_M(x, y) = (x + y - xy)^n / (x^(n-d) y^d) * T_P(u, v),
    u = x / (x + y - xy),  v = y / (x + y - xy)

which ``tutte_to_matroid_form`` expands exactly as a Laurent polynomial.
``classical_tutte`` computes the corank-nullity sum directly and serves as
the independent oracle for that identity.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import sub
from typing import NamedTuple, Sequence

from .bipoly import X_PLUS_Y_MINUS_1, BiPoly, X, Y, add_scaled_into, cached_power, from_dict
from .core import Polymatroid, RankTable, _slice_table, _subset_sums
from .errors import DegreeExceedsN, NotAMatroid, ValidationError
from .hypergraph import forest_size

DEFAULT_MEMO_CAPACITY = 1 << 20


class LRUCache:
    """Bounded mapping with least-recently-used eviction and atomic upserts."""

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY):
        if capacity < 1:
            raise ValidationError("cache capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return None
            return self._data[key]

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


_tutte_cache = LRUCache()
_interior_cache = LRUCache()
_exterior_cache = LRUCache()


def clear_caches() -> None:
    _tutte_cache.clear()
    _interior_cache.clear()
    _exterior_cache.clear()


def memo_key(table: RankTable) -> tuple[int, ...]:
    """Translation-normalized key: f(S) minus the sum of alpha_t = f(E) -
    f(E - t) over S, the table of the translate whose every coordinate has
    minimum 0, so two translates of the same polymatroid share keys."""
    return _normalized(table.f, table.n)


def _normalized(f: Sequence[int], n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    top = f[full]
    alphas = [top - f[full ^ (1 << t)] for t in range(n)]
    if not any(alphas):
        return tuple(f)
    return tuple(map(sub, f, _subset_sums(alphas)))


class _Weights(NamedTuple):
    """Level weights of one polynomial in the slice recursion."""

    lo: BiPoly       # the lowest attained level (deletion end)
    hi: BiPoly       # the highest attained level (contraction end)
    mid: BiPoly      # every level strictly between them
    single: BiPoly   # a single level, alpha = beta


_TUTTE = _Weights(lo=X, hi=Y, mid=BiPoly.one(), single=X_PLUS_Y_MINUS_1)
_INTERIOR = _Weights(lo=BiPoly.one(), hi=X, mid=X, single=BiPoly.one())
_EXTERIOR = _Weights(lo=Y, hi=BiPoly.one(), mid=Y, single=BiPoly.one())


def _slice_rec(f: tuple[int, ...], n: int, weights: _Weights, cache: LRUCache) -> BiPoly:
    """The slice recursion, on a normalized table, for the polynomial whose
    level weights are given.

    Every alpha_t of ``f`` is 0, so the levels of coordinate t are
    0..f({t}).  The pivot is the widest level interval, the lowest
    coordinate on ties.
    """
    if n == 1:
        return weights.single
    widths = [f[1 << t] for t in range(n)]
    width = max(widths)
    if not width:  # a single basis
        return cached_power(weights.single, n)
    hit = cache.get(f)
    if hit is not None:
        return hit
    t = widths.index(width) + 1
    acc: dict[tuple[int, int], int] = {}
    for j in range(width + 1):
        if j == 0:
            weight = weights.lo
        elif j == width:
            weight = weights.hi
        else:
            weight = weights.mid
        part = _slice_rec(_normalized(_slice_table(f, n, t, j), n - 1), n - 1, weights, cache)
        for (di, dj), c in weight._terms.items():  # noqa: SLF001 - hot path
            add_scaled_into(acc, part, c, di, dj)
    result = from_dict(acc)
    cache.put(f, result)
    return result


def _dc(p: Polymatroid | RankTable, weights: _Weights, cache: LRUCache) -> BiPoly:
    table = p.rank_table()
    return _slice_rec(memo_key(table), table.n, weights, cache)


def tutte_dc(p: Polymatroid | RankTable) -> BiPoly:
    """Tutte polynomial by the slice recursion on the rank table.

    ``p`` is a polymatroid or its rank table.
    """
    return _dc(p, _TUTTE, _tutte_cache)


def interior_dc(p: Polymatroid | RankTable) -> BiPoly:
    """Interior polynomial by the slice recursion (deletion end unweighted)."""
    return _dc(p, _INTERIOR, _interior_cache)


def exterior_dc(p: Polymatroid | RankTable) -> BiPoly:
    """Exterior polynomial by the slice recursion (contraction end unweighted)."""
    return _dc(p, _EXTERIOR, _exterior_cache)


# -- classical matroid bridge ---------------------------------------------------


_XYXY = X + Y - X * Y
_X_MINUS_1 = X - BiPoly.one()
_Y_MINUS_1 = Y - BiPoly.one()


def tutte_to_matroid_form(t: BiPoly, n: int, d: int) -> BiPoly:
    """Expand the matroid-form substitution of a degree-<=n polynomial.

    With t = sum c_ij x^i y^j this is
    sum c_ij x^i y^j (x + y - xy)^(n-i-j), multiplied by x^(d-n) y^(-d);
    the result is a Laurent polynomial.
    """
    if t.has_negative_exponents() or t.total_degree() > n:
        raise DegreeExceedsN(f"polynomial does not fit degree bound {n}")
    acc: dict[tuple[int, int], int] = {}
    for (i, j), c in t.items():
        add_scaled_into(acc, cached_power(_XYXY, n - i - j), c, i, j)
    return from_dict(acc).shift(d - n, -d)


def matroid_form(p: Polymatroid | RankTable, d: int | None = None) -> BiPoly:
    """Matroid-form Tutte polynomial of a polymatroid or its rank table.

    ``d`` defaults to the full rank (the common coordinate sum).  For the
    0/1 indicator polymatroid of a matroid this reproduces the classical
    Tutte polynomial exactly.
    """
    if d is None:
        d = p.rank_table().full_rank()
    return tutte_to_matroid_form(tutte_dc(p), p.n, d)


def validate_matroid_rank(table: RankTable) -> RankTable:
    """Matroid rank function: zero at empty, unit increments, submodular."""
    n = table.n
    f = table.f
    if f[0] != 0:
        raise NotAMatroid("rank of the empty set must be 0")
    for mask in range(1 << n):
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            gain = f[mask | bit] - f[mask]
            if gain not in (0, 1):
                raise NotAMatroid(f"non-unit increment at mask {mask}, element {i + 1}")
    try:
        table.validate()
    except ValidationError as exc:
        raise NotAMatroid(f"rank table is not submodular: {exc}") from exc
    return table


def classical_tutte(table: RankTable) -> BiPoly:
    """Corank-nullity expansion over all subsets of the ground set.

    sum over S of (x-1)^(r(E)-r(S)) * (y-1)^(|S|-r(S)); the independent
    oracle for the matroid-form bridge.
    """
    validate_matroid_rank(table)
    n = table.n
    f = table.f
    full_rank = f[(1 << n) - 1]
    acc: dict[tuple[int, int], int] = {}
    for mask in range(1 << n):
        r = f[mask]
        xs = cached_power(_X_MINUS_1, full_rank - r)
        add_scaled_into(acc, xs * cached_power(_Y_MINUS_1, mask.bit_count() - r), 1, 0, 0)
    return from_dict(acc)


def uniform_matroid(d: int, n: int) -> RankTable:
    """Rank function of the uniform matroid: r(S) = min(|S|, d)."""
    if not 0 <= d <= n:
        raise ValidationError(f"uniform matroid needs 0 <= d <= n, got d={d}, n={n}")
    return RankTable(n, [min(bin(m).count("1"), d) for m in range(1 << n)], validate=False)


def graphic_matroid(num_vertices: int, edges: Sequence[tuple[int, int]]) -> RankTable:
    """Rank function of a multigraph's cycle matroid, edges as the ground set.

    r(S) = (number of vertices) - (components of the spanning subgraph with
    edge set S); vertices are 1-based, loops and parallel edges allowed.
    """
    m = len(edges)
    if m < 1:
        raise ValidationError("graphic matroid needs at least one edge")
    for u, v in edges:
        if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
            raise ValidationError(f"edge ({u}, {v}) outside vertex range")
    values = [
        forest_size(num_vertices + 1, [edges[i] for i in range(m) if mask >> i & 1])
        for mask in range(1 << m)
    ]
    return RankTable(m, values, validate=False)
