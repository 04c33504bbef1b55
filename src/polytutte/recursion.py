"""Deletion-contraction evaluation and the classical-matroid bridge.

The Tutte polynomial T of a polymatroid satisfies one recursion over the
slices of any pivot coordinate t, whose attained levels form the interval
alpha_t..beta_t:

    T(P) = sum over levels j of w(j) * T(slice of P at j)

The slices at the interval ends are the deletion and contraction of t.  The
weight w(j) is x at the lowest level alpha (the deletion end), y at the
highest level beta (the contraction end) and 1 at every level between; a
single level (alpha = beta) takes x + y - 1 alone.  The base case, one
basis, is (x + y - 1)^n.  The engine, the one node function ``core._node``
behind the one entry ``core._engine``, runs this recursion once per table
and point: for T, T(x, 1) and T(1, y) here, and for the basis count in
``core.count_bases``.

The interior and exterior polynomials are specializations of T,

    I(x) = x^n T(1/x, 1),   X(y) = y^n T(1, 1/y),

which the module computes two ways.  ``dc_polynomials`` returns (T, I, X),
I and X read off T where it is decoded, at the root, which visits every
coefficient: a coefficient c of x^i y^j in T adds c to the x^(n-i) term of
I and to the y^(n-j) term of X.  ``tutte_dc`` picks T from it.
``interior_dc`` and ``exterior_dc`` run the engine at one variable instead,
T(x, 1) and T(1, y), and reverse it: they never build the two-variable T,
and never read or write the root memo, so they are a route independent of
T's decode.  The acceptance suite's criterion 1 checks that decode against
the direct route, and ``check --properties reversal`` compares the
one-variable runs with T's reversals.

Tables as lanes.  A normalized table is one integer with 2^n lanes of L bits,
lane S holding f(S), in the layout of ``core.rank_from_bases``, packed by
``core._pack_table``, which also packs the tables that
``RankTable.validate`` checks; ONES, the guard bits (the top bit of each
lane) and IND_s (1 in the lanes of the sets that hold s) come from
``core._lanes``.  L is the smallest of 8, 16, 32, ...
bits that holds the root's normalized f(E) below the guard bit; no slice
below the root exceeds that value, so L holds for the whole run.

Pivot on the top coordinate.  The pivot is always t = n, the highest lane
bit, so the lanes without t are the low half of the table and those with t
the high half: ``without`` is one mask and ``with`` one shift.  The level-0
slice is ``without``, the top level w = f({t}) is ``with - w * ONES``, and
each level between is the lane-wise minimum of ``without`` and
``with - j * ONES``, taken as ``rank_from_bases`` takes its maximum:
subtracting with the guards set borrows from a lane's guard exactly where
``without`` is smaller.  With gamma_s = f(E - t) - f(E - t - s), read in
place as the lanes at E - t and E - t - s of ``without`` (a shift and a mask
each), the slice at level j has alpha_s = max(0, gamma_s - j), so
normalizing it subtracts the sum of alpha_s * IND_s over the nonzero gammas;
most nodes have none, which one masked compare of those lanes against
f(E - t) finds, and skip reading them one by one.  A top coordinate of
width 0 is dropped: the node is x + y - 1 times the polynomial of the low
half.  The result does not depend on the pivot order (the tests sum the
formula at every pivot, outside the engine).  Each node costs a few
big-integer operations over 2^n lanes per level, run in C, however many
bases the polymatroid has.
A two-element node takes a closed form: a normalized polymatroid's table on
two elements has lanes 0, c, c, c, and its T is (x + y + c - 1)(x + y - 1).
The engine's one entry, ``core._engine``, walks the normalized table that
``validate()`` checked and kept, and validates any table not yet validated,
so every node it walks is a polymatroid's.

Polynomials as lanes.  The engine evaluates T at x = 2^xs, y = 2^ys, so the
weights x and y are shifts by xs and ys bits, and the powers (x + y - 1)^k
are cached per pair of shifts.  Evaluation is a ring homomorphism, so sums
and products of the values are exact whatever the coefficients.
``dc_polynomials`` alone picks the layout T is read from: lanes of PL bits
at stride n + 1, x = 2^((n + 1) PL) and y = 2^PL, so the coefficient of
x^i y^j (i + j <= n) sits in lane i * (n + 1) + j.  The lanes are signed and
are decoded once, at the root, by adding 2^(PL - 1) to every lane.  That is
exact when every coefficient of the root's polynomial has absolute value
below 2^(PL - 1).  T is a sum over the bases of a monomial times
(x + y - 1)^m with m <= n, whose coefficients sum to at most 3^n in absolute
value, and a normalized polymatroid has at most prod_t (f({t}) + 1) bases;
so PL is the smallest multiple of 8 above the bit length of
3^n * prod_t (f({t}) + 1), which bounds every coefficient of T in whole
bytes.  Coefficients of the polynomials below the root may exceed it; they
are never decoded.  ``interior_dc`` takes the point (PL, 0), x = 2^PL and
y = 1, with a PL of its own, and ``exterior_dc`` the point (0, PL).  At
y = 1 each basis adds one monomial x^k to T, so every coefficient of
T(x, 1) is nonnegative and they sum to the number of bases, at most
prod_t (f({t}) + 1): PL is the smallest multiple of 8 at or above that
product's bit length, and the n + 1 lanes are read with no bias.  The
count is the point (0, 0), x = y = 1, where T is the number of bases:
``core.count_bases`` runs the engine there with a finite cap, which a node
returns once its running total reaches it, or at once if its top
coordinate has that many levels.  T takes an infinite cap.

Memo.  Each engine run memoizes the nodes below its root in a plain dict of
its own, keyed by the packed table alone (L and the two shifts are fixed
within the run, and a packed table's bit length fixes its number of
elements), so no node outlives its run.  ``_node`` looks each child up
inline; an empty child is the cached power, with no entry.  The module-wide
cache holds the roots of ``dc_polynomials`` only: the root of a call is
stored under its ``core._normalized`` table, a tuple, so translates of a
polymatroid share it, and maps to the decoded (T, I, X).  A call takes
one lookup there and, on a miss, one store.  The cache is a plain dict with
no order and no lock, bounded by the table values its keys hold, 2^n per
root: a store that would take them past ``MEMO_BUDGET`` (2^22, 64 roots on
16 elements) empties it first, and ``clear_caches`` empties it.  Each
lookup and store is one dict call, atomic in CPython, so threads may share
it; a store lost to a race costs a recomputation, and a lost update of the
running total lets the memo pass its budget by one key until the next
clear, never a wrong result.  The direct evaluation in ``activity`` stays
on basis activities, and this module imports nothing from it, so the two
routes remain independent.

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

import math
from collections import Counter
from typing import Sequence

from .bipoly import BiPoly, X, Y, add_scaled_into, cached_power, from_dict
from .core import Polymatroid, RankTable, _engine, _normalized
from .errors import DegreeExceedsN, NotAMatroid, ValidationError
from .hypergraph import Hypergraph, rank_table

MEMO_BUDGET = 1 << 22  # table values, summed over the root memo's keys
_cache: dict = {}
_held = 0  # the table values that _cache's keys hold


def clear_caches() -> None:
    global _held
    _cache.clear()
    _held = 0


def _unpack_poly(value: int, n: int, pl: int) -> tuple[BiPoly, BiPoly, BiPoly]:
    """Decode a packed T of total degree at most n into (T, I, X): the
    coefficient c of x^i y^j adds c to the x^(n-i) term of I and to the
    y^(n-j) term of X."""
    stride = n + 1
    count = n * stride + 1  # x^n, at lane n * stride, is the highest term
    step = pl >> 3
    half = 1 << (pl - 1)
    bias = int.from_bytes(half.to_bytes(step, "little") * count, "little")
    data = (value + bias).to_bytes(count * step, "little")
    terms = {}
    interior = [0] * (n + 1)
    exterior = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            at = (i * stride + j) * step
            c = int.from_bytes(data[at:at + step], "little") - half
            if c:
                terms[i, j] = c
                interior[n - i] += c
                exterior[n - j] += c
    return (
        from_dict(terms),
        from_dict({(e, 0): c for e, c in enumerate(interior)}),
        from_dict({(0, e): c for e, c in enumerate(exterior)}),
    )


def _bases_bound(key: Sequence[int], n: int) -> int:
    """prod_t (f({t}) + 1) of a normalized table, at least its number of
    bases."""
    return math.prod(key[1 << t] + 1 for t in range(n))


def dc_polynomials(p: Polymatroid | RankTable) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(tutte_dc(p), interior_dc(p), exterior_dc(p)) from one run of the
    slice recursion: I and X are read off T's decode at the root.  The
    nodes below the root are memoized for this call only; the shared cache
    keeps the decoded root, under the normalized table.

    ``p`` is a polymatroid or its rank table.  The key is the normalized
    table that ``validate()`` kept, or one computed here for a table that
    has not passed it, which is validated on a cache miss and raises its
    error if it fails: a hit's key is the normalized table of one that passed.
    """
    global _held
    table = p.rank_table()
    key = getattr(table, "_key", None)
    if key is None:
        key = _normalized(table.f, table.n)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    n = table.n
    pl = ((3 ** n * _bases_bound(key, n)).bit_length() // 8 + 1) * 8
    result = _unpack_poly(_engine(table, (n + 1) * pl, pl, math.inf), n, pl)
    if _held + len(key) > MEMO_BUDGET:
        clear_caches()
    _cache[key] = result
    _held += len(key)
    return result


def tutte_dc(p: Polymatroid | RankTable) -> BiPoly:
    """Tutte polynomial by the slice recursion on the rank table."""
    return dc_polynomials(p)[0]


def _reversed_run(p: Polymatroid | RankTable, interior: bool) -> BiPoly:
    """x^n T(1/x, 1) from one engine run at (PL, 0), or y^n T(1, 1/y) from
    one at (0, PL): the n + 1 unsigned lanes of PL bits, reversed.  The
    table is validated if it is not yet; the root memo is not used."""
    table = p.rank_table()
    key = getattr(table, "_key", None)
    if key is None:
        key = table.validate()._key
    n = table.n
    step = -(-_bases_bound(key, n).bit_length() // 8)
    shifts = (step * 8, 0) if interior else (0, step * 8)
    data = _engine(table, *shifts, math.inf).to_bytes((n + 1) * step, "little")
    terms = {}
    for k in range(n + 1):
        e = (n - k, 0) if interior else (0, n - k)
        terms[e] = int.from_bytes(data[k * step:(k + 1) * step], "little")
    return from_dict(terms)


def interior_dc(p: Polymatroid | RankTable) -> BiPoly:
    """Interior polynomial x^n T(1/x, 1), from one engine run at y = 1."""
    return _reversed_run(p, True)


def exterior_dc(p: Polymatroid | RankTable) -> BiPoly:
    """Exterior polynomial y^n T(1, 1/y), from one engine run at x = 1."""
    return _reversed_run(p, False)


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
        add_scaled_into(acc, cached_power(_XYXY, n - i - j), c, i + d - n, j - d)
    return from_dict(acc)


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
    """Matroid rank function: zero at empty, submodular, unit increments.

    Submodular gains f(S + i) - f(S) do not grow with S, so every gain is 0
    or 1 exactly when f({i}) <= 1 and f(E) - f(E - i) >= 0 for every i.
    """
    f = table.f
    if f[0] != 0:
        raise NotAMatroid("rank of the empty set must be 0")
    try:
        table.validate()
    except ValidationError as exc:
        raise NotAMatroid(f"rank table is not submodular: {exc}") from exc
    full = len(f) - 1
    for i in range(table.n):
        bit = 1 << i
        if f[bit] > 1 or f[full] < f[full ^ bit]:
            raise NotAMatroid(f"non-unit increment at element {i + 1}")
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
    counts = Counter((full_rank - r, mask.bit_count() - r) for mask, r in enumerate(f))
    acc: dict[tuple[int, int], int] = {}
    for (a, b), c in counts.items():
        add_scaled_into(acc, cached_power(_X_MINUS_1, a) * cached_power(_Y_MINUS_1, b), c, 0, 0)
    return from_dict(acc)


def uniform_matroid(d: int, n: int) -> RankTable:
    """Rank function of the uniform matroid: r(S) = min(|S|, d)."""
    if not 0 <= d <= n:
        raise ValidationError(f"uniform matroid needs 0 <= d <= n, got d={d}, n={n}")
    return RankTable(n, [min(bin(m).count("1"), d) for m in range(1 << n)], validate=False)


def graphic_matroid(num_vertices: int, edges: Sequence[tuple[int, int]]) -> RankTable:
    """Rank function of a multigraph's cycle matroid, edges as the ground set.

    r(S) = (number of vertices) - (components of the spanning subgraph with
    edge set S), which is the hypergraph rank of the edges taken as vertex
    sets (a loop is a 1-set); vertices are 1-based, loops and parallel edges
    allowed.
    """
    if not edges:
        raise ValidationError("graphic matroid needs at least one edge")
    for u, v in edges:
        if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
            raise ValidationError(f"edge ({u}, {v}) outside vertex range")
    return rank_table(Hypergraph(range(1, num_vertices + 1), edges))
