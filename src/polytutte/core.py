"""Polymatroid representations and structural operators.

A polymatroid over the ground set [n] = {1, ..., n} is stored as its finite
set of integer basis vectors.  Subsets of [n] are n-bit masks with element i
on bit i-1; rank functions are dense tables of 2^n integers indexed by mask.

The two representations convert both ways:

  * rank_from_bases    f(I) = max over bases of the I-coordinate sum; each
                       basis packs its 2^n subset sums, as offsets from
                       each coordinate's minimum, into the fixed-width
                       lanes of one integer, and the maximum is taken over
                       all lanes at once with a guard bit per lane.  Only
                       a set with n times a coordinate's max - min at
                       2^63 or more, which no polymatroid reaches, falls
                       back to one list of sums per basis
  * enumerate_bases    recover the basis set from a submodular table by
                       recursing on the last coordinate: the bases with the
                       last coordinate pinned to j project to the polymatroid
                       of the slice table min(f(I), f(I + {t}) - j)

Every submodular table with f(empty) = 0 is attained exactly (the greedy
vector for an order putting I first realizes f(I)), so the round trip is the
identity in both directions.  A polymatroid built by enumerate_bases keeps
the table it was enumerated from as its rank_table(); a polymatroid given by
its bases derives the table once, with rank_from_bases, when it is validated
(or on first use, if it was built unvalidated).

Every minor (P - A) / B is one projection of that table,

    S -> f(S + B) - f(B)   over the surviving elements [n] - A - B,

followed by one enumerate_bases, so a minor carries its table as well;
deletion and contraction are the minors with B or A empty.

The public constructors, Polymatroid(vectors) and RankTable(n, values), are
the validating entry points; they check the defining axioms in O(2^n n^2)
time:

  * a rank table needs f(empty) = 0 and local submodularity,
    f(S + i) + f(S + j) >= f(S + i + j) + f(S) for every S and i < j outside
    S, which is equivalent to submodularity over all pairs of subsets.  The
    table is packed into the lanes of one integer (_pack_table, the layout
    of rank_from_bases and the slice recursion), and each pair i < j is
    checked for every S at once, as one guard-bit borrow: C(n, 2) checks of
    a few big-integer operations each (see RankTable.validate);
  * a basis set needs equal coordinate sums and a round trip: its subset-wise
    maxima g = rank_from_bases must be locally submodular and have exactly
    as many bases as were given.  The given vectors lie in g's base
    polyhedron (each b(S) <= g(S), and b(E) = g(E) by the equal sums), so a
    count decides that they are all of its integer points.  count_bases is
    the slice engine of the Tutte recursion at x = y = 1, where T is the
    number of bases: it builds no vector, and every node stops at the cap,
    one past the number given.  This is the basis exchange axiom, since the
    sets that satisfy it are exactly the integer points of integral base polyhedra.  On
    success the polymatroid keeps g as its rank_table().

The slice engine's one entry, _engine, walks the normalized values that
validate() checked and keeps on the table, and validates any table that has
not passed it.

A failed check names a witness: a violating pair of subsets, or, searched
pairwise on the failure path only, a pair of bases and an index with no
exchange.

enumerate_small_polymatroids builds its tables under the same local
condition: the value of each mask M is capped by the local bound, the least
f(M - x) + f(M - y) - f(M - x - y) over pairs x, y in M, which is C(|M|, 2)
terms rather than every pair of masks whose union is M.

The public constructors check types and lengths even with validate=False,
in one scan in C over all coordinates; Polymatroid.from_json scans the JSON
types once and skips the constructor's type scan.  Polymatroid.minor checks
its labels and hands masks to Polymatroid._minor, which the package calls
directly on masks it made itself.  What the package computes itself from a
polymatroid or table it already holds (enumerate_bases and so every minor,
slice, dual, translate, permute, rank_from_bases, slice_rank and
enumerate_small_polymatroids) is built by Polymatroid._trusted and
RankTable._trusted instead, which sort the basis rows but check nothing.
dual, translate and permute carry a known rank table through the transform,

    f*(S) = f([n] - S) - f([n]),   f(S) + c(S),   S -> f(w(S)),

and leave an unknown one unknown, so a polymatroid given by its bases pays
rank_from_bases only when a table is read.  All values are immutable after
construction and safe to share.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from operator import add, mul, sub
from struct import Struct
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyBasisSet,
    EmptySlice,
    ExchangeFailure,
    FullGroundSet,
    GroundSetTooLarge,
    NonzeroEmptySet,
    OutOfRange,
    OverlappingSets,
    ParseError,
    SizeLimitExceeded,
    SubmodularityFailure,
    UnequalSums,
    ValidationError,
)

MAX_GROUND_SET = 16
DEFAULT_MAX_BASES = 10 ** 6

Vector = tuple[int, ...]


def _check_ground_size(n: int) -> None:
    if n < 1:
        raise ValidationError(f"ground set must have at least one element, got {n}")
    if n > MAX_GROUND_SET:
        raise GroundSetTooLarge(f"n = {n} exceeds the maximum {MAX_GROUND_SET}")


def _mask_of(elements: Iterable[int], n: int) -> int:
    mask = 0
    for i in elements:
        if not 1 <= i <= n:
            raise ValidationError(f"element {i} outside 1..{n}")
        mask |= 1 << (i - 1)
    return mask


class RankTable:
    """Dense integer rank function f: 2^[n] -> Z, indexed by subset mask;
    only validate() sets ``_key``, the normalized values it checked, once
    the table passes."""

    __slots__ = ("n", "f", "_key")

    def __init__(self, n: int, values: Sequence[int], *, validate: bool = True):
        f = _table_values(n, values, typed=False)
        _set_table_n(self, n)
        _set_table_f(self, f)
        if validate:
            self.validate()

    @classmethod
    def _trusted(cls, n: int, f: tuple[int, ...]) -> "RankTable":
        """A table the package computed itself: 2^n integers, not checked."""
        table = object.__new__(cls)
        _set_table_n(table, n)
        _set_table_f(table, f)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("RankTable is immutable")

    def validate(self) -> "RankTable":
        """Check f(empty) = 0 and local submodularity.

        f(S + i) + f(S + j) >= f(S + i + j) + f(S) for every S and every pair
        i < j outside S is equivalent to submodularity over all mask pairs
        (Schrijver, Combinatorial Optimization, 2003), and is C(n, 2) checks
        of the whole table instead of the about 4^n / 2 comparisons of the
        pairwise definition.

        Each check is one guard-bit borrow in packed lanes.  The table is
        first normalized (``_normalized``: f less the modular function with
        value f(E) - f(E - t) at each t), which leaves every local difference
        as it is but shrinks a translate's table to its narrow lanes.  F
        holds g(S) - min(g) of the normalized g in lane S of 2^n lanes of w
        bits, wide enough that a sum of two values stays below the guard,
        the top bit of each lane; F >> i stands for F shifted right by 2^i
        lanes, so that its lane S holds g(S + i) when S lacks i.  In

            ((F >> i) + (F >> j) + G) - ((F >> i >> j) + F),

        with G the guards, lane S is 2^(w - 1) + g(S + i) + g(S + j)
        - g(S + i + j) - g(S) in every lane, which lies in [0, 2^w), so no
        lane borrows from the next, and its guard survives exactly when the
        inequality holds.  The lanes that hold i or j read unrelated values
        and are masked off.  A failed pair names the first witness in the
        order of the pairwise scan: the pairs (i, j) in lexicographic order,
        then the smallest S, the lowest cleared guard.  The check holds
        about 2n + 4 integers the size of the packed table (the n shifts of
        F and the n guard masks), so lanes over 8 bytes cost time and
        memory in proportion to their width.
        """
        f = self.f
        if f[0] != 0:
            raise NonzeroEmptySet(f"f(empty set) = {f[0]}, expected 0")
        n = self.n
        g = _normalized(f, n)  # same local differences, narrower lanes
        low = min(g)  # at most g(empty) = 0
        size = _lane_size((max(g) - low).bit_length() + 2)
        bits = size << 3
        table = _pack_table([v - low for v in g] if low else g, n, size)
        guard, free = _free_guards(n, size)
        shifted = [table >> (bits << i) for i in range(n)]
        for i in range(n - 1):
            fi = shifted[i]
            base = fi + guard - table  # lane S: guard + f(S + i) - f(S)
            for j in range(i + 1, n):
                check = free[i] & free[j]
                r = base + shifted[j] - (fi >> (bits << j))
                if (r & check) != check:
                    bad = check & ~r
                    s = ((bad & -bad).bit_length() - 1) // bits
                    raise SubmodularityFailure(s | 1 << i, s | 1 << j)
        _set_table_key(self, g)
        return self

    def value(self, elements: Iterable[int]) -> int:
        """Rank of a subset given as 1-based element labels."""
        return self.f[_mask_of(elements, self.n)]

    def full_rank(self) -> int:
        return self.f[(1 << self.n) - 1]

    def rank_table(self) -> "RankTable":
        """The table itself, so that code reading ``p.n`` and
        ``p.rank_table()`` takes a table as well as a polymatroid."""
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, RankTable) and self.n == other.n and self.f == other.f

    def __hash__(self) -> int:
        return hash((self.n, self.f))

    def __repr__(self) -> str:
        return f"RankTable(n={self.n}, f={list(self.f)})"

    def to_json(self) -> dict:
        return {"n": self.n, "f": list(self.f)}

    @staticmethod
    def from_json(data: dict) -> "RankTable":
        try:
            n, values = data["n"], data["f"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad rank table JSON: {exc}") from exc
        values = json_list(values, "'f'")
        if not _INT.issuperset(map(type, values)):
            for v in values:  # name the first bad slot
                json_int(v, "rank value")
        n = json_int(n, "n")
        return RankTable._trusted(n, _table_values(n, values, typed=True)).validate()


# The slots are set through their member descriptors, which skip the
# raising __setattr__ and cost less than object.__setattr__.
_set_table_n = RankTable.n.__set__
_set_table_f = RankTable.f.__set__
_set_table_key = RankTable._key.__set__


def _table_values(n: int, values: Sequence[int], typed: bool) -> tuple[int, ...]:
    """The values as a tuple, after checking n, their count and, unless
    ``typed`` says the caller has, that each is exactly an int (one scan in
    C)."""
    _check_ground_size(n)
    f = tuple(values)
    if len(f) != 1 << n:
        raise ValidationError(f"expected {1 << n} rank values, got {len(f)}")
    if not (typed or _INT.issuperset(map(type, f))):
        raise ValidationError("rank values must be integers")
    return f


def json_int(value, what: str) -> int:
    """A JSON integer: true, false, 1.0 and "1" are not."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON list, got {value!r}")
    return value


class Polymatroid:
    """Finite set of integer basis vectors over [n], in lexicographic order."""

    __slots__ = ("n", "bases", "_set", "_rank")

    def __init__(self, vectors: Iterable[Sequence[int]], *, validate: bool = True):
        rows, n = _sorted_rows(vectors, typed=False)
        self._init(n, rows, None)
        if validate:
            self._validate()

    @classmethod
    def _trusted(cls, rows: list[Vector], n: int, table: RankTable | None) -> "Polymatroid":
        """Distinct integer vectors of length n >= 1 that the package made
        itself from a valid polymatroid, with its rank table if known: the
        rows are sorted, nothing is checked."""
        rows.sort()
        p = object.__new__(cls)
        p._init(n, rows, table)
        return p

    def _init(self, n: int, rows: list[Vector], table: RankTable | None) -> None:
        _set_n(self, n)
        _set_bases(self, tuple(rows))
        _set_members(self, None)  # built by the first membership test
        _set_rank(self, table)

    def __setattr__(self, name, value):
        raise AttributeError("Polymatroid is immutable")

    def _validate(self) -> None:
        """Equal coordinate sums, then a round trip through the rank table.

        A finite set satisfies the exchange axiom exactly when it is the set
        of integer points of an integral base polyhedron (an M-convex set;
        Murota, Discrete Convex Analysis, 2003), that is, when its subset-wise
        maxima g are submodular and it is all of g's bases.  The equal sums
        put every given vector among g's bases (without them, {(2, 0),
        (0, 2), (0, 0)} would pass: its g has three bases), so the check is
        a count, capped one past the number given, after a coordinate
        spanning |B| or more values (a polymatroid's takes each value
        between its extremes on some basis).  On success g is kept as
        rank_table().  The pairwise search runs only on failure, to name an
        ExchangeFailure witness.
        """
        rows = self.bases
        total = sum(rows[0])
        for v in rows[1:]:
            if sum(v) != total:
                raise UnequalSums(rows[0], v)
        columns = list(zip(*rows))
        lows = list(map(min, columns))
        span = max(map(sub, map(max, columns), lows))
        if span < len(rows):
            g = _rank_from_rows(rows, self.n, lows, span)
            try:
                if count_bases(g, len(rows) + 1) == len(rows):
                    _set_rank(self, g)
                    return
            except SubmodularityFailure:
                pass
        witness = _exchange_witness(rows, frozenset(rows))
        if witness is None:
            raise RuntimeError(
                "the rank-table round trip rejected a basis set that passes the exchange search"
            )
        raise ExchangeFailure(*witness)

    # -- queries -------------------------------------------------------------

    def __contains__(self, v) -> bool:
        members = self._set
        if members is None:
            members = frozenset(self.bases)
            _set_members(self, members)
        return tuple(v) in members

    def __len__(self) -> int:
        return len(self.bases)

    def __iter__(self) -> Iterator[Vector]:
        return iter(self.bases)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polymatroid)
            and self.n == other.n
            and self.bases == other.bases
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        shown = ", ".join(map(str, self.bases[:4]))
        more = f", ... ({len(self.bases)} bases)" if len(self.bases) > 4 else ""
        return f"Polymatroid(n={self.n}, {{{shown}{more}}})"

    def total(self) -> int:
        """Common coordinate sum of all bases."""
        return sum(self.bases[0])

    def rank_table(self) -> RankTable:
        """The table this polymatroid was enumerated from; for one given by
        its bases, the subset-wise maxima (computed once, then cached)."""
        cached = self._rank
        if cached is None:
            cached = rank_from_bases(self)
            _set_rank(self, cached)
        return cached

    def slice_range(self, t: int) -> range:
        """Attained values alpha_t..beta_t of coordinate t, directly from the
        bases.  alpha_t = f([n]) - f([n] - {t}) is the minimum of coordinate t,
        beta_t = f({t}) its maximum, and every value in between is attained
        (slices are nonempty exactly on this interval)."""
        if not 1 <= t <= self.n:
            raise ValidationError(f"element {t} outside 1..{self.n}")
        col = [v[t - 1] for v in self.bases]
        return range(min(col), max(col) + 1)

    # -- structural operators --------------------------------------------------

    def slice(self, t: int, j: int) -> "Polymatroid":
        """Bases with coordinate t pinned to j, with that coordinate dropped."""
        rng = self.slice_range(t)
        if j not in rng:
            raise EmptySlice(f"level {j} outside {rng[0]}..{rng[-1]} for element {t}")
        _check_ground_size(self.n - 1)
        k = t - 1
        picked = [v[:k] + v[k + 1 :] for v in self.bases if v[k] == j]
        return Polymatroid._trusted(picked, self.n - 1, None)

    def delete(self, elements: Iterable[int]) -> "Polymatroid":
        """Restriction to [n] - A: rank of a surviving subset is unchanged."""
        return self.minor(elements, ())

    def contract(self, elements: Iterable[int]) -> "Polymatroid":
        """Contraction by B: rank of S becomes f(S + B) - f(B)."""
        return self.minor((), elements)

    def minor(self, delete: Iterable[int], contract: Iterable[int]) -> "Polymatroid":
        """(P - A) / B for disjoint A, B, from one projection of the rank table.

        The surviving elements keep their relative order and are renumbered
        1..n - |A| - |B| (see surviving_labels).
        """
        a = _mask_of(delete, self.n)
        b = _mask_of(contract, self.n)
        if a & b:
            raise OverlappingSets("deletion and contraction sets must be disjoint")
        if a | b == (1 << self.n) - 1:
            raise FullGroundSet("minor would remove the whole ground set")
        return self._minor(a, b)

    def _minor(self, a: int, b: int) -> "Polymatroid":
        """minor() for disjoint masks A and B whose union is not the whole
        ground set, with no checks."""
        removed = a | b
        if not removed:
            return self
        f = self.rank_table().f
        masks = [b]  # masks[m] = B + (the surviving elements picked by the bits of m)
        for i in range(self.n):
            bit = 1 << i
            if not removed & bit:
                masks += [m | bit for m in masks]
        fb = f[b]
        values = tuple([f[m] - fb for m in masks])
        return enumerate_bases(RankTable._trusted(self.n - bin(removed).count("1"), values))

    def dual(self) -> "Polymatroid":
        """Elementwise negation; a known table becomes f*(S) = f(E - S) - f(E)."""
        table = self._rank
        if table is not None:
            fe = table.f[-1]
            table = RankTable._trusted(self.n, tuple([v - fe for v in reversed(table.f)]))
        rows = [tuple([-c for c in v]) for v in self.bases]
        return Polymatroid._trusted(rows, self.n, table)

    def translate(self, c: Sequence[int]) -> "Polymatroid":
        """Add the integer vector c to every basis; a known table becomes
        f(S) + c(S)."""
        c = tuple(c)
        if len(c) != self.n or not _INT.issuperset(map(type, c)):
            raise ValidationError(f"translation vector must be {self.n} integers")
        table = self._rank
        if table is not None:
            table = RankTable._trusted(self.n, tuple(map(add, table.f, _subset_sums(c))))
        rows = [tuple(map(add, v, c)) for v in self.bases]
        return Polymatroid._trusted(rows, self.n, table)

    def permute(self, w: Sequence[int]) -> "Polymatroid":
        """Coordinate permutation: position k of the image reads a_{w(k)}; a
        known table is read at the image masks, g(S) = f(w(S))."""
        w = tuple(w)
        if sorted(w) != list(range(1, self.n + 1)):
            raise ValidationError(f"{w} is not a permutation of 1..{self.n}")
        table = self._rank
        if table is not None:
            images = [0]  # images[S] = the mask of w(S)
            for wk in w:
                bit = 1 << (wk - 1)
                images += [m | bit for m in images]
            table = RankTable._trusted(self.n, tuple(map(table.f.__getitem__, images)))
        picks = [wk - 1 for wk in w]
        rows = [tuple([v[k] for k in picks]) for v in self.bases]
        return Polymatroid._trusted(rows, self.n, table)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "bases": [list(v) for v in self.bases]}

    @staticmethod
    def from_json(data: dict) -> "Polymatroid":
        try:
            n, rows = data["n"], data["bases"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad polymatroid JSON: {exc}") from exc
        n = json_int(n, "n")
        rows = json_list(rows, "'bases'")
        if not (_LIST.issuperset(map(type, rows))
                and _INT.issuperset(map(type, chain.from_iterable(rows)))):
            for row in rows:  # name the first bad slot in document order
                for c in json_list(row, "a basis"):
                    json_int(c, "coordinate")
        rows, length = _sorted_rows(rows, typed=True)
        if length != n:
            raise ValidationError(f"declared n = {n} but vectors have length {length}")
        p = object.__new__(Polymatroid)
        p._init(n, rows, None)
        p._validate()
        return p


_set_n = Polymatroid.n.__set__  # slot setters, as for RankTable
_set_bases = Polymatroid.bases.__set__
_set_members = Polymatroid._set.__set__
_set_rank = Polymatroid._rank.__set__

_INT = frozenset([int])  # exactly int: bool and other subclasses are not coordinates
_LIST = frozenset([list])


def _sorted_rows(vectors: Iterable[Sequence[int]], typed: bool) -> tuple[list[Vector], int]:
    """The distinct vectors as sorted tuples, and their common length n.

    Raises on an empty set, on n outside 1..MAX_GROUND_SET, and on the first
    row (in sorted order) of another length or, unless ``typed`` says the
    caller has checked them, with a coordinate that is not an int.  The
    checks run as one scan in C; the rows are walked only to name a failure.
    """
    rows = sorted({tuple(v) for v in vectors})
    if not rows:
        raise EmptyBasisSet("a polymatroid needs at least one basis")
    n = len(rows[0])
    _check_ground_size(n)
    if not ({n}.issuperset(map(len, rows))
            and (typed or _INT.issuperset(map(type, chain.from_iterable(rows))))):
        for v in rows:
            if len(v) != n:
                raise ValidationError(f"mixed vector lengths: {len(v)} vs {n}")
            if not _INT.issuperset(map(type, v)):
                raise ValidationError(f"non-integer coordinates in {v}")
    return rows, n


def _exchange_witness(rows: Sequence[Vector], member: frozenset) -> tuple | None:
    """(a, b, i) with a_i > b_i for which no j with a_j < b_j puts both
    a - e_i + e_j and b + e_i - e_j in the set, or None: O(|B|^2 n^2)."""
    n = len(rows[0])
    for a in rows:
        for b in rows:
            if a is b:
                continue
            for i in range(n):
                if a[i] <= b[i]:
                    continue
                for j in range(n):
                    if a[j] >= b[j]:
                        continue
                    a2 = list(a)
                    a2[i] -= 1
                    a2[j] += 1
                    if tuple(a2) not in member:
                        continue
                    b2 = list(b)
                    b2[i] += 1
                    b2[j] -= 1
                    if tuple(b2) in member:
                        break
                else:
                    return a, b, i + 1
    return None


# -- conversions between representations -----------------------------------------


def rank_from_bases(p: Polymatroid) -> RankTable:
    """f(I) = max over bases of the I-coordinate sum, for every mask.

    The sums are offsets from each coordinate's minimum low_i, a modular
    part added back at the end.  Each basis b becomes one integer holding
    the 2^n subset sums of b - low in lanes of w bits, lane m at bit m * w:

        s = sum_i (b_i - low_i) * IND_i,

    where IND_i has a 1 in lane m exactly when bit i of m is set.  Every
    lane lies in [0, n * span], span the widest max - min of a coordinate,
    and w is one bit more than n * span needs, so the lane's top bit, the
    guard, is clear.  The running maximum, from 0, is then a few big-integer
    operations over all lanes at once: subtracting s from the maximum with
    the guards set borrows from a lane's guard exactly when that lane of s
    is larger, and the surviving guards select, lane by lane, which of the
    two to keep.  The lanes are unpacked once at the end, by struct.

    When n * span reaches 2^63, lanes would need more than 8 bytes, and the
    function takes the elementwise maxima of one list of subset sums per
    basis instead.  No polymatroid gets there: its coordinates take every
    value between their extremes, so its span is below the number of bases.
    """
    rows = p.bases
    lows = list(map(min, zip(*rows)))
    return _rank_from_rows(rows, p.n, lows, max(map(sub, map(max, zip(*rows)), lows)))


def _rank_from_rows(rows: Sequence[Vector], n: int, lows: list[int], span: int) -> RankTable:
    """``rank_from_bases`` of the basis rows, given each coordinate's
    minimum ``lows`` and the widest max - min, ``span``, which
    ``Polymatroid._validate`` has already scanned the columns for."""
    width = (n * span).bit_length() + 1
    if width > 64:
        best = _subset_sums(rows[0])
        for v in rows[1:]:
            best = [a if a > b else b for a, b in zip(best, _subset_sums(v))]
        return RankTable._trusted(n, tuple(best))
    size = _lane_size(width)
    _, guard, indicators, lanes = _lanes(n, size)
    top = 8 * size - 1
    best = 0
    for v in rows:
        s = sum(map(mul, map(sub, v, lows), indicators))
        g = ((best | guard) - s) & guard  # the guards of the lanes where best >= s
        best = s ^ ((best ^ s) & (g - (g >> top)))
    best = lanes.unpack(best.to_bytes(size << n, "little"))
    return RankTable._trusted(n, tuple(map(add, best, _subset_sums(lows))))


@lru_cache(maxsize=None)
def _lanes(n: int, size: int) -> tuple[int, int, tuple[int, ...], Struct | None]:
    """ONES, the guard bits, IND_1..IND_n and the struct of 2^n signed
    little-endian lanes (None above 8 bytes), for 2^n lanes of ``size``
    bytes.

    ONES has a 1 in every lane and the guards are the lanes' top bits.  The
    layout is shared by ``rank_from_bases``, ``_pack_table`` (so by
    ``RankTable.validate``) and the slice recursion (cached: four sizes per
    n in practice, at most 15 * 16 * 2^16 bytes of indicators for n = 16)."""
    one = (1).to_bytes(size, "little")
    zero = bytes(size)
    ones = int.from_bytes(one * (1 << n), "little")
    indicators = tuple(
        int.from_bytes((zero * (1 << i) + one * (1 << i)) * (1 << (n - i - 1)), "little")
        for i in range(n)
    )
    lanes = Struct(f"<{1 << n}{_SIGNED[size]}") if size in _SIGNED else None
    return ones, ones << (8 * size - 1), indicators, lanes


_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}  # standard sizes under "<"


@lru_cache(maxsize=None)
def _gamma_lanes(n: int, size: int) -> tuple[int, int]:
    """The mask of the lanes E - s, s = 1..n, among 2^n lanes of ``size``
    bytes, and SPREAD, with a 1 in each of those lanes: a packed table
    has f(E - s) = f(E) for every s exactly when its bits under the mask
    equal f(E) * SPREAD.  Cached per key of ``_lanes`` that ``_node``
    uses, two integers beside its n + 2."""
    bits = 8 * size
    full = (1 << n) - 1
    spread = sum(1 << bits * (full ^ 1 << s) for s in range(n))
    return spread * ((1 << bits) - 1), spread


def _lane_size(bits: int) -> int:
    """The lane size in bytes, 1, 2, 4, 8, 16, ..., that holds ``bits``."""
    return 1 << ((bits + 7) // 8 - 1).bit_length()


def _pack_table(values: Sequence[int], n: int, size: int) -> int:
    """2^n values, each below the guard bit of a lane of ``size`` bytes, as
    one integer with value S in lane S: by ``_lanes``' struct up to 8
    bytes, by joining the bytes of each value above."""
    if size in _SIGNED:
        data = _lanes(n, size)[3].pack(*values)
    else:
        data = b"".join([v.to_bytes(size, "little") for v in values])
    return int.from_bytes(data, "little")


@lru_cache(maxsize=128)  # a run uses n + 1 powers per pair of shifts
def _packed_power(xs: int, ys: int, k: int) -> int:
    """(x + y - 1)^k at x = 2^xs, y = 2^ys."""
    return ((1 << xs) + (1 << ys) - 1) ** k


def _engine(table: RankTable, xs: int, ys: int, cap: int | float) -> int:
    """T(2^xs, 2^ys) by ``_node`` on the normalized values that validate()
    checked and kept as ``table._key``: the one entry into the slice
    engine, which validates a table that has not passed validate(), so the
    engine walks only polymatroids' tables."""
    key = getattr(table, "_key", None)
    if key is None:
        key = table.validate()._key
    n = table.n
    if n > 2 and key[1 << n - 1] >= cap:  # the root's own cap check, before packing
        return cap
    size = _lane_size(key[-1].bit_length() + 1)  # f(E) below the guard
    packed = _pack_table(key, n, size)
    return _node(packed, n, size, xs, ys, {}, cap) if packed else _packed_power(xs, ys, n)


def _node(table: int, n: int, size: int, xs: int, ys: int, memo: dict, cap: int | float) -> int:
    """T(2^xs, 2^ys) of a packed normalized table on n >= 2 elements (see
    the recursion module), or ``cap`` once a running total reaches it: the
    weighted sum over the slices of the top coordinate t = n, each child
    looked up in ``memo``, the call's node dict keyed by the packed table,
    and computed and stored there on a miss.  At (0, 0) it is T(1, 1), the
    number of bases, which count_bases caps; the Tutte polynomial takes an
    infinite cap.

    The gammas gamma_s = f(E - t) - f(E - t - s) of the low half are read
    lane by lane only when one masked compare finds one that is not 0: its
    lanes E - t - s under ``_gamma_lanes``' mask differ from f(E - t) times
    SPREAD.  Most nodes have none, and a negative gamma, which no
    polymatroid's normalized table has, would also take the scan."""
    m = n - 1
    bits = size << 3
    lane = (1 << bits) - 1
    with_ = table >> (bits << m)
    without = table ^ (with_ << (bits << m))
    width = with_ & lane  # f({t})
    if m == 1:  # lanes 0, c, c, c, so T = (x + y + c - 1)(x + y - 1)
        return _packed_power(xs, ys, 2) + width * _packed_power(xs, ys, 1)
    if width >= cap:  # width + 1 levels, each with a basis
        return cap
    pairs = []  # (gamma_s, IND_s) for every positive gamma_s
    if width:
        ones, guard, indicators, _ = _lanes(m, size)
        full = (1 << m) - 1
        top = without >> bits * full  # f(E - t) = f(E)
        mask, spread = _gamma_lanes(m, size)
        if without & mask != top * spread:  # some gamma_s is not 0
            gammas = (top - (without >> bits * (full ^ 1 << s) & lane) for s in range(m))
            pairs = [(gamma, ind) for gamma, ind in zip(gammas, indicators) if gamma > 0]
        high = without | guard
    for j in range(width + 1):
        if not j:
            g = without
        else:
            g = with_ - j * ones
            if j < width:
                sel = (high - g) & guard  # the guards of the lanes where without >= g
                g = without ^ ((without ^ g) & (sel - (sel >> bits - 1)))
        if pairs:
            g -= sum((gamma - j) * ind for gamma, ind in pairs if gamma > j)
        if not g:  # a single basis
            value = _packed_power(xs, ys, m)
        else:
            value = memo.get(g)
            if value is None:
                value = memo[g] = _node(g, m, size, xs, ys, memo, cap)
        if not j:
            total = value << xs  # x * lo
        elif j < width:
            total += value
        else:
            total += value << ys  # y * hi
        if total >= cap:
            return cap
    if not width:  # a single level takes x + y - 1, as shifts
        total += (value << ys) - value
    return total


def _free_guards(n: int, size: int) -> tuple[int, list[int]]:
    """The guard bits of all 2^n lanes of ``size`` bytes, and for each i
    the guards of the lanes without i (built per call, not cached: lanes
    above 8 bytes can be arbitrarily wide)."""
    guard = bytes(size - 1) + b"\x80"
    zero = bytes(size)
    free = [
        int.from_bytes((guard * (1 << i) + zero * (1 << i)) * (1 << (n - i - 1)), "little")
        for i in range(n)
    ]
    return int.from_bytes(guard * (1 << n), "little"), free


def _subset_sums(v: Sequence[int]) -> list[int]:
    """sums[mask] = the sum of v over the mask, built by doubling."""
    sums = [0]
    for c in v:
        sums += [s + c for s in sums]
    return sums


def slice_rank(table: RankTable, t: int, j: int) -> RankTable:
    """Rank table of the slice at coordinate t pinned to level j.

    The slice polymatroid over [n] - {t} has rank min(f(I), f(I + {t}) - j);
    at the extremes of the level interval this reduces to the deletion rank
    f(I) and the contraction rank f(I + {t}) - f({t}).
    """
    n = table.n
    if not 1 <= t <= n:
        raise ValidationError(f"element {t} outside 1..{n}")
    full = (1 << n) - 1
    tbit = 1 << (t - 1)
    alpha = table.f[full] - table.f[full ^ tbit]
    beta = table.f[tbit]
    if not alpha <= j <= beta:
        raise OutOfRange(f"level {j} outside {alpha}..{beta} for element {t}")
    return RankTable._trusted(n - 1, tuple(_slice_table(table.f, n, t, j)))


def _slice_table(f: Sequence[int], n: int, t: int, j: int) -> list[int]:
    """min(f(I), f(I + {t}) - j) with masks renumbered to n-1 bits.

    The gain f(I + {t}) - f(I) of a submodular f lies in alpha_t..beta_t, so
    at the deletion end the slice is f(I) and at the contraction end it is
    f(I + {t}) - j; only the levels between need the minimum.
    """
    tbit = 1 << (t - 1)
    if t == n:  # the masks without t come first, those with it after them
        without, with_ = f[:tbit], f[tbit:]
    else:
        without, with_ = zip(*[(f[s], f[s | tbit]) for s in range(1 << n) if not s & tbit])
    if j <= f[-1] - f[-1 - tbit]:
        return list(without)
    if j >= f[tbit]:
        return [b - j for b in with_]
    return [a if a < b - j else b - j for a, b in zip(without, with_)]


def surviving_labels(n: int, removed: Iterable[int]) -> tuple[int, ...]:
    """Original labels of the surviving elements, in their new order.

    After deleting/contracting/slicing, element k of the reduced ground set
    corresponds to original element surviving_labels(n, removed)[k-1].
    """
    gone = set(removed)
    return tuple(i for i in range(1, n + 1) if i not in gone)


def enumerate_bases(table: RankTable, max_bases: int = DEFAULT_MAX_BASES) -> Polymatroid:
    """All integer bases of a submodular table, via slice recursion.

    Recurses on the last coordinate: for each attainable level j the bases
    with that coordinate equal to j are exactly the bases of the slice table
    with j appended.  The result is capped at ``max_bases`` vectors.
    """
    rows = _enumerate(table.f, table.n, max_bases)
    if not rows:  # only a table that was built unvalidated and is not submodular
        raise EmptyBasisSet(f"{table} has no bases")
    return Polymatroid._trusted(rows, table.n, table)


def _enumerate(f: Sequence[int], n: int, limit: int, suffix: Vector = ()) -> list[Vector]:
    """The bases of f, each followed by ``suffix``, the levels already
    chosen for the coordinates above n; a leaf builds each basis once."""
    if n == 1:
        return [(f[1],) + suffix]
    if n == 2:  # (a, f(E) - a) for a from alpha_1 = f(E) - f({2}) to beta_1 = f({1})
        top = f[3]
        acc = [(a, top - a) + suffix for a in range(top - f[2], f[1] + 1)]
        if len(acc) > limit:
            raise SizeLimitExceeded(limit)
        return acc
    tbit = 1 << (n - 1)
    acc = []
    for j in range(f[-1] - f[-1 - tbit], f[tbit] + 1):
        acc += _enumerate(_slice_table(f, n, n, j), n - 1, limit, (j,) + suffix)
        if len(acc) > limit:
            raise SizeLimitExceeded(limit)
    return acc


def count_bases(table: RankTable, cap: int) -> int:
    """The number of bases of a polymatroid's table (validated if it is
    not yet), or ``cap`` (at least 1) once that number reaches ``cap``.

    T(1, 1) is the number of bases, so this is the slice engine at (0, 0).
    Every level has a basis, so a node returns ``cap`` before it builds a
    lane when its top coordinate has ``cap`` levels or more, and as soon as
    its running total reaches ``cap``: uncapped, two bases 10^6 apart would
    cost 10^6 levels.
    """
    # min: a two-element root takes its closed form whatever the cap
    return min(_engine(table, 0, 0, cap), cap)


def _normalized(f: Sequence[int], n: int) -> tuple[int, ...]:
    """f(S) minus the sum of alpha_t = f(E) - f(E - t) over S: the table of
    the translate whose every coordinate has minimum 0."""
    full = (1 << n) - 1
    top = f[full]
    alphas = [top - f[full ^ (1 << t)] for t in range(n)]
    if not any(alphas):
        return tuple(f)
    return tuple(map(sub, f, _subset_sums(alphas)))


# -- exhaustive small-case generator -----------------------------------------------


def enumerate_small_polymatroids(n: int, max_rank: int) -> Iterator[Polymatroid]:
    """Yield every polymatroid arising from a submodular table with values in
    0..max_rank, each once, each enumerated under ``DEFAULT_MAX_BASES``.

    Candidate tables are built mask by mask in increasing numeric order, so
    every proper subset of a mask is assigned before it, by one loop that
    backtracks over the masks (a recursion per mask would go 2^n deep).  A
    mask M takes the values from 0 up to the local bound, the minimum over
    pairs of elements x, y of M of f(M - x) + f(M - y) - f(M - x - y), and
    at most max_rank.
    Every smaller mask was held to its own local bound, so the table is
    locally submodular below M and stays so on the subsets of M; local
    submodularity is equivalent to submodularity (see RankTable.validate),
    so the local bound is also the least f(A) + f(B) - f(A & B) over all
    A, B with A | B = M, and the search prunes exactly.  Only submodular
    tables are completed, and the round trip makes enumerate_bases injective
    on those, so no two yield the same basis set.
    """
    _check_ground_size(n)
    if max_rank < 0:
        raise ValidationError("max_rank must be nonnegative")
    size = 1 << n
    local = []  # local[M]: (M - x, M - y, M - x - y) for each pair x, y in M
    for m in range(size):
        bits = [1 << i for i in range(n) if m >> i & 1]
        local.append([(m ^ x, m ^ y, m ^ x ^ y) for x, y in combinations(bits, 2)])
    f = [0] * size
    top = [0] * size  # top[M]: the bound of M under the values below it
    mask = 1  # the next mask to assign; f(empty) stays 0
    while True:
        if mask == size:
            yield enumerate_bases(RankTable._trusted(n, tuple(f)))
        else:
            top[mask] = min([max_rank] + [f[a] + f[b] - f[c] for a, b, c in local[mask]])
            if top[mask] >= 0:
                mask += 1  # f[mask] starts at 0
                continue
        # back up to the last mask below that can still rise
        mask -= 1
        while mask and f[mask] == top[mask]:
            f[mask] = 0
            mask -= 1
        if not mask:
            return
        f[mask] += 1
        mask += 1
