"""Basis activity and the direct (definition-based) Tutte polynomial.

For a basis a of a polymatroid P over [n], an index i is internally active
when no transfer a - e_i + e_j with j < i stays inside P, and externally
active when no transfer a + e_i - e_j with j < i does.  Index 1 is always
both.  Each basis contributes

    x^(# internal only) * y^(# external only) * (x + y - 1)^(# both)

and the direct Tutte polynomial is the sum of these contributions over all
bases.  The one-variable interior and exterior polynomials count bases by
n - |Int(a)| and n - |Ext(a)| respectively.

The *_direct functions decide activity for all bases in one pass, by
membership in the basis set itself, never through the rank table that the
slice recursion reads, so the two routes stay independent.  Each basis is
one integer key, one set intersection per pair j < i and side finds every
basis with that transfer, and the bases are summed in groups of equal
activity counts, not one by one.  direct_polynomials returns all three
from the one pass that tutte_direct makes.

The scan over j < i never stops early, because no index makes every basis
inactive on one side: a basis with the smallest a_i has no a - e_i + e_j
in P, so it is internally active at i, and a basis with the largest a_i
has no a + e_i - e_j in P, so it is externally active at i.

transfers(p, a) lists every pair (j, k) with a + e_j - e_k in P, and
activities(p, a) reads the activities of one basis off that list.  An
independent characterization through tight sets (subsets whose coordinate
sum meets the rank) is provided as a cross-check oracle: i is externally
active iff some tight set has minimum i, and internally active iff some
tight set's complement has minimum i.  A proper nonempty set S is tight
exactly when no transfer moves mass into it, from outside S to inside.

All functions are pure, and the results are exact term maps, independent
of the order in which bases or groups are summed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, mul
from typing import Iterator

from .bipoly import X_PLUS_Y_MINUS_1, BiPoly, add_scaled_into, cached_power, from_dict
from .core import Polymatroid, Vector, _subset_sums
from .errors import NotABasis


@dataclass(frozen=True)
class ActivityProfile:
    """Activity record of one basis.

    oi/oe/ie split [n] into internal-only, external-only and doubly active
    indices; iota_bar and eps_bar are the co-counts n - |Int| and n - |Ext|
    that grade the interior and exterior polynomials.
    """

    basis: Vector
    int_set: frozenset[int]
    ext_set: frozenset[int]

    @property
    def oi(self) -> int:
        return len(self.int_set - self.ext_set)

    @property
    def oe(self) -> int:
        return len(self.ext_set - self.int_set)

    @property
    def ie(self) -> int:
        return len(self.int_set & self.ext_set)

    @property
    def iota_bar(self) -> int:
        return len(self.basis) - len(self.int_set)

    @property
    def eps_bar(self) -> int:
        return len(self.basis) - len(self.ext_set)

    @classmethod
    def from_transfers(cls, basis: Vector, moves: list[tuple[int, int]]) -> "ActivityProfile":
        """The profile of a basis given its transfers (see ``transfers``):
        i is internally inactive when some (j, i) with j < i is a transfer,
        externally inactive when some (i, j) with j < i is."""
        int_inactive = {k for j, k in moves if j < k}
        ext_inactive = {j for j, k in moves if k < j}
        labels = range(len(basis))
        return cls(
            basis,
            frozenset(i + 1 for i in labels if i not in int_inactive),
            frozenset(i + 1 for i in labels if i not in ext_inactive),
        )


@dataclass(frozen=True)
class TightFamily:
    """All subsets (as masks, sorted) whose coordinate sum meets the rank.

    The family is a lattice: closed under union and intersection, and always
    contains the empty set and the full ground set.
    """

    basis: Vector
    masks: tuple[int, ...]


def tight_sets(p: Polymatroid, a: Vector) -> TightFamily:
    """Every subset I with sum_{i in I} a_i = f(I), tested over all masks."""
    a = tuple(a)
    if a not in p:
        raise NotABasis(f"{a} is not a basis")
    f = p.rank_table().f
    return TightFamily(a, tuple(compress(range(1 << p.n), map(eq, _subset_sums(a), f))))


def transfers(p: Polymatroid, a: Vector) -> list[tuple[int, int]]:
    """Every 0-based pair (j, k), j != k, with a + e_j - e_k in P, ordered by
    j and then k."""
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


def activities(p: Polymatroid, a: Vector) -> ActivityProfile:
    """Internal/external activity of a basis, from its transfers."""
    a = tuple(a)
    return ActivityProfile.from_transfers(a, transfers(p, a))


def activities_from_tight_sets(family: TightFamily) -> ActivityProfile:
    """Activity via the tight-set characterization (independent oracle).

    i is externally active iff i = min(I) for some nonempty tight I, and
    internally active iff i = min([n] - J) for some tight J != [n].
    """
    full = (1 << len(family.basis)) - 1
    int_set = set()
    ext_set = set()
    for mask in family.masks:
        if mask:
            ext_set.add((mask & -mask).bit_length())
        comp = full ^ mask
        if comp:
            int_set.add((comp & -comp).bit_length())
    return ActivityProfile(family.basis, frozenset(int_set), frozenset(ext_set))


def _packed_keys(p: Polymatroid) -> tuple[list[int], list[int], int]:
    """One integer key per basis, in basis order, the weight w_i of each
    coordinate, and a bound above every key.  Digit i is a_i - min_i + 1 in
    radix max_i - min_i + 3, so a key +-(w_i - w_j) is the key of
    a +-(e_i - e_j), carry-free."""
    weights = []
    offset = 0
    w = 1
    for col in zip(*p.bases):
        lo = min(col)
        weights.append(w)
        offset += (1 - lo) * w
        w *= max(col) - lo + 3
    return [sum(map(mul, v, weights), offset) for v in p.bases], weights, w


def _inactive_by_index(
    keys: list[int], weights: list[int], internal: bool = True, external: bool = True
) -> Iterator[tuple[set[int], set[int]]]:
    """For i = 2..n, the keys of the bases internally and externally
    inactive at i (a side not asked for stays empty).

    K & (keys + w_i - w_j) holds the bases b with b - e_i + e_j in P, and
    K & (keys - w_i + w_j) those with b + e_i - e_j in P.  Every j < i is
    scanned: no side ever holds every basis (see the module docstring).
    """
    member = frozenset(keys)
    for i in range(1, len(weights)):
        wi = weights[i]
        ins: set[int] = set()
        ext: set[int] = set()
        for wj in weights[:i]:
            d = wi - wj
            if internal:
                ins |= member.intersection(map(d.__add__, keys))
            if external:
                ext |= member.intersection(map((-d).__add__, keys))
        yield ins, ext


def _inactive_counts(
    p: Polymatroid, internal: bool, external: bool
) -> tuple[Iterator[int], Iterator[int], Iterator[int]]:
    """Per basis, in basis order: how many indices are internally inactive,
    externally inactive, and both (three iterators).

    One tally counts all three: a key k stands for its internal count, k +
    bound for its external count and k + 2 * bound for both.  A side not
    asked for is an empty set, so it adds no marks.
    """
    keys, weights, bound = _packed_keys(p)
    marks: list[int] = []
    for ins, ext in _inactive_by_index(keys, weights, internal, external):
        marks += ins
        marks += map(bound.__add__, ext)
        marks += map((2 * bound).__add__, ins & ext)
    get = Counter(marks).get
    zeros = repeat(0)
    return (
        map(get, keys, zeros),
        map(get, map(bound.__add__, keys), zeros),
        map(get, map((2 * bound).__add__, keys), zeros),
    )


def _activity_groups(p: Polymatroid) -> Counter:
    """How many bases share each triple (ci, ce, cb) of inactive counts
    (internal, external, both), from one pass over both sides."""
    return Counter(zip(*_inactive_counts(p, True, True)))


def _tutte_of_groups(groups: Counter, n: int) -> BiPoly:
    """Sum of x^oi y^oe (x+y-1)^ie over the groups: with ci, ce, cb the
    inactive counts of a basis, oi = ce - cb, oe = ci - cb and
    ie = n - (ci + ce - cb)."""
    acc: dict[tuple[int, int], int] = {}
    xy1 = X_PLUS_Y_MINUS_1
    for (ci, ce, cb), count in groups.items():
        add_scaled_into(acc, cached_power(xy1, n - ci - ce + cb), count, ce - cb, ci - cb)
    return from_dict(acc)


def tutte_direct(p: Polymatroid) -> BiPoly:
    """Sum of x^oi y^oe (x+y-1)^ie over all bases, exactly."""
    return _tutte_of_groups(_activity_groups(p), p.n)


def interior_direct(p: Polymatroid) -> BiPoly:
    """x^(n - |Int(a)|) summed over the bases; coefficients are nonnegative
    and the constant term is 1."""
    iota_bar = _inactive_counts(p, True, False)[0]
    return from_dict({(e, 0): c for e, c in Counter(iota_bar).items()})


def exterior_direct(p: Polymatroid) -> BiPoly:
    """y^(n - |Ext(a)|) summed over the bases."""
    eps_bar = _inactive_counts(p, False, True)[1]
    return from_dict({(0, e): c for e, c in Counter(eps_bar).items()})


def direct_polynomials(p: Polymatroid) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(tutte_direct(p), interior_direct(p), exterior_direct(p)) from one
    pass: n - |Int(a)| and n - |Ext(a)| are the internal and external
    inactive counts that the Tutte groups already hold."""
    groups = _activity_groups(p)
    interior: Counter = Counter()
    exterior: Counter = Counter()
    for (ci, ce, _), count in groups.items():
        interior[ci] += count
        exterior[ce] += count
    return (
        _tutte_of_groups(groups, p.n),
        from_dict({(e, 0): c for e, c in interior.items()}),
        from_dict({(0, e): c for e, c in exterior.items()}),
    )
