"""Basis activity and the direct (definition-based) Tutte polynomial.

For a basis a of a polymatroid P over [n], an index i is internally active
when no transfer a - e_i + e_j with j < i stays inside P, and externally
active when no transfer a + e_i - e_j with j < i does.  Index 1 is always
both.  Each basis contributes

    x^(# internal only) * y^(# external only) * (x + y - 1)^(# both)

and the direct Tutte polynomial is the sum of these contributions over all
bases.  The one-variable interior and exterior polynomials count bases by
n - |Int(a)| and n - |Ext(a)| respectively.

The *_direct functions decide activity for all bases at once, by
membership in the basis set itself, never through the rank table that the
slice recursion reads, so the two routes stay independent.  They read one
TransferRelation: for each ordered pair i != j, the set S(i, j) of the
bases b with b - e_i + e_j in P.  Index i is internally inactive in the
bases of S(i, j) for some j before it, and externally inactive in those of
S(j, i) for some j before it.  The relation does not depend on the order of
the ground set, so one relation serves every order, and the sum over the
bases, unlike each basis's term, does not depend on the order either (the
theorem of Bernardi, Kalman and Postnikov that criterion 3 tests).

Each basis is one integer key (see _packed_keys), and S(i, j) is one Python
integer in byte lanes: byte k is 1 exactly when basis k of p.bases is in
S(i, j).  A pair is built on first use, by one membership scan in C of the
keys moved by w_j - w_i.  An order's inactive counts are sums of ORs of
these integers.  A count is at most n - 1 <= 15, since the first index is
never inactive, so one byte holds it without a carry into the next lane:
the counts are decoded once with to_bytes, and the bases are summed in
groups of equal counts, not one by one.  Each basis contributes one
monomial, so T, I and X depend only on n and the group set: _of_groups
decodes all three at once, memoized in an lru_cache of _GROUPS_MEMO_SIZE
group sets that threads share.  tutte_direct, direct_polynomials and each
order of TransferRelation.tutte read that decode; interior_direct and
exterior_direct build only their side's pairs.  The relation takes at most
n(n - 1) |B| bytes, 3.1 MB for the 12,870 bases of
U(8,16): one byte per basis and pair, where a collection of inactive keys
would take a pointer and an integer object per entry.

tight_sets(p, a) lists the subsets whose coordinate sum meets the rank, read
off the rank table alone: i is externally active iff some tight set has
minimum i, and internally active iff some tight set's complement has minimum
i, and a proper nonempty set S is tight exactly when no transfer moves mass
into it, from outside S to inside.  Criterion 8 checks the relation against
these tight sets for every basis at once.

All functions are pure, and the results are exact term maps, independent
of the order in which bases or groups are summed.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress
from operator import eq, le, mul
from typing import Iterable, Sequence

from .bipoly import X_PLUS_Y_MINUS_1, BiPoly, add_scaled_into, cached_power, from_dict
from .core import Polymatroid, Vector, _subset_sums
from .errors import NotABasis

_GROUPS_MEMO_SIZE = 128  # group sets kept decoded, about 6.4 KB each


def tight_sets(p: Polymatroid, a: Vector) -> tuple[int, ...]:
    """Every subset I with sum_{i in I} a_i = f(I), as sorted masks, tested
    over all masks.  The family is a lattice: closed under union and
    intersection, and always holds the empty set and the full ground set.

    It reads the rank table alone: the bases of P are the integer points of
    its base polyhedron, a(S) <= f(S) for every S and a([n]) = f([n]),
    which are what enumerate_bases lists (see core)."""
    a = tuple(a)
    f = p.rank_table().f
    sums = _subset_sums(a)
    if len(a) != p.n or sums[-1] != f[-1] or not all(map(le, sums, f)):
        raise NotABasis(f"{a} is not a basis")
    return tuple(compress(range(1 << p.n), map(eq, sums, f)))


def _packed_keys(p: Polymatroid) -> tuple[list[int], list[int]]:
    """One integer key per basis, in basis order, and the weight w_i of each
    coordinate.  Digit i is a_i - min_i + 1 in radix max_i - min_i + 3, so a
    key +-(w_i - w_j) is the key of a +-(e_i - e_j), carry-free."""
    weights = []
    offset = 0
    w = 1
    for col in zip(*p.bases):
        lo = min(col)
        weights.append(w)
        offset += (1 - lo) * w
        w *= max(col) - lo + 3
    return [sum(map(mul, v, weights), offset) for v in p.bases], weights


class TransferRelation(dict):
    """S(i, j), the bases b with b - e_i + e_j in P, for every ordered pair
    of 0-based indices i != j, in byte lanes: byte k of ``relation[i, j]``
    is 1 exactly when basis k of ``p.bases`` is in S(i, j), and 0 otherwise.

    A pair is built on first use, by one membership scan in C of the packed
    keys moved by w_j - w_i, and kept.  ``every`` has a 1 in each lane.
    """

    __slots__ = ("n", "every", "_keys", "_weights", "_member")

    def __init__(self, p: Polymatroid):
        super().__init__()
        keys, weights = _packed_keys(p)
        self.n = p.n
        self.every = int.from_bytes(b"\1" * len(keys), "little")
        self._keys = keys
        self._weights = weights
        self._member = frozenset(keys).__contains__

    def __missing__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        d = self._weights[j] - self._weights[i]
        lanes = self[pair] = int.from_bytes(
            bytes(map(self._member, map(d.__add__, self._keys))), "little"
        )
        return lanes

    def inactive(
        self, i: int, before: Iterable[int], internal: bool = True, external: bool = True
    ) -> tuple[int, int]:
        """The lanes of the bases in which index i is internally inactive,
        the OR of S(i, j) over j in ``before``, and externally inactive, the
        OR of S(j, i).  A side not asked for is 0."""
        ins = ext = 0
        if internal:
            for j in before:
                ins |= self[i, j]
        if external:
            for j in before:
                ext |= self[j, i]
        return ins, ext

    def counts(
        self, order: Sequence[int], internal: bool = True, external: bool = True
    ) -> tuple[bytes, bytes, bytes]:
        """Per basis, in basis order, how many indices are internally
        inactive, externally inactive, and both, when the ground set is read
        in ``order`` (0-based indices, first to last): one byte each.

        Index order[k] is inactive on the lanes that ``inactive`` gives for
        the indices before it.  The counts are sums of these lane integers,
        at most n - 1 <= 15 per lane (the first index is never inactive), so
        no lane carries into the next.  A side not asked for counts 0.
        """
        ci = ce = cb = 0
        for k in range(1, len(order)):
            ins, ext = self.inactive(order[k], order[:k], internal, external)
            ci += ins
            ce += ext
            cb += ins & ext
        size = len(self._keys)
        return ci.to_bytes(size, "little"), ce.to_bytes(size, "little"), cb.to_bytes(size, "little")

    def groups(self, order: Sequence[int]) -> tuple:
        """How many bases share each triple (ci, ce, cb) of inactive counts
        (internal, external, both) in ``order``, as sorted (triple, count) pairs."""
        return tuple(sorted(Counter(zip(*self.counts(order))).items()))

    def tutte(self, order: Sequence[int]) -> BiPoly:
        """The direct Tutte polynomial with the ground set read in ``order``:
        tutte_direct of the polymatroid permuted to that order."""
        return _of_groups(self.groups(order), self.n)[0]


@lru_cache(maxsize=_GROUPS_MEMO_SIZE)
def _of_groups(groups: tuple, n: int) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(T, I, X) of the groups: T sums x^oi y^oe (x+y-1)^ie, where with ci,
    ce, cb the inactive counts of a basis, oi = ce - cb, oe = ci - cb and
    ie = n - (ci + ce - cb); I counts the bases by ci and X by ce."""
    acc: dict[tuple[int, int], int] = {}
    interior: Counter = Counter()
    exterior: Counter = Counter()
    xy1 = X_PLUS_Y_MINUS_1
    for (ci, ce, cb), count in groups:
        add_scaled_into(acc, cached_power(xy1, n - ci - ce + cb), count, ce - cb, ci - cb)
        interior[ci] += count
        exterior[ce] += count
    return (
        from_dict(acc),
        from_dict({(e, 0): c for e, c in interior.items()}),
        from_dict({(0, e): c for e, c in exterior.items()}),
    )


def tutte_direct(p: Polymatroid) -> BiPoly:
    """Sum of x^oi y^oe (x+y-1)^ie over all bases, exactly."""
    return direct_polynomials(p)[0]


def interior_direct(p: Polymatroid) -> BiPoly:
    """x^(n - |Int(a)|) summed over the bases; coefficients are nonnegative
    and the constant term is 1."""
    iota_bar = TransferRelation(p).counts(range(p.n), external=False)[0]
    return from_dict({(e, 0): c for e, c in Counter(iota_bar).items()})


def exterior_direct(p: Polymatroid) -> BiPoly:
    """y^(n - |Ext(a)|) summed over the bases."""
    eps_bar = TransferRelation(p).counts(range(p.n), internal=False)[1]
    return from_dict({(0, e): c for e, c in Counter(eps_bar).items()})


def direct_polynomials(p: Polymatroid) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(tutte_direct(p), interior_direct(p), exterior_direct(p)) from one
    pass: n - |Int(a)| and n - |Ext(a)| are the internal and external
    inactive counts that the Tutte groups already hold."""
    return _of_groups(TransferRelation(p).groups(range(p.n)), p.n)
