"""Basis activity and the direct (definition-based) Tutte polynomial.

For a basis a of a polymatroid P over [n], an index i is internally active
when no transfer a - e_i + e_j with j < i stays inside P, and externally
active when no transfer a + e_i - e_j with j < i does.  Index 1 is always
both.  Each basis contributes

    x^(# internal only) * y^(# external only) * (x + y - 1)^(# both)

and the direct Tutte polynomial is the sum of these contributions over all
bases.  The one-variable interior and exterior polynomials count bases by
n - |Int(a)| and n - |Ext(a)| respectively.

Activity is decided by O(n^2) membership tests per basis against the stored
basis set.  An independent characterization through tight sets (subsets
whose coordinate sum meets the rank) is provided as a cross-check oracle:
i is externally active iff some tight set has minimum i, and internally
active iff some tight set's complement has minimum i.

All functions are pure; summation order over bases is the lexicographic
basis order, so intermediate states are reproducible and any parallel
regrouping of the (exact) sum would give the identical term map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly, X_PLUS_Y_MINUS_1, add_scaled_into, from_dict
from .core import Polymatroid, Vector
from .errors import NotABasis

_XY1_POWERS: list[BiPoly] = [BiPoly.one()]


def xy1_power(k: int) -> BiPoly:
    """(x + y - 1)^k, cached."""
    while len(_XY1_POWERS) <= k:
        _XY1_POWERS.append(_XY1_POWERS[-1] * X_PLUS_Y_MINUS_1)
    return _XY1_POWERS[k]


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


@dataclass(frozen=True)
class TightFamily:
    """All subsets (as masks, sorted) whose coordinate sum meets the rank.

    The family is a lattice: closed under union and intersection, and always
    contains the empty set and the full ground set.
    """

    basis: Vector
    masks: tuple[int, ...]

    def __contains__(self, mask: int) -> bool:
        return mask in set(self.masks)


def tight_sets(p: Polymatroid, a: Vector) -> TightFamily:
    """Every subset I with sum_{i in I} a_i = f(I), tested over all masks."""
    a = tuple(a)
    if a not in p:
        raise NotABasis(f"{a} is not a basis")
    f = p.rank_table().f
    size = 1 << p.n
    sums = [0] * size
    out = [0]
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + a[low.bit_length() - 1]
        if sums[mask] == f[mask]:
            out.append(mask)
    return TightFamily(a, tuple(out))


def activities(p: Polymatroid, a: Vector) -> ActivityProfile:
    """Internal/external activity by direct membership tests."""
    a = tuple(a)
    if a not in p:
        raise NotABasis(f"{a} is not a basis")
    n = p.n
    int_set = set()
    ext_set = set()
    for i in range(n):
        internal = True
        external = True
        for j in range(i):
            if not internal and not external:
                break
            if internal:
                v = list(a)
                v[i] -= 1
                v[j] += 1
                if tuple(v) in p:
                    internal = False
            if external:
                v = list(a)
                v[i] += 1
                v[j] -= 1
                if tuple(v) in p:
                    external = False
        if internal:
            int_set.add(i + 1)
        if external:
            ext_set.add(i + 1)
    return ActivityProfile(a, frozenset(int_set), frozenset(ext_set))


def activities_from_tight_sets(p: Polymatroid, a: Vector) -> ActivityProfile:
    """Activity via the tight-set characterization (independent oracle).

    i is externally active iff i = min(I) for some nonempty tight I, and
    internally active iff i = min([n] - J) for some tight J != [n].
    """
    family = tight_sets(p, a)
    n = p.n
    full = (1 << n) - 1
    int_set = set()
    ext_set = set()
    for mask in family.masks:
        if mask:
            ext_set.add((mask & -mask).bit_length())
        comp = full ^ mask
        if comp:
            int_set.add((comp & -comp).bit_length())
    return ActivityProfile(tuple(a), frozenset(int_set), frozenset(ext_set))


def tutte_direct(p: Polymatroid) -> BiPoly:
    """Sum of x^oi y^oe (x+y-1)^ie over all bases, exactly."""
    acc: dict[tuple[int, int], int] = {}
    for a in p.bases:
        prof = activities(p, a)
        add_scaled_into(acc, xy1_power(prof.ie), 1, prof.oi, prof.oe)
    return from_dict(acc)


def interior_direct(p: Polymatroid) -> BiPoly:
    """One monomial x^(n - |Int(a)|) per basis; coefficients are nonnegative
    and the constant term is 1."""
    acc: dict[tuple[int, int], int] = {}
    for a in p.bases:
        e = (activities(p, a).iota_bar, 0)
        acc[e] = acc.get(e, 0) + 1
    return from_dict(acc)


def exterior_direct(p: Polymatroid) -> BiPoly:
    """One monomial y^(n - |Ext(a)|) per basis."""
    acc: dict[tuple[int, int], int] = {}
    for a in p.bases:
        e = (0, activities(p, a).eps_bar)
        acc[e] = acc.get(e, 0) + 1
    return from_dict(acc)
