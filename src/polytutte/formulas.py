"""Closed-form coefficient identities and monotonicity comparators.

Writing f for the rank function of a polymatroid P over [n] and T for its
two-variable Tutte polynomial, the implemented identities are:

  top band        [x^k y^(n-k)] T = C(n, k)                      (all 0<=k<=n)
  near-top band   [x^(n-k) y^(k-1)] T = sum of f over (k-1)-sets
                  + sum of f over k-sets - C(n, k-1) f([n]) - k C(n, k)
  near-top, one   [x^(n-1)] T(x, 1) = sum_i f({i}) - f([n])
   variable       [y^(n-1)] T(1, y) = sum_i f([n]-i) - (n-1) f([n])
  second band     [x^(n-2)] T  and  [y^(n-2)] T, and their one-variable
                  counterparts, via the generalized binomial C(m, 2) of
                  possibly negative m

The generalized binomial is the falling factorial m(m-1)...(m-k+1)/k!, so
e.g. C(-1, 2) = 1; this convention is forced by the unique-basis case where
T = (x + y - 1)^n.

Also here: both sides of the exterior-coefficient ceiling, as prefixes
(rank staying full under every removal of at most k elements,
``full_rank_prefix``, is equivalent to the first k+1 exterior coefficients
hitting C(f([n]) + i - 1, i), ``ceiling_prefix``; the caller supplies the
exterior polynomial, so nothing here depends on ``activity``), a
coefficientwise <= comparator with witness, the interior/exterior
monotonicity checker that the CLI's ``monotone`` and acceptance criterion 5
share, an exhaustive search for polymatroids with a prescribed Tutte
polynomial, and seeded random corpus generators (submodular tables from
truncated weighted coverage functions, subset pairs by coordinate capping,
minors).
"""

from __future__ import annotations

import itertools
from random import Random
from typing import NamedTuple, Sequence

from .bipoly import BiPoly
from .core import (
    Polymatroid,
    RankTable,
    _subset_sums,
    enumerate_small_polymatroids,
)
from .errors import NegativeCoordinates, ValidationError
from .recursion import dc_polynomials, tutte_dc


def binomial(m: int, k: int) -> int:
    """Generalized binomial: falling factorial over k!, any integer m.

    C(m, 0) = 1 for every m (including negatives); C(m, k) = 0 for k < 0.
    """
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= m - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num // den


def top_coefficient(n: int, k: int) -> int:
    """[x^k y^(n-k)] T = C(n, k), independent of the polymatroid."""
    if not 0 <= k <= n:
        raise ValidationError(f"need 0 <= k <= n, got k={k}, n={n}")
    return binomial(n, k)


def _sum_by_popcount(table: RankTable) -> list[int]:
    """sums[s] = sum of f over all subsets of size s."""
    out = [0] * (table.n + 1)
    for mask, v in enumerate(table.f):
        out[mask.bit_count()] += v
    return out


def near_top_coefficient(table: RankTable, k: int) -> int:
    """[x^(n-k) y^(k-1)] T for 1 <= k <= n, from subset-size sums of f."""
    if not 1 <= k <= table.n:
        raise ValidationError(f"need 1 <= k <= n, got k={k}")
    return _near_top(table, _sum_by_popcount(table), k)


def _near_top(table: RankTable, sums: list[int], k: int) -> int:
    """near_top_coefficient, given the subset-size sums of f."""
    n = table.n
    return sums[k - 1] + sums[k] - binomial(n, k - 1) * table.full_rank() - k * binomial(n, k)


def near_top_univariate(table: RankTable) -> tuple[int, int]:
    """([x^(n-1)] T(x,1), [y^(n-1)] T(1,y)) from singleton/co-singleton ranks."""
    n = table.n
    f = table.f
    full = table.full_rank()
    full_mask = (1 << n) - 1
    singles = sum(f[1 << i] for i in range(n))
    cosingles = sum(f[full_mask ^ (1 << i)] for i in range(n))
    return singles - full, cosingles - (n - 1) * full


def second_band_coefficient(table: RankTable) -> tuple[int, int]:
    """([x^(n-2)] T, [y^(n-2)] T) via generalized C(., 2) terms."""
    return _second_band(table, 0)


def second_band_univariate(table: RankTable) -> tuple[int, int]:
    """([x^(n-2)] T(x,1), [y^(n-2)] T(1,y)), same shape with +1 shifts."""
    return _second_band(table, 1)


def _second_band(table: RankTable, shift: int) -> tuple[int, int]:
    """The second-band formula; shift 0 is bivariate, shift 1 one-variable.

    The shift is added to every pair term; the leading term, built on the
    near-top one-variable coefficients, moves by n * shift.
    """
    n = table.n
    if n < 2:
        raise ValidationError("second-band coefficients need n >= 2")
    f = table.f
    full = table.full_rank()
    full_mask = (1 << n) - 1
    xn1, yn1 = near_top_univariate(table)
    lead = 1 - n + n * shift
    x_part = binomial(xn1 + lead, 2)
    y_part = binomial(yn1 + lead, 2)
    for i, j in itertools.combinations(range(n), 2):
        bi, bj = 1 << i, 1 << j
        x_part -= binomial(f[bi] + f[bj] - f[bi | bj] + shift, 2)
        y_part -= binomial(
            f[full_mask ^ bi] + f[full_mask ^ bj] - f[full_mask ^ bi ^ bj] - full + shift, 2
        )
    return x_part, y_part


# -- coefficient report ------------------------------------------------------------


class CoefficientRow(NamedTuple):
    """One predicted-vs-extracted comparison."""

    formula: str
    predicted: int
    extracted: int

    @property
    def match(self) -> bool:
        return self.predicted == self.extracted

    def to_json(self) -> dict:
        return {
            "formula": self.formula,
            "predicted": self.predicted,
            "extracted": self.extracted,
            "match": self.match,
        }


def coefficient_report(p: Polymatroid | RankTable, tutte: BiPoly) -> list[CoefficientRow]:
    """Every applicable identity evaluated against the actual coefficients;
    reads only n and the rank table, so ``p`` may be the table itself."""
    n = p.n
    table = p.rank_table()
    at_y1 = tutte.substitute_one("y")
    at_x1 = tutte.substitute_one("x")
    sums = _sum_by_popcount(table)
    rows = []
    for k in range(n + 1):
        rows.append(
            CoefficientRow(f"top[x^{k}y^{n - k}]", top_coefficient(n, k), tutte.coeff(k, n - k))
        )
    for k in range(1, n + 1):
        rows.append(
            CoefficientRow(
                f"near-top[x^{n - k}y^{k - 1}]",
                _near_top(table, sums, k),
                tutte.coeff(n - k, k - 1),
            )
        )
    xn1, yn1 = near_top_univariate(table)
    rows.append(CoefficientRow(f"x^{n - 1}@y=1", xn1, at_y1.coeff(n - 1, 0)))
    rows.append(CoefficientRow(f"y^{n - 1}@x=1", yn1, at_x1.coeff(0, n - 1)))
    if n >= 2:
        x2, y2 = second_band_coefficient(table)
        rows.append(CoefficientRow(f"x^{n - 2}", x2, tutte.coeff(n - 2, 0)))
        rows.append(CoefficientRow(f"y^{n - 2}", y2, tutte.coeff(0, n - 2)))
        ux, uy = second_band_univariate(table)
        rows.append(CoefficientRow(f"x^{n - 2}@y=1", ux, at_y1.coeff(n - 2, 0)))
        rows.append(CoefficientRow(f"y^{n - 2}@x=1", uy, at_x1.coeff(0, n - 2)))
        # the one-variable values are also three-term sums of bivariate ones
        rows.append(
            CoefficientRow(
                f"x^{n - 2}@y=1 (three-term)",
                tutte.coeff(n - 2, 0) + tutte.coeff(n - 2, 1) + tutte.coeff(n - 2, 2),
                at_y1.coeff(n - 2, 0),
            )
        )
        rows.append(
            CoefficientRow(
                f"y^{n - 2}@x=1 (three-term)",
                tutte.coeff(0, n - 2) + tutte.coeff(1, n - 2) + tutte.coeff(2, n - 2),
                at_x1.coeff(0, n - 2),
            )
        )
    return rows


# -- exterior ceiling ----------------------------------------------------------------


def full_rank_prefix(p: Polymatroid | RankTable) -> int:
    """Largest k in 0..n with f([n] - J) = f([n]) for every J of at most k
    elements, from one scan of the table.

    This is the rank side of the exterior-ceiling equivalence, whose
    coefficient side is ``ceiling_prefix(X, f([n]), n)``.  Requires all
    basis coordinates nonnegative.  Reads only n and the rank table, so
    ``p`` may be the table itself: the least value of coordinate t is
    f([n]) - f([n] - t).
    """
    n = p.n
    f = p.rank_table().f
    full_mask = (1 << n) - 1
    full = f[full_mask]
    if any(full - f[full_mask ^ (1 << t)] < 0 for t in range(n)):
        raise NegativeCoordinates("ceiling check needs nonnegative bases")
    # removing J = [n] - S leaves S, so each S below full rank caps k at |J| - 1
    return min((n - s.bit_count() for s, v in enumerate(f) if v != full), default=n + 1) - 1


def ceiling_prefix(x: BiPoly, m: int, n: int) -> int:
    """Largest k in 0..n with [y^i] x = C(m + i - 1, i) for every i <= k;
    -1 when even the constant term misses."""
    best = -1
    for k in range(n + 1):
        if x.coeff(0, k) != binomial(m + k - 1, k):
            break
        best = k
    return best


# -- coefficientwise comparison ----------------------------------------------------------


class ComparisonReport(NamedTuple):
    """Outcome of a coefficientwise p <= q test."""

    holds: bool
    witness: tuple[int, int] | None
    difference: int

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "witness": list(self.witness) if self.witness else None,
            "difference": self.difference,
        }


def coefficientwise_le(p: BiPoly, q: BiPoly) -> ComparisonReport:
    """Is every coefficient of p <= the matching coefficient of q?

    On failure the witness is the worst offending exponent pair.
    """
    worst: tuple[int, int] | None = None
    gap = 0
    for i, j in p.support() | q.support():
        d = p.coeff(i, j) - q.coeff(i, j)
        if d > gap:
            gap = d
            worst = (i, j)
    return ComparisonReport(worst is None, worst, gap)


def monotonicity_reports(
    small: Polymatroid | RankTable, big: Polymatroid | RankTable
) -> dict[str, ComparisonReport]:
    """Coefficientwise I(small) <= I(big) and X(small) <= X(big) under the
    keys "I" and "X", from ``dc_polynomials`` of each side, a polymatroid or
    its rank table; they hold when ``small`` is a subset or a minor of ``big``.
    """
    _, small_i, small_x = dc_polynomials(small)
    _, big_i, big_x = dc_polynomials(big)
    return {"I": coefficientwise_le(small_i, big_i), "X": coefficientwise_le(small_x, big_x)}


# -- exhaustive search ---------------------------------------------------------------------


def search_by_tutte(
    targets: Sequence[BiPoly], max_n: int = 3, max_rank: int = 4
) -> list[list[Polymatroid]]:
    """For each target, the small polymatroids whose Tutte polynomial equals
    it, in scan order; a missing target gets an empty list.

    Scans every polymatroid of a submodular table with n <= max_n and values
    in 0..max_rank.
    """
    found: list[list[Polymatroid]] = [[] for _ in targets]
    wanted: dict[int, list[int]] = {}
    for idx, t in enumerate(targets):
        wanted.setdefault(t.total_degree(), []).append(idx)
    for n in range(1, max_n + 1):
        if n not in wanted:
            continue  # top-degree terms force total degree n
        for p in enumerate_small_polymatroids(n, max_rank):
            t = tutte_dc(p)
            for idx in wanted[n]:
                if t == targets[idx]:
                    found[idx].append(p)
    return found


# -- seeded random corpus ---------------------------------------------------------------

_RANK_TABLE_TRIES = 400


def random_rank_table(
    rng: Random,
    n: int,
    *,
    max_weight: int = 3,
    max_universe: int = 6,
    size_budget: int = 400,
    allow_translation: bool = True,
) -> RankTable:
    """Random submodular table: truncated weighted coverage, then an optional
    modular shift (which makes non-monotone tables and negative coordinates).

    Draws are rejected until the basis count bound (product of coordinate
    ranges) fits the size budget, keeping enumeration cheap and deterministic
    for a given rng state.
    """
    for _ in range(_RANK_TABLE_TRIES):
        universe = rng.randint(2, max_universe)
        weights = [rng.randint(1, max_weight) for _ in range(universe)]
        covers = [
            rng.sample(range(universe), rng.randint(1, universe)) for _ in range(n)
        ]
        size = 1 << n
        values = [0] * size
        full_cover = set()
        for c in covers:
            full_cover.update(c)
        g_full = sum(weights[q] for q in full_cover)
        cap = rng.randint(max(1, g_full - 2), g_full)
        for mask in range(1, size):
            covered = set()
            for i in range(n):
                if mask & (1 << i):
                    covered.update(covers[i])
            values[mask] = min(sum(weights[q] for q in covered), cap)
        if allow_translation and rng.random() < 0.4:
            shift = [rng.randint(-2, 2) for _ in range(n)]
            values = [v + s for v, s in zip(values, _subset_sums(shift))]
        table = RankTable(n, values, validate=False)
        full_mask = size - 1
        bound = 1
        for t in range(n):
            bit = 1 << t
            alpha = values[full_mask] - values[full_mask ^ bit]
            beta = values[bit]
            bound *= beta - alpha + 1
        if bound <= size_budget:
            table.validate()  # construction guarantees this; assert anyway
            return table
    raise ValidationError("could not draw a table within the size budget")


def random_subpolymatroid(rng: Random, p: Polymatroid) -> Polymatroid:
    """Random sub-polymatroid by iterated coordinate caps {a : a_t <= m}.

    Capping one coordinate of a polymatroid at an attained level yields a
    polymatroid again, with the same total; its rank table is pointwise at
    most the original and agrees on the full set.
    """
    bases = p.bases
    for _ in range(rng.randint(1, 3)):
        t = rng.randrange(p.n)
        col = [v[t] for v in bases]
        lo, hi = min(col), max(col)
        if lo == hi:
            continue
        m = rng.randint(lo, hi - 1)
        bases = tuple(v for v in bases if v[t] <= m)
    return Polymatroid(bases, validate=False)


def random_minor_args(rng: Random, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Disjoint deletion/contraction sets that leave the ground set nonempty."""
    if n == 1:
        return (), ()
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    keep = rng.randint(1, n - 1)
    removed = labels[keep:]
    split = rng.randint(0, len(removed))
    return tuple(sorted(removed[:split])), tuple(sorted(removed[split:]))
