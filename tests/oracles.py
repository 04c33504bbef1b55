"""Independent checks the validators of polytutte.core are compared with.

These are the definitions themselves, with no shortcut, so they cost what
the definitions cost; tests run them on small inputs only.
"""

from __future__ import annotations

from polytutte.core import _exchange_witness


def submodularity_failure(f) -> tuple[int, int] | None:
    """The first mask pair (a, b) with f(a | b) + f(a & b) > f(a) + f(b),
    or None: every pair of masks, about 4^n / 2 comparisons."""
    size = len(f)
    for a in range(size):
        for b in range(a + 1, size):
            if f[a | b] + f[a & b] > f[a] + f[b]:
                return a, b
    return None


def table_category(f) -> str | None:
    """The error category the rank-table axioms give, or None if they hold."""
    if f[0] != 0:
        return "NonzeroEmptySet"
    return None if submodularity_failure(f) is None else "SubmodularityFailure"


def basis_set_category(rows) -> str | None:
    """The error category of equal sums and the pairwise exchange search
    (O(|B|^2 n^2)), or None if the set is a polymatroid."""
    rows = sorted(set(rows))
    if len({sum(v) for v in rows}) > 1:
        return "UnequalSums"
    return None if _exchange_witness(rows, frozenset(rows)) is None else "ExchangeFailure"
