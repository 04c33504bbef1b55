"""Differential tests: the local submodularity check and the rank-table round
trip of polytutte.core against the definitions in oracles.py."""

from __future__ import annotations

from random import Random

import pytest

from oracles import basis_set_category, local_submodularity_witness, table_category
from polytutte.core import (
    Polymatroid,
    RankTable,
    _subset_sums,
    enumerate_small_polymatroids,
    rank_from_bases,
)
from polytutte.errors import ValidationError
from polytutte.formulas import random_rank_table


def table_verdict(n, f):
    try:
        RankTable(n, f)
    except ValidationError as exc:
        if exc.category == "SubmodularityFailure":
            a, b = exc.i_mask, exc.j_mask
            assert f[a | b] + f[a & b] > f[a] + f[b], "the witness must violate submodularity"
        return exc.category
    return None


def basis_verdict(rows):
    try:
        p = Polymatroid(rows)
    except ValidationError as exc:
        return exc.category
    assert p.rank_table() == rank_from_bases(Polymatroid(rows, validate=False))
    return None


def small_family():
    for n, max_rank in ((1, 3), (2, 3), (3, 2)):
        yield from enumerate_small_polymatroids(n, max_rank)


def perturbed(f):
    """f with one mask raised or lowered by 1, for every mask."""
    for mask in range(len(f)):
        for delta in (1, -1):
            g = list(f)
            g[mask] += delta
            yield g


def shifted(rows, n):
    """The set with its first basis moved by 2 * (e_i - e_j), for every i != j."""
    for i in range(n):
        for j in range(n):
            if i != j:
                v = list(rows[0])
                v[i] += 2
                v[j] -= 2
                yield [tuple(v)] + list(rows[1:])


def test_rank_tables_agree_with_all_pairs_oracle():
    verdicts = []
    for p in small_family():
        f = p.rank_table()
        for values in [list(f.f), *perturbed(f.f)]:
            got = table_verdict(f.n, values)
            assert got == table_category(values), (f.n, values)
            verdicts.append(got)
    assert len(verdicts) > 7000
    assert {None, "NonzeroEmptySet", "SubmodularityFailure"} == set(verdicts)


@pytest.mark.parametrize("n", range(2, 7))
def test_random_rank_tables_agree_with_all_pairs_oracle(n):
    rng = Random(n)
    for _ in range(12):
        f = random_rank_table(rng, n, size_budget=10**6).f
        assert table_verdict(n, f) is None and table_category(f) is None
        for _ in range(6):
            g = list(f)
            g[rng.randrange(1, len(g))] += rng.choice((1, -1))
            assert table_verdict(n, g) == table_category(g), (n, g)


def exact_verdict(n, f):
    """(class name, masks, message) of the error RankTable(n, f) raises, or
    None."""
    try:
        RankTable(n, f)
    except ValidationError as exc:
        masks = (exc.i_mask, exc.j_mask) if exc.category == "SubmodularityFailure" else None
        return exc.category, masks, str(exc)
    return None


def oracle_verdict(n, f):
    if f[0] != 0:
        return "NonzeroEmptySet", None, f"f(empty set) = {f[0]}, expected 0"
    witness = local_submodularity_witness(f, n)
    if witness is None:
        return None
    a, b = witness
    return "SubmodularityFailure", witness, f"submodularity fails for masks {a}, {b}"


def test_validation_names_the_witness_of_the_pairwise_scan():
    # the packed check raises what the plain pair-then-S scan finds: the
    # same class, the same masks and the same message, and passes exactly
    # when the scan finds nothing
    verdicts = []
    for p in small_family():
        f = p.rank_table()
        for values in [list(f.f), *perturbed(f.f)]:
            got = exact_verdict(f.n, values)
            assert got == oracle_verdict(f.n, values), (f.n, values)
            verdicts.append(got and got[0])
    assert {None, "NonzeroEmptySet", "SubmodularityFailure"} == set(verdicts)


@pytest.mark.parametrize("n", range(2, 9))
def test_validation_witness_on_random_and_translated_tables(n):
    rng = Random(100 + n)
    rejected = 0
    for _ in range(8):
        f = list(random_rank_table(rng, n, size_budget=10**9).f)
        # a translate with f({1}) < 0, so that the minimum is negative
        c = [-100] + [rng.randint(-40, 10) for _ in range(n - 1)]
        shifted_f = [a + b for a, b in zip(f, _subset_sums(c))]
        for g in (f, shifted_f):
            candidates = [g]
            for _ in range(4):
                h = list(g)
                h[rng.randrange(1, len(h))] += rng.choice((1, -1, 5))
                candidates.append(h)
            for h in candidates:
                got = exact_verdict(n, h)
                assert got == oracle_verdict(n, h), (n, h)
                rejected += got is not None
    assert rejected > 0


def test_basis_sets_agree_with_pairwise_exchange_oracle():
    verdicts = []
    for p in small_family():
        rows = list(p.bases)
        candidates = [rows, *shifted(rows, p.n)]
        if len(rows) > 1:
            candidates += [rows[:k] + rows[k + 1 :] for k in range(len(rows))]
        for cand in candidates:
            got = basis_verdict(cand)
            assert got == basis_set_category(cand), cand
            verdicts.append(got)
    assert len(verdicts) > 5000
    assert {None, "ExchangeFailure"} <= set(verdicts)


@pytest.mark.parametrize("n", (3, 4))
def test_random_basis_sets_agree_with_pairwise_exchange_oracle(n):
    # includes sets such as {(1, 2, 2, -2), (2, 1, 1, -1)}, whose subset-wise
    # maxima are not submodular yet enumerate back to the two vectors
    rng = Random(n)
    verdicts = []
    for _ in range(1500):
        rows = []
        for _ in range(rng.randint(2, 6)):
            v = [rng.randint(-1, 3) for _ in range(n - 1)]
            rows.append(tuple(v) + (2 - sum(v),))
        got = basis_verdict(rows)
        assert got == basis_set_category(rows), rows
        verdicts.append(got)
    assert {None, "ExchangeFailure"} <= set(verdicts)

