"""Unit tests for tight sets, activity, and the direct Tutte polynomial."""

from __future__ import annotations

import itertools
from random import Random

import pytest

from polytutte import activity
from polytutte.acceptance import build_corpus
from oracles import activities, activities_from_tight_sets, transfers
from polytutte.activity import (
    TransferRelation,
    direct_polynomials,
    exterior_direct,
    interior_direct,
    tight_sets,
    tutte_direct,
)
from polytutte.bipoly import parse
from polytutte.core import Polymatroid, enumerate_bases, enumerate_small_polymatroids
from polytutte.errors import NotABasis
from polytutte.formulas import random_rank_table
from polytutte.recursion import tutte_dc

U12 = Polymatroid([(1, 0), (0, 1)])
U13 = Polymatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
SCALED2 = Polymatroid([(2, 0), (1, 1), (0, 2)])


# -- tight sets --------------------------------------------------------------


def test_tight_sets_first_basis():
    assert tight_sets(U12, (1, 0)) == (0, 1, 3)  # {}, {1}, {1, 2}


def test_tight_sets_second_basis():
    assert tight_sets(U12, (0, 1)) == (0, 2, 3)  # {}, {2}, {1, 2}


def test_tight_sets_contain_extremes():
    for p in (U12, U13, SCALED2):
        full = (1 << p.n) - 1
        for a in p:
            masks = tight_sets(p, a)
            assert masks == tuple(sorted(set(masks)))
            assert 0 in masks and full in masks


def test_tight_sets_lattice_closure():
    for p in (U12, U13, SCALED2):
        for a in p:
            masks = set(tight_sets(p, a))
            for i in masks:
                for j in masks:
                    assert (i | j) in masks and (i & j) in masks


def test_tight_sets_rejects_non_basis():
    # it decides membership from the rank table: above f somewhere, below
    # f([n]) in total, above it, or of the wrong length
    for a in [(2, -1), (0, 0), (1, 1), (1,), (1, 0, 0)]:
        with pytest.raises(NotABasis):
            tight_sets(U12, a)


# -- activities, by the per-basis definition in oracles.py --------------------


def test_activities_pair_first():
    assert activities(U12, (1, 0)) == ({1, 2}, {1})


def test_activities_pair_second():
    assert activities(U12, (0, 1)) == ({1}, {1, 2})


def test_activities_singleton():
    assert activities(Polymatroid([(7,)]), (7,)) == ({1}, {1})


def test_index_one_always_doubly_active():
    for p in (U12, U13, SCALED2):
        for a in p:
            int_set, ext_set = activities(p, a)
            assert 1 in int_set and 1 in ext_set


def test_activity_counts_consistent():
    # the relation's counts per basis are n - |Int|, n - |Ext| and the
    # indices inactive on both sides, n - |Int + Ext|
    for p in (U12, U13, SCALED2):
        counts = zip(*TransferRelation(p).counts(range(p.n)))
        for a, (ci, ce, cb) in zip(p.bases, counts):
            int_set, ext_set = activities(p, a)
            n = p.n
            assert (ci, ce, cb) == (n - len(int_set), n - len(ext_set), n - len(int_set | ext_set))


def test_activities_reject_non_basis():
    with pytest.raises(NotABasis):
        activities(U12, (1, 1))


def test_transfers_pair():
    assert transfers(U12, (1, 0)) == [(1, 0)]
    assert transfers(U12, (0, 1)) == [(0, 1)]
    assert transfers(SCALED2, (1, 1)) == [(0, 1), (1, 0)]


def test_transfers_reject_non_basis():
    with pytest.raises(NotABasis):
        transfers(U12, (1, 1))


# -- tight-set characterization agrees with the definition ------------------------


def test_tight_characterization_on_pair():
    assert activities_from_tight_sets(tight_sets(U12, (1, 0)), 2) == ({1, 2}, {1})


def test_tight_characterization_exhaustive_small():
    for n in (1, 2, 3):
        for p in enumerate_small_polymatroids(n, 2):
            for a in p:
                assert activities(p, a) == activities_from_tight_sets(tight_sets(p, a), n)


# -- direct Tutte polynomial ---------------------------------------------------------


def test_tutte_single_basis():
    assert tutte_direct(Polymatroid([(3,)])) == parse("x + y - 1")


def test_tutte_pair():
    assert tutte_direct(U12) == parse("x^2 + 2*x*y + y^2 - x - y")


def test_tutte_scaled_pair():
    expected = parse("x^2 + 2*x*y + y^2 - 1")
    assert tutte_direct(SCALED2) == expected
    xy1 = parse("x + y - 1")
    assert expected == parse("x") * xy1 + xy1 + parse("y") * xy1


def test_tutte_three_singletons():
    assert tutte_direct(U13) == parse(
        "x^3 + 3*x^2*y + 3*x*y^2 + y^3 - x^2 - 3*x*y - 2*y^2 + y"
    )


def test_interior_exterior_three_singletons():
    assert interior_direct(U13) == parse("2*x + 1")
    assert exterior_direct(U13) == parse("y^2 + y + 1")


def test_interior_exterior_singleton():
    p = Polymatroid([(4,)])
    assert interior_direct(p) == parse("1")
    assert exterior_direct(p) == parse("1")


def test_exterior_scaled_pair():
    assert exterior_direct(SCALED2) == parse("2*y + 1")


# -- structural identities on small families ------------------------------------------


def small_corpus():
    out = []
    for n in (1, 2, 3):
        out.extend(enumerate_small_polymatroids(n, 2))
    return out


def test_reversal_identities_small():
    for p in small_corpus():
        t = tutte_direct(p)
        assert interior_direct(p) == t.substitute_one("y").reversed_in("x", p.n)
        assert exterior_direct(p) == t.substitute_one("x").reversed_in("y", p.n)


def test_count_and_divisibility_small():
    for p in small_corpus():
        t = tutte_direct(p)
        assert t.evaluate(1, 1) == len(p)
        assert t.divisible_by_x_plus_y_minus_1()


def test_translation_invariance_small():
    shifts = [(1,) * 3, (-2, 0, 3), (5, -5, 1)]
    for p in small_corpus():
        t = tutte_direct(p)
        for c in shifts:
            assert tutte_direct(p.translate(c[: p.n])) == t


def test_permutation_invariance_small():
    for p in small_corpus():
        t = tutte_direct(p)
        for w in itertools.permutations(range(1, p.n + 1)):
            assert tutte_direct(p.permute(w)) == t


def test_duality_swaps_variables_small():
    for p in small_corpus():
        assert tutte_direct(p.dual()) == tutte_direct(p).swap_vars()


def test_duality_swaps_interior_exterior_small():
    for p in small_corpus():
        assert interior_direct(p.dual()) == exterior_direct(p).swap_vars()
        assert exterior_direct(p.dual()) == interior_direct(p).swap_vars()


def test_constant_terms_are_one_small():
    for p in small_corpus():
        assert interior_direct(p).coeff(0, 0) == 1
        assert exterior_direct(p).coeff(0, 0) == 1


# -- the transfer relation that the *_direct functions read --------------------


def lane_bytes(lanes, size):
    return lanes.to_bytes(size, "little")


def inactive_lanes(relation, i):
    """The lanes of the bases internally and externally inactive at the
    0-based index i, in the natural order."""
    return relation.inactive(i, range(i))


def bulk_activity_sets(p):
    """(Int(a), Ext(a)) of every basis in basis order, read off the lanes of
    the relation that the *_direct functions count."""
    relation = TransferRelation(p)
    int_sets = [{1} for _ in p.bases]
    ext_sets = [{1} for _ in p.bases]
    for i in range(1, p.n):
        ins, ext = (lane_bytes(lanes, len(p)) for lanes in inactive_lanes(relation, i))
        for k in range(len(p)):
            if not ins[k]:
                int_sets[k].add(i + 1)
            if not ext[k]:
                ext_sets[k].add(i + 1)
    return [(frozenset(a), frozenset(b)) for a, b in zip(int_sets, ext_sets)]


@pytest.fixture(scope="module")
def activity_family():
    """The corpus, its duals and seeded translates, and one n = 9 table."""
    rng = Random(11)
    family = []
    for p in build_corpus().members():
        shift = tuple(rng.randint(-3, 3) for _ in range(p.n))
        family += [p, p.dual(), p.translate(shift)]
    # n = 9, 2,122 bases, negative coordinates
    large = enumerate_bases(random_rank_table(Random(1), 9, size_budget=10**7))
    assert len(large) > 2000
    family.append(large)
    return family


def test_relation_lanes_match_the_transfers(activity_family):
    # transfers(p, a) tests membership basis by basis: (j, i) is a transfer
    # of a exactly when a is in S(i, j)
    for p in activity_family:
        relation = TransferRelation(p)
        pairs = [(i, j) for i in range(p.n) for j in range(p.n) if i != j]
        lanes = {(i, j): lane_bytes(relation[i, j], len(p)) for i, j in pairs}
        assert set().union(*map(set, lanes.values())) <= {0, 1}, p
        for k, a in enumerate(p.bases):
            assert sorted((j, i) for i, j in pairs if lanes[i, j][k]) == transfers(p, a), (p, a)


def test_bulk_activity_matches_the_per_basis_definition(activity_family):
    for p in activity_family:
        assert bulk_activity_sets(p) == [activities(p, a) for a in p.bases], p
        assert direct_polynomials(p) == (tutte_direct(p), interior_direct(p), exterior_direct(p)), p


def test_no_side_ever_holds_every_basis(activity_family):
    # at index i, a basis with the smallest a_i has no a - e_i + e_j in P, so
    # it is internally active, and one with the largest a_i has no
    # a + e_i - e_j in P, so it is externally active
    for p in activity_family:
        relation = TransferRelation(p)
        for i in range(1, p.n):
            ins, ext = (lane_bytes(lanes, len(p)) for lanes in inactive_lanes(relation, i))
            col = [a[i] for a in p.bases]
            lowest, highest = min(col), max(col)
            assert not any(b for b, c in zip(ins, col) if c == lowest), p
            assert not any(b for b, c in zip(ext, col) if c == highest), p


def test_every_order_of_the_small_corpus_members():
    # the order certificate for n <= 4: every order read off one relation
    # gives the polynomial of the re-keyed permuted polymatroid and of the
    # slice recursion (2,957 members, 17,866 orders; about 2 s on a 2-core
    # machine, most of it in the re-keyed passes)
    orders = 0
    for p in build_corpus().members():
        if p.n > 4:
            continue
        relation = TransferRelation(p)
        t = tutte_dc(p)
        for w in itertools.permutations(range(1, p.n + 1)):
            assert relation.tutte([k - 1 for k in w]) == tutte_direct(p.permute(w)) == t, (p, w)
            orders += 1
    assert orders > 10000


def test_the_group_memo_decodes_each_group_set_once_while_kept():
    # every order's polynomial equals an unmemoized expansion of its groups,
    # and from a cleared memo the n <= 4 order certificate decodes far fewer
    # group sets than it has orders
    activity._of_groups.cache_clear()
    orders = 0
    for p in build_corpus().members():
        if p.n > 4:
            continue
        relation = TransferRelation(p)
        for w in itertools.permutations(range(p.n)):
            expanded = activity._of_groups.__wrapped__(relation.groups(w), p.n)
            assert relation.tutte(w) == expanded[0], (p, w)
            orders += 1
    # 610 misses for the 17,866 orders (339 distinct group sets) at 128 entries
    misses = activity._of_groups.cache_info().misses
    assert misses < orders * 0.1 and orders > 10000
