"""Unit tests for polymatroid representations and structural operators."""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    enumerate_by_levels,
    exchange_closure,
    greedy_basis,
    in_polytope,
    local_submodularity_witness as oracle_witness,
    rank_by_maxima,
    submodularity_failure,
)
from polytutte import core
from polytutte.acceptance import build_corpus
from polytutte.core import (
    Polymatroid,
    RankTable,
    count_bases,
    enumerate_bases,
    enumerate_small_polymatroids,
    rank_from_bases,
    slice_rank,
    surviving_labels,
)
from polytutte.errors import (
    EmptyBasisSet,
    EmptySlice,
    ExchangeFailure,
    FullGroundSet,
    NonzeroEmptySet,
    OutOfRange,
    OverlappingSets,
    SizeLimitExceeded,
    SubmodularityFailure,
    UnequalSums,
    ValidationError,
)
from polytutte.formulas import random_rank_table
from polytutte.hypergraph import random_hypergraph, rank_table
from polytutte.recursion import graphic_matroid, uniform_matroid


def table(n, values):
    return RankTable(n, values)


def uniform_rank_one(n):
    """f(I) = min(|I|, 1): one of everything, the n-element rank-1 polymatroid."""
    return RankTable(n, [min(bin(m).count("1"), 1) for m in range(1 << n)])


U13 = Polymatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
U12 = Polymatroid([(1, 0), (0, 1)])
SCALED2 = Polymatroid([(2, 0), (1, 1), (0, 2)])


# -- basis set validation -------------------------------------------------------


def test_valid_two_element_exchange():
    p = Polymatroid([(1, 0), (0, 1)])
    assert p.bases == ((0, 1), (1, 0))


def test_basis_set_rejects_bools():
    with pytest.raises(ValidationError):
        Polymatroid([(True, False), (False, True)])


def test_unequal_sums_rejected():
    with pytest.raises(UnequalSums):
        Polymatroid([(1, 0), (0, 2)])


def test_exchange_failure_requires_midpoint():
    with pytest.raises(ExchangeFailure):
        Polymatroid([(2, 0), (0, 2)])
    Polymatroid([(2, 0), (1, 1), (0, 2)])


def test_empty_set_rejected():
    with pytest.raises(EmptyBasisSet):
        Polymatroid([])


def test_basis_validation_is_a_capped_count():
    # the round trip: g = rank_from_bases(B) must validate and have exactly
    # |B| bases, counted one past |B| at most
    members = [p for p in build_corpus().randoms if len(p) > 1]
    for p in members:
        g = rank_from_bases(p)
        assert count_bases(g.validate(), len(p) + 1) == len(p), p
        assert Polymatroid(p.bases).rank_table() == g
    # f(empty) = 1 on U(1,2)'s table: the enumeration does not read f(empty),
    # and the count refuses it, since it validates an unvalidated table
    assert core._enumerate((1, 1, 1, 1), 2, 2) == [(0, 1), (1, 0)]
    with pytest.raises(NonzeroEmptySet):
        count_bases(RankTable(2, [1, 1, 1, 1], validate=False), 3)
    with pytest.raises(NonzeroEmptySet):
        RankTable(2, [1, 1, 1, 1])
    # U(2,4) with f({4}) lowered to 0 is not submodular, yet it enumerates
    # to the three bases of U(2,3) with a 0 appended: the validation refuses
    # it before any count
    u24 = RankTable(4, [min(bin(m).count("1"), 2) for m in range(16)])
    f = list(u24.f)
    f[8] = 0
    assert len(core._enumerate(f, 4, 10)) == 3
    with pytest.raises(SubmodularityFailure):
        RankTable(4, f)
    # a table with more bases than given: the count stops one past them,
    # as the enumeration stops at its cap
    bases = enumerate_bases(u24).bases
    with pytest.raises(SizeLimitExceeded):
        core._enumerate(u24.f, 4, len(bases) - 1)
    assert count_bases(u24, len(bases) - 1) == len(bases) - 1
    gap = Polymatroid([(3, 0, 0), (0, 3, 0)], validate=False)
    assert count_bases(rank_from_bases(gap).validate(), 3) == 3  # g has (2, 1, 0), (1, 2, 0)
    with pytest.raises(ExchangeFailure):
        Polymatroid(gap.bases)


def test_basis_validation_builds_no_vectors(monkeypatch):
    def refuse(*args):
        raise AssertionError("basis validation enumerated the table")

    monkeypatch.setattr(core, "_enumerate", refuse)
    for p in [U12, U13, SCALED2, *build_corpus().randoms[:40]]:
        assert Polymatroid.from_json(p.to_json()) == p
    for rows in ([[2, 0], [0, 2]], [[0, 0, 0, 0], [0, 0, 10 ** 9, -(10 ** 9)]]):
        with pytest.raises(ExchangeFailure):
            Polymatroid.from_json({"n": len(rows[0]), "bases": rows})


def test_a_coordinate_spanning_the_basis_count_is_refused_before_the_round_trip(monkeypatch):
    # a polymatroid's coordinate takes every value between its extremes, so
    # two bases 10^300 apart go straight to the witness search, and so do
    # (2, 0), (0, 2), whose first coordinate spans 3 values over 2 bases
    def refuse(*args):
        raise AssertionError("the round trip built g")

    monkeypatch.setattr(core, "_rank_from_rows", refuse)
    zero = (0,) * 16
    far = (0,) * 14 + (10 ** 300, -(10 ** 300))
    with pytest.raises(ExchangeFailure) as e:
        Polymatroid.from_json({"n": 16, "bases": [list(zero), list(far)]})
    assert (e.value.a, e.value.b, e.value.i) == (zero, far, 16)
    with pytest.raises(ExchangeFailure) as e:
        Polymatroid([(2, 0), (0, 2)])
    assert (e.value.a, e.value.b, e.value.i) == ((0, 2), (2, 0), 2)
    monkeypatch.undo()
    # one less than |B| values still takes the round trip
    assert len(Polymatroid([(1, 0), (0, 1)])) == 2


def test_count_bases_matches_the_enumeration():
    # the small corpus, which holds every enumerate_small_polymatroids(3, 3)
    # member, seeded random n = 4..8 tables and translates of them by
    # negative vectors, the corpus hypertrees, U(4,8) and K4
    corpus = build_corpus()
    tables = [p.rank_table() for p in corpus.members()]
    assert {p.rank_table() for p in enumerate_small_polymatroids(3, 3)} <= set(tables)
    rng = Random(19)
    for n in range(4, 9):
        for _ in range(4):
            p = enumerate_bases(random_rank_table(rng, n, size_budget=300))
            tables.append(p.rank_table())
            tables.append(p.translate([rng.randint(-9, -1) for _ in range(n)]).rank_table())
    tables += corpus.tables.values()
    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    tables += [uniform_matroid(4, 8), graphic_matroid(4, k4)]
    for t in tables:
        count = len(enumerate_bases(t))
        assert count_bases(t, 10 ** 9) == count, t
        for cap in range(1, count + 2):
            assert count_bases(t, cap) == min(count, cap), (t, cap)


def test_count_bases_of_uniform_matroids_up_to_the_ground_set_cap():
    for n in (9, 12, 16):
        for d in (1, n // 2, n - 1):
            assert count_bases(uniform_matroid(d, n), 10 ** 9) == math.comb(n, d)
    assert count_bases(uniform_matroid(8, 16), 1000) == 1000


def test_count_bases_stops_at_the_cap_on_far_apart_bases():
    # the top coordinate has 10^6 + 1 levels; the cap stops the count after
    # three of them
    for n in (3, 4):
        far = (0,) * (n - 2) + (10 ** 6, -(10 ** 6))
        g = rank_from_bases(Polymatroid([(0,) * n, far], validate=False))
        start = time.perf_counter()
        assert count_bases(g.validate(), 3) == 3
        assert time.perf_counter() - start < 0.5


def test_count_bases_caps_before_building_wide_lanes(monkeypatch):
    # n = 16 with two bases 10^300 apart: the table needs 128-byte lanes,
    # but the top coordinate's 10^300 + 1 levels reach the cap before the
    # root builds a lane constant, so no lanes that wide are cached
    far = (0,) * 14 + (10 ** 300, -(10 ** 300))
    g = rank_from_bases(Polymatroid([(0,) * 16, far], validate=False)).validate()
    sizes = []
    real = core._lanes
    monkeypatch.setattr(core, "_lanes", lambda n, size: sizes.append(size) or real(n, size))
    assert count_bases(g, 3) == 3
    assert max(sizes, default=1) <= 8, sizes


def test_count_bases_caps_before_packing_the_table(monkeypatch):
    # the root's width, f({16}) of the normalized table, is 10^300: the
    # count returns the cap before it packs 2^16 lanes of 128 bytes
    far = (0,) * 14 + (10 ** 300, -(10 ** 300))
    g = rank_from_bases(Polymatroid([(0,) * 16, far], validate=False)).validate()

    def refuse(values, n, size):
        raise AssertionError("the count packed the table")

    monkeypatch.setattr(core, "_pack_table", refuse)
    assert count_bases(g, 3) == 3


def test_count_bases_stops_at_the_cap_across_many_nodes():
    # f({t}) up to 200 on 10 elements: the full count would visit millions
    # of levels below the root, and each node returns the cap as soon as its
    # running total reaches it
    table = random_rank_table(
        Random(11), 10, size_budget=10**40, max_weight=200, max_universe=12,
        allow_translation=False,
    )
    start = time.perf_counter()
    assert count_bases(table, 10 ** 6 + 1) == 10 ** 6 + 1
    assert time.perf_counter() - start < 0.5


# -- rank recovery ----------------------------------------------------------------


def test_rank_from_bases_pair():
    f = rank_from_bases(U12)
    assert f.value([1]) == 1 and f.value([2]) == 1 and f.value([1, 2]) == 1


def test_rank_from_single_vector():
    f = rank_from_bases(Polymatroid([(5,)]))
    assert f.value([1]) == 5


def test_rank_from_bases_scaled():
    f = rank_from_bases(SCALED2)
    assert f.value([1]) == 2 and f.value([2]) == 2 and f.value([1, 2]) == 2


def _vector_sets(rng):
    """Seeded (rows, n) cases for rank_from_bases: n = 1..8 and 16, 1-20
    vectors with coordinates from +-1 to +-2^70, with equal or unequal sums
    (so also sets that are no polymatroid), vectors at the edge of each lane
    width and just past it, single vectors, and translated and negated
    polymatroids."""
    cases = []
    for n in list(range(1, 9)) + [16]:
        exponents = (0, 3, 5, 12, 13, 28, 29, 59, 60, 70) if n == 16 else range(71)
        for e in exponents:
            hi = 1 << e
            rows = set()
            equal = rng.random() < 0.5
            for _ in range(rng.randint(1, 8 if n == 16 else 20)):
                v = [rng.randint(-hi, hi) for _ in range(n)]
                if equal:
                    v[-1] = hi - sum(v[:-1])
                rows.add(tuple(v))
            cases.append((sorted(rows), n))
        for w in (8, 16, 32, 64):
            edge = ((1 << (w - 2)) - 1) // n  # largest |coordinate| with n * edge in w - 2 bits
            for m in (edge, edge + 1):
                cases.append(([(m,) * n, (-m,) * n, (m, -m) * (n // 2) + (m,) * (n % 2)], n))
        cases.append(([tuple(rng.randint(-hi, hi) for _ in range(n))], n))
    for n in range(1, 7):
        p = enumerate_bases(random_rank_table(rng, n))
        for e in (0, 7, 15, 31, 62, 70):
            c = tuple(rng.randint(-(1 << e), 1 << e) for _ in range(n))
            for q in (p.translate(c), p.translate(c).dual()):
                cases.append((list(q.bases), n))
    return cases


def test_rank_from_bases_matches_the_maxima_oracle(monkeypatch):
    sizes = []
    real = core._lanes
    monkeypatch.setattr(core, "_lanes", lambda n, size: sizes.append(size) or real(n, size))
    kernels = set()
    for rows, n in _vector_sets(Random(10)):
        p = Polymatroid(rows, validate=False)
        sizes.clear()
        assert rank_from_bases(p).f == rank_by_maxima(p.bases, n), (n, rows)
        kernels.add(sizes[0] if sizes else "wide")
    # every lane width in bytes and the wide fallback ran
    assert kernels == {1, 2, 4, 8, "wide"}


def test_translated_bases_keep_their_lane_size(monkeypatch):
    # the sums are packed as offsets from each coordinate's minimum, so a
    # translate far from zero packs in the lanes of the untranslated set
    sizes = []
    real = core._lanes
    monkeypatch.setattr(core, "_lanes", lambda n, size: sizes.append(size) or real(n, size))
    rng = Random(26)
    tables = [random_rank_table(rng, n) for n in (2, 3, 4, 5, 6)] + [uniform_matroid(4, 8)]
    for p in map(enumerate_bases, tables):
        n = p.n
        sizes.clear()
        rank_from_bases(p)
        (size,) = sizes
        assert size <= 4
        for far in (10 ** 20, 1 << 70):
            c = tuple(far if i % 2 else -far for i in range(n))
            for q in (p.translate(c), p.translate(tuple(-x for x in c))):
                sizes.clear()
                assert rank_from_bases(q).f == rank_by_maxima(q.bases, n)
                assert sizes == [size], (n, far)


def test_rank_from_bases_memory_on_huge_coordinates():
    # n = 16, three vectors with 1,000-digit coordinates: lanes would be
    # about 3,300 bits wide, so the list maxima run; their peak is about 75 MB
    rng = Random(11)
    hi = 10 ** 1000
    p = Polymatroid([tuple(rng.randint(-hi, hi) for _ in range(16)) for _ in range(3)],
                    validate=False)
    cached = core._lanes.cache_info().currsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = rank_from_bases(p).f
        peak = tracemalloc.get_traced_memory()[1]
        del f
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak - before < 90 * 2 ** 20
    assert after - before < 2 ** 20  # nothing sized by the coordinates stays behind
    assert core._lanes.cache_info().currsize == cached


def test_lane_cache_holds_at_most_four_widths_per_n():
    core._lanes.cache_clear()
    for e in range(0, 80, 3):
        c = 1 << e
        rank_from_bases(Polymatroid([(c, -c, 0), (0, c, -c), (-c, 0, c)], validate=False))
    assert core._lanes.cache_info().currsize == 4


# -- rank table validation ----------------------------------------------------------


def test_uniform_rank_table_valid():
    RankTable(3, uniform_rank_one(3).f)


def test_nonzero_empty_set_rejected():
    with pytest.raises(NonzeroEmptySet):
        RankTable(2, [1, 1, 1, 1])


def test_rank_table_rejects_bools():
    with pytest.raises(ValidationError):
        RankTable(1, [False, True])


def test_submodularity_failure_witness():
    with pytest.raises(SubmodularityFailure) as e:
        RankTable(2, [0, 0, 0, 1])
    assert {e.value.i_mask, e.value.j_mask} == {1, 2}


# c * U(1, 2), [0, c, c, 0] (the segment from (c, -c) to (-c, c)) and the
# violating [0, c, c, 2c + 1], for c on both sides of every lane width of 1,
# 2, 4, 8, 16 and 128 bytes.  The segment's f({1}) + f({2}) - f(E) - f(empty)
# is 2c, twice the largest value: the most that a lane must hold below its
# guard bit
LANE_EDGES = (1, 31, 32, 63, 64, 127, 128, (1 << 29) - 1, 1 << 29, 1 << 31, (1 << 61) - 1,
              1 << 62, 1 << 70, 10 ** 300)


def test_validation_at_every_lane_width(monkeypatch):
    sizes = set()
    real = core._pack_table
    monkeypatch.setattr(core, "_pack_table", lambda v, n, size: sizes.add(size) or real(v, n, size))
    for c in LANE_EDGES:
        RankTable(2, [0, c, c, c])
        RankTable(2, [0, c, c, 0])
        with pytest.raises(SubmodularityFailure) as e:
            RankTable(2, [0, c, c, 2 * c + 1])
        assert (e.value.i_mask, e.value.j_mask) == (1, 2)
        assert str(e.value) == "submodularity fails for masks 1, 2"
        # with f({1}) = -c < 0
        RankTable(2, [0, -c, c, 0])
        with pytest.raises(SubmodularityFailure):
            RankTable(2, [0, -c, c, 1])
    assert sizes == {1, 2, 4, 8, 16, 128}


def test_validation_of_a_wide_three_element_table():
    for c in LANE_EDGES:
        p = Polymatroid([(c, -c, 0), (0, c, -c), (-c, 0, c)], validate=False)
        f = list(rank_from_bases(p).f)
        RankTable(3, f)
        RankTable(3, list(rank_from_bases(p.translate((-3 * c, c, 0))).f))
        f[7] = c + 1  # f({1, 3}) + f({2, 3}) = 2c < f(E) + f({3})
        with pytest.raises(SubmodularityFailure) as e:
            RankTable(3, f)
        assert (e.value.i_mask, e.value.j_mask) == oracle_witness(f, 3) == (5, 6)


def test_validation_of_one_element_tables():
    for v in (0, 5, -5, -(10 ** 300), 10 ** 300):
        RankTable(1, [0, v])
    with pytest.raises(NonzeroEmptySet):
        RankTable(1, [-1, 0])


def test_lowered_uniform_matroid_names_the_first_witness():
    f = list(uniform_matroid(8, 16).f)
    RankTable(16, f)
    f[0b1010101] -= 1
    with pytest.raises(SubmodularityFailure) as e:
        RankTable(16, f)
    assert (e.value.i_mask, e.value.j_mask) == (85, 86)
    assert str(e.value) == "submodularity fails for masks 85, 86"


# -- greedy -------------------------------------------------------------------------


def test_greedy_identity_order():
    assert greedy_basis(uniform_rank_one(3), (1, 2, 3)) == (1, 0, 0)


def test_greedy_reversed_order():
    assert greedy_basis(uniform_rank_one(3), (3, 2, 1)) == (0, 0, 1)


def test_greedy_scaled():
    f = RankTable(2, [0, 2, 2, 2])
    assert greedy_basis(f, (1, 2)) == (2, 0)


# -- enumeration ----------------------------------------------------------------------


def test_enumerate_uniform_rank_one():
    assert enumerate_bases(uniform_rank_one(2)) == U12


def test_enumerate_scaled():
    assert enumerate_bases(RankTable(2, [0, 2, 2, 2])) == SCALED2


def test_enumerate_unique_basis():
    assert enumerate_bases(RankTable(2, [0, 1, 1, 2])) == Polymatroid([(1, 1)])


def test_enumerate_respects_cap():
    with pytest.raises(SizeLimitExceeded):
        enumerate_bases(RankTable(2, [0, 2, 2, 2]), max_bases=2)


def test_membership():
    assert (1, 0) in U12
    assert (2, -1) not in U12
    assert (1, 1) in SCALED2


# -- slices -------------------------------------------------------------------------


def test_slice_drops_coordinate():
    assert SCALED2.slice(2, 1) == Polymatroid([(1,)])
    assert U12.slice(1, 0) == Polymatroid([(1,)])
    assert U13.slice(3, 0) == U12


def test_slice_out_of_range():
    with pytest.raises(EmptySlice):
        U12.slice(1, 2)


def test_slice_range_matches_rank_table():
    # alpha = f([n]) - f([n]-t) and beta = f({t}) equal the attained extremes
    for p in (U12, U13, SCALED2):
        f = p.rank_table()
        full = (1 << p.n) - 1
        for t in range(1, p.n + 1):
            rng = p.slice_range(t)
            assert rng[0] == f.f[full] - f.f[full ^ (1 << (t - 1))]
            assert rng[-1] == f.f[1 << (t - 1)]


def test_slice_rank_deletion_end():
    f = uniform_rank_one(2)
    assert slice_rank(f, 2, 0).f == (0, 1)  # f^2_0({1}) = f({1}) = 1


def test_slice_rank_contraction_end():
    f = uniform_rank_one(2)
    assert slice_rank(f, 2, 1).f == (0, 0)  # f({1,2}) - f({2}) = 0


def test_slice_rank_middle_level():
    f = RankTable(2, [0, 2, 2, 2])
    assert slice_rank(f, 2, 1).f == (0, 1)  # min(2, 2 - 1)


def test_slice_rank_out_of_range():
    with pytest.raises(OutOfRange):
        slice_rank(uniform_rank_one(2), 2, 5)


def test_slice_rank_matches_sliced_bases():
    for p in (U12, U13, SCALED2):
        f = p.rank_table()
        for t in range(1, p.n + 1):
            for j in p.slice_range(t):
                assert slice_rank(f, t, j) == p.slice(t, j).rank_table()


def test_slice_table_matches_its_definition():
    # the deletion and contraction ends skip the minimum; every level must
    # still equal min(f(I), f(I + t) - j)
    rng = Random(3)
    for _ in range(30):
        f = random_rank_table(rng, rng.randint(2, 6))
        n = f.n
        for t in range(1, n + 1):
            tbit = 1 << (t - 1)
            full = (1 << n) - 1
            for j in range(f.f[full] - f.f[full ^ tbit], f.f[tbit] + 1):
                expected = [
                    min(f.f[m], f.f[m | tbit] - j)
                    for m in range(1 << n) if not m & tbit
                ]
                assert core._slice_table(f.f, n, t, j) == expected


def test_slice_completeness():
    for p in (U12, U13, SCALED2):
        for t in range(1, p.n + 1):
            rebuilt = []
            for j in p.slice_range(t):
                for v in p.slice(t, j):
                    rebuilt.append(v[: t - 1] + (j,) + v[t - 1 :])
            assert sorted(rebuilt) == list(p.bases)


# -- deletion, contraction, duality ------------------------------------------------------


def test_delete_single_element():
    assert U13.delete([3]) == U12


def test_contract_single_element():
    assert U13.contract([3]) == Polymatroid([(0, 0)])


def test_delete_nothing():
    assert U13.delete([]) == U13


def test_delete_full_ground_set_rejected():
    with pytest.raises(FullGroundSet):
        U12.delete([1, 2])


def test_single_element_cases_agree_with_slices():
    for p in (U12, U13, SCALED2):
        for t in range(1, p.n + 1):
            rng = p.slice_range(t)
            assert p.delete([t]) == p.slice(t, rng[0])
            assert p.contract([t]) == p.slice(t, rng[-1])


def test_dual():
    assert U12.dual() == Polymatroid([(-1, 0), (0, -1)])


def test_dual_involution():
    for p in (U12, U13, SCALED2):
        assert p.dual().dual() == p


def test_translate():
    assert U12.translate((1, 1)) == Polymatroid([(2, 1), (1, 2)])


def test_permute():
    p = Polymatroid([(2, 0, 1)])
    assert p.permute((3, 1, 2)) == Polymatroid([(1, 2, 0)])


def test_minor_identity():
    assert U13.minor([], []) == U13


def test_minor_is_deletion_when_contract_empty():
    assert U13.minor([3], []) == U12


def test_minor_rejects_overlap_and_full_removal():
    with pytest.raises(OverlappingSets):
        U13.minor([1], [1])
    with pytest.raises(FullGroundSet):
        U13.minor([1, 2], [3])


def relabel(targets, removed, n):
    kept = surviving_labels(n, removed)
    return tuple(kept.index(t) + 1 for t in targets)


def disjoint_proper_pairs(n):
    elements = range(1, n + 1)
    for a_size in range(n + 1):
        for a in itertools.combinations(elements, a_size):
            rest = [e for e in elements if e not in a]
            for b_size in range(len(rest) + 1):
                for b in itertools.combinations(rest, b_size):
                    if len(a) + len(b) < n:
                        yield a, b


def test_minor_order_independence_exhaustive_small():
    for p in small_family(2) + small_family(3):
        n = p.n
        for a, b in disjoint_proper_pairs(n):
            left = p.minor(a, b)
            assert left == p.delete(a).contract(relabel(b, a, n))
            assert left == p.contract(b).delete(relabel(a, b, n))


def test_minors_reuse_the_enumerated_table(monkeypatch):
    f = RankTable(4, [min(2 * bin(m).count("1"), 3) for m in range(1 << 4)])
    p = enumerate_bases(f)
    calls = []
    real = core.rank_from_bases
    monkeypatch.setattr(core, "rank_from_bases", lambda q: calls.append(q) or real(q))
    assert p.rank_table() is f
    minors = [p.minor([1], [3]), p.delete([2]), p.contract([1, 4]), p.minor([2, 3], []),
              p.dual().contract([1])]
    family = list(enumerate_small_polymatroids(2, 2))
    tables = [q.rank_table() for q in minors + family]
    assert calls == []
    monkeypatch.undo()
    # the carried tables are the ones the bases give back
    assert tables == [rank_from_bases(q) for q in minors + family]
    assert tables[0].f == tuple(f.f[m | 0b0100] - f.f[0b0100] for m in (0, 0b0010, 0b1000, 0b1010))


def test_transforms_carry_their_tables():
    rng = Random(5)
    for n in range(1, 9):
        for _ in range(3):
            p = enumerate_bases(random_rank_table(rng, n))
            shifts = [tuple(rng.randint(-3, 3) for _ in range(n)), (-2,) * n]
            w = tuple(rng.sample(range(1, n + 1), n))
            images = [p.dual(), p.permute(w), p.dual().permute(w).translate(shifts[0])]
            images += [p.translate(c) for c in shifts]
            for q in images:
                assert q._rank is not None
                assert q.rank_table() == rank_from_bases(q)


def test_transforms_of_a_tableless_polymatroid_compute_no_table(monkeypatch):
    p = Polymatroid([(2, 0, 1), (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2)], validate=False)
    calls = []
    monkeypatch.setattr(core, "rank_from_bases", lambda q: calls.append(q))
    images = [p.dual(), p.translate((1, -1, 0)), p.permute((3, 1, 2))]
    assert calls == []
    assert [q._rank for q in images] == [None] * 3


def test_unvalidated_constructors_keep_their_checks():
    with pytest.raises(ValidationError):
        Polymatroid([(True, False), (False, True)], validate=False)
    with pytest.raises(ValidationError, match="mixed vector lengths"):
        Polymatroid([(1, 0), (1, 0, 0)], validate=False)
    with pytest.raises(ValidationError):
        Polymatroid([(1, 0), (1, 0, 0)])
    with pytest.raises(ValidationError):
        RankTable(1, [0, True], validate=False)
    with pytest.raises(ValidationError):
        RankTable(2, [0, 1, 1], validate=False)


def test_slice_of_a_one_element_polymatroid_is_rejected():
    with pytest.raises(ValidationError, match="at least one element") as e:
        Polymatroid([(2,)]).slice(1, 2)
    assert e.value.category == "ValidationError"


def test_basis_validation_keeps_its_rank_table(monkeypatch):
    data = {"n": 3, "bases": [[2, 0, 1], [1, 1, 1], [0, 2, 1], [1, 0, 2], [0, 1, 2]]}
    loaded = Polymatroid.from_json(data)
    built = Polymatroid(data["bases"])
    calls = []
    real = core.rank_from_bases
    monkeypatch.setattr(core, "rank_from_bases", lambda q: calls.append(q) or real(q))
    tables = [loaded.rank_table(), built.rank_table()]
    assert calls == []
    monkeypatch.undo()
    assert tables == [rank_from_bases(Polymatroid(data["bases"], validate=False))] * 2


@pytest.mark.parametrize("bases, message", [
    ([[1, 0], [0, 1.5]], "coordinate must be a JSON integer, got 1.5"),
    ([[1, 0], 3], "a basis must be a JSON list, got 3"),
    ([[1.5], 3], "coordinate must be a JSON integer, got 1.5"),  # document order
    ([[1, 2], [True]], "coordinate must be a JSON integer, got True"),
    ([[1, 2], [1.5]], "coordinate must be a JSON integer, got 1.5"),  # types before lengths
    ([[1, 2], [1, 0, 0]], "mixed vector lengths: 2 vs 3"),
    ([[1, 1, 1]], "declared n = 2 but vectors have length 3"),
    ([[]], "ground set must have at least one element, got 0"),
    (5, "'bases' must be a JSON list, got 5"),
])
def test_basis_json_names_the_first_bad_slot(bases, message):
    with pytest.raises(ValidationError) as e:
        Polymatroid.from_json({"n": 2, "bases": bases})
    assert str(e.value) == message


def test_basis_json_takes_list_subclasses():
    class Row(list):
        pass

    p = Polymatroid.from_json({"n": 2, "bases": [Row([1, 0]), [0, 1]]})
    assert p == U12 and p.rank_table() == U12.rank_table()


def test_mask_minor_matches_the_labelled_minor():
    p = enumerate_bases(RankTable(4, [min(2 * bin(m).count("1"), 3) for m in range(1 << 4)]))
    for a, b in disjoint_proper_pairs(4):
        mask_a = sum(1 << (i - 1) for i in a)
        mask_b = sum(1 << (i - 1) for i in b)
        assert p._minor(mask_a, mask_b) == p.minor(a, b)


def test_surviving_labels():
    assert surviving_labels(5, [2, 4]) == (1, 3, 5)


# -- small-case generator ------------------------------------------------------------


def small_family(n, max_rank=2):
    return list(enumerate_small_polymatroids(n, max_rank))


def test_enumerate_small_n1():
    got = list(enumerate_small_polymatroids(1, 1))
    assert sorted(p.bases for p in got) == [((0,),), ((1,),)]


def test_enumerate_small_contains_uniform():
    assert U12 in small_family(2, 1)


def test_enumerate_small_all_pass_validation():
    for n in (1, 2, 3):
        for p in small_family(n, 2):
            Polymatroid(p.bases)


def test_enumerate_small_no_duplicates():
    fam = small_family(3, 2)
    assert len(fam) == len({p.bases for p in fam})


# -- round trips and oracles ------------------------------------------------------------


def all_small_tables(n, max_rank):
    """Every submodular table with values in 0..max_rank, brute force."""
    for values in itertools.product(range(max_rank + 1), repeat=(1 << n) - 1):
        f = (0,) + values
        if submodularity_failure(f) is None:
            yield RankTable(n, f, validate=False)


@pytest.mark.parametrize("n, max_rank", [(1, 4), (2, 4), (3, 2), (3, 3)])
def test_small_polymatroids_follow_the_brute_force_tables(n, max_rank):
    # the local bound prunes exactly: one polymatroid per submodular table,
    # in the tables' numeric order
    got = [p.rank_table() for p in enumerate_small_polymatroids(n, max_rank)]
    assert got == list(all_small_tables(n, max_rank))


def test_round_trip_exhaustive_small():
    for n in (1, 2):
        for f in all_small_tables(n, 2):
            assert rank_from_bases(enumerate_bases(f)) == f


def test_round_trip_n3():
    count = 0
    for f in all_small_tables(3, 3):
        assert rank_from_bases(enumerate_bases(f)) == f
        count += 1
    assert count > 1000


def test_exchange_closure_matches_enumeration():
    for f in all_small_tables(2, 2):
        assert exchange_closure(f) == enumerate_bases(f)
    for f in itertools.islice(all_small_tables(3, 2), 0, None, 7):
        assert exchange_closure(f) == enumerate_bases(f)


def test_enumeration_matches_the_level_by_level_oracle():
    # the suffix-passing enumeration against one that appends a coordinate
    # per level: the same vectors in the same order, and a cap one below
    # the count refused by both
    corpus = build_corpus()
    rng = Random(17)
    tables = [p.rank_table() for p in corpus.members()]
    tables += list(corpus.tables.values())
    tables += [rank_table(random_hypergraph(rng, 6, 8, connected=False)) for _ in range(40)]
    for t in tables:
        expected = enumerate_by_levels(t.f, t.n, core.DEFAULT_MAX_BASES)
        assert core._enumerate(t.f, t.n, len(expected)) == expected, t
        assert enumerate_bases(t, len(expected)).bases == tuple(sorted(expected)), t
        if t.n > 1:  # a one-element table has one basis and no cap check
            with pytest.raises(SizeLimitExceeded):
                enumerate_bases(t, len(expected) - 1)
            with pytest.raises(SizeLimitExceeded):
                enumerate_by_levels(t.f, t.n, len(expected) - 1)


def test_in_polytope():
    f = uniform_rank_one(2)
    assert in_polytope(f, (1, 0))
    assert not in_polytope(f, (2, -1))
    assert not in_polytope(f, (0, 0))


# -- randomized properties -----------------------------------------------------------


@st.composite
def random_tables(draw, max_n=3):
    """Submodular tables built from truncated weighted coverage functions."""
    n = draw(st.integers(1, max_n))
    universe = draw(st.integers(1, 4))
    weights = draw(
        st.lists(st.integers(1, 3), min_size=universe, max_size=universe)
    )
    covers = [
        draw(st.sets(st.integers(0, universe - 1), min_size=1, max_size=universe))
        for _ in range(n)
    ]
    cap = draw(st.integers(0, sum(weights)))
    size = 1 << n
    values = []
    for mask in range(size):
        covered = set()
        for i in range(n):
            if mask & (1 << i):
                covered |= covers[i]
        g = sum(weights[q] for q in covered)
        values.append(min(g, cap) if mask else 0)
    shift = draw(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    )
    shifted = []
    for mask in range(size):
        s = sum(shift[i] for i in range(n) if mask & (1 << i))
        shifted.append(values[mask] + s)
    return RankTable(n, shifted)


@settings(max_examples=60, deadline=None)
@given(random_tables())
def test_round_trip_random(f):
    assert rank_from_bases(enumerate_bases(f)) == f


@settings(max_examples=40, deadline=None)
@given(random_tables())
def test_slice_rank_matches_brute_force_random(f):
    p = enumerate_bases(f)
    for t in range(1, p.n + 1):
        if p.n == 1:
            continue
        rebuilt = []
        for j in p.slice_range(t):
            sliced = p.slice(t, j)
            assert slice_rank(f, t, j) == rank_from_bases(sliced)
            rebuilt.extend(v[: t - 1] + (j,) + v[t - 1 :] for v in sliced)
        assert sorted(rebuilt) == list(p.bases)


@settings(max_examples=40, deadline=None)
@given(random_tables())
def test_greedy_always_a_basis(f):
    p = enumerate_bases(f)
    n = f.n
    for order in itertools.islice(itertools.permutations(range(1, n + 1)), 6):
        assert greedy_basis(f, order) in p
