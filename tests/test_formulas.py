"""Unit tests for coefficient identities, comparators, and the search."""

from __future__ import annotations

from random import Random

import pytest

from polytutte import acceptance
from polytutte.activity import exterior_direct, interior_direct, tutte_direct
from polytutte.bipoly import X_PLUS_Y_MINUS_1, parse
from polytutte.core import (
    Polymatroid,
    RankTable,
    enumerate_bases,
    enumerate_small_polymatroids,
    rank_from_bases,
)
from polytutte.errors import NegativeCoordinates
from polytutte.formulas import (
    CoefficientRow,
    binomial,
    coefficient_report,
    ceiling_prefix,
    coefficientwise_le,
    full_rank_prefix,
    near_top_coefficient,
    near_top_univariate,
    random_minor_args,
    random_rank_table,
    random_subpolymatroid,
    search_by_tutte,
    second_band_coefficient,
    second_band_univariate,
    top_coefficient,
)
from polytutte.hypergraph import (
    Hypergraph,
    connectivity_profile,
    hypertree_polymatroid,
    random_hypergraph,
    rank_table,
)
from polytutte.recursion import exterior_dc


def exterior_ceiling_profile(p: Polymatroid) -> int:
    """Largest k in 0..n with the first k+1 exterior coefficients at the
    ceiling C(f([n]) + i - 1, i); the constant term always qualifies."""
    return ceiling_prefix(exterior_direct(p), p.rank_table().full_rank(), p.n)


def random_polymatroid(rng: Random, n: int) -> Polymatroid:
    return enumerate_bases(random_rank_table(rng, n))

U13 = Polymatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
UNIQUE11 = Polymatroid([(1, 1)])
T_U13 = parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3 - x^2 - 3*x*y - 2*y^2 + y")


# -- generalized binomial -------------------------------------------------------


def test_binomial_negative_top():
    assert binomial(-1, 2) == 1
    assert binomial(-2, 2) == 3
    assert binomial(-1, 0) == 1


def test_binomial_standard():
    assert binomial(0, 2) == 0
    assert binomial(4, 2) == 6
    assert binomial(1, 2) == 0


def test_binomial_negative_k_is_zero():
    assert binomial(5, -1) == 0


# -- top band ----------------------------------------------------------------------


def test_top_band_pair():
    assert top_coefficient(2, 0) == 1
    assert top_coefficient(2, 2) == 1


def test_top_band_matches_tutte():
    assert top_coefficient(3, 1) == 3 == T_U13.coeff(1, 2)
    t2 = parse("x^2 + 2*x*y + y^2 - x - y")
    assert top_coefficient(2, 2) == t2.coeff(2, 0) == 1


# -- near-top band -----------------------------------------------------------------


def test_near_top_uniform_three():
    f = U13.rank_table()
    assert near_top_coefficient(f, 1) == -1 == T_U13.coeff(2, 0)
    assert near_top_coefficient(f, 2) == -3 == T_U13.coeff(1, 1)
    assert near_top_coefficient(f, 3) == -2 == T_U13.coeff(0, 2)


def test_near_top_k_equals_n_matches_cosingleton_form():
    # at k=n the band formula collapses to
    # sum f([n]-i) - (n-1) f([n]) - n
    for p in (U13, UNIQUE11, Polymatroid([(2, 0), (1, 1), (0, 2)])):
        f = p.rank_table()
        n = p.n
        full_mask = (1 << n) - 1
        cosingles = sum(f.f[full_mask ^ (1 << i)] for i in range(n))
        assert near_top_coefficient(f, n) == cosingles - (n - 1) * f.full_rank() - n
        singles = sum(f.f[1 << i] for i in range(n))
        assert near_top_coefficient(f, 1) == singles - f.full_rank() - n


def test_near_top_univariate_uniform_three():
    f = U13.rank_table()
    assert near_top_univariate(f) == (2, 1)
    assert T_U13.substitute_one("y") == parse("x^3 + 2*x^2")


def test_near_top_univariate_unique_basis():
    assert near_top_univariate(UNIQUE11.rank_table()) == (0, 0)


# -- second band ------------------------------------------------------------------------


def test_second_band_uniform_three():
    f = U13.rank_table()
    x2, y2 = second_band_coefficient(f)
    assert x2 == 0 == T_U13.coeff(1, 0)
    assert y2 == 1 == T_U13.coeff(0, 1)


def test_second_band_unique_basis():
    f = UNIQUE11.rank_table()
    assert second_band_coefficient(f) == (1, 1)  # both use C(-1, 2) = 1
    t = parse("x + y - 1") ** 2
    assert t.coeff(0, 0) == 1


def test_second_band_univariate():
    f = U13.rank_table()
    ux, uy = second_band_univariate(f)
    assert ux == 0  # C(3,2) - 3*C(2,2)
    assert uy == 1  # C(2,2) - 3*C(1,2)
    fu = UNIQUE11.rank_table()
    assert second_band_univariate(fu) == (0, 0)


# -- full report -------------------------------------------------------------------------


def small_corpus():
    out = []
    for n in (1, 2, 3):
        out.extend(enumerate_small_polymatroids(n, 2))
    return out


def test_report_all_match_uniform_three():
    rows = coefficient_report(U13, tutte_direct(U13))
    assert rows and all(r.match for r in rows)


def test_report_all_match_small_corpus():
    for p in small_corpus():
        rows = coefficient_report(p, tutte_direct(p))
        bad = [r for r in rows if not r.match]
        assert not bad, f"{p}: {bad}"


def test_report_row_shape():
    row = CoefficientRow("top[x^0y^1]", 1, 1)
    assert row.to_json() == {
        "formula": "top[x^0y^1]",
        "predicted": 1,
        "extracted": 1,
        "match": True,
    }


# -- exterior ceiling ---------------------------------------------------------------------


def test_ceiling_check_uniform_three():
    # U(1,3) stays at full rank under any two removals: 2 on both sides
    assert full_rank_prefix(U13) == 2
    assert ceiling_prefix(exterior_direct(U13), 1, 3) == 2


def test_ceiling_check_scaled_pair():
    p = Polymatroid([(2, 0), (1, 1), (0, 2)])
    assert full_rank_prefix(p) == 1
    assert exterior_ceiling_profile(p) == 1  # X = 1 + 2y, C(2,1) = 2


def test_ceiling_check_pendant_vertex_fails_both_sides():
    h = Hypergraph(["v1", "v2", "v3"], [["v1", "v2"], ["v1", "v2", "v3"]])
    p = hypertree_polymatroid(h)
    assert full_rank_prefix(p) == 0
    assert exterior_ceiling_profile(p) == 0


def test_ceiling_check_rejects_negative_bases():
    with pytest.raises(NegativeCoordinates):
        full_rank_prefix(Polymatroid([(-1, 0), (0, -1)]))


def test_ceiling_check_rejects_a_table_with_a_negative_coordinate_minimum():
    # the table of {(-1, 1), (0, 0)}: coordinate 1 reaches f([2]) - f({2}) = -1
    table = RankTable(2, [0, 0, 1, 0])
    with pytest.raises(NegativeCoordinates):
        full_rank_prefix(table)


def test_ceiling_check_on_a_table_equals_the_check_on_its_bases():
    corpus = acceptance.build_corpus(acceptance.DEFAULT_SEED)
    for h in corpus.tables:
        assert full_rank_prefix(rank_table(h)) == full_rank_prefix(hypertree_polymatroid(h))


def test_full_rank_prefix_meets_the_profile_and_the_ceiling_prefix():
    # on connected hypergraphs the graph, rank and coefficient sides agree
    rng = Random(28)
    for _ in range(60):
        h = random_hypergraph(rng, 6, 6)
        table = rank_table(h)
        expected = ceiling_prefix(exterior_dc(table), h.num_vertices - 1, h.num_edges)
        assert connectivity_profile(h) == full_rank_prefix(table) == expected, h


def test_ceiling_profile():
    assert exterior_ceiling_profile(U13) == 2
    h = Hypergraph(["v1", "v2"], [["v1", "v2"], ["v1", "v2"]])
    p = hypertree_polymatroid(h)
    assert exterior_ceiling_profile(p) == 1


# -- coefficientwise comparison --------------------------------------------------------------


def test_compare_le_true():
    rep = coefficientwise_le(parse("x + 1"), parse("2*x + 1"))
    assert rep.holds and rep.witness is None


def test_compare_le_false_with_witness():
    rep = coefficientwise_le(parse("2*x + 1"), parse("x + 1"))
    assert not rep.holds and rep.witness == (1, 0) and rep.difference == 1


def test_compare_subset_instance():
    p = Polymatroid([(1, 0), (0, 1)])
    sub = Polymatroid([(1, 0)])
    assert coefficientwise_le(interior_direct(sub), interior_direct(p)).holds
    assert coefficientwise_le(exterior_direct(sub), exterior_direct(p)).holds


# -- exhaustive search ------------------------------------------------------------------------


def test_search_finds_pair_polymatroid():
    target = parse("x^2 + 2*x*y + y^2 - x - y")
    (found,) = search_by_tutte([target], max_n=2, max_rank=2)
    assert Polymatroid([(1, 0), (0, 1)]) in found


def test_search_singletons():
    (found,) = search_by_tutte([parse("x + y - 1")], max_n=1, max_rank=3)
    assert {p.bases for p in found} == {((c,),) for c in range(4)}


def test_search_match_count_by_evaluation():
    # any match for an 11-basis target must itself have 11 bases
    target = parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3 + 2*x^2 + 3*x*y + y^2 - x - 2")
    assert target.evaluate(1, 1) == 11
    (found,) = search_by_tutte([target], max_n=3, max_rank=3)
    for p in found:
        assert len(p) == 11


def test_search_scans_ten_elements():
    # the generator backtracks in a loop: 2^10 masks do not nest 2^10 calls
    (found,) = search_by_tutte([X_PLUS_Y_MINUS_1 ** 10], max_n=10, max_rank=0)
    assert [p.bases for p in found] == [((0,) * 10,)]


# -- random corpus generators ----------------------------------------------------------------


def test_random_rank_table_deterministic():
    a = random_rank_table(Random(11), 4)
    b = random_rank_table(Random(11), 4)
    assert a == b


def test_random_rank_table_round_trips():
    from polytutte.core import enumerate_bases

    rng = Random(23)
    for _ in range(20):
        n = rng.randint(1, 5)
        f = random_rank_table(rng, n)
        assert rank_from_bases(enumerate_bases(f)) == f


def test_random_subpolymatroid_is_subset_with_same_total():
    rng = Random(31)
    for _ in range(20):
        p = random_polymatroid(rng, rng.randint(1, 4))
        sub = random_subpolymatroid(rng, p)
        assert set(sub.bases) <= set(p.bases)
        assert sub.total() == p.total()
        sub._validate()  # capping preserves the exchange axiom


def test_random_minor_args_disjoint_and_proper():
    rng = Random(41)
    for _ in range(50):
        n = rng.randint(1, 5)
        a, b = random_minor_args(rng, n)
        assert not set(a) & set(b)
        assert len(a) + len(b) < n or n == 1
