"""Acceptance gate: every criterion must pass, one printed line each.

All checks are exact integer identities over a deterministic seeded corpus;
there are no numeric tolerances to calibrate.  Run with -s to see the lines.
"""

from __future__ import annotations

from operator import add
from random import Random

import pytest

from polytutte import acceptance
from polytutte.activity import TransferRelation
from polytutte.core import Polymatroid, RankTable, _subset_sums, enumerate_bases
from polytutte.formulas import random_rank_table
from polytutte.recursion import dc_polynomials, exterior_dc, interior_dc, tutte_dc


@pytest.fixture(scope="module")
def results():
    return {r.ident: r for r in acceptance.run_all(seed=acceptance.DEFAULT_SEED)}


def _require(results, ident):
    r = results[ident]
    print(r.line())
    assert r.passed, r.line()


def test_criterion_1_method_equivalence(results):
    _require(results, "1")


def test_criterion_2_coefficient_formulas(results):
    _require(results, "2")


def test_criterion_3_invariances(results):
    _require(results, "3")


def test_criterion_4_matroid_bridge(results):
    _require(results, "4")


def test_criterion_5_monotonicity(results):
    _require(results, "5")


def test_criterion_6_tutte_non_monotonicity(results):
    _require(results, "6")


def test_criterion_7_connectivity(results):
    _require(results, "7")


def test_criterion_8_structure_oracles(results):
    _require(results, "8")


def test_criterion_9_four_cycle_count(results):
    _require(results, "9")


# -- the corpus builds each hypergraph's rank table once ------------------------------


def test_corpus_hypergraph_tables_are_built_once(monkeypatch):
    real = acceptance.rank_table
    built = []
    monkeypatch.setattr(acceptance, "rank_table", lambda h: built.append(h) or real(h))
    monkeypatch.setattr(acceptance, "_CORPUS_CACHE", {})
    corpus = acceptance.build_corpus(acceptance.DEFAULT_SEED)
    hypergraphs = corpus.hypergraphs + corpus.hypergraphs_any
    assert len(set(hypergraphs)) < len(hypergraphs)  # the draws repeat some
    assert built == list(dict.fromkeys(hypergraphs))
    for h in hypergraphs:
        assert corpus.tables[h] == real(h)
    built.clear()
    acceptance.check_connectivity(corpus, Random(0))
    acceptance.check_four_cycles(corpus, Random(0))
    assert [h.num_edges for h in built] == [2]  # K_{2,2} only: it is not in the corpus


# -- criterion 7 compares the two prefixes ------------------------------------------


def test_connectivity_check_catches_a_long_full_rank_prefix(monkeypatch):
    corpus = acceptance.build_corpus(acceptance.DEFAULT_SEED)
    acceptance.check_connectivity(corpus, Random(0))
    real = acceptance.full_rank_prefix
    monkeypatch.setattr(acceptance, "full_rank_prefix", lambda table: real(table) + 1)
    with pytest.raises(AssertionError, match="full-rank prefix"):
        acceptance.check_connectivity(corpus, Random(0))


# -- criterion 8 catches a fault on either side -----------------------------------

U13 = Polymatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _patch_relation(monkeypatch, pair, change):
    """Make criterion 8's relation hold change(lanes) for one pair."""

    class Patched(TransferRelation):
        __slots__ = ()

        def __missing__(self, key):
            lanes = super().__missing__(key)
            if key == pair:
                lanes = self[key] = change(lanes)
            return lanes

    monkeypatch.setattr(acceptance, "TransferRelation", Patched)


def test_structure_check_catches_a_dropped_transfer(monkeypatch):
    # (0, 0, 1), basis 0, steps to (0, 1, 0) only through S(3, 2) (the
    # 0-based pair (2, 1)), the only step into {2}; (0, 0, 1) -> (1, 0, 0)
    # keeps index 3 internally inactive, so only the tight-set side can
    # notice
    assert U13.bases[0] == (0, 0, 1)
    acceptance._check_structure_one(U13, ())
    _patch_relation(monkeypatch, (2, 1), lambda lanes: lanes & ~1)
    with pytest.raises(AssertionError, match=r"no exchange step into non-tight 10 for \(0, 0, 1\) "):
        acceptance._check_structure_one(U13, ())


def test_structure_check_catches_a_transfer_into_a_tight_set(monkeypatch):
    # a claimed step (0, 1, 0) -> (-1, 1, 1), basis 1 in S(1, 3) (the
    # 0-based pair (0, 2)), enters the tight set {2, 3}; index 3 is
    # externally inactive already, so the activities agree
    assert U13.bases[1] == (0, 1, 0)
    _patch_relation(monkeypatch, (0, 2), lambda lanes: lanes | 1 << 8)
    with pytest.raises(AssertionError, match=r"exchange step into tight 110 for \(0, 1, 0\) "):
        acceptance._check_structure_one(U13, ())


def test_structure_check_catches_a_dropped_tight_set(monkeypatch):
    real = acceptance.tight_sets

    def drop_one(p, a):
        masks = real(p, a)
        return masks[:1] + masks[2:]

    acceptance._check_structure_one(U13, ())
    monkeypatch.setattr(acceptance, "tight_sets", drop_one)
    with pytest.raises(AssertionError):
        acceptance._check_structure_one(U13, ())


# -- criterion 8 compares minors built by different paths ----------------------------

# n = 3, 30 bases; no permutation of the coordinates but the identity fixes
# it, so a mislabeled minor cannot pass for the right one
SKEWED = enumerate_bases(RankTable(3, [0, 2, 3, 2, 3, 3, 3, 0]))


def test_structure_check_catches_a_wrong_relabel(monkeypatch):
    real = acceptance._relabel

    def mirrored(targets, removed, n):
        m = n - bin(removed).count("1")
        return int(format(real(targets, removed, n), f"0{m}b")[::-1], 2)

    pairs = list(acceptance._disjoint_proper_pairs(SKEWED.n))
    acceptance._check_structure_one(SKEWED, pairs)
    monkeypatch.setattr(acceptance, "_relabel", mirrored)
    with pytest.raises(AssertionError, match="minor order dependence"):
        acceptance._check_structure_one(SKEWED, pairs)


def test_structure_check_catches_a_lossy_dual_of_a_minor(monkeypatch):
    real = Polymatroid.dual

    def lossy(self):
        d = real(self)
        if self.n < SKEWED.n and len(d) > 1:
            return Polymatroid._trusted(list(d.bases[1:]), d.n, None)
        return d

    monkeypatch.setattr(Polymatroid, "dual", lossy)
    with pytest.raises(AssertionError, match=r"dual\(delete\) != contract\(dual\)"):
        acceptance._check_structure_one(SKEWED, ())


# -- criterion 3 reads the translate's own table -------------------------------------


def test_translation_check_catches_a_wrong_carried_table(monkeypatch):
    real = Polymatroid.translate

    def bumped(self, c):
        # the right bases, but f({1}) one too high: for n >= 2 no translation
        # vector adds that to a table
        q = real(self, c)
        f = list(q.rank_table().f)
        f[1] += 1
        return Polymatroid._trusted(list(q.bases), q.n, RankTable._trusted(q.n, tuple(f)))

    rng = Random(5)
    for n in (2, 3, 4, 5):
        p = enumerate_bases(random_rank_table(rng, n))
        polys = (tutte_dc(p), interior_dc(p), exterior_dc(p))
        assert acceptance.invariance_violations(p, polys, Random(n), ["translation"]) == {}
        with monkeypatch.context() as m:
            m.setattr(Polymatroid, "translate", bumped)
            violated = acceptance.invariance_violations(p, polys, Random(n), ["translation"])
        assert list(violated) == ["translation"], p
        assert violated["translation"].startswith("c=(")


def test_translation_check_catches_a_doubly_shifted_table(monkeypatch):
    # f(S) + 2c(S) is itself a translate's table: the translation-normalized
    # memo key maps it to p's own entry, so only the comparison with the
    # bases can see it
    real = Polymatroid.translate

    def doubled(self, c):
        q = real(self, c)
        f = tuple(map(add, q.rank_table().f, _subset_sums(c)))
        return Polymatroid._trusted(list(q.bases), q.n, RankTable._trusted(q.n, f))

    rng = Random(5)
    for n in (1, 2, 3, 4, 5):
        p = enumerate_bases(random_rank_table(rng, n))
        polys = dc_polynomials(p)
        assert acceptance.invariance_violations(p, polys, Random(n), ["translation"]) == {}
        with monkeypatch.context() as m:
            m.setattr(Polymatroid, "translate", doubled)
            violated = acceptance.invariance_violations(p, polys, Random(n), ["translation"])
        assert list(violated) == ["translation"], p


def test_translation_check_catches_another_translates_bases(monkeypatch):
    # the table of p + c with the bases of p + c + e_n: as many bases as the
    # table has, other vectors, which a count alone would not see
    real = Polymatroid.translate

    def moved(self, c):
        q = real(self, c)
        r = real(self, (*c[:-1], c[-1] + 1))
        assert len(r) == len(q) and r.bases != q.bases
        return Polymatroid._trusted(list(r.bases), q.n, q.rank_table())

    rng = Random(5)
    for n in (1, 2, 3, 4, 5):
        p = enumerate_bases(random_rank_table(rng, n))
        polys = dc_polynomials(p)
        with monkeypatch.context() as m:
            m.setattr(Polymatroid, "translate", moved)
            violated = acceptance.invariance_violations(p, polys, Random(n), ["translation"])
        assert list(violated) == ["translation"], p


def test_translation_check_enumerates_the_carried_table(monkeypatch):
    # the round trip of the first translate enumerates its carried table,
    # capped at its number of bases, and builds no table from the bases; a
    # carried table lowered by 1 at one mask, and bases short of the
    # table's, are each reported with their c= witness
    def refuse(q):
        raise AssertionError("the translation leg called rank_from_bases")

    real = Polymatroid.translate

    def lowered(self, c):
        q = real(self, c)
        f = list(q.rank_table().f)
        f[1] -= 1
        return Polymatroid._trusted(list(q.bases), q.n, RankTable._trusted(q.n, tuple(f)))

    def short(self, c):
        q = real(self, c)
        return Polymatroid._trusted(list(q.bases[1:]), q.n, q.rank_table())

    monkeypatch.setattr(acceptance, "rank_from_bases", refuse)
    rng = Random(5)
    for n in (2, 3, 4, 5):
        p = enumerate_bases(random_rank_table(rng, n))
        assert len(p) > 1
        polys = dc_polynomials(p)
        assert acceptance.invariance_violations(p, polys, Random(n), ["translation"]) == {}
        for broken in (lowered, short):
            with monkeypatch.context() as m:
                m.setattr(Polymatroid, "translate", broken)
                violated = acceptance.invariance_violations(p, polys, Random(n), ["translation"])
            assert list(violated) == ["translation"], (p, broken)
            assert violated["translation"].startswith("c=("), (p, broken)


# -- criterion 3 re-keys one drawn order -----------------------------------------------


def test_permutation_check_catches_a_lossy_permute(monkeypatch):
    # every order is read off the relation of p itself, so only the first
    # drawn order, checked through p.permute(w), can see a broken permute
    real = Polymatroid.permute

    def lossy(self, w):
        q = real(self, w)
        return Polymatroid._trusted(list(q.bases[1:]), q.n, None)

    rng = Random(7)
    for n in (2, 3, 4, 5):
        p = enumerate_bases(random_rank_table(rng, n))
        assert len(p) > 1
        polys = dc_polynomials(p)
        assert acceptance.invariance_violations(p, polys, Random(n), ["permutation"]) == {}
        with monkeypatch.context() as m:
            m.setattr(Polymatroid, "permute", lossy)
            violated = acceptance.invariance_violations(p, polys, Random(n), ["permutation"])
        assert list(violated) == ["permutation"], p
        assert violated["permutation"].startswith("w=(")
