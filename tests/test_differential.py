"""Differential tier: independent routes agree on inputs larger than the corpus.

The slice recursion (``*_dc``, on rank tables) and the basis-activity
definition (``*_direct``, on enumerated bases) must give the same T, I and X
on seeded random tables with up to a few thousand bases, on hypertrees of
seeded random hypergraphs, on 5 * U(1, 16) with 15,504 bases, and on
c * U(1, 2) at the edges of the engine's table lane widths.  The matroid form of a graphic matroid must equal
networkx's deletion-contraction Tutte polynomial of the graph.
"""

from __future__ import annotations

from random import Random

import pytest

from polytutte import core, recursion
from polytutte.activity import direct_polynomials, exterior_direct, interior_direct, tutte_direct
from polytutte.bipoly import from_dict
from polytutte.core import RankTable, count_bases, enumerate_bases
from polytutte.errors import SizeLimitExceeded
from polytutte.formulas import binomial, random_rank_table
from polytutte.hypergraph import random_hypergraph, rank_table
from polytutte.recursion import (
    clear_caches,
    exterior_dc,
    graphic_matroid,
    interior_dc,
    matroid_form,
    tutte_dc,
)

MAX_BASES = 3000


def _assert_routes_agree(table, p):
    clear_caches()
    assert tutte_dc(table) == tutte_direct(p)
    assert interior_dc(table) == interior_direct(p)
    assert exterior_dc(table) == exterior_direct(p)


def test_direct_equals_dc_on_random_tables():
    rng = Random(2024)
    largest = {}
    for n in range(6, 11):
        # every draw that fits the cap is checked, until one per n has at
        # least 300 bases; translated draws have negative coordinates
        while largest.get(n, 0) < 300:
            table = random_rank_table(rng, n, size_budget=10**7)
            try:
                p = enumerate_bases(table, MAX_BASES)
            except SizeLimitExceeded:
                continue
            _assert_routes_agree(table, p)
            largest[n] = max(largest.get(n, 0), len(p))
    assert max(largest.values()) > 1000


def test_direct_equals_dc_on_hypertrees():
    rng = Random(99)
    sizes = []
    while len(sizes) < 20:
        h = random_hypergraph(rng, max_vertices=7, max_edges=10)
        p = enumerate_bases(rank_table(h), MAX_BASES)
        _assert_routes_agree(p.rank_table(), p)
        sizes.append(len(p))
    assert max(sizes) > 100


def _scaled_rank_one(c, n):
    """c * U(1, n): f(S) = c for every nonempty S, the vectors of sum c."""
    return RankTable(n, [c if mask else 0 for mask in range(1 << n)])


def test_direct_equals_dc_on_five_times_u1_16(monkeypatch):
    # 15,504 bases on the full ground set; the root's coefficient bound
    # 3^16 * 6^16 has 67 bits, so the packed polynomials take 72-bit lanes
    widths = []
    real = recursion._unpack_poly
    monkeypatch.setattr(
        recursion, "_unpack_poly", lambda value, n, pl: widths.append(pl) or real(value, n, pl)
    )
    table = _scaled_rank_one(5, 16)
    clear_caches()
    polys = (tutte_dc(table), interior_dc(table), exterior_dc(table))
    assert widths == [72]  # one decode serves all three
    assert polys == direct_polynomials(enumerate_bases(table))
    assert [q.evaluate(1, 1) for q in polys] == [binomial(20, 15)] * 3


@pytest.mark.parametrize("c, size", [(127, 1), (128, 2), (32767, 2), (32768, 4)])
def test_direct_equals_dc_across_table_lane_widths(monkeypatch, c, size):
    # f(E) = c sits just below or just above the guard bit of 1-, 2- and
    # 4-byte table lanes, and every level between the ends takes a minimum;
    # the lane size is read where the engine receives it, as core._lanes
    # also serves rank_from_bases
    sizes = set()
    real = core._node

    def recording(packed, n, size, *rest):
        sizes.add(size)
        return real(packed, n, size, *rest)

    monkeypatch.setattr(core, "_node", recording)
    table = _scaled_rank_one(c, 2)
    _assert_routes_agree(table, enumerate_bases(table, 40000))
    assert sizes == {size}


@pytest.mark.parametrize("c", [1, 127, 128, 300, 32767, 40000])
def test_two_element_nodes_take_the_closed_form(c):
    # every child of c * U(1, 3) is c' * U(1, 2), whose T is
    # (x + y + c' - 1)(x + y - 1); at x = y = 1 the count is
    # sum over c' = 0..c of c' + 1
    table = _scaled_rank_one(c, 3)
    assert count_bases(table, 10 ** 12) == (c + 1) * (c + 2) // 2
    if c <= 300:
        _assert_routes_agree(table, enumerate_bases(table))


def _networkx_tutte(num_vertices, edges):
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    g = nx.MultiGraph()
    g.add_nodes_from(range(1, num_vertices + 1))
    g.add_edges_from(edges)
    x, y = sympy.symbols("x y")
    poly = sympy.Poly(nx.tutte_polynomial(g), x, y)
    return from_dict({(int(i), int(j)): int(c) for (i, j), c in poly.terms()})


def _graphs():
    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    c6 = [(i, i % 6 + 1) for i in range(1, 7)]
    # the Petersen graph induced on its outer 5-cycle and two inner vertices,
    # which are not adjacent to each other
    petersen7 = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7)]
    cases = [(4, k4), (6, c6), (7, petersen7), (2, [(1, 2), (1, 2), (2, 2)])]
    rng = Random(7)
    for _ in range(8):
        nv = rng.randint(2, 6)
        m = rng.randint(nv - 1, 10)
        cases.append((nv, [(rng.randint(1, nv), rng.randint(1, nv)) for _ in range(m)]))
    return cases


def test_matroid_form_equals_networkx_tutte():
    for num_vertices, edges in _graphs():
        expected = _networkx_tutte(num_vertices, edges)
        assert matroid_form(graphic_matroid(num_vertices, edges)) == expected
