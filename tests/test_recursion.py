"""Unit tests for the deletion-contraction recursion and the matroid bridge."""

from __future__ import annotations

import itertools
import math
from random import Random

import pytest

from polytutte.activity import direct_polynomials, exterior_direct, interior_direct, tutte_direct
from polytutte.bipoly import BiPoly, X, Y, parse
from polytutte.core import (
    Polymatroid,
    RankTable,
    enumerate_bases,
    enumerate_small_polymatroids,
    slice_rank,
)
from polytutte import core, recursion
from oracles import is_matroid_rank, spanning_forest_rank
from polytutte.errors import DegreeExceedsN, NotAMatroid, SubmodularityFailure, ValidationError
from polytutte.formulas import random_rank_table
from polytutte.hypergraph import Hypergraph, is_connected, rank_table
from polytutte.recursion import (
    classical_tutte,
    clear_caches,
    dc_polynomials,
    exterior_dc,
    graphic_matroid,
    interior_dc,
    matroid_form,
    tutte_dc,
    tutte_to_matroid_form,
    uniform_matroid,
)

U12 = Polymatroid([(1, 0), (0, 1)])
U13 = Polymatroid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
SCALED2 = Polymatroid([(2, 0), (1, 1), (0, 2)])


def small_corpus():
    out = []
    for n in (1, 2, 3):
        out.extend(enumerate_small_polymatroids(n, 2))
    return out


# -- the recursion itself -------------------------------------------------------


def test_dc_wide_interval():
    # either element has levels 0, 1, 2: x*(x+y-1) + y*(x+y-1) + (x+y-1)
    assert tutte_dc(SCALED2) == parse("x^2 + 2*x*y + y^2 - 1")


def test_dc_two_levels():
    got = tutte_dc(U13)
    assert got == parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3 - x^2 - 3*x*y - 2*y^2 + y")
    # by hand, pivoting on element 3: x * T(U12) + y * (x+y-1)^2
    xy1 = parse("x + y - 1")
    assert got == parse("x") * tutte_direct(U12) + parse("y") * xy1 * xy1


def test_dc_unique_basis():
    assert tutte_dc(Polymatroid([(3, 5)])) == parse("x + y - 1") ** 2


def test_dc_single_element():
    assert tutte_dc(Polymatroid([(9,)])) == parse("x + y - 1")


def test_dc_matches_direct_on_small_family():
    for p in small_corpus():
        assert tutte_dc(p) == tutte_direct(p)


# Level weights of the paper's formula F(P) = sum over j of w(j) * F(slice at
# j): (lowest level, highest level, levels between, a single level).
_ONE = BiPoly.one()
_LEVEL_WEIGHTS = {
    "T": (X, Y, _ONE, X + Y - _ONE),
    "I": (_ONE, X, X, _ONE),
    "X": (Y, _ONE, Y, _ONE),
}


def _slice_sum(p, t, kind, dc) -> BiPoly:
    """The formula at pivot t, summed here from the slices' polynomials."""
    lo, hi, mid, single = _LEVEL_WEIGHTS[kind]
    levels = p.slice_range(t)
    total = BiPoly()
    for j in levels:
        if len(levels) == 1:
            w = single
        elif j == levels[0]:
            w = lo
        elif j == levels[-1]:
            w = hi
        else:
            w = mid
        total = total + w * dc(slice_rank(p.rank_table(), t, j))
    return total


def test_pivot_independence():
    # the formula holds at every pivot, for T, I and X; the engine always
    # pivots on the top coordinate, so this sums it at every other one too
    cases = [
        U13,
        SCALED2,
        Polymatroid(
            [(2, 1, 0), (1, 2, 0), (2, 0, 1), (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2)]
        ),
        Polymatroid([(3, 5), (4, 4)]).translate((-6, 1)),
    ]
    cases.extend(p for p in small_corpus()[::100] if p.n >= 2)
    for p in cases:
        for kind, dc, direct in zip("TIX", (tutte_dc, interior_dc, exterior_dc), direct_polynomials(p)):
            for t in range(1, p.n + 1):
                assert _slice_sum(p, t, kind, dc) == direct, (kind, t, p)


def test_interior_exterior_dc():
    assert interior_dc(U13) == parse("2*x + 1")
    assert exterior_dc(SCALED2) == parse("2*y + 1")
    single = Polymatroid([(4,)])
    assert interior_dc(single) == parse("1")
    assert exterior_dc(single) == parse("1")


def test_one_var_dc_matches_direct_on_small_family():
    for p in small_corpus():
        assert interior_dc(p) == interior_direct(p)
        assert exterior_dc(p) == exterior_direct(p)


def test_unprojected_slice_differs_by_one_factor():
    # keeping the pinned coordinate multiplies the polynomial by (x+y-1)
    xy1 = parse("x + y - 1")
    for p in (U13, SCALED2):
        for t in range(1, p.n + 1):
            for j in p.slice_range(t):
                pinned = Polymatroid(
                    [v for v in p.bases if v[t - 1] == j], validate=False
                )
                assert tutte_direct(pinned) == xy1 * tutte_direct(p.slice(t, j))


def test_dc_refuses_tables_no_polymatroid_has():
    # f({1}) + f({2}) < f(E), a raised f({1, 2}) = 3 in U(2, 4), a
    # one-element table with f(empty) != 0, and 3 * U(1, 2) with a loop 3
    # whose f({2, 3}) is raised to 4; U(2, 4) with f({4}) lowered to 0
    # breaks no invariant the nodes read, so only the validation at the
    # engine's entry refuses it, with validate()'s masks
    bumped = list(uniform_matroid(2, 4).f)
    bumped[3] += 1
    lowered = list(uniform_matroid(2, 4).f)
    lowered[8] = 0
    for bad in (
        RankTable(2, [0, 1, 1, 3], validate=False),
        RankTable(4, bumped, validate=False),
        RankTable(1, [1, 1], validate=False),
        RankTable(1, [2, 1], validate=False),
        RankTable(3, [0, 3, 3, 3, 0, 3, 4, 3], validate=False),
    ):
        for dc in (tutte_dc, interior_dc, exterior_dc):
            with pytest.raises(ValidationError):
                dc(bad)
    for run in (dc_polynomials, lambda t: core.count_bases(t, 100)):
        with pytest.raises(SubmodularityFailure) as e:
            run(RankTable(4, lowered, validate=False))
        assert (e.value.i_mask, e.value.j_mask) == (1, 8)


def _refusal(run, *args):
    try:
        run(*args)
    except ValidationError as exc:
        return type(exc), getattr(exc, "i_mask", None), getattr(exc, "j_mask", None)
    return None


def test_the_engine_refuses_exactly_what_validate_refuses():
    # every one-mask +-1 perturbation of U(d, n), n = 3..5: a table that
    # validate() refuses makes dc and the count raise its class with its
    # masks, and one that it accepts gets the direct route's T and count
    refused = 0
    for n in range(3, 6):
        for d in range(1, n):
            for m in range(1 << n):
                for step in (1, -1):
                    f = list(uniform_matroid(d, n).f)
                    f[m] += step
                    expected = _refusal(RankTable, n, f)
                    table = RankTable(n, f, validate=False)
                    if expected:
                        refused += 1
                        assert _refusal(dc_polynomials, table) == expected, f
                        assert _refusal(core.count_bases, table, 10 ** 6) == expected, f
                    else:
                        p = enumerate_bases(table)
                        assert dc_polynomials(table) == direct_polynomials(p), f
                        assert core.count_bases(table, 10 ** 6) == len(p), f
    assert 0 < refused < 384


def test_an_unvalidated_table_is_validated_once(monkeypatch):
    # validate() marks the table it passes, so one count and two cold dc
    # calls on a table built with validate=False check it once
    calls = []
    real = RankTable.validate
    monkeypatch.setattr(RankTable, "validate", lambda self: calls.append(self) or real(self))
    table = RankTable(4, uniform_matroid(2, 4).f, validate=False)
    assert core.count_bases(table, 100) == 6
    for _ in range(2):
        clear_caches()
        assert tutte_dc(table).evaluate(1, 1) == 6
    assert calls == [table]


def test_decode_is_exact_up_to_the_lane_bound():
    # a packed coefficient decodes exactly while its absolute value is below
    # 2^(PL - 1), the bound every root's lane width is chosen for; x^i y^j
    # sits in lane i * (n + 1) + j, and I and X collect the coefficients by
    # n - i and n - j
    for pl in (8, 16, 56, 72):
        edge = (1 << (pl - 1)) - 1
        terms = {(2, 0): edge, (1, 1): -edge, (1, 0): -edge, (0, 2): 1, (0, 0): -1}
        value = sum(c << (i * 3 + j) * pl for (i, j), c in terms.items())
        interior = BiPoly({(0, 0): edge, (1, 0): -2 * edge})
        exterior = BiPoly({(0, 2): -1, (0, 1): -edge, (0, 0): 1})
        assert recursion._unpack_poly(value, 2, pl) == (BiPoly(terms), interior, exterior)


def _dual_table(table: RankTable) -> RankTable:
    """f*(S) = f(E - S) - f(E), the table of the negated bases."""
    top = table.f[-1]
    return RankTable(table.n, [v - top for v in reversed(table.f)])


def test_swapped_shifts_evaluate_t_with_x_and_y_exchanged(monkeypatch):
    # the engine evaluates T at x = 2^xs, y = 2^ys, so the shifts that
    # dc_polynomials picks, swapped, decode to T(y, x), the Tutte
    # polynomial of the dual; the shifts are (n + 1) PL and PL, with PL the
    # smallest multiple of 8 above the bit length of the coefficient bound
    shifts = []
    real = core._engine
    monkeypatch.setattr(
        recursion, "_engine", lambda table, *args: shifts.append(args) or real(table, *args)
    )
    tables = [p.rank_table() for p in small_corpus()]
    tables += [
        random_rank_table(Random(n), n, size_budget=10**7, allow_translation=False)
        for n in range(8, 13)
    ]
    for table in tables:
        clear_caches()
        t = tutte_dc(table)
        (xs, ys, cap), = shifts
        key = core._normalized(table.f, table.n)
        bound = 3 ** table.n * math.prod(key[1 << t] + 1 for t in range(table.n))
        assert xs == (table.n + 1) * ys and ys % 8 == 0
        assert ys - 8 <= bound.bit_length() < ys
        swapped = recursion._unpack_poly(real(table, ys, xs, cap), table.n, ys)[0]
        assert swapped == t.swap_vars() == tutte_dc(_dual_table(table))
        shifts.clear()


def test_the_engine_at_zero_shifts_counts_the_bases():
    # x = y = 1: T(1, 1) of U(d, n) is its number of bases, C(n, d)
    for n in range(1, 17):
        for d in range(n + 1):
            assert core._engine(uniform_matroid(d, n), 0, 0, math.inf) == math.comb(n, d)


def test_table_lanes_follow_the_rank_from_bases_layout():
    # lane S at bit 8 * size * S; lanes over 8 bytes have no struct and are
    # joined byte by byte
    key = (0, 3, 5, 7)
    for size, big in ((1, 100), (2, 30000), (4, 1 << 30), (8, 1 << 62), (16, 1 << 70)):
        lanes = key[:3] + (big,)
        packed = core._pack_table(lanes, 2, size)
        assert packed == sum(v << 8 * size * m for m, v in enumerate(lanes))


# -- memoization ------------------------------------------------------------------


def _with_wide_pair(table: RankTable) -> RankTable:
    """The direct sum of ``table`` and 200 * U(1, 2) on two new top elements:
    its f(E) needs 2-byte lanes, and below its top levels the engine meets
    ``table`` again, now in 2-byte lanes."""
    n = table.n
    low = (1 << n) - 1
    return RankTable(
        n + 2, [table.f[mask & low] + (200 if mask >> n else 0) for mask in range(1 << (n + 2))]
    )


def test_one_cache_holds_tables_of_two_lane_widths():
    narrow = [p.rank_table() for p in small_corpus() if p.n == 3][::25]
    tables = narrow + [_with_wide_pair(t) for t in narrow]
    dcs = (tutte_dc, interior_dc, exterior_dc)
    expected = []
    for table in tables:
        clear_caches()
        expected.append([dc(table) for dc in dcs])
    for order in (range(len(tables)), reversed(range(len(tables)))):
        clear_caches()
        got = {k: [dc(tables[k]) for dc in dcs] for k in order}
        assert [got[k] for k in range(len(tables))] == expected
    # the direct sum multiplies T by T(200 * U(1, 2)) = (x + y + 199)(x + y - 1)
    pair = parse("x + y + 199") * parse("x + y - 1")
    for table, (t, _, _) in zip(narrow, expected):
        assert t * pair == expected[tables.index(_with_wide_pair(table))][0]


def test_memo_key_translation_invariant():
    p = Polymatroid([(2, 3), (1, 4)])
    q = p.translate((-1, -3))
    assert core._normalized(p.rank_table().f, 2) == core._normalized(q.rank_table().f, 2)


def test_memo_key_ignores_basis_input_order():
    r = Polymatroid([(2, 0), (1, 1), (0, 2)])
    s = Polymatroid([(0, 2), (1, 1), (2, 0)])
    assert core._normalized(r.rank_table().f, 2) == core._normalized(s.rank_table().f, 2)


def test_translated_polymatroids_share_cache():
    clear_caches()
    p = Polymatroid([(1, 0, 2), (0, 1, 2), (1, 1, 1)])
    t1 = tutte_dc(p)
    size_after_first = len(recursion._cache)
    assert size_after_first > 0
    t2 = tutte_dc(p.translate((7, -2, 0)))
    assert t1 == t2
    assert len(recursion._cache) == size_after_first


def test_one_run_serves_all_three_polynomials():
    clear_caches()
    p = Polymatroid([(1, 0, 2), (0, 1, 2), (1, 1, 1)])
    t = tutte_dc(p)
    filled = len(recursion._cache)
    assert (t, interior_dc(p), exterior_dc(p)) == dc_polynomials(p)
    assert len(recursion._cache) == filled


def test_decoded_interior_and_exterior_are_reversals_of_t():
    # I(x) = x^n T(1/x, 1) and X(y) = y^n T(1, 1/y), in 1- and 2-byte lanes
    narrow = [p.rank_table() for p in small_corpus()]
    for table in narrow + [_with_wide_pair(t) for t in narrow[::10]]:
        t, interior, exterior = dc_polynomials(table)
        assert interior == t.substitute_one("y").reversed_in("x", table.n)
        assert exterior == t.substitute_one("x").reversed_in("y", table.n)


def _wide_transpose(n: int, edges: int, seed: int) -> RankTable:
    """The rank table of the transpose of a random connected hypergraph on
    n vertices, each vertex in each of ``edges`` hyperedges with
    probability 0.4, redrawn until every hyperedge is nonempty, every vertex
    covered and the hypergraph connected: the ground set is the n vertices,
    and the engine's nodes are wide."""
    rng = Random(seed)
    while True:
        rows = [[v for v in range(n) if rng.random() < 0.4] for _ in range(edges)]
        if all(rows) and set().union(*rows) == set(range(n)):
            h = Hypergraph(range(n), rows)
            if is_connected(h):
                break
    return rank_table(Hypergraph(range(edges), [[k for k, row in enumerate(rows) if v in row] for v in range(n)]))


def _one_variable_cases() -> list[RankTable]:
    """The small corpus, random_rank_table(Random(n), n) for n = 8..12,
    and two seeded wide transposes with n = 12 (their interior polynomials
    have coefficients of 9 and 20 bits, in lanes of 16 and 32)."""
    tables = [p.rank_table() for p in small_corpus()]
    tables += [random_rank_table(Random(n), n, size_budget=10**7) for n in range(8, 13)]
    tables += [_wide_transpose(12, edges, 1) for edges in (8, 16)]
    return tables


def test_one_variable_runs_equal_the_decode_of_t():
    # interior_dc runs the engine at y = 1 and exterior_dc at x = 1; both
    # must give what dc_polynomials reads off the two-variable T
    for table in _one_variable_cases():
        clear_caches()
        _, interior, exterior = dc_polynomials(table)
        assert interior_dc(table) == interior, table
        assert exterior_dc(table) == exterior, table


def test_one_variable_runs_leave_the_root_memo_alone():
    clear_caches()
    table = _wide_transpose(12, 8, 1)
    interior, exterior = interior_dc(table), exterior_dc(table)
    assert recursion._cache == {}
    assert (interior, exterior) == dc_polynomials(table)[1:]
    assert len(recursion._cache) == 1
    assert interior.evaluate(1, 1) == exterior.evaluate(1, 1) == len(enumerate_bases(table))


def test_a_full_root_memo_is_emptied_before_a_store(monkeypatch):
    # the budget counts table values, 2^n per root: 16 holds two roots on
    # three elements, and a third root on four elements empties it
    monkeypatch.setattr(recursion, "MEMO_BUDGET", 16)
    clear_caches()
    first = tutte_dc(uniform_matroid(1, 3))
    tutte_dc(uniform_matroid(2, 3))
    assert len(recursion._cache) == 2
    third = uniform_matroid(1, 4)
    tutte_dc(third)
    assert list(recursion._cache) == [core._normalized(third.f, 4)]
    # an emptied root is recomputed, exactly, and 16 + 8 values empty it again
    assert tutte_dc(uniform_matroid(1, 3)) == first
    assert len(recursion._cache) == 1
    # a root on 16 elements holds 2^16 values: two fill a budget of 2^17,
    # and a root on three elements then empties it
    monkeypatch.setattr(recursion, "MEMO_BUDGET", 1 << 17)
    clear_caches()
    wide = [uniform_matroid(1, 16), uniform_matroid(15, 16)]
    for table in wide:
        tutte_dc(table)
    assert list(recursion._cache) == [core._normalized(t.f, 16) for t in wide]
    tutte_dc(uniform_matroid(1, 3))
    assert len(recursion._cache) == 1


# -- the node kernel against the list route -----------------------------------------

K4 = graphic_matroid(4, list(itertools.combinations(range(1, 5), 2)))


def _rank_files_table() -> RankTable:
    """The first n = 10 draw of ``random_rank_table`` from Random(1) at the
    settings of the benchmark's rank-files inputs: 3,820 bases."""
    table = random_rank_table(
        Random(1), 10, size_budget=10**7, max_weight=3, max_universe=6, allow_translation=False
    )
    assert len(enumerate_bases(table)) == 3820
    return table


def _unpack_table(packed: int, size: int) -> tuple[tuple[int, ...], int]:
    """A packed nonzero normalized table as (values, n): its top lane, f(E),
    is nonzero, so its bit length fixes the number of lanes."""
    bits = 8 * size
    count = -(-packed.bit_length() // bits)
    n = count.bit_length() - 1
    assert count == 1 << n
    return tuple(packed >> bits * mask & (1 << bits) - 1 for mask in range(count)), n


def _list_children(f: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The normalized slices of f at t = n, level by level, by the list route;
    f is normalized, so the levels are 0..f({n})."""
    return [
        recursion._normalized(core._slice_table(f, n, n, j), n - 1)
        for j in range(f[1 << (n - 1)] + 1)
    ]


def _node_calls(monkeypatch, table: RankTable) -> list[int]:
    """The packed tables that ``core._node`` receives during one
    ``dc_polynomials(table)``, in call order, the root first: the root is
    called from ``core._engine`` and every child from ``_node`` itself,
    both through ``core``'s module global."""
    calls = []
    node = core._node

    def recording(packed, *args):
        calls.append(packed)
        return node(packed, *args)

    with monkeypatch.context() as patch:
        patch.setattr(core, "_node", recording)
        dc_polynomials(table)
    return calls


def test_node_children_match_the_list_route(monkeypatch):
    # every table the engine computes below the root is a slice of the root
    # or of another computed table, built by the list route, and every such
    # slice that is nonzero with two or more elements is computed once: the
    # in-place gamma read and the skipped normalization give the list
    # route's children exactly
    narrow = [p.rank_table() for p in small_corpus()]
    tables = narrow + [_with_wide_pair(t) for t in narrow[::10]]
    tables += [uniform_matroid(4, 8), K4]
    sizes = set()
    for table in tables:
        key = core._normalized(table.f, table.n)
        size = core._lane_size(key[-1].bit_length() + 1)
        clear_caches()
        nodes = _node_calls(monkeypatch, table)
        if not any(key):  # a single basis: no node at all
            assert nodes == []
            continue
        assert nodes.pop(0) == core._pack_table(key, table.n, size)
        assert len(set(nodes)) == len(nodes)
        parents = [(key, table.n)] + [_unpack_table(packed, size) for packed in nodes]
        expected = {
            core._pack_table(child, n - 1, size)
            for f, n in parents
            for child in _list_children(f, n)
            if n > 2 and any(child)
        }
        assert set(nodes) == expected, table
        sizes.add(size)
    assert sizes == {1, 2}


def test_masked_compare_finds_exactly_the_nodes_with_a_positive_gamma(monkeypatch):
    # on every node of seeded tables, _node's one masked compare says some
    # gamma_s = f(E - t) - f(E - t - s) is not 0 exactly when the lane by
    # lane scan finds a positive one
    tables = [random_rank_table(Random(n), n, size_budget=10**7) for n in range(8, 12)]
    tables += [_rank_files_table(), _wide_transpose(12, 8, 1)]
    tables += [_with_wide_pair(p.rank_table()) for p in small_corpus()[::10]]
    calls = []
    node = core._node

    def recording(packed, n, size, *args):
        calls.append((packed, n, size))
        return node(packed, n, size, *args)

    for table in tables:
        clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(core, "_node", recording)
            dc_polynomials(table)
    outcomes = []
    for packed, n, size in calls:
        m = n - 1
        bits = 8 * size
        lane = (1 << bits) - 1
        full = (1 << m) - 1
        without = packed & (1 << (bits << m)) - 1
        top = without >> bits * full
        scan = any(top - (without >> bits * (full ^ 1 << s) & lane) > 0 for s in range(m))
        mask, spread = core._gamma_lanes(m, size)
        assert (without & mask != top * spread) == scan, (packed, n, size)
        outcomes.append(scan)
    assert 0 < sum(outcomes) < len(outcomes)


NODE_COUNTS = {  # _node calls of one cold dc_polynomials, the root included
    "U(4,8)": 16,
    "K4": 12,
    "rank-files": 77,
}


def test_memo_lookups_are_pinned(monkeypatch):
    # each node is computed once per call, so a change in the set of nodes,
    # or a node computed twice, moves these counts; the shared cache keeps
    # the root alone
    tables = {"U(4,8)": uniform_matroid(4, 8), "K4": K4, "rank-files": _rank_files_table()}
    for name, table in tables.items():
        clear_caches()
        assert len(_node_calls(monkeypatch, table)) == NODE_COUNTS[name], name
        assert len(recursion._cache) == 1


def test_nodes_are_memoized_per_call(monkeypatch):
    # U(4,8) is a slice of a slice of U(5,10), in the same lane widths, yet
    # a call after U(5,10) computes all its nodes again
    clear_caches()
    dc_polynomials(uniform_matroid(5, 10))
    assert len(_node_calls(monkeypatch, uniform_matroid(4, 8))) == NODE_COUNTS["U(4,8)"]
    assert len(recursion._cache) == 2


def test_shared_cache_is_thread_safe_and_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    clear_caches()
    inputs = [p for p in small_corpus() if p.n >= 2][::17]
    expected = [tutte_direct(p) for p in inputs]

    def work(_):
        return [tutte_dc(p) for p in inputs]

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(work, range(8)))
    for got in outcomes:
        assert got == expected


# -- classical Tutte oracle ---------------------------------------------------------


def test_classical_tutte_uniform_rank_one():
    assert classical_tutte(uniform_matroid(1, 2)) == parse("x + y")
    # corank-nullity over the 8 subsets of a 3-set, rank min(|S|, 1)
    assert classical_tutte(uniform_matroid(1, 3)) == parse("x + y + y^2")
    assert classical_tutte(uniform_matroid(2, 3)) == parse("x^2 + x + y")


def test_classical_tutte_free_matroid():
    for n in (1, 2, 3, 4):
        free = uniform_matroid(n, n)
        assert classical_tutte(free) == parse("x") ** n


def test_classical_tutte_rejects_non_matroid():
    # a gain of 2 at element 1 or 2, and a submodular table whose f drops
    # from f({2}) = 1 to f(E) = 0 (a gain of -1 at element 1)
    for f, element in (([0, 2, 2, 2], 1), ([0, 1, 2, 2], 2), ([0, 1, 1, 0], 1)):
        with pytest.raises(NotAMatroid, match=f"element {element}$"):
            classical_tutte(RankTable(2, f, validate=False))


def test_matroid_rank_check_matches_every_gain():
    # the per-element check against every gain, on all tables with n <= 2
    # and values -1..2, and all with n = 3 and values 0..2
    families = [(n, range(-1, 3)) for n in (1, 2)] + [(3, range(3))]
    accepted = 0
    for n, values in families:
        for rest in itertools.product(values, repeat=(1 << n) - 1):
            f = (0, *rest)
            try:
                recursion.validate_matroid_rank(RankTable(n, f, validate=False))
                ok = True
            except NotAMatroid:
                ok = False
            assert ok == is_matroid_rank(f, n), f
            accepted += ok
    assert accepted > 10


def test_graphic_matroid_triangle():
    # 3-cycle: T = x^2 + x + y
    tri = graphic_matroid(3, [(1, 2), (2, 3), (3, 1)])
    assert classical_tutte(tri) == parse("x^2 + x + y")


def test_graphic_matroid_matches_spanning_forests():
    # seeded multigraphs with loops and parallel edges, every edge subset
    rng = Random(5)
    for _ in range(60):
        nv = rng.randint(1, 7)
        edges = [(rng.randint(1, nv), rng.randint(1, nv)) for _ in range(rng.randint(1, 8))]
        assert graphic_matroid(nv, edges).f == spanning_forest_rank(nv, edges)


def test_graphic_matroid_refuses_vertices_out_of_range():
    with pytest.raises(ValidationError, match=r"edge \(1, 4\) outside vertex range"):
        graphic_matroid(3, [(1, 2), (1, 4)])


def test_graphic_matroid_loop_and_bridge():
    # one bridge and one loop: T = x*y
    g = graphic_matroid(2, [(1, 2), (2, 2)])
    assert classical_tutte(g) == parse("x*y")


# -- matroid form bridge ---------------------------------------------------------------


def test_matroid_form_pair():
    assert matroid_form(U12) == parse("x + y")


def test_matroid_form_coloop():
    assert matroid_form(Polymatroid([(1,)]), 1) == parse("x")


def test_matroid_form_default_rank():
    assert matroid_form(SCALED2) == matroid_form(SCALED2, 2)


def test_matroid_form_matches_classical_small():
    cases = [uniform_matroid(d, n) for n in range(1, 5) for d in range(n + 1)]
    cases.append(graphic_matroid(3, [(1, 2), (2, 3), (3, 1)]))
    cases.append(graphic_matroid(2, [(1, 2), (1, 2), (1, 2)]))
    for m in cases:
        p = enumerate_bases(m)
        d = m.full_rank()
        assert matroid_form(p, d) == classical_tutte(m)


def test_matroid_form_degree_guard():
    with pytest.raises(DegreeExceedsN):
        tutte_to_matroid_form(parse("x^3"), 2, 1)


# -- reference values for the non-monotone example ----------------------------------------


T_BIG = parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3 + 2*x^2 + 3*x*y + y^2 - x - 2")
T_SUB = parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3 - 2*x^2 - 4*x*y - 2*y^2 + x + y")
T_MINOR = parse("x^2 + 2*x*y + y^2 - x - y")


def test_reference_difference_identity():
    assert T_BIG - T_SUB == parse("4*x^2 + 7*x*y + 3*y^2 - 2*x - y - 2")


def test_matroid_form_of_reference_polynomials():
    # with shared parameters n=3, d=4 the transformed difference is
    # x*y^-4 * (2x^3y^3 - 8x^3y^2 - 7x^2y^3 + 11x^2y^2 + 6x^3y + 5xy^3)
    big = tutte_to_matroid_form(T_BIG, 3, 4)
    sub = tutte_to_matroid_form(T_SUB, 3, 4)
    expected = parse(
        "2*x^3*y^3 - 8*x^3*y^2 - 7*x^2*y^3 + 11*x^2*y^2 + 6*x^3*y + 5*x*y^3"
    ).shift(1, -4)
    assert big - sub == expected
    assert big.coeff(4, -2) == -7
    assert sub.coeff(4, -2) - big.coeff(4, -2) == 8


def test_matroid_form_of_two_element_minor():
    small = tutte_to_matroid_form(T_MINOR, 2, 4)
    xyxy = parse("x + y - x*y")
    expected = (parse("x^2 + 2*x*y + y^2") - parse("x + y") * xyxy).shift(2, -4)
    assert small == expected
    assert small.coeff(4, -2) == 0
    # the minor's transform exceeds the large polymatroid's at (3, -1)
    big = tutte_to_matroid_form(T_BIG, 3, 4)
    assert small.coeff(3, -1) > big.coeff(3, -1)
