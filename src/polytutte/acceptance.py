"""Verification harness: the nine acceptance criteria.

Each criterion is an exact, decidable check over a deterministic corpus:
an exhaustive family of small polymatroids, seeded random polymatroids
(n <= 5), seeded random hypergraphs, uniform and graphic matroids.  The
corpus and all randomized draws are fully determined by one seed, so runs
are byte-for-byte reproducible.

Criteria (all exact integer identities, no tolerances):

  1 method-equivalence      activity enumeration == slice recursion for T;
                            activity counts == I = x^n T(1/x, 1) and
                            X = y^n T(1, 1/y) read off the recursion's T
  2 coefficient-formulas    every closed-form coefficient identity matches
                            the extracted coefficients
  3 invariances             translation (through the translate's rank
                            table: the direct route keys bases relative to
                            each coordinate's minimum, so it cannot see a
                            translation), permutation (each order read off
                            one transfer relation, the first also through
                            a permuted copy), duality swap, divisibility
                            by x+y-1, basis count at (1,1), reversal
                            identities
  4 matroid-bridge          matroid-form transform == classical corank-
                            nullity Tutte polynomial on uniform and graphic
                            matroids
  5 monotonicity            coefficientwise interior/exterior inequalities
                            for subset pairs, minors, incidence subgraphs
  6 tutte-non-monotonicity  exhaustive search recovers the printed reference
                            polynomials and exhibits a strict coefficient
                            increase for a subset pair
  7 connectivity            profile == exterior ceiling prefix; uniform
                            binomial sequences; ceiling bound; rank-fullness
                            equivalence (full-rank prefix == ceiling
                            prefix); positivity of covered coefficients
  8 structure-oracles       slice ranks vs brute force, minor commutation,
                            duality exchange; then, for all bases at once
                            in byte lanes, tight sets (from the table)
                            against the transfer relation (from basis
                            membership): tight-set lattice, activity
                            characterization, exchange-step existence
  9 four-cycle-count        second interior coefficient from incidence
                            counts and 4-cycles

``run_all`` executes everything and reports one result per criterion; the
CLI ``suite`` command and tests/test_acceptance.py both drive it.  The CLI
``check`` command runs the criterion-3 checker on one input, and
``monotone`` criterion 5's, ``formulas.monotonicity_reports``.
"""

from __future__ import annotations

import itertools
import time
import traceback
from functools import cache, lru_cache
from random import Random
from typing import Callable, NamedTuple, Sequence

from .activity import TransferRelation, direct_polynomials, tight_sets, tutte_direct
from .bipoly import BiPoly, parse
from .core import (
    Polymatroid,
    RankTable,
    Vector,
    _mask_of,
    enumerate_bases,
    enumerate_small_polymatroids,
    rank_from_bases,
    slice_rank,
)
from .errors import SizeLimitExceeded, ValidationError
from .formulas import (
    binomial,
    ceiling_prefix,
    coefficient_report,
    full_rank_prefix,
    monotonicity_reports,
    near_top_univariate,
    random_minor_args,
    random_rank_table,
    random_subpolymatroid,
    search_by_tutte,
)
from .hypergraph import (
    Hypergraph,
    connectivity_profile,
    count_four_cycles,
    edge_degree,
    forest_size,
    is_connected,
    random_hypergraph,
    random_incidence_subgraph,
    rank_table,
)
from .recursion import (
    classical_tutte,
    dc_polynomials,
    exterior_dc,
    graphic_matroid,
    interior_dc,
    matroid_form,
    tutte_dc,
    uniform_matroid,
)

DEFAULT_SEED = 20250809

# Printed reference values for the known failure of two-variable
# coefficientwise monotonicity; realizations are recovered by search.
COUNTEREXAMPLE_TARGETS = {
    "eleven-basis": parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3 + 2*x^2 + 3*x*y + y^2 - x - 2"),
    "two-basis": parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3 - 2*x^2 - 4*x*y - 2*y^2 + x + y"),
    "minor": parse("x^2 + 2*x*y + y^2 - x - y"),
}


class CriterionResult(NamedTuple):
    ident: str
    label: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.ident} {self.label}: {self.details} ({self.elapsed:.1f}s)"

    def to_json(self) -> dict:
        return {
            "id": self.ident,
            "label": self.label,
            "passed": self.passed,
            "details": self.details,
            "elapsed": round(self.elapsed, 3),
        }


class Corpus(NamedTuple):
    """Shared deterministic test corpus, built once per seed.

    It holds inputs only, each hypergraph with its rank table, built once;
    the criteria read polynomials from ``dc_polynomials`` and ``tutte_dc``,
    whose memo keeps them, and from ``interior_dc`` and ``exterior_dc``,
    which run the engine at one variable on every call.
    """

    seed: int
    exhaustive: list[Polymatroid]
    randoms: list[Polymatroid]
    hypergraphs: list[Hypergraph]         # connected incidence graphs
    hypergraphs_any: list[Hypergraph]     # no connectivity constraint
    tables: dict[Hypergraph, RankTable]   # of both hypergraph lists

    def members(self) -> list[Polymatroid]:
        return self.exhaustive + self.randoms


_CORPUS_CACHE: dict[int, Corpus] = {}

EXHAUSTIVE_MAX_N = 3
EXHAUSTIVE_MAX_RANK = 3
RANDOM_POLYMATROIDS = 200
RANDOM_MAX_N = 5
CONNECTED_HYPERGRAPHS = 120
UNCONSTRAINED_HYPERGRAPHS = 30


def build_corpus(seed: int = DEFAULT_SEED) -> Corpus:
    cached = _CORPUS_CACHE.get(seed)
    if cached is not None:
        return cached
    exhaustive: list[Polymatroid] = []
    for n in range(1, EXHAUSTIVE_MAX_N + 1):
        exhaustive.extend(enumerate_small_polymatroids(n, EXHAUSTIVE_MAX_RANK))
    rng = Random(seed)
    randoms = []
    for i in range(RANDOM_POLYMATROIDS):
        n = (i % RANDOM_MAX_N) + 1
        randoms.append(enumerate_bases(random_rank_table(rng, n)))
    rng_h = Random(seed + 1)
    hypergraphs = [
        random_hypergraph(rng_h, 5, 5, connected=True)
        for _ in range(CONNECTED_HYPERGRAPHS)
    ]
    rng_a = Random(seed + 2)
    hypergraphs_any = [
        random_hypergraph(rng_a, 5, 5, connected=False)
        for _ in range(UNCONSTRAINED_HYPERGRAPHS)
    ]
    tables = {h: rank_table(h) for h in dict.fromkeys(hypergraphs + hypergraphs_any)}
    corpus = Corpus(seed, exhaustive, randoms, hypergraphs, hypergraphs_any, tables)
    _CORPUS_CACHE[seed] = corpus
    return corpus


# -- criterion 1: method equivalence ------------------------------------------------


def check_method_equivalence(corpus: Corpus, rng: Random) -> str:
    checked = 0
    for p in corpus.members():
        # the direct route counts activities; the dc route reads I and X off T
        pairs = zip(("tutte", "interior", "exterior"), direct_polynomials(p), dc_polynomials(p))
        for name, direct, dc in pairs:
            if direct != dc:
                raise AssertionError(f"{name} mismatch on {p}")
        checked += 1
    return (
        f"{checked} polymatroids ({len(corpus.exhaustive)} exhaustive n<="
        f"{EXHAUSTIVE_MAX_N}, {len(corpus.randoms)} random n<={RANDOM_MAX_N}), "
        "three polynomials each, exact"
    )


# -- criterion 2: coefficient formulas ------------------------------------------------


def check_coefficient_formulas(corpus: Corpus, rng: Random) -> str:
    rows = 0
    for p in corpus.members():
        report = coefficient_report(p, tutte_dc(p))
        for row in report:
            if not row.match:
                raise AssertionError(
                    f"{row.formula} on {p}: predicted {row.predicted}, "
                    f"extracted {row.extracted}"
                )
            rows += 1
        # the band formula at k=1 and k=n, as the report evaluated it from
        # its one pass of subset-size sums, collapses to the singleton and
        # co-singleton expressions
        band = {row.formula: row.predicted for row in report}
        xn1, yn1 = near_top_univariate(p.rank_table())
        if band[f"near-top[x^{p.n - 1}y^0]"] != xn1 - p.n:
            raise AssertionError(f"band formula at k=1 deviates on {p}")
        if band[f"near-top[x^0y^{p.n - 1}]"] != yn1 - p.n:
            raise AssertionError(f"band formula at k=n deviates on {p}")
        rows += 2
    return f"{rows} formula instances, zero mismatches"


# -- criterion 3: invariances -----------------------------------------------------------


INVARIANCES = ("translation", "permutation", "duality", "divisibility", "count", "reversal")


def invariance_violations(
    p: Polymatroid,
    polys: tuple[BiPoly, BiPoly, BiPoly],
    rng: Random,
    properties: Sequence[str] = INVARIANCES,
) -> dict[str, str]:
    """Check the named invariances of p, given its (T, I, X).

    Translation and permutation each draw five instances from rng, in the
    order the properties are listed; a permutation drawn twice is checked
    once.  A translate is compared through the table it carries
    (``tutte_dc``), because the direct route cannot see a translation: it
    keys bases relative to each coordinate's minimum.  The memo key is
    normalized the same way, so the first translate's table must also
    enumerate to exactly its bases, the one table that does.  Every drawn
    order is read off one ``TransferRelation`` of p, and the first is also
    run through ``tutte_direct(p.permute(w))``, which re-keys a permuted
    copy.  Duality covers T and both the interior and exterior polynomials.
    Reversal compares I and X with T's reversals: ``check`` passes the
    one-variable runs ``interior_dc`` and ``exterior_dc``, so it compares
    two engine runs, and on the output of ``dc_polynomials`` (criterion 3)
    it checks the decode that reads I and X off T.
    Returns each violated property with its witness ("" for the properties
    that have none).
    """
    t, interior, exterior = polys
    n = p.n
    violated: dict[str, str] = {}
    for prop in properties:
        witness = ""
        if prop == "translation":
            for draw in range(5):
                c = tuple(rng.randint(-3, 3) for _ in range(n))
                q = p.translate(c)
                try:
                    kept = tutte_dc(q) == t and (
                        draw or enumerate_bases(q.rank_table(), len(q)).bases == q.bases
                    )
                except (ValidationError, SizeLimitExceeded):  # no polymatroid's, or not q's
                    kept = False
                if not kept:
                    witness = f"c={c}"
                    break
            ok = not witness
        elif prop == "permutation":
            relation = TransferRelation(p)
            tried = set()
            for _ in range(5):
                w = tuple(rng.sample(range(1, n + 1), n))
                if w in tried:
                    continue
                first = not tried
                tried.add(w)
                if relation.tutte([k - 1 for k in w]) != t or (
                    first and tutte_direct(p.permute(w)) != t
                ):
                    witness = f"w={w}"
                    break
            ok = not witness
        elif prop == "duality":
            dual_t, dual_interior, dual_exterior = direct_polynomials(p.dual())
            ok = (
                dual_t == t.swap_vars()
                and dual_interior == exterior.swap_vars()
                and dual_exterior == interior.swap_vars()
            )
        elif prop == "divisibility":
            ok = t.divisible_by_x_plus_y_minus_1()
        elif prop == "count":
            ok = t.evaluate(1, 1) == len(p)
        elif prop == "reversal":
            ok = (
                interior == t.substitute_one("y").reversed_in("x", n)
                and exterior == t.substitute_one("x").reversed_in("y", n)
            )
        else:
            raise ValueError(f"unknown invariance {prop!r}")
        if not ok:
            violated[prop] = witness
    return violated


def check_invariances(corpus: Corpus, rng: Random) -> str:
    checked = 0
    for p in corpus.members():
        violated = invariance_violations(p, dc_polynomials(p), rng)
        if violated:
            prop, witness = next(iter(violated.items()))
            raise AssertionError(f"{prop} invariance failed on {p} {witness}".rstrip())
        checked += 1
    return f"{checked} polymatroids x (5 translations, 5 permutations, duality, divisibility, count, reversals)"


# -- criterion 4: matroid bridge -----------------------------------------------------------


def connected_multigraphs() -> list[RankTable]:
    """Rank tables of all connected multigraphs with <= 4 edges, loops and
    parallel edges included, deduplicated by rank table."""
    seen: set[tuple[int, tuple[int, ...]]] = set()
    out: list[RankTable] = []
    for nv in range(1, 6):
        pairs = [(u, v) for u in range(1, nv + 1) for v in range(u, nv + 1)]
        for ne in range(1, 5):
            for edges in itertools.combinations_with_replacement(pairs, ne):
                if forest_size(nv + 1, edges) != nv - 1:
                    continue  # not connected
                table = graphic_matroid(nv, list(edges))
                key = (table.n, table.f)
                if key not in seen:
                    seen.add(key)
                    out.append(table)
    return out


def check_matroid_bridge(corpus: Corpus, rng: Random) -> str:
    uniforms = [uniform_matroid(d, n) for n in range(1, 7) for d in range(n + 1)]
    graphics = connected_multigraphs()
    for table in uniforms + graphics:
        if matroid_form(table) != classical_tutte(table):
            raise AssertionError(f"bridge mismatch for rank table {table}")
    return (
        f"{len(uniforms)} uniform matroids (n<=6) and {len(graphics)} graphic "
        "matroids (<=4 edges), exact Laurent equality"
    )


# -- criterion 5: monotonicity ----------------------------------------------------------------


def _require_monotone(small, big, failure: Callable[[tuple[int, int]], str]) -> None:
    """Raise AssertionError(failure(witness)) unless ``monotonicity_reports``
    holds for I and X; the message, which formats reprs, is built only then."""
    for rep in monotonicity_reports(small, big).values():
        if not rep.holds:
            raise AssertionError(failure(rep.witness))


def check_monotonicity(corpus: Corpus, rng: Random) -> str:
    subset_pairs = 0
    while subset_pairs < 100:
        n = rng.randint(2, RANDOM_MAX_N)
        p = enumerate_bases(random_rank_table(rng, n))
        sub = random_subpolymatroid(rng, p)
        _require_monotone(sub, p, lambda w: f"subset monotonicity failed at {w} for {sub} in {p}")
        subset_pairs += 1
    minors = 0
    while minors < 100:
        n = rng.randint(2, RANDOM_MAX_N)
        p = enumerate_bases(random_rank_table(rng, n))
        a, b = random_minor_args(rng, n)
        _require_monotone(
            p.minor(a, b),
            p,
            lambda w: f"minor monotonicity failed at {w}: delete {a}, contract {b} of {p}",
        )
        minors += 1
    subgraphs = 0
    idx = 0
    while subgraphs < 100:
        h = corpus.hypergraphs[idx % len(corpus.hypergraphs)]
        idx += 1
        sub_h = random_incidence_subgraph(rng, h)
        _require_monotone(
            rank_table(sub_h),
            corpus.tables[h],
            lambda w: f"incidence-subgraph monotonicity failed at {w} for {sub_h} inside {h}",
        )
        subgraphs += 1
    return f"{subset_pairs} subset pairs, {minors} minors, {subgraphs} incidence subgraphs, zero violations"


# -- criterion 6: two-variable non-monotonicity -----------------------------------------------


def check_non_monotonicity(corpus: Corpus, rng: Random) -> str:
    names = list(COUNTEREXAMPLE_TARGETS)
    targets = [COUNTEREXAMPLE_TARGETS[k] for k in names]
    found = dict(zip(names, search_by_tutte(targets, max_n=3, max_rank=4)))
    if not found["minor"]:
        raise AssertionError("search did not realize the two-element reference polynomial")
    big, small = COUNTEREXAMPLE_TARGETS["eleven-basis"], COUNTEREXAMPLE_TARGETS["two-basis"]
    for p in found["eleven-basis"]:
        if len(p) != 11:
            raise AssertionError("eleven-basis match with wrong basis count")
    for p in found["two-basis"]:
        if len(p) != 2:
            raise AssertionError("two-basis match with wrong basis count")
    if found["eleven-basis"] and found["two-basis"]:
        # the four strict coefficient increases printed for this pair/minor
        strict = [
            small.coeff(1, 0) > big.coeff(1, 0),
            small.coeff(0, 1) > big.coeff(0, 1),
            small.coeff(0, 0) > big.coeff(0, 0),
            COUNTEREXAMPLE_TARGETS["minor"].coeff(0, 0) > big.coeff(0, 0),
        ]
        if not all(strict):
            raise AssertionError(f"expected strict increases, got {strict}")
    # independent witness: a subset pair whose two-variable polynomial gains
    # somewhere, showing the two-variable invariant itself is not monotone
    witness = None
    for p in corpus.exhaustive:
        if p.n != 2 or len(p) < 2:
            continue
        tp = tutte_dc(p)
        for a in p.bases:
            single = Polymatroid([a], validate=False)
            ts = tutte_dc(single)
            gain = [(e, c) for e, c in ts.items() if c > tp.coeff(*e)]
            if gain:
                witness = (p, a, gain[0])
                break
        if witness:
            break
    if witness is None:
        raise AssertionError("no subset pair with a strict coefficient increase found")
    p, a, (exp, _) = witness
    return (
        f"realized targets: minor x{len(found['minor'])}, eleven-basis x"
        f"{len(found['eleven-basis'])}, two-basis x{len(found['two-basis'])}; "
        f"strict increase witness: {{{a}}} inside {len(p)}-basis polymatroid at x^{exp[0]}y^{exp[1]}"
    )


# -- criterion 7: connectivity ------------------------------------------------------------------


def check_connectivity(corpus: Corpus, rng: Random) -> str:
    # profile == ceiling prefix on connected hypergraphs
    for h in corpus.hypergraphs:
        table = corpus.tables[h]
        x = exterior_dc(table)
        profile = connectivity_profile(h)
        prefix = ceiling_prefix(x, h.num_vertices - 1, h.num_edges)
        if profile != prefix:
            raise AssertionError(
                f"profile {profile} != ceiling prefix {prefix} on {h}"
            )
        # rank-fullness equivalence at every k: both sides are prefixes
        rank_side = full_rank_prefix(table)
        coefficient_side = ceiling_prefix(x, table.full_rank(), h.num_edges)
        if rank_side != coefficient_side:
            raise AssertionError(
                f"full-rank prefix {rank_side} != ceiling prefix {coefficient_side} on {h}"
            )
        # positivity: a removable set of degree->=2 hyperedges keeps low
        # coefficients positive
        for k in range(h.num_edges + 1):
            if _has_positivity_witness(h, k) and any(
                x.coeff(0, i) <= 0 for i in range(k + 1)
            ):
                raise AssertionError(f"positivity failed at k={k} on {h}")
    # uniform families: the full binomial coefficient sequence
    uniform_cases = 0
    for n in range(1, 6):
        for r in range(5):
            table = RankTable(
                n, [r if mask else 0 for mask in range(1 << n)], validate=False
            )
            x = exterior_dc(table)
            for i in range(n):
                if x.coeff(0, i) != binomial(r + i - 1, i):
                    raise AssertionError(f"uniform family n={n}, r={r} fails at y^{i}")
            uniform_cases += 1
    # the ceiling bound is never exceeded, connected or not
    for h in corpus.hypergraphs + corpus.hypergraphs_any:
        x = exterior_dc(corpus.tables[h])
        for (_, j), c in x.items():
            if c > binomial(h.num_vertices + j - 2, j):
                raise AssertionError(f"ceiling exceeded at y^{j} on {h}")
    return (
        f"{len(corpus.hypergraphs)} connected hypergraphs (profile, equivalence, "
        f"positivity), {uniform_cases} uniform families, ceiling bound on "
        f"{len(corpus.hypergraphs) + len(corpus.hypergraphs_any)} hypergraphs"
    )


def _has_positivity_witness(h: Hypergraph, k: int) -> bool:
    """Is there a k-set of hyperedges, each of incidence degree >= 2, whose
    removal keeps the incidence graph connected?"""
    eligible = [e for e in range(1, h.num_edges + 1) if edge_degree(h, e) >= 2]
    for removed in itertools.combinations(eligible, k):
        if is_connected(h, removed):
            return True
    return False


# -- criterion 8: structural oracles ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _disjoint_proper_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every pair of masks (A, B) of disjoint sets whose union is a proper
    subset of [n]."""
    full = (1 << n) - 1
    return tuple((a, b) for a in range(full) for b in range(full) if not a & b and a | b != full)


def _labels(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _check_structure_one(p: Polymatroid, minor_pairs) -> None:
    n = p.n
    table = p.rank_table()
    # slice ranks against brute force over the projected bases
    for t in range(1, n + 1):
        if n == 1:
            break
        for j in p.slice_range(t):
            if slice_rank(table, t, j) != rank_from_bases(p.slice(t, j)):
                raise AssertionError(f"slice rank mismatch at t={t}, j={j} on {p}")
    # minor commutation, and dual/deletion/contraction exchange, over mask
    # pairs (A, B).  Each minor of p is built once; the other side of every
    # comparison is built from another polymatroid (a contraction of p, or
    # the dual).  A pair with A or B empty would compare one build with
    # itself, so it is skipped.
    minor = cache(p._minor)  # freed when the call returns
    for a, b in minor_pairs:
        if not a or not b:
            continue
        if minor(a, b) != minor(0, b)._minor(_relabel(a, b, n), 0):
            raise AssertionError(
                f"minor order dependence for A={_labels(a)}, B={_labels(b)} on {p}"
            )
    dual = p.dual()
    full_mask = (1 << n) - 1
    for a in range(1, full_mask):
        if minor(a, 0).dual() != dual._minor(0, a):
            raise AssertionError(f"dual(delete) != contract(dual) for {_labels(a)} on {p}")
        if minor(0, a).dual() != dual._minor(a, 0):
            raise AssertionError(f"dual(contract) != delete(dual) for {_labels(a)} on {p}")
    # tight-set lattice, activity characterization, and S tight exactly when
    # no transfer a + e_j - e_k moves mass into S (j in S, k outside), for
    # every basis at once: byte k of each lane integer stands for basis k.
    # The tight lanes come from the table, the transfer lanes from basis
    # membership (a + e_j - e_k is in P exactly when a is in S(k, j)).
    rows = [bytearray(len(p)) for _ in range(full_mask + 1)]
    for k, a in enumerate(p.bases):
        for mask in tight_sets(p, a):
            rows[mask][k] = 1
    tight = [int.from_bytes(row, "little") for row in rows]
    relation = TransferRelation(p)
    every = relation.every

    def basis(lanes: int) -> Vector:  # the basis of the lowest nonzero lane
        return p.bases[((lanes & -lanes).bit_length() - 1) >> 3]

    for s in range(full_mask + 1):
        for u in range(s + 1, full_mask + 1):
            bad = tight[s] & tight[u] & ~(tight[s | u] & tight[s & u])
            if bad:
                raise AssertionError(f"tight family not a lattice for {basis(bad)} on {p}")
    # i is internally active exactly when some tight set's complement has
    # minimum i, externally exactly when some nonempty tight set has minimum i;
    # the inactive lanes are the ones the direct route counts
    int_active = [0] * n
    ext_active = [0] * n
    for mask in range(full_mask + 1):
        if mask:
            ext_active[(mask & -mask).bit_length() - 1] |= tight[mask]
        comp = full_mask ^ mask
        if comp:
            int_active[(comp & -comp).bit_length() - 1] |= tight[mask]
    for i in range(n):
        int_inactive, ext_inactive = relation.inactive(i, range(i))
        # on each side exactly one of the two holds, in every lane
        bad = every & ~((int_inactive ^ int_active[i]) & (ext_inactive ^ ext_active[i]))
        if bad:
            raise AssertionError(f"activity characterization fails for {basis(bad)} on {p}")
    for mask in range(1, full_mask):
        inside = [j for j in range(n) if mask >> j & 1]
        outside = [k for k in range(n) if not mask >> k & 1]
        entered = 0
        for j in inside:
            for k in outside:
                entered |= relation[k, j]
        bad = tight[mask] & entered
        if bad:
            raise AssertionError(f"exchange step into tight {mask:b} for {basis(bad)} on {p}")
        bad = every & ~(tight[mask] | entered)
        if bad:
            raise AssertionError(
                f"no exchange step into non-tight {mask:b} for {basis(bad)} on {p}"
            )


def _relabel(targets: int, removed: int, n: int) -> int:
    """The mask of ``targets`` once the elements of ``removed`` are gone and
    the survivors are renumbered in order (see core.surviving_labels)."""
    out = 0
    k = 0
    for i in range(n):
        if not removed >> i & 1:
            out |= (targets >> i & 1) << k
            k += 1
    return out


def check_structure_oracles(corpus: Corpus, rng: Random) -> str:
    for p in corpus.exhaustive:
        _check_structure_one(p, _disjoint_proper_pairs(p.n))
    sampled = 0
    for p in corpus.randoms[::4]:
        if p.n <= 3:
            pairs = _disjoint_proper_pairs(p.n)
        else:
            drawn = [random_minor_args(rng, p.n) for _ in range(5)]
            pairs = [(_mask_of(a, p.n), _mask_of(b, p.n)) for a, b in drawn]
        _check_structure_one(p, pairs)
        sampled += 1
    return (
        f"exhaustive on {len(corpus.exhaustive)} small polymatroids, "
        f"randomized on {sampled} (n<={RANDOM_MAX_N}), zero failures"
    )


# -- criterion 9: 4-cycle count -----------------------------------------------------------------------


def check_four_cycles(corpus: Corpus, rng: Random) -> str:
    k22 = Hypergraph(["v1", "v2"], [["v1", "v2"], ["v1", "v2"]])
    cases = [(k22, rank_table(k22))]
    cases += [(h, corpus.tables[h]) for h in corpus.hypergraphs]
    for h, table in cases:
        interior = interior_dc(table)
        predicted = (
            binomial(h.incidence_count() - h.num_vertices - h.num_edges + 2, 2)
            - count_four_cycles(h)
        )
        if interior.coeff(2, 0) != predicted:
            raise AssertionError(
                f"4-cycle identity fails on {h}: predicted {predicted}, "
                f"got {interior.coeff(2, 0)}"
            )
    return f"{len(cases)} connected hypergraphs, exact"


# -- driver ------------------------------------------------------------------------------------------------


CRITERIA = [
    ("1", "method-equivalence", check_method_equivalence),
    ("2", "coefficient-formulas", check_coefficient_formulas),
    ("3", "invariances", check_invariances),
    ("4", "matroid-bridge", check_matroid_bridge),
    ("5", "monotonicity", check_monotonicity),
    ("6", "tutte-non-monotonicity", check_non_monotonicity),
    ("7", "connectivity", check_connectivity),
    ("8", "structure-oracles", check_structure_oracles),
    ("9", "four-cycle-count", check_four_cycles),
]


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run every criterion; a raised AssertionError marks it failed."""
    corpus = build_corpus(seed)
    results = []
    for offset, (ident, label, fn) in enumerate(CRITERIA):
        rng = Random(seed * 1000 + offset)
        start = time.perf_counter()
        try:
            details = fn(corpus, rng)
            passed = True
        except AssertionError as exc:
            details = f"FAILED: {exc}"
            passed = False
        except Exception as exc:  # noqa: BLE001 - harness must not crash
            details = f"ERROR: {type(exc).__name__}: {exc} | " + traceback.format_exc(
                limit=2
            ).replace("\n", " ")
            passed = False
        results.append(CriterionResult(ident, label, passed, details, time.perf_counter() - start))
    return results
