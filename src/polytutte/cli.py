"""Command-line interface.

Commands:

  validate      parse and validate an input file, print a summary
  tutte         two-variable Tutte polynomial (direct, dc, or both)
  interior      interior polynomial
  exterior      exterior polynomial
  coeffs        closed-form coefficient identities vs extracted coefficients
  check         invariance properties (translation, permutation, duality, ...)
  monotone      coefficientwise interior/exterior comparison of two inputs
  connectivity  connectivity profile and exterior ceiling table
  search        exhaustive search for polymatroids with given polynomials
  matroid-form  Laurent matroid-form transform
  suite         run the acceptance criteria

Inputs are JSON files; the kind is auto-detected from the shape
({"n", "bases"}, {"n", "f"}, {"vertices", "hyperedges"}, or the explicit
bipartite {"E", "V", "edges"} form) and can be forced with --as.  Rank
tables and hypergraphs are enumerated to their basis sets only by the
commands that read bases (--method direct|both, check, monotone); validate
counts their bases on the table, and the others run on the rank table, so
--max-bases caps only that enumeration and validate's count.

Exit codes: 0 ok; 1 a checked property/verdict failed; 2 malformed input;
3 validation error; 4 enumeration size limit; 5 internal error, including
any unexpected exception.  Every error path prints
"error: category=<Name>: <message>" on standard error.

Output is deterministic for a fixed (input, options) pair.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from random import Random

from . import acceptance, bipoly
from .activity import exterior_direct, interior_direct, tutte_direct
from .bipoly import BiPoly
from .core import (
    DEFAULT_MAX_BASES,
    MAX_GROUND_SET,
    Polymatroid,
    RankTable,
    count_bases,
    enumerate_bases,
    surviving_labels,
)
from .errors import InputError, ParseError, SizeLimitExceeded, ValidationError
from .formulas import (
    binomial,
    ceiling_prefix,
    coefficient_report,
    monotonicity_reports,
    search_by_tutte,
)
from .hypergraph import Hypergraph, connectivity_profile, rank_table
from .recursion import exterior_dc, interior_dc, matroid_form, tutte_dc

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_LIMIT = 4
EXIT_INTERNAL = 5

# The exit code of each error class; any other exception exits EXIT_INTERNAL.
EXIT_CODES = (
    (InputError, EXIT_INPUT),
    (ValidationError, EXIT_VALIDATION),
    (SizeLimitExceeded, EXIT_LIMIT),
)


class LoadedInput:
    """A parsed input: its rank table, and its basis set on first access."""

    __slots__ = ("kind", "table", "max_bases", "hypergraph", "bases")

    def __init__(
        self,
        kind: str,                     # "bases" | "rank" | "hypergraph"
        table: RankTable,
        max_bases: int,
        hypergraph: Hypergraph | None = None,
        bases: Polymatroid | None = None,  # given by a basis file, else enumerated
    ):
        self.kind = kind
        self.table = table
        self.max_bases = max_bases
        self.hypergraph = hypergraph
        self.bases = bases

    @property
    def polymatroid(self) -> Polymatroid:
        """The basis set, enumerated from the table with the --max-bases cap."""
        if self.bases is None:
            self.bases = enumerate_bases(self.table, self.max_bases)
        return self.bases


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            # ValueError: a JSONDecodeError, a UnicodeDecodeError, or an
            # integer literal past the interpreter's digit limit
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def _detect_kind(data: dict) -> str:
    if "bases" in data:
        return "bases"
    if "f" in data:
        return "rank"
    if "hyperedges" in data or "edges" in data:
        return "hypergraph"
    raise ParseError("unrecognized input shape: need 'bases', 'f', 'hyperedges' or 'edges'")


def load_input(path: str, args: argparse.Namespace) -> LoadedInput:
    """Read ``path`` under the parsed options --as, --max-n and --max-bases."""
    data = _read_json(path)
    kind = args.as_kind or _detect_kind(data)
    if kind == "bases":
        _check_size(data.get("n"), args.max_n)
        p = Polymatroid.from_json(data)
        _check_printable(p.rank_table().full_rank())
        return LoadedInput("bases", p.rank_table(), args.max_bases, bases=p)
    if kind == "rank":
        _check_size(data.get("n"), args.max_n)
        return LoadedInput("rank", RankTable.from_json(data), args.max_bases)
    if kind == "hypergraph":
        h = Hypergraph.from_json(data)
        _check_size(max(h.num_edges, 1), args.max_n)
        return LoadedInput("hypergraph", rank_table(h), args.max_bases, hypergraph=h)
    raise InputError(f"unknown input kind {kind!r}")


def _check_size(n, max_n: int) -> None:
    """Apply --max-n to a ground set size before any axiom check.  A
    missing or malformed n is left to the parser, and one above
    MAX_GROUND_SET to the parser or ``rank_table``, which refuse it with
    GroundSetTooLarge under any --max-n, also before any 2^n work."""
    if type(n) is int and max_n < n <= MAX_GROUND_SET:
        raise ValidationError(f"ground set size {n} exceeds --max-n {max_n}")


def _check_printable(total: int) -> None:
    """Refuse a basis file whose coordinate sum, which ``validate`` prints,
    has more digits than the interpreter converts to text (0: no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2^(3 limit) < 10^limit: a shorter sum needs no power of ten
    if limit and total.bit_length() > 3 * limit and abs(total) >= 10 ** limit:
        raise ParseError(f"coordinate sum has more than {limit} digits")


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _poly_json(p: BiPoly) -> dict:
    return {"terms": bipoly.to_json(p), "text": str(p)}


# -- commands -----------------------------------------------------------------------


def cmd_validate(args) -> int:
    loaded = load_input(args.input, args)
    table = loaded.table
    if loaded.bases is not None:
        count = len(loaded.bases)
    else:  # counted, not enumerated, under the same --max-bases cap
        count = count_bases(table, loaded.max_bases + 1)
        if count > loaded.max_bases:
            raise SizeLimitExceeded(loaded.max_bases)
    n, total = table.n, table.full_rank()
    payload = {
        "kind": loaded.kind,
        "n": n,
        "bases": count,
        "total": total,
    }
    lines = [
        f"kind: {loaded.kind}",
        f"ground set: {n} elements",
        f"bases: {count} (coordinate sum {total})",
    ]
    if loaded.hypergraph is not None:
        h = loaded.hypergraph
        payload.update(vertices=h.num_vertices, hyperedges=h.num_edges)
        lines.append(f"hypergraph: {h.num_vertices} vertices, {h.num_edges} hyperedges")
    _emit(args, payload, lines)
    return EXIT_OK


def _polynomial_command(args, direct_fn, dc_fn, name: str) -> int:
    loaded = load_input(args.input, args)
    results = {}
    if args.method in ("direct", "both"):
        results["direct"] = direct_fn(loaded.polymatroid)
    if args.method in ("dc", "both"):
        results["dc"] = dc_fn(loaded.table)
    payload: dict = {name: {k: _poly_json(v) for k, v in results.items()}}
    lines = []
    for k in ("direct", "dc"):
        if k in results:
            prefix = f"{k}: " if args.method == "both" else ""
            lines.append(f"{prefix}{results[k]}")
    code = EXIT_OK
    if args.method == "both":
        match = results["direct"] == results["dc"]
        payload["match"] = match
        lines.append("MATCH" if match else "MISMATCH")
        if not match:
            code = EXIT_VIOLATION
    _emit(args, payload, lines)
    return code


def cmd_tutte(args) -> int:
    return _polynomial_command(args, tutte_direct, tutte_dc, "tutte")


def cmd_interior(args) -> int:
    return _polynomial_command(args, interior_direct, interior_dc, "interior")


def cmd_exterior(args) -> int:
    return _polynomial_command(args, exterior_direct, exterior_dc, "exterior")


def cmd_coeffs(args) -> int:
    table = load_input(args.input, args).table
    rows = coefficient_report(table, tutte_dc(table))
    payload = {"rows": [r.to_json() for r in rows]}
    lines = []
    for r in rows:
        verdict = "OK" if r.match else "MISMATCH"
        lines.append(f"{r.formula}: predicted {r.predicted}, extracted {r.extracted} [{verdict}]")
    bad = [r for r in rows if not r.match]
    lines.append(f"{len(rows) - len(bad)}/{len(rows)} match")
    _emit(args, payload, lines)
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_check(args) -> int:
    loaded = load_input(args.input, args)
    p = loaded.polymatroid
    known = acceptance.INVARIANCES
    wanted = args.properties.split(",") if args.properties else list(known)
    unknown = set(wanted) - set(known)
    if unknown:
        raise InputError(f"unknown properties: {sorted(unknown)}; choose from {known}")
    # I and X from their own one-variable runs, so reversal checks them
    # against T's decode rather than that decode against itself
    polys = (tutte_dc(p), interior_dc(p), exterior_dc(p))
    violated = acceptance.invariance_violations(p, polys, Random(args.seed), wanted)
    outcomes = {prop: prop not in violated for prop in wanted}
    witness = {prop: w for prop, w in violated.items() if w}
    payload = {"properties": outcomes, "witness": witness}
    lines = [
        f"{prop}: {'OK' if ok else 'VIOLATED ' + witness.get(prop, '')}"
        for prop, ok in outcomes.items()
    ]
    _emit(args, payload, lines)
    return EXIT_OK if all(outcomes.values()) else EXIT_VIOLATION


def _parse_elements(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad element list {text!r}; expected comma-separated integers") from exc


def cmd_monotone(args) -> int:
    if args.relation == "subset" and (args.delete, args.contract) != (None, None):
        raise InputError("--delete and --contract need --relation minor")
    big = load_input(args.input, args).polymatroid
    if args.relation == "subset":
        if not args.other:
            raise InputError("--relation subset needs the second input file")
        small = load_input(args.other, args).polymatroid
        if small.n != big.n:
            raise ValidationError(f"ground sets differ: {small.n} vs {big.n}")
        stray = [v for v in small.bases if v not in big]
        if stray:
            _emit(args, {"relation_holds": False, "stray": list(map(list, stray[:3]))},
                  [f"not a subset: {stray[0]} is outside the larger polymatroid"])
            return EXIT_VIOLATION
    else:
        a = _parse_elements(args.delete)
        b = _parse_elements(args.contract)
        small = big.minor(a, b)
        labels = surviving_labels(big.n, set(a) | set(b))
        if args.other:
            claimed = load_input(args.other, args).polymatroid
            if claimed != small:
                _emit(args, {"relation_holds": False},
                      [f"computed minor (delete {a}, contract {b}) differs from the given file"])
                return EXIT_VIOLATION
    reports = monotonicity_reports(small, big)
    payload = {name: rep.to_json() for name, rep in reports.items()}
    lines = []
    if args.relation == "minor":
        payload["label_map"] = {k + 1: old for k, old in enumerate(labels)}
        lines.append(
            "surviving elements (new -> original): "
            + ", ".join(f"{k + 1}->{old}" for k, old in enumerate(labels))
        )
    for name, rep in reports.items():
        if rep.holds:
            lines.append(f"{name}: OK")
        else:
            lines.append(f"{name}: VIOLATED at x^{rep.witness[0]}*y^{rep.witness[1]} (excess {rep.difference})")
    _emit(args, payload, lines)
    return EXIT_OK if all(r.holds for r in reports.values()) else EXIT_VIOLATION


def cmd_connectivity(args) -> int:
    data = _read_json(args.input)
    h = Hypergraph.from_json(data)
    _check_size(max(h.num_edges, 1), args.max_n)
    # the table refuses a ground set past MAX_GROUND_SET before the profile
    # walks its 2^E removal sets
    table = rank_table(h) if h.num_edges >= 1 else None
    k_max = connectivity_profile(h)
    payload: dict = {"k_max": k_max, "vertices": h.num_vertices, "hyperedges": h.num_edges}
    lines = [f"k_max = {k_max}" + (" (incidence graph disconnected)" if k_max < 0 else "")]
    code = EXIT_OK
    if table is not None:
        x = exterior_dc(table)
        rows = []
        for i in range(max(k_max, 0) + 1):
            ceiling = binomial(h.num_vertices + i - 2, i)
            actual = x.coeff(0, i)
            rows.append({"i": i, "ceiling": ceiling, "actual": actual})
            lines.append(f"y^{i}: {actual} = {ceiling}")
        payload["rows"] = rows
        prefix = ceiling_prefix(x, h.num_vertices - 1, h.num_edges)
        agreement = (k_max == prefix) if k_max >= 0 else True
        payload["profile_matches_coefficients"] = agreement
        if not agreement:
            lines.append(f"WARNING: ceiling prefix {prefix} disagrees with profile {k_max}")
            code = EXIT_VIOLATION
    _emit(args, payload, lines)
    return code


def _parse_target(entry) -> BiPoly:
    if isinstance(entry, str):
        return bipoly.parse(entry)
    if isinstance(entry, list):
        return bipoly.from_json(entry)
    raise ParseError(f"target must be polynomial text or term triples, got {entry!r}")


def cmd_search(args) -> int:
    data = _read_json(args.targets)
    if "targets" not in data or not isinstance(data["targets"], list):
        raise ParseError("targets file needs a 'targets' list")
    targets = [_parse_target(t) for t in data["targets"]]
    matches = search_by_tutte(targets, max_n=args.n, max_rank=args.max_rank)
    payload = {"targets": []}
    lines = []
    for idx, (t, found) in enumerate(zip(targets, matches)):
        examples = [[list(v) for v in p.bases] for p in found[:3]]
        payload["targets"].append(
            {"polynomial": str(t), "matches": len(found), "examples": examples}
        )
        if found:
            lines.append(f"target {idx} ({t}): {len(found)} matches, e.g. {examples[0]}")
        else:
            lines.append(f"target {idx} ({t}): no match")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_matroid_form(args) -> int:
    table = load_input(args.input, args).table
    d = args.rank if args.rank is not None else table.full_rank()
    result = matroid_form(table, d)
    _emit(
        args,
        {"matroid_form": _poly_json(result), "rank": d},
        [str(result)],
    )
    return EXIT_OK


def cmd_suite(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    payload = {"criteria": [r.to_json() for r in results]}
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VIOLATION


# -- argument parsing ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change
    it, so every in-process call of main shares it)."""
    parser = argparse.ArgumentParser(
        prog="polytutte",
        description="Exact Tutte-type invariants of integer polymatroids",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                        help="seed for randomized checks (default pinned for reproducibility)")
    parser.add_argument("--max-bases", type=int, default=DEFAULT_MAX_BASES,
                        help="cap on basis vectors enumerated from a rank table or "
                             "hypergraph (only commands that read bases enumerate), "
                             "and on the bases that validate counts")
    parser.add_argument("--max-n", type=int, default=MAX_GROUND_SET,
                        help="cap on ground set size")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(sp, with_method=False):
        sp.add_argument("input", help="JSON input file")
        sp.add_argument("--as", dest="as_kind", choices=("bases", "rank", "hypergraph"),
                        help="override input kind auto-detection")
        if with_method:
            sp.add_argument("--method", choices=("direct", "dc", "both"), default="dc")

    add_input(sub.add_parser("validate", help="validate an input file"))
    add_input(sub.add_parser("tutte", help="two-variable Tutte polynomial"), True)
    add_input(sub.add_parser("interior", help="interior polynomial"), True)
    add_input(sub.add_parser("exterior", help="exterior polynomial"), True)
    add_input(sub.add_parser("coeffs", help="coefficient identities report"))

    sp = sub.add_parser("check", help="invariance properties")
    add_input(sp)
    sp.add_argument("--properties", help=f"comma list from {','.join(acceptance.INVARIANCES)}")

    sp = sub.add_parser("monotone", help="coefficientwise interior/exterior comparison")
    sp.add_argument("input", help="the larger polymatroid")
    sp.add_argument("other", nargs="?", help="the smaller polymatroid (subset relation)")
    sp.add_argument("--as", dest="as_kind", choices=("bases", "rank", "hypergraph"))
    sp.add_argument("--relation", choices=("subset", "minor"), default="subset")
    sp.add_argument("--delete", help="elements to delete (minor relation)")
    sp.add_argument("--contract", help="elements to contract (minor relation)")

    sp = sub.add_parser("connectivity", help="connectivity profile vs exterior ceiling")
    sp.add_argument("input", help="hypergraph JSON file")

    sp = sub.add_parser("search", help="search small polymatroids by Tutte polynomial")
    sp.add_argument("--targets", required=True, help="JSON file with a 'targets' list")
    sp.add_argument("--n", type=int, default=3, help="largest ground set size scanned")
    sp.add_argument("--max-rank", type=int, default=4, help="largest rank value scanned")

    sp = sub.add_parser("matroid-form", help="Laurent matroid-form transform")
    add_input(sp)
    sp.add_argument("--rank", type=int, help="rank parameter d (default: full rank)")

    sub.add_parser("suite", help="run the acceptance criteria")
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "tutte": cmd_tutte,
    "interior": cmd_interior,
    "exterior": cmd_exterior,
    "coeffs": cmd_coeffs,
    "check": cmd_check,
    "monotone": cmd_monotone,
    "connectivity": cmd_connectivity,
    "search": cmd_search,
    "matroid-form": cmd_matroid_form,
    "suite": cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for field_name in ("max_n", "max_bases"):
            if getattr(args, field_name) < 1:
                raise InputError(f"--{field_name.replace('_', '-')} must be positive")
        return COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - exit 1 must mean only "property violated"
        # a PolytutteError's category is its class name too
        print(f"error: category={type(exc).__name__}: {exc}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES if isinstance(exc, cls)), EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
