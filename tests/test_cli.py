"""Command-line interface tests (run in-process via main(argv))."""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

import pytest

from polytutte import cli, core, recursion
from polytutte.core import Polymatroid, RankTable
from polytutte.errors import (
    InputError,
    ParseError,
    PolytutteError,
    SizeLimitExceeded,
    ValidationError,
)
from polytutte.cli import (
    COMMANDS,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    main,
)


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "scaled": write("scaled.json", {"n": 2, "bases": [[2, 0], [1, 1], [0, 2]]}),
        "pair": write("pair.json", {"n": 2, "bases": [[1, 0], [0, 1]]}),
        "single": write("single.json", {"n": 2, "bases": [[1, 0]]}),
        "u13_rank": write("u13_rank.json", {"n": 3, "f": [0, 1, 1, 1, 1, 1, 1, 1]}),
        "k22": write(
            "k22.json", {"vertices": ["v1", "v2"], "hyperedges": [["v1", "v2"], ["v1", "v2"]]}
        ),
        "bip": write(
            "bip.json",
            {
                "E": ["e1", "e2"],
                "V": ["v1", "v2"],
                "edges": [["e1", "v1"], ["e1", "v2"], ["e2", "v1"], ["e2", "v2"]],
            },
        ),
        "bad_sums": write("bad.json", {"n": 2, "bases": [[1, 0], [0, 2]]}),
        "bad_shape": write("shape.json", {"something": 1}),
        "no_vertices": write("no_vertices.json", {"hyperedges": [["a"]]}),
        "no_E": write("no_E.json", {"V": ["a"], "edges": [["e", "a"]]}),
        "no_V": write("no_V.json", {"E": ["e"], "edges": [["e", "a"]]}),
        "targets": write(
            "targets.json", {"targets": ["x^2 + 2*x*y + y^2 - x - y", "x^9"]}
        ),
        "dir": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- tutte ------------------------------------------------------------------------


def test_tutte_both_methods_match(files, capsys):
    code, out, _ = run(capsys, "tutte", files["scaled"], "--method", "both")
    assert code == EXIT_OK
    assert out.count("x^2 + 2*x*y + y^2 - 1") == 2
    assert "MATCH" in out


def test_tutte_on_hypergraph(files, capsys):
    code, out, _ = run(capsys, "tutte", files["k22"])
    assert code == EXIT_OK
    assert out.strip() == "x^2 + 2*x*y + y^2 - x - y"


def test_tutte_on_bipartite_form(files, capsys):
    code, out, _ = run(capsys, "tutte", files["bip"])
    assert code == EXIT_OK
    assert out.strip() == "x^2 + 2*x*y + y^2 - x - y"


def test_bipartite_form_refuses_a_repeated_hyperedge_name(files, capsys):
    path = files["dir"] / "repeated.json"
    path.write_text(
        json.dumps({"E": ["a", "a"], "V": ["v1", "v2"], "edges": [["a", "v1"], ["a", "v2"]]})
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert err == "error: category=ValidationError: duplicate hyperedge names\n"


def test_tutte_on_rank_table(files, capsys):
    code, out, _ = run(capsys, "tutte", files["u13_rank"], "--method", "direct")
    assert code == EXIT_OK
    assert out.strip() == "x^3 + 3*x^2*y + 3*x*y^2 + y^3 - x^2 - 3*x*y - 2*y^2 + y"


def test_tutte_json_format(files, capsys):
    code, out, _ = run(capsys, "--format", "json", "tutte", files["pair"], "--method", "both")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["tutte"]["dc"]["text"] == "x^2 + 2*x*y + y^2 - x - y"
    assert payload["tutte"]["dc"]["terms"][0] == [2, 0, "1"]


# -- errors -----------------------------------------------------------------------------


def test_validation_error_exit_code(files, capsys):
    code, _, err = run(capsys, "tutte", files["bad_sums"])
    assert code == EXIT_VALIDATION
    assert "category=UnequalSums" in err


def test_bad_shape_exit_code(files, capsys):
    code, _, err = run(capsys, "tutte", files["bad_shape"])
    assert code == EXIT_INPUT
    assert "category=ParseError" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["connectivity"], "u13_rank"),
        (["validate", "--as", "hypergraph"], "u13_rank"),
        (["validate", "--as", "rank"], "pair"),
        (["validate", "--as", "bases"], "k22"),
        (["validate"], "bad_shape"),
        (["validate"], "no_vertices"),
        (["validate"], "no_E"),
        (["connectivity"], "no_V"),
    ],
    ids=["connectivity-on-rank", "hypergraph-on-rank", "rank-on-bases", "bases-on-hypergraph",
         "no-known-key", "hyperedges-without-vertices", "bipartite-without-E",
         "bipartite-without-V"],
)
def test_a_file_missing_its_kind_keys_is_a_parse_error(files, capsys, argv, name):
    code, out, err = run(capsys, *argv, files[name])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: category=ParseError: ")


def test_non_utf8_file_exit_code(files, capsys):
    path = files["dir"] / "latin1.json"
    path.write_bytes(b'{"n": 1, "bases": [[1]], "name": "\xe9"}')
    code, _, err = run(capsys, "tutte", str(path))
    assert code == EXIT_INPUT
    assert "category=ParseError" in err


def test_deeply_nested_json_exit_code(files, capsys):
    path = files["dir"] / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "tutte", str(path))
    assert code == EXIT_INPUT
    assert "category=ParseError" in err


LONG = "1" * 4301  # one digit past the interpreter's conversion limit


@pytest.mark.parametrize(
    "text, argv",
    [
        ('{"n": 1, "bases": [[%s]]}' % LONG, ["validate"]),
        ('{"n": 1, "f": [0, %s]}' % LONG, ["validate"]),
        ('{"vertices": [%s], "hyperedges": [[%s]]}' % (LONG, LONG), ["validate"]),
        ('{"targets": [[[0, 0, %s]]]}' % LONG, ["search", "--n", "1", "--targets"]),
        ('{"targets": ["%s*x + 1"]}' % LONG, ["search", "--n", "1", "--targets"]),
        ('{"n": 12, "bases": [[%s]]}' % ", ".join(["9" * 4299] * 12), ["validate"]),
    ],
    ids=["bases", "rank", "hypergraph", "target-triple", "target-text", "coordinate-sum"],
)
def test_a_number_past_the_digit_limit_is_a_parse_error(files, capsys, text, argv):
    path = files["dir"] / "long.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: category=ParseError: ")


def test_unexpected_exception_exit_code(files, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(COMMANDS, "tutte", broken)
    code, _, err = run(capsys, "tutte", files["pair"])
    assert code == EXIT_INTERNAL
    assert err == "error: category=RuntimeError: boom\n"


@pytest.mark.parametrize(
    "error, expected",
    [
        (InputError, EXIT_INPUT),
        (ParseError, EXIT_INPUT),
        (ValidationError, EXIT_VALIDATION),
        (SizeLimitExceeded, EXIT_LIMIT),
        (PolytutteError, EXIT_INTERNAL),
        (RuntimeError, EXIT_INTERNAL),
    ],
)
def test_error_class_exit_codes(files, capsys, monkeypatch, error, expected):
    exc = SizeLimitExceeded(7) if error is SizeLimitExceeded else error("boom")

    def broken(args):
        raise exc

    monkeypatch.setitem(COMMANDS, "tutte", broken)
    code, out, err = run(capsys, "tutte", files["pair"])
    assert code == expected and out == ""
    assert err == f"error: category={error.__name__}: {exc}\n"


def test_memo_capacity_is_not_an_option(files, capsys):
    with pytest.raises(SystemExit) as e:
        main(["--memo-capacity", "5", "tutte", files["pair"]])
    assert e.value.code == 2  # argparse's usage error
    assert "--memo-capacity" not in cli.build_parser().format_help()


def test_missing_file_exit_code(files, capsys):
    code, _, err = run(capsys, "tutte", str(files["dir"] / "absent.json"))
    assert code == EXIT_INPUT


def test_size_limit_exit_code(files, capsys):
    # only the commands that read bases enumerate, so only they meet the cap
    for argv in (["tutte", "--method", "both"], ["validate"]):
        code, _, err = run(capsys, "--max-bases", "1", *argv, files["u13_rank"])
        assert code == EXIT_LIMIT
        assert "category=SizeLimitExceeded" in err


def test_max_bases_does_not_cap_the_recursion(files, capsys):
    for command in ("tutte", "interior", "exterior"):
        code, uncapped, _ = run(capsys, command, files["u13_rank"])
        assert code == EXIT_OK
        code, capped, err = run(capsys, "--max-bases", "1", command, files["u13_rank"])
        assert code == EXIT_OK and err == ""
        assert capped == uncapped


def test_max_n_guard(files, capsys):
    code, _, err = run(capsys, "--max-n", "1", "tutte", files["pair"])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("option", ["--max-n", "--max-bases"])
def test_nonpositive_cap_is_an_input_error(files, capsys, option):
    code, out, err = run(capsys, option, "0", "tutte", files["pair"])
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: category=InputError: {option} must be positive\n"


def _fail_validation(*args):
    raise AssertionError("the axioms were checked before --max-n")


def test_max_n_checked_before_rank_validation(files, capsys, monkeypatch):
    monkeypatch.setattr(RankTable, "validate", _fail_validation)
    path = files["dir"] / "u12.json"
    path.write_text(json.dumps({"n": 12, "f": [min(bin(m).count("1"), 6) for m in range(1 << 12)]}))
    code, _, err = run(capsys, "--max-n", "4", "validate", str(path))
    assert code == EXIT_VALIDATION
    assert "category=ValidationError" in err and "exceeds --max-n 4" in err


def test_max_n_checked_before_exchange_validation(files, capsys, monkeypatch):
    monkeypatch.setattr(Polymatroid, "_validate", _fail_validation)
    path = files["dir"] / "u13.json"
    path.write_text(json.dumps({"n": 3, "bases": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, _, err = run(capsys, "--max-n", "2", "validate", str(path))
    assert code == EXIT_VALIDATION
    assert "exceeds --max-n 2" in err


def test_ground_set_cap_keeps_its_category(files, capsys):
    path = files["dir"] / "n17.json"
    path.write_text(json.dumps({"n": 17, "f": [0]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION
    assert "category=GroundSetTooLarge" in err


@pytest.mark.parametrize("command", ["validate", "connectivity"])
@pytest.mark.parametrize("edges", [17, 26])
def test_a_hypergraph_past_the_ground_set_cap_is_refused_at_once(files, capsys, command, edges):
    # --max-n lets E through; the rank table refuses it before its 2^E
    # masks, and connectivity builds the table before its 2^E removal sets
    path = files["dir"] / f"parallel{edges}.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "hyperedges": [["a", "b", "c"]] * edges}))
    start = time.perf_counter()
    code, out, err = run(capsys, "--max-n", "26", command, str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION and out == ""
    assert err == f"error: category=GroundSetTooLarge: n = {edges} exceeds the maximum 16\n"


@pytest.mark.parametrize("command", ["validate", "connectivity"])
def test_a_hypergraph_past_the_ground_set_cap_keeps_its_category(files, capsys, command):
    # at the default --max-n, 17 hyperedges report the category of a rank
    # file with n = 17, not a --max-n ValidationError
    path = files["dir"] / "parallel17.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "hyperedges": [["a", "b", "c"]] * 17}))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert err == "error: category=GroundSetTooLarge: n = 17 exceeds the maximum 16\n"


NON_INTEGER_INPUTS = {
    "float_rank": {"n": 2, "f": [0, 1.5, 1, 1]},
    "bool_rank": {"n": 2, "f": [0, True, 1, 1]},
    "string_rank": {"n": 2, "f": [0, "1", 1, 1]},
    "float_n_rank": {"n": 2.7, "f": [0, 1, 1, 1]},
    "float_coordinate": {"n": 2, "bases": [[1.9, 0], [0, 1]]},
    "bool_coordinates": {"n": 2, "bases": [[True, False], [False, True]]},
    "float_n_bases": {"n": 2.7, "bases": [[1, 0], [0, 1]]},
    "string_hyperedges": {"vertices": ["a"], "hyperedges": "a"},
    "string_hyperedge": {"vertices": ["ab", "a", "b"], "hyperedges": ["ab"]},
    "float_vertex": {"vertices": [1.5], "hyperedges": [[1.5]]},
    "string_vertices": {"vertices": "a", "hyperedges": [["a"]]},
    "null_V": {"E": ["e"], "V": None, "edges": [["e", "a"]]},
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_INPUTS))
def test_non_integer_json_is_rejected(files, capsys, case):
    path = files["dir"] / f"{case}.json"
    path.write_text(json.dumps(NON_INTEGER_INPUTS[case]))
    code, out, err = run(capsys, "tutte", str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("error: category=ValidationError: ")


def test_exchange_failure_far_apart_is_quick(files, capsys):
    # the round trip's count stops one past the given count, although the
    # top coordinate spans 10^5 to 10^9 levels
    path = files["dir"] / "far.json"
    for far in ([100000, -100000], [0, 10 ** 6, -(10 ** 6)], [0, 0, 10 ** 9, -(10 ** 9)]):
        path.write_text(json.dumps({"n": len(far), "bases": [[0] * len(far), far]}))
        start = time.perf_counter()
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_VALIDATION and "category=ExchangeFailure" in err
        assert time.perf_counter() - start < 2.0
        code, _, err = run(capsys, "--max-bases", "1", "validate", str(path))
        assert code == EXIT_VALIDATION and "category=ExchangeFailure" in err


def test_max_bases_does_not_change_basis_validation(files, capsys):
    path = files["dir"] / "gap.json"
    path.write_text(json.dumps({"n": 2, "bases": [[2, 0], [0, 2]]}))
    for cap in ("1", "2", "1000"):
        code, out, _ = run(capsys, "--max-bases", cap, "validate", files["scaled"])
        assert code == EXIT_OK and "bases: 3" in out
        code, _, err = run(capsys, "--max-bases", cap, "validate", str(path))
        assert code == EXIT_VALIDATION and "category=ExchangeFailure" in err


def test_validate_hypergraph_at_ground_set_cap(files, capsys):
    # the 16-cycle as a hypergraph: E = 16, one hypertree per spanning tree
    path = files["dir"] / "c16.json"
    names = [f"v{k}" for k in range(16)]
    edges = [[names[k], names[(k + 1) % 16]] for k in range(16)]
    path.write_text(json.dumps({"vertices": names, "hyperedges": edges}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "ground set: 16 elements" in out and "bases: 16 (coordinate sum 15)" in out


def test_validate_rank_table_at_ground_set_cap(files, capsys):
    path = files["dir"] / "u8_16.json"
    path.write_text(json.dumps({"n": 16, "f": [min(bin(m).count("1"), 8) for m in range(1 << 16)]}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "ground set: 16 elements" in out and "bases: 12870 (coordinate sum 8)" in out


# -- other commands -----------------------------------------------------------------------


# input, text output and JSON output of validate
_VALIDATE_CASES = {
    "u48": (
        {"n": 8, "f": [min(bin(m).count("1"), 4) for m in range(1 << 8)]},
        "kind: rank\nground set: 8 elements\nbases: 70 (coordinate sum 4)\n",
        '{"bases": 70, "kind": "rank", "n": 8, "total": 4}\n',
    ),
    "k4": (
        {"vertices": [1, 2, 3, 4], "hyperedges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
        "kind: hypergraph\nground set: 6 elements\nbases: 16 (coordinate sum 3)\n"
        "hypergraph: 4 vertices, 6 hyperedges\n",
        '{"bases": 16, "hyperedges": 6, "kind": "hypergraph", "n": 6, "total": 3, "vertices": 4}\n',
    ),
    "hypertree": (
        {
            "vertices": ["a", "b", "c", "d"],
            "hyperedges": [["a", "b", "c"], ["b", "c", "d"], ["a", "d"], ["a", "b", "c", "d"]],
        },
        "kind: hypergraph\nground set: 4 elements\nbases: 14 (coordinate sum 3)\n"
        "hypergraph: 4 vertices, 4 hyperedges\n",
        '{"bases": 14, "hyperedges": 4, "kind": "hypergraph", "n": 4, "total": 3, "vertices": 4}\n',
    ),
}


@pytest.mark.parametrize("name", _VALIDATE_CASES)
def test_validate_output_is_pinned(files, capsys, name):
    # validate counts a table's bases under --max-bases: the cap is met at
    # the count and trips one below it, with the enumeration's message
    data, text, payload = _VALIDATE_CASES[name]
    path = files["dir"] / f"{name}.json"
    path.write_text(json.dumps(data))
    count = json.loads(payload)["bases"]
    for cap in ([], ["--max-bases", str(count)]):
        assert run(capsys, *cap, "validate", str(path)) == (EXIT_OK, text, "")
        assert run(capsys, *cap, "--format", "json", "validate", str(path)) == (EXIT_OK, payload, "")
    for fmt in ([], ["--format", "json"]):
        assert run(capsys, "--max-bases", str(count - 1), *fmt, "validate", str(path)) == (
            EXIT_LIMIT,
            "",
            f"error: category=SizeLimitExceeded: enumeration exceeded the cap of {count - 1} bases\n",
        )


def test_validate_summary(files, capsys):
    code, out, _ = run(capsys, "validate", files["k22"])
    assert code == EXIT_OK
    assert "hypergraph" in out and "bases: 2" in out


def test_interior_exterior(files, capsys):
    code, out, _ = run(capsys, "exterior", files["u13_rank"])
    assert code == EXIT_OK and out.strip() == "y^2 + y + 1"
    code, out, _ = run(capsys, "interior", files["u13_rank"])
    assert code == EXIT_OK and out.strip() == "2*x + 1"
    code, out, _ = run(capsys, "interior", files["single"])
    assert code == EXIT_OK and out.strip() == "1"


def test_coeffs_all_match(files, capsys):
    code, out, _ = run(capsys, "coeffs", files["u13_rank"])
    assert code == EXIT_OK
    assert "MISMATCH" not in out


def test_check_properties(files, capsys):
    code, out, _ = run(capsys, "check", files["scaled"])
    assert code == EXIT_OK
    for prop in ("translation", "permutation", "duality", "divisibility", "count", "reversal"):
        assert f"{prop}: OK" in out


def test_check_reversal_compares_the_one_variable_runs_with_t(files, capsys, monkeypatch):
    # check reads I and X from their own engine runs, so reversal compares
    # them with T's reversals; an exterior run passed off as the interior
    # polynomial must fail it
    for name in ("u13_rank", "scaled"):
        code, out, _ = run(capsys, "check", files[name], "--properties", "reversal")
        assert code == EXIT_OK and out == "reversal: OK\n"
    monkeypatch.setattr(cli, "interior_dc", lambda p: recursion.exterior_dc(p).swap_vars())
    code, out, _ = run(capsys, "check", files["u13_rank"], "--properties", "reversal")
    assert code == EXIT_VIOLATION and out.split() == ["reversal:", "VIOLATED"]


def test_check_permutation_stays_small(files, capsys):
    # drawing permutations must not materialize all n! of them
    path = files["dir"] / "one_basis9.json"
    path.write_text(json.dumps({"n": 9, "bases": [[1] + [0] * 8]}))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "check", str(path), "--properties", "permutation")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and out == "permutation: OK\n"
    assert peak < 5 * 2**20


def test_check_unknown_property(files, capsys):
    code, _, err = run(capsys, "check", files["scaled"], "--properties", "nope")
    assert code == EXIT_INPUT


def test_monotone_subset(files, capsys):
    code, out, _ = run(capsys, "monotone", files["pair"], files["single"])
    assert code == EXIT_OK
    assert "I: OK" in out and "X: OK" in out


def test_monotone_subset_rejects_non_subset(files, capsys):
    code, out, _ = run(capsys, "monotone", files["single"], files["pair"])
    assert code == EXIT_VIOLATION
    assert "not a subset" in out


def test_monotone_subset_refuses_minor_flags(files, capsys):
    # under the subset relation a minor's elements would be ignored
    for flag in ("--delete", "--contract"):
        code, out, err = run(capsys, "monotone", files["pair"], files["single"], flag, "1")
        assert code == EXIT_INPUT and out == ""
        assert "category=InputError: --delete and --contract need --relation minor" in err


def test_monotone_minor(files, capsys):
    code, out, _ = run(
        capsys, "monotone", files["scaled"], "--relation", "minor", "--delete", "2"
    )
    assert code == EXIT_OK
    assert "I: OK" in out and "X: OK" in out


def test_connectivity_table(files, capsys):
    code, out, _ = run(capsys, "connectivity", files["k22"])
    assert code == EXIT_OK
    assert "k_max = 1" in out
    assert "y^0: 1 = 1" in out and "y^1: 1 = 1" in out


def test_search_reports_matches_and_misses(files, capsys):
    code, out, _ = run(
        capsys, "search", "--targets", files["targets"], "--n", "2", "--max-rank", "2"
    )
    assert code == EXIT_OK
    assert "target 0" in out and "matches" in out
    assert "target 1" in out and "no match" in out


@pytest.mark.parametrize(
    "triple",
    [
        [1.9, 0, "1"],
        [True, 0, "1"],
        [1, 0, 2.7],
        ["1", 0, "1"],
        [1, 0, " 1_000 "],
        [1, 0, "\u0661\u0662"],
    ],
    ids=[
        "float-exponent",
        "bool-exponent",
        "float-coefficient",
        "string-exponent",
        "padded-underscored-coefficient",
        "arabic-indic-digit-coefficient",
    ],
)
def test_search_rejects_non_integer_triples(files, capsys, triple):
    path = files["dir"] / "bad_targets.json"
    path.write_text(json.dumps({"targets": [[triple]]}))
    code, out, err = run(capsys, "search", "--targets", str(path), "--n", "1")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: category=ParseError: bad polynomial triple")


def test_matroid_form(files, capsys):
    code, out, _ = run(capsys, "matroid-form", files["pair"])
    assert code == EXIT_OK
    assert out.strip() == "x + y"


def test_matroid_form_custom_rank(files, capsys):
    code, out, _ = run(capsys, "--format", "json", "matroid-form", files["pair"], "--rank", "4")
    assert code == EXIT_OK
    assert json.loads(out)["rank"] == 4


# -- determinism -------------------------------------------------------------------------------


def test_output_identical_across_runs(files, capsys):
    for argv in (["tutte", files["scaled"], "--method", "both"], ["coeffs", files["u13_rank"]]):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_default_memo_capacity_keeps_memo(files, capsys):
    run(capsys, "tutte", files["scaled"])
    cache = recursion._cache
    filled = len(cache)
    run(capsys, "tutte", files["pair"])
    assert recursion._cache is cache and len(cache) >= filled


def test_coeffs_on_hypergraph_reads_the_enumerated_table(files, capsys, monkeypatch):
    calls = []
    real = core.rank_from_bases
    monkeypatch.setattr(core, "rank_from_bases", lambda p: calls.append(p) or real(p))
    code, out, _ = run(capsys, "coeffs", files["k22"])
    assert code == EXIT_OK and "MISMATCH" not in out
    assert calls == []


def test_basis_input_derives_its_table_once(files, capsys, monkeypatch):
    # validation and rank_from_bases both derive the table by _rank_from_rows
    calls = []
    real = core._rank_from_rows
    monkeypatch.setattr(core, "_rank_from_rows", lambda *args: calls.append(args) or real(*args))
    for argv in (["coeffs", files["scaled"]], ["check", files["scaled"]]):
        calls.clear()
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and "MISMATCH" not in out and "VIOLATED" not in out
        assert len(calls) == 1


def test_check_deterministic_for_seed(files, capsys):
    _, out1, _ = run(capsys, "--seed", "7", "check", files["scaled"])
    _, out2, _ = run(capsys, "--seed", "7", "check", files["scaled"])
    assert out1 == out2


def _count_enumerations(monkeypatch) -> list:
    """Count core.enumerate_bases calls, under every name a module bound it to."""
    calls = []
    real = core.enumerate_bases

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "polytutte" or name.startswith("polytutte."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_table_commands_enumerate_no_bases(files, capsys, monkeypatch):
    calls = _count_enumerations(monkeypatch)
    for argv in (
        ["tutte", files["u13_rank"]],
        ["interior", files["u13_rank"]],
        ["exterior", files["u13_rank"]],
        ["coeffs", files["u13_rank"]],
        ["matroid-form", files["u13_rank"]],
        ["connectivity", files["k22"]],
        ["interior", files["k22"]],
        ["coeffs", files["k22"]],
        ["validate", files["u13_rank"]],
        ["validate", files["k22"]],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and out and "MISMATCH" not in out
    assert calls == []
    # the commands that read bases still enumerate
    code, _, _ = run(capsys, "tutte", "--method", "both", files["u13_rank"])
    assert code == EXIT_OK and len(calls) == 1


def test_a_loaded_table_is_validated_once(files, capsys, monkeypatch):
    # the load validates each table, a basis file's round-trip table
    # included, and marks it, so the engine's entry does not check it again
    calls = []
    real = RankTable.validate
    monkeypatch.setattr(RankTable, "validate", lambda self: calls.append(self) or real(self))
    for name in ("u13_rank", "k22", "scaled"):
        for command in ("tutte", "coeffs", "validate"):
            recursion.clear_caches()
            calls.clear()
            code, out, _ = run(capsys, command, files[name])
            assert code == EXIT_OK and "MISMATCH" not in out
            assert len(calls) == 1, (name, command)


def test_parser_is_built_once_per_process(files, capsys, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    real = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_subparsers",
        lambda self, **kw: built.append(self) or real(self, **kw),
    )
    assert run(capsys, "tutte", files["pair"])[0] == EXIT_OK
    assert run(capsys, "--format", "json", "interior", files["pair"])[0] == EXIT_OK
    assert len(built) == 1

    def exits(parse, argv):
        with pytest.raises(SystemExit) as e:
            parse(argv)
        captured = capsys.readouterr()
        return e.value.code, captured.out, captured.err

    # help and argument errors print what a freshly built parser prints
    cases = [["--help"], ["tutte", "--help"], ["tutte", "--method", "nope", files["pair"]], []]
    cached = [exits(main, argv) for argv in cases + cases]
    fresh = cli.build_parser.__wrapped__()
    assert cached == [exits(fresh.parse_args, argv) for argv in cases] * 2
    assert [code for code, _, _ in cached[:4]] == [0, 0, 2, 2]
    assert cached[0][1].startswith("usage: polytutte")
    assert "invalid choice: 'nope'" in cached[2][2]
    assert len(built) == 2  # the fresh parser only

