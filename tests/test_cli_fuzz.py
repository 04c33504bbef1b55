"""CLI fuzz tests: malformed bytes and JSON shapes end in a documented exit
code and one "error: category=<Name>: <message>" line, never in a result."""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polytutte.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_OK, EXIT_VALIDATION, main

ERROR_LINE = re.compile(r"error: category=\w+: .*\n")
ERROR_CODES = {EXIT_INPUT, EXIT_VALIDATION, EXIT_LIMIT}
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

COMMANDS = st.sampled_from([["validate"], ["tutte"], ["exterior", "--method", "both"]])
KIND_OVERRIDES = st.sampled_from([[], ["--as", "bases"], ["--as", "rank"], ["--as", "hypergraph"]])

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# values that are not a JSON integer, for a slot that needs one
NON_INTEGERS = st.one_of(FLOATS, st.booleans(), st.text(max_size=3), st.none(),
                         st.lists(st.integers(-2, 2), max_size=2))
# values that are not a list, for a slot that needs one
NON_LISTS = st.one_of(FLOATS, st.booleans(), st.text(max_size=3), st.integers(-2, 2), st.none(),
                      st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
# values that are neither a string nor an integer, for a vertex or hyperedge name
NON_NAMES = st.one_of(FLOATS, st.booleans(), st.none(), st.lists(st.text(max_size=2), max_size=2))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def run_cli(path, payload: bytes, argv: list[str]) -> tuple[int, str, str]:
    path.write_bytes(payload)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv[:1], str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def assert_error(code: int, out: str, err: str) -> None:
    assert code in ERROR_CODES, (code, err)
    assert out == ""
    assert ERROR_LINE.fullmatch(err), err


@st.composite
def poisoned_documents(draw):
    """A well-shaped input with one integer, list or name slot replaced by a
    value of the wrong JSON type."""
    kind = draw(st.sampled_from(["bases", "rank", "hypergraph"]))
    n = draw(st.integers(1, 3))
    if kind == "bases":
        rows = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(draw(st.integers(1, 3)))]
        doc = {"n": n, "bases": rows}
        slots = [(doc, "n", NON_INTEGERS), (doc, "bases", NON_LISTS)]
        slots += [(rows, r, NON_LISTS) for r in range(len(rows))]
        slots += [(row, c, NON_INTEGERS) for row in rows for c in range(n)]
    elif kind == "rank":
        values = [0] + [draw(st.integers(0, 2)) for _ in range((1 << n) - 1)]
        doc = {"n": n, "f": values}
        slots = [(doc, "n", NON_INTEGERS), (doc, "f", NON_LISTS)]
        slots += [(values, m, NON_INTEGERS) for m in range(len(values))]
    else:
        names = [f"v{k}" for k in range(n)]
        edges = [draw(st.lists(st.sampled_from(names), min_size=1, max_size=n)) for _ in range(n)]
        doc = {"vertices": names, "hyperedges": edges}
        slots = [(doc, "vertices", NON_LISTS), (doc, "hyperedges", NON_LISTS)]
        slots += [(names, k, NON_NAMES) for k in range(n)]
        slots += [(edges, k, NON_LISTS) for k in range(n)]
        slots += [(edge, k, NON_NAMES) for edge in edges for k in range(len(edge))]
    owner, key, values = draw(st.sampled_from(slots))
    owner[key] = draw(values)
    return doc


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), FLOATS, st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["n", "f", "bases", "vertices", "hyperedges", "E", "V", "edges"]),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@FUZZ
@given(doc=poisoned_documents(), command=COMMANDS, override=KIND_OVERRIDES)
def test_wrong_json_types_are_rejected(input_path, doc, command, override):
    code, out, err = run_cli(input_path, json.dumps(doc).encode(), [*command, *override])
    assert_error(code, out, err)


@FUZZ
@given(payload=st.binary(max_size=64), command=COMMANDS)
def test_malformed_bytes_are_rejected(input_path, payload, command):
    assert_error(*run_cli(input_path, payload, command))


@FUZZ
@given(doc=json_values, command=COMMANDS, override=KIND_OVERRIDES)
def test_any_json_shape_ends_in_a_result_or_an_error(input_path, doc, command, override):
    code, out, err = run_cli(input_path, json.dumps(doc).encode(), [*command, *override])
    if code == EXIT_OK:
        assert out and err == ""
    else:
        assert_error(code, out, err)
