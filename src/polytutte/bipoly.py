"""Exact sparse bivariate Laurent polynomials over the integers.

A polynomial is a finite map from exponent pairs ``(i, j)`` (both possibly
negative) to nonzero Python ints, so arithmetic is exact at any coefficient
size.  The zero polynomial is the empty map.

Canonical term order, used for rendering and JSON, is total degree
descending, then x-exponent descending.  Within one total degree the
x-exponent determines the pair, so the order has no ties and the printed
form is a pure function of the term map.

Text form: ``str`` prints terms joined by " + " / " - ", each term
``c*x^i*y^j`` with ``x^1`` shortened to ``x``, unit coefficients and zero
exponents omitted, e.g. ``x^2 + 2*x*y + y^2 - 1``.  ``parse`` reads back
this dialect and nothing else; its docstring states the grammar.

JSON form: list of ``[i, j, "c"]`` triples in canonical order, with the
coefficient as a decimal string; ``from_json`` reads exactly ``-?[0-9]+``
or a JSON integer there.

Accumulation has one zero filter, ``from_dict``: every function that sums
terms adds them into a plain dict and wraps it there.  Only ``add_scaled_into``, the hot
path, drops zeros inline.  Powers have one cache, ``cached_power``, keyed
by the base and the exponent; the package uses it for the few fixed bases
it raises again and again, (x + y - 1)^k, (x + y - xy)^k, (x - 1)^k and
(y - 1)^k.  Divisibility by x + y - 1 is decided by evaluation on the line
y = 1 - x (see ``divisible_by_x_plus_y_minus_1``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import ParseError, ReversalRange, ValidationError

Exponents = tuple[int, int]


def _canonical_order(pair: Exponents) -> tuple[int, int]:
    i, j = pair
    return (-(i + j), -i)


class BiPoly:
    """Immutable sparse polynomial in Z[x, x^-1, y, y^-1]."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        clean: dict[Exponents, int] = {}
        if terms:
            for (i, j), c in terms.items():
                if not (type(i) is int and type(j) is int and type(c) is int):  # no bools
                    raise ValidationError(f"non-integer term ({i!r}, {j!r}): {c!r}")
                if c:
                    clean[(i, j)] = c
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return _ZERO

    @staticmethod
    def one() -> "BiPoly":
        return _ONE

    @staticmethod
    def constant(c: int) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def monomial(c: int, i: int, j: int) -> "BiPoly":
        return BiPoly({(i, j): c})

    # -- basic queries -----------------------------------------------------

    def coeff(self, i: int, j: int) -> int:
        """Coefficient of x^i y^j (0 when the term is absent)."""
        return self._terms.get((i, j), 0)

    def items(self) -> list[tuple[Exponents, int]]:
        """Terms in canonical order."""
        return [(e, self._terms[e]) for e in sorted(self._terms, key=_canonical_order)]

    def support(self) -> set[Exponents]:
        return set(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Exponents, int]]:
        return iter(self.items())

    def total_degree(self) -> int:
        """Maximum i + j over stored terms; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(i + j for i, j in self._terms)

    def has_negative_exponents(self) -> bool:
        return any(i < 0 or j < 0 for i, j in self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        add_scaled_into(acc, other, 1, 0, 0)
        return _wrap(acc)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        acc: dict[Exponents, int] = {}
        for (i, j), c in self._terms.items():
            add_scaled_into(acc, other, c, i, j)
        return _wrap(acc)

    def __pow__(self, k: int) -> "BiPoly":
        if k < 0:
            raise ValidationError("negative powers of polynomials are not defined")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, di: int, dj: int) -> "BiPoly":
        """Multiply by the monomial x^di y^dj."""
        if not (di or dj):
            return self
        return _wrap({(i + di, j + dj): c for (i, j), c in self._terms.items()})

    # -- specialization and reshaping ---------------------------------------

    def substitute_one(self, axis: str) -> "BiPoly":
        """Set the given variable to 1, collapsing onto the other axis."""
        k = _axis_index(axis)
        acc: dict[Exponents, int] = {}
        for (i, j), c in self._terms.items():
            key = (0, j) if k == 0 else (i, 0)
            acc[key] = acc.get(key, 0) + c
        return from_dict(acc)

    def reversed_in(self, axis: str, n: int) -> "BiPoly":
        """Exponent reversal on one axis: x^n * p(x^-1) (or the y analogue).

        Requires the polynomial to have no negative exponents and n at least
        the maximum exponent on that axis, so the result is a polynomial.
        """
        if self.has_negative_exponents():
            raise ReversalRange("reversal requires nonnegative exponents")
        k = _axis_index(axis)
        if self._terms and n < max(e[k] for e in self._terms):
            raise ReversalRange(f"reversal bound {n} below maximum {axis}-exponent")
        if k == 0:
            return _wrap({(n - i, j): c for (i, j), c in self._terms.items()})
        return _wrap({(i, n - j): c for (i, j), c in self._terms.items()})

    def swap_vars(self) -> "BiPoly":
        """Exchange the roles of x and y."""
        return _wrap({(j, i): c for (i, j), c in self._terms.items()})

    def evaluate(self, xv: int, yv: int) -> int | Fraction:
        """Exact value at integer arguments (Fraction only when a negative
        exponent meets a base other than +-1)."""
        total: int | Fraction = 0
        for (i, j), c in self._terms.items():
            term: int | Fraction = c
            for base, e in ((xv, i), (yv, j)):
                if e >= 0:
                    term *= base ** e
                else:
                    if base == 0:
                        raise ZeroDivisionError("negative exponent at 0")
                    term *= Fraction(1, base ** (-e))
            total += term
        if isinstance(total, Fraction) and total.denominator == 1:
            return int(total)
        return total

    def divisible_by_x_plus_y_minus_1(self) -> bool:
        """Exact divisibility by (x + y - 1), for nonnegative-exponent input.

        Modulo x + y - 1, y is 1 - x, so p is a multiple exactly when the
        univariate p(t, 1 - t), of degree at most d = deg p, is zero, which
        holds exactly when it vanishes at the d + 1 points t = 0..d.
        """
        if self.has_negative_exponents():
            raise ValidationError("division requires nonnegative exponents")
        return not any(self.evaluate(t, 1 - t) for t in range(self.total_degree() + 1))

    # -- equality, hashing, rendering ---------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"BiPoly({self})"

    def __str__(self) -> str:
        return render(self)


def _wrap(terms: dict[Exponents, int]) -> BiPoly:
    """Internal fast constructor for already-clean term dicts."""
    p = BiPoly()
    object.__setattr__(p, "_terms", terms)
    return p


def _axis_index(axis: str) -> int:
    if axis == "x":
        return 0
    if axis == "y":
        return 1
    raise ValidationError(f"unknown axis {axis!r}, expected 'x' or 'y'")


_ZERO = BiPoly()
_ONE = BiPoly({(0, 0): 1})
X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})
X_PLUS_Y_MINUS_1 = BiPoly({(1, 0): 1, (0, 1): 1, (0, 0): -1})


@lru_cache(maxsize=None)
def cached_power(base: BiPoly, k: int) -> BiPoly:
    """base^k, cached per (base, k): the one power table, for the few fixed
    polynomials the package raises again and again."""
    return base ** k


def add_scaled_into(acc: dict[Exponents, int], p: BiPoly, c: int, di: int, dj: int) -> None:
    """Accumulate c * x^di y^dj * p into a raw term dict (hot-path helper)."""
    if c == 0:
        return
    for (i, j), v in p._terms.items():
        e = (i + di, j + dj)
        s = acc.get(e, 0) + c * v
        if s:
            acc[e] = s
        else:
            del acc[e]


def from_dict(acc: Mapping[Exponents, int]) -> BiPoly:
    """Wrap an accumulated term dict (zero coefficients are dropped)."""
    return _wrap({e: c for e, c in acc.items() if c})


# -- text form ---------------------------------------------------------------


def _monomial_body(i: int, j: int) -> str:
    parts = []
    for sym, e in (("x", i), ("y", j)):
        if e == 1:
            parts.append(sym)
        elif e != 0:
            parts.append(f"{sym}^{e}")
    return "*".join(parts)


def render(p: BiPoly) -> str:
    """Canonical text form; inverse of ``parse``."""
    items = p.items()
    if not items:
        return "0"
    chunks: list[str] = []
    for idx, ((i, j), c) in enumerate(items):
        body = _monomial_body(i, j)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if idx == 0:
            chunks.append(text if c > 0 else f"-{text}")
        else:
            chunks.append(f"{' + ' if c > 0 else ' - '}{text}")
    return "".join(chunks)


# One term of parse's grammar; one quantifier per blank run keeps a failing match linear.
_TERM = re.compile(
    r"\s*([+-])\s*(?:([0-9]+)(?:\s*\*\s*(?=[xy])|(?![xy]))|(?=[xy]))"
    r"(?:(x)(?:\^(-?[0-9]+))?(?:\s*\*\s*(?=y)|(?!y)))?(?:(y)(?:\^(-?[0-9]+))?)?"
)


def parse(text: str) -> BiPoly:
    """Read the dialect ``render`` prints: terms, each a sign (optional on
    the first) and c, x[^i], y[^j], x[^i]*y[^j] or c* before one of those;
    c a run of ASCII digits, i and j optionally negative; blanks around signs,
    numbers, variables and *, not inside x^i; repeated terms add up.  Other
    text (y*x, x*x, 2*3, x*2, ...) or a number past the digit limit is a ParseError."""
    text = text.strip()
    if text[:1] not in ("+", "-"):  # "" becomes "+", which no term matches
        text = "+" + text
    acc: dict[Exponents, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or not (m[2] or m[3] or m[5]):
            raise ParseError(f"expected a signed term at {text[pos:pos + 40]!r}")
        sign, c, x, i, y, j = m.groups()
        try:  # int() refuses a number past the interpreter's digit limit
            key = (int(i or 1) if x else 0, int(j or 1) if y else 0)
            coeff = int(sign + (c or "1"))
        except ValueError as exc:
            raise ParseError(f"number too long in {m[0].strip()[:40]!r}") from exc
        acc[key] = acc.get(key, 0) + coeff
        pos = m.end()
    return from_dict(acc)


# -- JSON form ----------------------------------------------------------------


def to_json(p: BiPoly) -> list[list]:
    """Canonically ordered [i, j, "coeff"] triples."""
    return [[i, j, str(c)] for (i, j), c in p.items()]


_DECIMAL = re.compile(r"-?[0-9]+")


def from_json(data: Iterable) -> BiPoly:
    """Sum the [i, j, c] triples: i and j JSON integers, c a decimal string
    (an optional minus sign and ASCII digits, nothing else) or a JSON
    integer.  Any other type or text, a float, a bool, a string exponent,
    whitespace, underscores or non-ASCII digits, is a ParseError, not a
    number to round or a spelling for int() to forgive."""
    acc: dict[Exponents, int] = {}
    for row in data:
        try:
            i, j, c = row
            if not (type(i) is int and type(j) is int
                    and (type(c) is int or type(c) is str and _DECIMAL.fullmatch(c))):
                raise TypeError
            v = int(c)  # ValueError past the interpreter's digit limit
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad polynomial triple {row!r}") from exc
        acc[i, j] = acc.get((i, j), 0) + v
    return from_dict(acc)
