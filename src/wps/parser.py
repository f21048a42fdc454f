"""Recursive-descent parser for the polynomial and point input grammars.

Polynomial grammar: variables x0..x9 or letter names for the ambient
variable count; operators + - * ^; integer or num/den coefficients;
parentheses, nested at most _MAX_DEPTH deep.  Implicit multiplication
is rejected ('2x' must be '2*x').
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, TooLarge, UnknownVariable, check_length, check_work
from .exactmath import QQ
from .weights import Weight
from .wpoly import WPolynomial, power_steps, variable_names

_OPS = set("+-*^()/")
# four parser frames per level: well below Python's default recursion limit of 1000
_MAX_DEPTH = 100


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'num', 'name', or the operator character
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            check_length(text[i:j], f"the integer at position {i}")
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            # x may carry a single digit suffix (x0..x9); other names are bare letters
            if ch == "x" and i + 1 < len(text) and text[i + 1].isdigit():
                out.append(_Token("name", text[i : i + 2], i))
                i += 2
            else:
                out.append(_Token("name", ch, i))
                i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return out


class _Parser:
    def __init__(self, text: str, weight: Weight):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.work = 0  # steps spent on products and powers so far
        self.weight = tuple(weight)
        self.names = variable_names(len(self.weight))

    def peek(self) -> _Token | None:
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def take(self, kind: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        self.k += 1
        return tok

    def spend(self, steps: int, what: str) -> None:
        """Add steps to the running total and check the total before the step."""
        self.work += steps
        check_work(self.work, what)

    def parse(self) -> WPolynomial:
        poly = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return poly

    def expr(self) -> WPolynomial:
        """A signed sum of terms, added into one dict: adding each term to a copy
        of the sum so far took time quadratic in their count."""
        out, tok = {}, self.peek()
        sign = self.take().kind if tok is not None and tok.kind in "+-" else "+"
        while True:
            for e, c in self.term().terms.items():
                out[e] = out.get(e, 0) + (c if sign == "+" else -c)
            if (tok := self.peek()) is None or tok.kind not in "+-":
                return WPolynomial(self.weight, QQ, out)
            sign = self.take().kind

    def term(self) -> WPolynomial:
        acc = self.power()
        while True:
            tok = self.peek()
            if tok is None or tok.kind in "+-)":
                return acc
            if tok.kind == "/":
                raise ParseError("'/' is only allowed between integer literals", tok.pos)
            if tok.kind != "*":
                raise ParseError(
                    f"unexpected {tok.text!r} (implicit multiplication is not allowed)",
                    tok.pos,
                )
            self.take()
            rhs = self.power()
            t, u = len(acc.terms), len(rhs.terms)
            self.spend(t * u, f"{t}-by-{u}-term product at position {tok.pos}")
            acc = acc * rhs

    def power(self) -> WPolynomial:
        base = self.primary()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.take()
            exp = self.take("num")
            m = int(exp.text)
            self.spend(power_steps(base, m), f"{len(base.terms)}-term base raised to {m} at position {tok.pos}")
            base = base**m
        return base

    def primary(self) -> WPolynomial:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if tok.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise TooLarge(f"parentheses nested deeper than {_MAX_DEPTH} at position {tok.pos}")
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        if tok.kind == "num":
            self.take()
            value = Fraction(int(tok.text))
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.take()
                den = self.take("num")
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                value = value / int(den.text)
            return WPolynomial(self.weight, QQ, {(0,) * len(self.weight): value})
        if tok.kind == "name":
            self.take()
            idx = self.var_index(tok)
            e = [0] * len(self.weight)
            e[idx] = 1
            return WPolynomial(self.weight, QQ, {tuple(e): 1})
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)

    def var_index(self, tok: _Token) -> int:
        name = tok.text
        if len(name) == 2 and name[0] == "x" and name[1].isdigit():
            idx = int(name[1])
            if idx >= len(self.weight):
                raise UnknownVariable(
                    f"variable {name!r} out of range for {len(self.weight)} variables", tok.pos
                )
            return idx
        if name in self.names:
            return self.names.index(name)
        raise UnknownVariable(
            f"unknown variable {name!r}; expected one of {', '.join(self.names)} or x0..x{len(self.weight) - 1}",
            tok.pos,
        )


def parse_polynomial(text: str, weight: Weight) -> WPolynomial:
    """Parse text into a canonical WPolynomial over Q (like terms combined);
    `wpoly.reduce_mod` takes it to F_p."""
    return _Parser(text, weight).parse()


def parse_upolynomial(text: str) -> list[Fraction]:
    """Parse a univariate polynomial in t, e.g. '1 - t^6', into its dense list
    of rational coefficients, constant first, no trailing zeros."""
    parser = _Parser(text, (1,))
    parser.names = ["t"]
    terms = parser.parse().terms
    top = max((e[0] for e in terms), default=-1)
    check_work(top + 1, f"dense polynomial of degree {top}")
    coeffs = [QQ.zero] * (top + 1)
    for e, c in terms.items():
        coeffs[e[0]] = c
    return coeffs


def parse_point_coords(text: str, field, expected: int) -> list:
    """Parse colon-separated field elements, e.g. '1:0:2' or '3:-1/2:0'."""
    parts = text.split(":")
    if len(parts) != expected:
        raise ParseError(f"point {text!r} needs {expected} coordinates")
    coords = []
    for part in parts:
        part = part.strip()
        check_length(part, f"a coordinate of point {text[:20]}...")
        try:
            coords.append(field.coerce(Fraction(part)))
        except Exception:
            raise ParseError(f"bad coordinate {part!r} in point {text!r}")
    return coords
