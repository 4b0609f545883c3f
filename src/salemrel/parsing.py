"""Polynomial expression parser for the command line.

Grammar:
    expr := term (('+'|'-') term)*
    term := [integer]['x'['^' natural]]
with an optional sign on the first term, insignificant whitespace, and the
alternative bracketed ascending coefficient list "[c0,c1,...]".  Exponents
are at most 10**6.  Parsing the canonical printed form returns the same
polynomial.
"""

from __future__ import annotations

from .polyarith import IntPoly, format_poly

__all__ = ["EmptyInput", "parse_poly", "format_poly"]


# the dense coefficient tuple has exponent + 1 entries: x^1000000 takes about
# a second to build and print, x^99999999999 exhausts memory or runs for
# minutes before any command can start
_MAX_EXPONENT = 10 ** 6


class EmptyInput(ValueError):
    """No polynomial text was supplied."""


def _syntax_error(text: str, pos: int, message: str) -> SyntaxError:
    err = SyntaxError(f"{message} at offset {pos}")
    err.offset = pos
    err.text = text
    return err


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def natural(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise _syntax_error(self.text, start, f"expected {what}")
        return int(self.text[start:self.pos])


def _parse_bracketed(text: str) -> IntPoly:
    sc = _Scanner(text)
    sc.advance()  # '['
    coeffs = []
    if sc.peek() == "]":
        raise _syntax_error(text, sc.pos, "empty coefficient list")
    while True:
        sign = 1
        if sc.peek() in "+-":
            if sc.advance() == "-":
                sign = -1
        coeffs.append(sign * sc.natural("integer coefficient"))
        ch = sc.peek()
        if ch == ",":
            sc.advance()
            continue
        if ch == "]":
            sc.advance()
            break
        raise _syntax_error(text, sc.pos, "expected ',' or ']'")
    sc.skip_ws()
    if sc.pos != len(text):
        raise _syntax_error(text, sc.pos, "trailing input after ']'")
    return IntPoly(tuple(coeffs))


def parse_poly(text: str) -> IntPoly:
    """Exact IntPoly from an expression or bracketed coefficient list."""
    if text is None or not text.strip():
        raise EmptyInput("no polynomial given")
    stripped = text.strip()
    if stripped.startswith("["):
        return _parse_bracketed(stripped)

    sc = _Scanner(text)
    acc: dict[int, int] = {}
    first = True
    while True:
        sc.skip_ws()
        if sc.pos >= len(text):
            if first:
                raise EmptyInput("no polynomial given")
            break
        sign = 1
        ch = sc.peek()
        if ch in "+-":
            if first and sc.text[sc.pos:].lstrip() == "":
                raise _syntax_error(text, sc.pos, "dangling sign")
            sc.advance()
            if ch == "-":
                sign = -1
        elif not first:
            raise _syntax_error(text, sc.pos, "expected '+' or '-'")
        sc.skip_ws()
        term_start = sc.pos
        coeff = None
        if sc.pos < len(text) and text[sc.pos].isdigit():
            coeff = sc.natural("integer")
        power = 0
        if sc.peek() == "x":
            sc.advance()
            power = 1
            if sc.peek() == "^":
                sc.advance()
                sc.skip_ws()
                if sc.pos < len(text) and text[sc.pos] == "-":
                    raise _syntax_error(text, sc.pos,
                                        "negative exponent not allowed")
                exp_start = sc.pos
                power = sc.natural("exponent")
                if power > _MAX_EXPONENT:
                    raise _syntax_error(text, exp_start,
                                        f"exponent exceeds {_MAX_EXPONENT}")
        if coeff is None:
            if power == 0 and sc.pos == term_start:
                raise _syntax_error(text, sc.pos, "expected term")
            coeff = 1
        acc[power] = acc.get(power, 0) + sign * coeff
        first = False
    degree = max(acc) if acc else 0
    return IntPoly(tuple(acc.get(i, 0) for i in range(degree + 1)))
