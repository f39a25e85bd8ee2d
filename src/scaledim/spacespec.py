"""A tiny expression language for describing spaces on the command line.

Grammar, one expression per spec:

    interval(k,a)        discrete interval, k steps of length a
    circle(m,a)          cyclic group Z_m, edge length a
    group(p,N)           l1 sum of the first N scheduled circles, p >= 3
    wedgegroup(p,N)      wedge of the first N scheduled circles, p >= 3
    wedge(e,...)         wedge of the factor expressions
    sum(e,...)           l1 direct sum of the factor expressions
    sub(e,[i,...])       subspace on the listed point indices
    scale(e,a)           every distance multiplied by a
    matrix("path")       distance matrix read from a file

Parse errors carry the 1-based line and column; arity and range
problems point at the start of the offending call.  Calls nest at most
MAX_NESTING deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from . import construction as _cons
from .spaces import (FiniteMetricSpace, cyclic_group, from_matrix, interval,
                     l1_sum, read_matrix_file, scale, subspace, wedge)

Arg = Union[int, str, tuple, "SpaceSpec"]

# Most constructor calls open at once, innermost included; deeper specs
# are refused before the recursive parser and builder run out of stack.
MAX_NESTING = 100


@dataclass(frozen=True)
class SpaceSpec:
    """Parsed form of one constructor call."""

    name: str
    args: tuple


class SpecParseError(ValueError):
    def __init__(self, message: str, line: int, col: int,
                 expected: Optional[str] = None):
        text = f"line {line}, column {col}: {message}"
        if expected:
            text += f" (expected {expected})"
        super().__init__(text)
        self.line = line
        self.col = col
        self.expected = expected


class _Token(NamedTuple):
    kind: str
    value: object
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    line = 1
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch in "(),[]":
            out.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
        elif ch == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise SpecParseError("unterminated string", line, col)
            out.append(_Token("STRING", text[i + 1:end], line, col))
            col += end - i + 1
            i = end + 1
        elif "0" <= ch <= "9":  # ASCII only: str.isdigit() takes '³'
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            out.append(_Token("INT", int(text[i:j]), line, col))
            col += j - i
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise SpecParseError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("EOF", None, line, col))
    return out


def _positive(name):
    def check(v):
        return v >= 1
    return (f"{name} >= 1", check)


def _matrix(path: str) -> FiniteMetricSpace:
    return from_matrix(read_matrix_file(path), label=f'matrix("{path}")')


# name -> (argument shapes, per-argument range checks, builder); the
# builder takes the arguments with every expression already built.
# Shapes: "int", "string", "intlist", "expr", "expr+" (one or more).
_GRAMMAR = {
    "interval": (("int", "int"), {0: _positive("k"), 1: _positive("a")},
                 interval),
    "circle": (("int", "int"), {0: ("m >= 3", lambda v: v >= 3),
                                1: _positive("a")}, cyclic_group),
    "group": (("int", "int"), {0: ("p >= 3", lambda v: v >= 3),
                               1: _positive("N")}, _cons.group_truncation),
    "wedgegroup": (("int", "int"), {0: ("p >= 3", lambda v: v >= 3),
                                    1: _positive("N")}, _cons.wedge_truncation),
    "wedge": (("expr+",), {}, lambda *fs: wedge(fs)),
    "sum": (("expr+",), {}, lambda *fs: l1_sum(fs)),
    "sub": (("expr", "intlist"), {}, subspace),
    "scale": (("expr", "int"), {1: _positive("a")}, scale),
    "matrix": (("string",), {}, _matrix),
}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise SpecParseError(f"found {self._show(tok)}", tok.line, tok.col,
                                 expected=what)
        self.pos += 1
        return tok

    @staticmethod
    def _show(tok: _Token) -> str:
        if tok.kind == "EOF":
            return "end of input"
        return repr(str(tok.value))

    def parse_intlist(self) -> tuple:
        self.take("[", "'['")
        items = [self.take("INT", "an integer").value]
        while self.peek().kind == ",":
            self.pos += 1
            items.append(self.take("INT", "an integer").value)
        self.take("]", "']' or ','")
        return tuple(items)

    def parse_expr(self) -> SpaceSpec:
        name_tok = self.take("NAME", "a constructor name")
        name = str(name_tok.value)
        if name not in _GRAMMAR:
            raise SpecParseError(
                f"unknown constructor {name!r}", name_tok.line, name_tok.col,
                expected="one of " + ", ".join(sorted(_GRAMMAR)))
        if self.depth == MAX_NESTING:
            raise SpecParseError(
                f"calls nested more than {MAX_NESTING} deep",
                name_tok.line, name_tok.col)
        self.depth += 1
        self.take("(", "'('")
        args: list[Arg] = []
        if self.peek().kind != ")":
            args.append(self.parse_arg())
            while self.peek().kind == ",":
                self.pos += 1
                args.append(self.parse_arg())
        self.take(")", "')' or ','")
        self.depth -= 1
        self._check_call(name, args, name_tok)
        return SpaceSpec(name, tuple(args))

    def parse_arg(self) -> Arg:
        tok = self.peek()
        if tok.kind == "INT":
            self.pos += 1
            return int(tok.value)
        if tok.kind == "STRING":
            self.pos += 1
            return str(tok.value)
        if tok.kind == "[":
            return self.parse_intlist()
        if tok.kind == "NAME":
            return self.parse_expr()
        raise SpecParseError(f"found {self._show(tok)}", tok.line, tok.col,
                             expected="an argument")

    @staticmethod
    def _arg_kind(arg: Arg) -> str:
        if isinstance(arg, bool):
            return "other"
        if isinstance(arg, int):
            return "int"
        if isinstance(arg, str):
            return "string"
        if isinstance(arg, tuple):
            return "intlist"
        return "expr"

    def _check_call(self, name: str, args: list, at: _Token) -> None:
        shapes, ranges, _ = _GRAMMAR[name]
        if shapes == ("expr+",):
            if not args:
                raise SpecParseError(f"{name} needs at least one factor",
                                     at.line, at.col)
            for k, a in enumerate(args):
                if self._arg_kind(a) != "expr":
                    raise SpecParseError(
                        f"{name} argument {k + 1} must be a space expression",
                        at.line, at.col)
            return
        if len(args) != len(shapes):
            raise SpecParseError(
                f"{name} takes {len(shapes)} argument"
                f"{'s' if len(shapes) != 1 else ''}, got {len(args)}",
                at.line, at.col)
        for k, (shape, a) in enumerate(zip(shapes, args)):
            if self._arg_kind(a) != shape:
                kinds = {"int": "an integer", "string": "a quoted path",
                         "intlist": "a [..] list of indices",
                         "expr": "a space expression"}
                raise SpecParseError(
                    f"{name} argument {k + 1} must be {kinds[shape]}",
                    at.line, at.col)
            if k in ranges:
                desc, check = ranges[k]
                if not check(a):
                    raise SpecParseError(
                        f"{name} argument {k + 1} out of range: needs {desc}, "
                        f"got {a}", at.line, at.col)


def parse_spec(text: str) -> SpaceSpec:
    """Parse one space expression; reject trailing input."""
    parser = _Parser(_tokenize(text))
    spec = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise SpecParseError(f"unexpected trailing input "
                             f"{_Parser._show(tail)}", tail.line, tail.col)
    return spec


def format_spec(spec: SpaceSpec) -> str:
    """Canonical text for a parsed spec (round-trips through parse_spec)."""
    parts = []
    for a in spec.args:
        if isinstance(a, SpaceSpec):
            parts.append(format_spec(a))
        elif isinstance(a, tuple):
            parts.append("[" + ",".join(str(v) for v in a) + "]")
        elif isinstance(a, str):
            parts.append(f'"{a}"')
        else:
            parts.append(str(a))
    return f"{spec.name}(" + ",".join(parts) + ")"


def build_space(spec: SpaceSpec) -> FiniteMetricSpace:
    """Construct the space a parsed spec describes."""
    args = [build_space(a) if isinstance(a, SpaceSpec) else a for a in spec.args]
    return _GRAMMAR[spec.name][2](*args)


def build_with_witnesses(spec: SpaceSpec) -> tuple[FiniteMetricSpace, list[list[int]]]:
    """Build a space along with the index sets of its factors: the axes
    of a sum or the arms of a wedge, none for any other space."""
    space = build_space(spec)
    if space.structure is None:
        return space, []
    kind, factors = space.structure
    if kind == "sum":
        return space, _cons.l1_axis_subsets(factors)
    return space, _cons.wedge_arm_subsets(factors)
