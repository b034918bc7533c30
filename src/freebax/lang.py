"""Surface syntax for algebra elements.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := nat ('/' nat)? | 'lam' | variable
            | 'P' '(' expr ')' | 'T' '(' polyexpr (',' polyexpr)* ')'
            | 'U' '(' nat ')'  | 'geom' '(' expr ')' | '(' expr ')'

``T(e0, ..., en)`` builds a tensor word from polynomial-valued arguments
(no nested T/P/U/geom); ``U(n)`` is the pure unit word of degree n;
``P`` is the Baxter operator; ``geom(c)`` is the geometric unit series,
which promotes the whole evaluation to the completion at the working
precision.  Rendering is canonical and parse(render(a)) = a for finite a.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import series as sr
from .poly import Poly
from .rings import Coeff
from .shuffle import (
    Context,
    Element,
    baxter_P,
    one,
    scalar,
    tensor_word,
    unit_word,
    variable,
    zero,
)

RESERVED = ("P", "T", "U", "geom", "lam")

# Deepest nesting an expression may have: the whole expression is level 1,
# and each bracket and each unary minus opens one more.  Parsing and
# evaluation recurse once per level, so the limit turns deep input into a
# ParseError instead of a RecursionError.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    pass


# --- AST ---

@dataclass(frozen=True)
class Lit:
    num: int
    den: int = 1

@dataclass(frozen=True)
class LamRef:
    pass

@dataclass(frozen=True)
class VarRef:
    name: str

@dataclass(frozen=True)
class Neg:
    arg: object

@dataclass(frozen=True)
class Add:
    left: object
    right: object

@dataclass(frozen=True)
class Sub:
    left: object
    right: object

@dataclass(frozen=True)
class Mul:
    left: object
    right: object

@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int

@dataclass(frozen=True)
class POp:
    arg: object

@dataclass(frozen=True)
class Tensor:
    factors: tuple

@dataclass(frozen=True)
class UnitWord:
    degree: int

@dataclass(frozen=True)
class Geom:
    ratio: object


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^/,]))")


def _tokenize(src: str):
    tokens, i = [], 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if not m or m.end() == i:
            stripped = src[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(src) - len(stripped))
        if m.group(1) is not None:
            tokens.append(("nat", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        i = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, variables):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.variables = None if variables is None else tuple(variables)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse(self):
        e = self.expr(in_word=False)
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected trailing input {t[1]!r}", t[2])
        return e

    def expr(self, in_word: bool):
        e = self.term(in_word)
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term(in_word)
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self, in_word: bool):
        e = self.factor(in_word)
        while self.peek()[0] == "*":
            self.next()
            e = Mul(e, self.factor(in_word))
        return e

    def factor(self, in_word: bool):
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", self.peek()[2])
        self.depth += 1
        if self.peek()[0] == "-":
            self.next()
            e = Neg(self.factor(in_word))
        else:
            e = self.atom(in_word)
            if self.peek()[0] == "^":
                self.next()
                t = self.expect("nat")
                e = Pow(e, t[1])
        self.depth -= 1
        return e

    def atom(self, in_word: bool):
        kind, value, pos = self.next()
        if kind == "nat":
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("nat")
                if den[1] == 0:
                    raise ParseError("zero denominator", den[2])
                return Lit(value, den[1])
            return Lit(value)
        if kind == "(":
            e = self.expr(in_word)
            self.expect(")")
            return e
        if kind == "name":
            if value == "lam":
                return LamRef()
            if value in ("P", "T", "U", "geom"):
                if in_word:
                    raise ParseError(
                        f"{value!r} cannot appear inside T(...): word factors must be "
                        "polynomial expressions",
                        pos,
                    )
                return self.constructor(value, pos)
            if self.variables is not None and value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", pos)
            return VarRef(value)
        raise ParseError(f"unexpected token {value!r}", pos)

    def constructor(self, name: str, pos: int):
        self.expect("(")
        if name == "U":
            n = self.expect("nat")[1]
            self.expect(")")
            return UnitWord(n)
        if name == "T":
            factors = [self.expr(in_word=True)]
            while self.peek()[0] == ",":
                self.next()
                factors.append(self.expr(in_word=True))
            self.expect(")")
            return Tensor(tuple(factors))
        arg = self.expr(in_word=False)
        self.expect(")")
        return POp(arg) if name == "P" else Geom(arg)


def parse(src: str, variables=None):
    """Parse a source expression to an AST; when a variable set is given,
    unknown names are rejected with their position."""
    return _Parser(src, variables).parse()


# --- evaluation ---

def _lit_coeff(node: Lit, ctx: Context) -> Coeff:
    ring = ctx.ring
    if node.den == 1:
        return ring.coeff(node.num)
    if ring.kind == "rat":
        return ring.coeff(Fraction(node.num, node.den))
    if ring.kind == "int":
        if node.num % node.den:
            raise EvalError(f"{node.num}/{node.den} is not an integer")
        return ring.coeff(node.num // node.den)
    from .rings import inverse, is_unit

    den = ring.coeff(node.den)
    if not is_unit(den):
        raise EvalError(f"{node.den} is not invertible in {ring}")
    return ring.coeff(node.num) * inverse(den)


def _eval_poly(node, ctx: Context) -> Poly:
    ring = ctx.ring
    if isinstance(node, Lit):
        return Poly.constant(_lit_coeff(node, ctx))
    if isinstance(node, LamRef):
        return Poly.constant(ctx.lam)
    if isinstance(node, VarRef):
        if node.name not in ctx.variables:
            raise EvalError(f"unknown variable {node.name!r}")
        return Poly.variable(ring, node.name)
    if isinstance(node, Neg):
        return -_eval_poly(node.arg, ctx)
    if isinstance(node, Add):
        return _eval_poly(node.left, ctx) + _eval_poly(node.right, ctx)
    if isinstance(node, Sub):
        return _eval_poly(node.left, ctx) - _eval_poly(node.right, ctx)
    if isinstance(node, Mul):
        return _eval_poly(node.left, ctx) * _eval_poly(node.right, ctx)
    if isinstance(node, Pow):
        return _eval_poly(node.base, ctx) ** node.exponent
    raise EvalError(f"word factors must be polynomial expressions, got {type(node).__name__}")


def _promote(a, b):
    if isinstance(a, sr.Series) and isinstance(b, Element):
        return a, sr.embed(b, a.precision)
    if isinstance(a, Element) and isinstance(b, sr.Series):
        return sr.embed(a, b.precision), b
    return a, b


def _as_scalar(value, what: str) -> Coeff:
    if isinstance(value, sr.Series):
        raise EvalError(f"{what} must be a scalar, not a series")
    for w, c in value.terms:
        if len(w) != 1 or not w[0].is_unit():
            raise EvalError(f"{what} must be a scalar element")
    return value.terms[0][1] if value.terms else value.ctx.ring.zero()


def evaluate(node, ctx: Context, precision: int = 12):
    """Evaluate an AST to a finite element, or to a series once geom
    appears anywhere in the expression."""
    if isinstance(node, Lit):
        return scalar(ctx, _lit_coeff(node, ctx))
    if isinstance(node, LamRef):
        return scalar(ctx, ctx.lam)
    if isinstance(node, VarRef):
        if node.name not in ctx.variables:
            raise EvalError(f"unknown variable {node.name!r}")
        return variable(ctx, node.name)
    if isinstance(node, UnitWord):
        return unit_word(ctx, node.degree)
    if isinstance(node, Tensor):
        return tensor_word(ctx, *[_eval_poly(f, ctx) for f in node.factors])
    if isinstance(node, Geom):
        ratio = _as_scalar(evaluate(node.ratio, ctx, precision), "geom ratio")
        return sr.geometric_unit_series(ctx, ratio, precision)
    if isinstance(node, POp):
        arg = evaluate(node.arg, ctx, precision)
        return sr.complete_P(arg) if isinstance(arg, sr.Series) else baxter_P(arg)
    if isinstance(node, Neg):
        return -evaluate(node.arg, ctx, precision)
    if isinstance(node, (Add, Sub, Mul)):
        a = evaluate(node.left, ctx, precision)
        b = evaluate(node.right, ctx, precision)
        a, b = _promote(a, b)
        if isinstance(node, Add):
            return a + b
        if isinstance(node, Sub):
            return a - b
        return a * b
    if isinstance(node, Pow):
        base = evaluate(node.base, ctx, precision)
        if node.exponent == 0:
            return sr.embed(one(ctx), base.precision) if isinstance(base, sr.Series) else one(ctx)
        out = base
        for _ in range(node.exponent - 1):
            out = out * base
        return out
    raise EvalError(f"cannot evaluate node {node!r}")


def evaluate_source(src: str, ctx: Context, precision: int = 12):
    return evaluate(parse(src, ctx.variables), ctx, precision)


def render(value) -> str:
    """Canonical text; finite elements re-parse to themselves."""
    return str(value)
