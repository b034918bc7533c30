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
    baxter_P,
    from_raw,
    scalar,
    tensor_word,
    unit_word,
    variable,
)

RESERVED = ("P", "T", "U", "geom", "lam")

# Deepest nesting an expression may have: the whole expression is level 1,
# and each bracket and each unary minus opens one more.  Parsing and
# evaluation recurse once per level, so the limit turns deep input into a
# ParseError instead of a RecursionError.
MAX_NESTING = 100

# Largest n accepted in U(n): the word has n+1 factors, so a larger n would
# exhaust memory instead of raising a ParseError.
MAX_UNIT_DEGREE = 100_000


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


# the last group catches any other character, so the matches cover the
# whole source but trailing whitespace
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^/,])|(\S))")


def _tokenize(src: str):
    tokens = []
    for m in _TOKEN.finditer(src):
        nat, name, punct, other = m.groups()
        if nat is not None:
            try:
                value = int(nat)
            except ValueError:  # longer than the interpreter's int-string limit
                raise ParseError(f"integer literal of {len(nat)} digits is too long", m.start(1)) from None
            tokens.append(("nat", value, m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        elif punct is not None:
            tokens.append((punct, punct, m.start(3)))
        else:
            raise ParseError(f"unexpected character {other!r}", m.start(4))
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, variables):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.variables = None if variables is None else tuple(variables)
        self.word_factors: dict = {}  # token run -> the one node parsed from it

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
            _, n, npos = self.expect("nat")
            if n > MAX_UNIT_DEGREE:
                raise ParseError(f"unit word degree {n} exceeds {MAX_UNIT_DEGREE}", npos)
            self.expect(")")
            return UnitWord(n)
        if name == "T":
            factors = [self.word_factor()]
            while self.peek()[0] == ",":
                self.next()
                factors.append(self.word_factor())
            self.expect(")")
            return Tensor(tuple(factors))
        arg = self.expr(in_word=False)
        self.expect(")")
        return POp(arg) if name == "P" else Geom(arg)

    def word_factor(self):
        """One argument of T(...).  Equal token runs give one shared node,
        so evaluation can memoize factors by node identity without hashing
        the tree, which recurses once per level."""
        start = self.i
        e = self.expr(in_word=True)
        key = tuple(t[:2] for t in self.tokens[start:self.i])
        return self.word_factors.setdefault(key, e)


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


def _chain(node, kinds):
    """The first operand of a chain of ``kinds`` nodes and its (node type,
    right operand) steps in source order.  The parser builds ``a + b + c``
    as ``(a + b) + c``, so the left spine is walked in a loop: recursing on
    it would go one level deeper per operand."""
    steps = []
    while type(node) in kinds:
        steps.append((type(node), node.right))
        node = node.left
    steps.reverse()
    return node, steps


def _sum(node, evaluate_operand, from_acc):
    """Evaluate an Add/Sub chain in one dict: the raw terms of each operand
    go in as soon as it is evaluated, and ``from_acc`` normalizes the dict
    once.  A series operand adds its finite part and caps the precision, so
    the result is the finite sum cut at the lowest series precision, which
    is what adding the operands pairwise gives."""
    first, steps = _chain(node, (Add, Sub))
    acc: dict = {}
    get = acc.get
    precision = None
    for kind, operand in [(Add, first)] + steps:
        value = evaluate_operand(operand)
        if isinstance(value, sr.Series):
            precision = value.precision if precision is None else min(precision, value.precision)
            value = value.finite_part()
        if kind is Sub:
            for k, v in value.raw_items():
                acc[k] = get(k, 0) - v
        else:
            for k, v in value.raw_items():
                acc[k] = get(k, 0) + v
    total = from_acc(acc)
    return total if precision is None else sr.embed(total, precision)


def _product(node, evaluate_operand):
    """Evaluate a Mul chain left to right; a series times an element, in
    either order, is their product in the completion."""
    first, steps = _chain(node, (Mul,))
    value = evaluate_operand(first)
    for _, operand in steps:
        value = value * evaluate_operand(operand)
    return value


def _eval_poly(node, ctx: Context) -> Poly:
    ring = ctx.ring
    if type(node) in (Add, Sub):
        return _sum(node, lambda operand: _eval_poly(operand, ctx), lambda acc: Poly.from_raw(ring, acc))
    if type(node) is Mul:
        return _product(node, lambda operand: _eval_poly(operand, ctx))
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
    if isinstance(node, Pow):
        return _eval_poly(node.base, ctx) ** node.exponent
    raise EvalError(f"word factors must be polynomial expressions, got {type(node).__name__}")


def _as_scalar(value, what: str) -> Coeff:
    if isinstance(value, sr.Series):
        raise EvalError(f"{what} must be a scalar, not a series")
    terms = value.terms
    for w, c in terms:
        if len(w) != 1 or not w[0].is_unit():
            raise EvalError(f"{what} must be a scalar element")
    return terms[0][1] if terms else value.ctx.ring.zero()


def evaluate(node, ctx: Context, precision: int = 12):
    """Evaluate an AST to a finite element, or to a series once geom
    appears anywhere in the expression.  Each word-factor node is evaluated
    once per call, however many words share it."""
    factors: dict = {}  # id of a word-factor node -> its Poly; lives for this call

    def word_factor(f) -> Poly:
        poly = factors.get(id(f))
        if poly is None:
            poly = factors[id(f)] = _eval_poly(f, ctx)
        return poly

    def value(node):
        if type(node) in (Add, Sub):
            return _sum(node, value, lambda acc: from_raw(ctx, acc))
        if type(node) is Mul:
            return _product(node, value)
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
            return tensor_word(ctx, *[word_factor(f) for f in node.factors])
        if isinstance(node, Geom):
            ratio = _as_scalar(value(node.ratio), "geom ratio")
            return sr.geometric_unit_series(ctx, ratio, precision)
        if isinstance(node, POp):
            arg = value(node.arg)
            return sr.complete_P(arg) if isinstance(arg, sr.Series) else baxter_P(arg)
        if isinstance(node, Neg):
            return -value(node.arg)
        if isinstance(node, Pow):
            return value(node.base) ** node.exponent
        raise EvalError(f"cannot evaluate node {node!r}")

    return value(node)


def evaluate_source(src: str, ctx: Context, precision: int = 12):
    return evaluate(parse(src, ctx.variables), ctx, precision)


def render(value) -> str:
    """Canonical text; finite elements re-parse to themselves."""
    return str(value)
