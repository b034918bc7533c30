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
precision.  ``str`` of a value is canonical, and parse(str(a)) = a for
finite a.  A sum is evaluated into one dict: a scaled word ``c*T(...)``
adds its coefficient times the raw terms that ``shuffle._expand_word``,
the expansion of ``tensor_word``, builds from the memoized word factors.
"""
from __future__ import annotations

import re
import sys

from . import series as sr
from ._record import record
from .rings import Coeff, literal_value
from .shuffle import (
    NAME,
    RESERVED,
    Context,
    _expand_word,
    baxter_P,
    from_raw,
    scalar,
    unit_word,
    variable,
)

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

@record
class Lit:
    num: int
    den: int = 1

@record
class LamRef:
    pass

@record
class VarRef:
    name: str

@record
class Neg:
    arg: object

@record
class Sum:
    first: object
    rest: tuple  # (subtracted, operand) pairs, in source order

@record
class Product:
    factors: tuple

@record
class Pow:
    base: object
    exponent: int

@record
class POp:
    arg: object

@record
class Tensor:
    factors: tuple

@record
class UnitWord:
    degree: int

@record
class Geom:
    ratio: object


# One match per token, as a plain string; the last alternative catches any
# other character, so the matches cover the whole source but trailing
# whitespace.  A token is classified by its first character, as the
# alternative that matched it would: a name starts with an ASCII letter or
# "_", punctuation is one character, and anything else that passed _BAD is
# a run of decimal digits (``\d``, so Unicode digits count).
_TOKEN = re.compile(rf"\s*(\d+|{NAME.pattern}|[()+\-*^/,]|\S)")
# the characters no token can start or continue: each is a catch-all match
_BAD = re.compile(r"[^\s\dA-Za-z_()+\-*^/,]")
_KIND = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name"),
    **{c: c for c in "()+-*^/,"},
    "": "end",
}


# the interpreter's int-string limit (0: none); absent before Python 3.10.7
_int_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _shown(tok: str) -> str:
    kind = _KIND.get(tok[:1], "nat")
    if kind == "end":
        return "end of input"
    return tok if kind == "nat" else repr(tok)


def _tokenize(src: str) -> list:
    tokens = _TOKEN.findall(src)
    limit = _int_limit()
    if _BAD.search(src) or (limit and re.search(rf"(?<!\d)\d{{{limit + 1}}}", src)):
        # the first bad character or over-long literal, in source order; a
        # run of digits that ends a long name is no error
        for m in _TOKEN.finditer(src):
            tok = m.group(1)
            if _BAD.match(tok):
                raise ParseError(f"unexpected character {tok!r}", m.start(1))
            if limit and len(tok) > limit and _KIND.get(tok[0], "nat") == "nat":
                raise ParseError(f"integer literal of {len(tok)} digits is too long", m.start(1))
    tokens.append("")  # end of input: no match is empty
    return tokens


class _Parser:
    def __init__(self, src: str, variables):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.peak = 0  # deepest level entered since the current word factor began
        self.variables = None if variables is None else tuple(variables)
        # T(...) argument token run -> (its node, the levels it nests below its T)
        self.word_factors: dict = {}

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at token ``index``; its source position is found
        only now, by matching the tokens again up to it."""
        if index == len(self.tokens) - 1:
            return ParseError(message, len(self.src))
        matches = _TOKEN.finditer(self.src)
        for _ in range(index):
            next(matches)
        return ParseError(message, next(matches).start(1))

    def expect(self, tok: str):
        if self.tokens[self.i] != tok:
            raise self.error(f"expected {tok!r}, found {_shown(self.tokens[self.i])}", self.i)
        self.i += 1

    def nat(self) -> int:
        tok = self.tokens[self.i]
        if _KIND.get(tok[:1], "nat") != "nat":
            raise self.error(f"expected 'nat', found {_shown(tok)}", self.i)
        self.i += 1
        return int(tok)

    def parse(self):
        e = self.expr(False)
        tok = self.tokens[self.i]
        if tok:
            raise self.error(f"unexpected trailing input {_shown(tok)}", self.i)
        return e

    def expr(self, in_word: bool):
        """Terms joined by "+" and "-": one Sum node, or the term alone."""
        tokens = self.tokens
        first = self.term(in_word)
        rest = []
        while tokens[self.i] in ("+", "-"):
            subtracted = tokens[self.i] == "-"
            self.i += 1
            rest.append((subtracted, self.term(in_word)))
        return Sum(first, tuple(rest)) if rest else first

    def term(self, in_word: bool):
        """Factors joined by "*": one Product node, or the factor alone."""
        tokens = self.tokens
        factors = [self.factor(in_word)]
        while tokens[self.i] == "*":
            self.i += 1
            factors.append(self.factor(in_word))
        return Product(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(self, in_word: bool):
        """A unary minus, or an atom with an optional "^" exponent; each
        factor is one nesting level."""
        depth = self.depth
        i = self.i
        if depth == MAX_NESTING:
            raise self.error(f"expression nests deeper than {MAX_NESTING} levels", i)
        self.depth = depth = depth + 1
        if depth > self.peak:
            self.peak = depth
        tokens = self.tokens
        tok = tokens[i]
        kind = _KIND.get(tok[:1], "nat")
        self.i = i + 1
        if kind == "-":
            e = Neg(self.factor(in_word))
            self.depth = depth - 1
            return e
        if kind == "nat":
            if tokens[i + 1] == "/":
                self.i += 1
                den = self.nat()
                if den == 0:
                    raise self.error("zero denominator", i + 2)
                e = Lit(int(tok), den)
            else:
                e = Lit(int(tok))
        elif kind == "name":
            if tok not in RESERVED:
                if self.variables is not None and tok not in self.variables:
                    raise self.error(f"unknown variable {tok!r}", i)
                e = VarRef(tok)
            elif tok == "lam":
                e = LamRef()
            elif in_word:
                raise self.error(
                    f"{tok!r} cannot appear inside T(...): word factors must be "
                    "polynomial expressions",
                    i,
                )
            else:
                e = self.constructor(tok)
        elif kind == "(":
            e = self.expr(in_word)
            self.expect(")")
        else:
            raise self.error("unexpected end of input" if kind == "end" else f"unexpected token {tok!r}", i)
        if tokens[self.i] == "^":
            self.i += 1
            e = Pow(e, self.nat())
        self.depth = depth - 1
        return e

    def constructor(self, name: str):
        self.expect("(")
        if name == "U":
            n = self.nat()
            if n > MAX_UNIT_DEGREE:
                raise self.error(f"unit word degree {n} exceeds {MAX_UNIT_DEGREE}", self.i - 1)
            self.expect(")")
            return UnitWord(n)
        if name == "T":
            factors = [self.word_factor()]
            while self.tokens[self.i] == ",":
                self.i += 1
                factors.append(self.word_factor())
            self.expect(")")
            return Tensor(tuple(factors))
        arg = self.expr(False)
        self.expect(")")
        return POp(arg) if name == "P" else Geom(arg)

    def word_factor(self):
        """One argument of T(...).  Its token run, up to the "," or ")" at
        bracket depth 0, is a memo key: a run seen before is skipped and
        its node shared, so evaluation can memoize factors by node identity
        without hashing the tree, which recurses once per level.  A shared
        node is taken only where parsing the run again would stay within
        MAX_NESTING, so the limit raises at the same place either way."""
        tokens = self.tokens
        start = end = self.i
        brackets = 0
        while True:
            tok = tokens[end]
            if tok == "(":
                brackets += 1
            elif tok == ")":
                if not brackets:
                    break
                brackets -= 1
            elif (tok == "," and not brackets) or not tok:
                break
            end += 1
        key = tuple(tokens[start:end])
        depth = self.depth
        hit = self.word_factors.get(key)
        if hit is not None and depth + hit[1] <= MAX_NESTING:
            self.i = end
            return hit[0]
        self.peak = depth  # no word factor nests in another
        e = self.expr(True)
        if self.i == end:
            self.word_factors[key] = (e, self.peak - depth)
        return e


def parse(src: str, variables=None):
    """Parse a source expression to an AST; when a variable set is given,
    unknown names are rejected with their position."""
    return _Parser(src, variables).parse()


# --- evaluation ---

def _sum(node: Sum, evaluate_operand, word_factor, ctx: Context):
    """Evaluate a Sum in one dict, normalized once by ``from_raw``: each
    operand adds its sign times its literal first factor, if any, times its
    raw terms, which ``_expand_word`` builds for a word from its memoized
    factors, with no Element.  A series operand adds its finite part and
    caps the precision, as adding the operands pairwise would."""
    acc: dict = {}
    get = acc.get
    precision = None
    for subtracted, operand in ((False, node.first), *node.rest):
        c = -1 if subtracted else 1
        if type(operand) is Product and len(operand.factors) == 2 and type(operand.factors[0]) is Lit:
            # the literal is read first, so its error precedes the word's
            lit, operand = operand.factors
            c *= _literal_value(lit, ctx)
        if type(operand) is Tensor:
            items = _expand_word([word_factor(f) for f in operand.factors]).items()
        else:
            value = evaluate_operand(operand)
            if isinstance(value, sr.Series):
                precision = value.precision if precision is None else min(precision, value.precision)
                value = value.finite_part()
            items = value.raw_items()
        for k, v in items:
            acc[k] = get(k, 0) + c * v
    total = from_raw(ctx, acc)
    return total if precision is None else sr.embed(total, precision)


def _product(node: Product, evaluate_operand, ctx: Context):
    """Evaluate a Product left to right; a series times an element, in
    either order, is their product in the completion.  A literal first
    factor, as in a scaled word ``c*T(...)``, scales the next factor's
    value by its coefficient, with no scalar element and no product."""
    factors, c = node.factors, None
    if type(factors[0]) is Lit:
        # read first, so its error precedes the other factors'
        c, factors = _literal(factors[0], ctx), factors[1:]
    value = evaluate_operand(factors[0])
    if c is not None:
        value = value * c
    for operand in factors[1:]:
        value = value * evaluate_operand(operand)
    return value


def _literal_value(node: Lit, ctx: Context):
    """The raw value of a literal, its reading error an EvalError."""
    try:
        return literal_value(ctx.ring, node.num, node.den)
    except ValueError as exc:
        raise EvalError(str(exc)) from None


def _literal(node: Lit, ctx: Context) -> Coeff:
    return ctx.ring.coeff(_literal_value(node, ctx))


def _as_scalar(value, what: str) -> Coeff:
    if isinstance(value, sr.Series):
        raise EvalError(f"{what} must be a scalar, not a series")
    terms = value.terms
    for w, c in terms:
        if len(w) != 1 or not w[0].is_unit():
            raise EvalError(f"{what} must be a scalar element")
    return terms[0][1] if terms else value.ctx.ring.zero()


def evaluate(node, ctx: Context, precision: int = sr.DEFAULT_PRECISION):
    """Evaluate an AST to a finite element, or to a series once geom
    appears anywhere in the expression.  A word factor is evaluated like
    any other node, as a degree-0 element: the embedding of the base
    algebra, whose products are those of polynomials.  Each word-factor
    node is evaluated once per call, however many words share it."""
    factors: dict = {}  # id of a word-factor node -> its raw items; lives for this call

    def word_factor(f):
        items = factors.get(id(f))
        if items is None:
            e = value(f)
            if isinstance(e, sr.Series) or any(len(w) != 1 for w, _ in e.raw_items()):
                raise EvalError("word factors must evaluate to polynomials, elements of degree 0")
            items = factors[id(f)] = e.raw_items()
        return items

    def value(node):
        if type(node) is Tensor:
            return from_raw(ctx, _expand_word([word_factor(f) for f in node.factors]))
        if type(node) is Sum:
            return _sum(node, value, word_factor, ctx)
        if type(node) is Product:
            return _product(node, value, ctx)
        if isinstance(node, Lit):
            return scalar(ctx, _literal(node, ctx))
        if isinstance(node, LamRef):
            return scalar(ctx, ctx.lam)
        if isinstance(node, VarRef):
            if node.name not in ctx.variables:
                raise EvalError(f"unknown variable {node.name!r}")
            return variable(ctx, node.name)
        if isinstance(node, UnitWord):
            return unit_word(ctx, node.degree)
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


def evaluate_source(src: str, ctx: Context, precision: int = sr.DEFAULT_PRECISION):
    return evaluate(parse(src, ctx.variables), ctx, precision)
