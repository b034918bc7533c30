import argparse
import contextlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_golden
import freebax
import freebax.lang as lang
import freebax.series as sr
from freebax import INT, RAT, UNIT_MONOMIAL, Context, Element, Monomial, Zmod, WitnessReport, element, one, unit_word
from freebax.cli import build_parser, main
from freebax.lang import (
    MAX_NESTING,
    MAX_UNIT_DEGREE,
    EvalError,
    Geom,
    Lit,
    ParseError,
    POp,
    Sum,
    Tensor,
    UnitWord,
    VarRef,
    evaluate,
    evaluate_source,
    parse,
)
from freebax.shuffle import scalar, shuffle_product_enumerated, tensor_word, variable
from freebax.verify import BAXTER_IDENTITY_CONFIGS, SUITES, random_element

BAXTER_SOURCE = "P(x) * P(y) - P(x*P(y)) - P(y*P(x)) - lam*P(x*y)"

CONTEXTS = [
    Context(INT, INT.coeff(0), ("x", "y")),
    Context(INT, INT.coeff(2), ("x", "y")),
    Context(RAT, RAT.coeff(1), ("x", "y")),
    Context(Zmod(9), Zmod(9).coeff(3), ("x", "y")),
    Context(Zmod(5), Zmod(5).coeff(2), ("x", "y")),
]


class TestRoundTrip:
    def test_parse_render_identity_on_random_elements(self):
        rng = random.Random(101)
        for i in range(200):
            ctx = CONTEXTS[i % len(CONTEXTS)]
            a = random_element(rng, ctx, max_terms=4, max_word_len=3)
            assert evaluate_source(str(a), ctx) == a

    def test_render_canonical_order(self):
        ctx = Context(INT, INT.coeff(3))
        a = unit_word(ctx, 2).scaled(2) + unit_word(ctx, 1).scaled(3)
        assert str(a) == "3*T(1,1) + 2*T(1,1,1)"

    def test_render_zero(self):
        ctx = Context(INT, INT.coeff(3))
        assert str(one(ctx) - one(ctx)) == "0"

    def test_negative_leading_coefficient_reparses(self):
        ctx = Context(INT, INT.coeff(1), ("x",))
        a = -unit_word(ctx, 1)
        assert str(a) == "-T(1,1)"
        assert evaluate_source(str(a), ctx) == a


class TestEvaluation:
    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"{c.ring}-lam{c.lam}")
    def test_baxter_identity_evaluates_to_zero(self, ctx):
        assert evaluate_source(BAXTER_SOURCE, ctx).is_zero()

    def test_unit_word_sugar(self):
        ctx = Context(INT, INT.coeff(1))
        assert evaluate_source("U(1)", ctx) == evaluate_source("T(1,1)", ctx)
        assert evaluate_source("U(0)", ctx) == one(ctx)

    def test_tensor_with_polynomials(self):
        ctx = Context(INT, INT.coeff(1), ("x", "y"))
        a = evaluate_source("T(x, y^2) + 3*T(1)", ctx)
        assert len(a.terms) == 2

    def test_tensor_expands_multilinearly(self):
        ctx = Context(INT, INT.coeff(1), ("x", "y"))
        assert evaluate_source("T(x + 1, y)", ctx) == evaluate_source("T(x, y) + T(1, y)", ctx)

    def test_geom_witness(self):
        ctx = Context(RAT, RAT.coeff(1))
        value = evaluate_source("U(1) * geom(-1)", ctx, precision=12)
        assert value.is_zero() and value.precision == 12

    def test_power_at_weight_zero(self):
        ctx = Context(RAT, RAT.coeff(0))
        assert str(evaluate_source("U(1)^3", ctx)) == "6*T(1,1,1,1)"

    def test_long_flat_sum(self):
        # a + b + c ... parses to one Sum node of 3000 operands
        ctx = Context(INT, INT.coeff(1))
        flat = " + ".join(["U(1)"] * 3000)
        value = evaluate_source(flat, ctx)
        assert value == unit_word(ctx, 1).scaled(3000)
        assert evaluate_source(" - ".join(["U(1)"] * 3000), ctx) == unit_word(ctx, 1).scaled(-2998)
        # the tree is flat, so comparing, hashing and showing it do not recurse per operand
        tree = parse(flat)
        assert tree == parse(flat) and hash(tree) == hash(parse(flat))
        assert repr(tree).count("UnitWord(degree=1)") == 3000

    def test_long_flat_sum_in_a_word_factor(self):
        ctx = Context(INT, INT.coeff(1), ("x",))
        value = evaluate_source("T(" + " + ".join(["x"] * 3000) + ", 1)", ctx)
        assert value == evaluate_source("3000*T(x,1)", ctx)
        assert evaluate_source("T(" + "*".join(["x"] * 3000) + ")", ctx) == evaluate_source("T(x^3000)", ctx)

    def test_long_flat_product(self):
        ctx = Context(INT, INT.coeff(0), ("x",))
        flat = "*".join(["x"] * 3000)
        assert evaluate_source(flat, ctx) == evaluate_source("x^3000", ctx)
        tree = parse(flat)
        assert tree == parse(flat) and hash(tree) == hash(parse(flat))
        assert repr(tree).count("VarRef(name='x')") == 3000

    def test_each_word_factor_is_evaluated_once_per_call(self, monkeypatch):
        ctx = Context(INT, INT.coeff(1), ("x", "y"))
        expanded = evaluate_source("T(x^2*y, x) + T(x^2*y, 1) - 3*T(x, x^2*y) - 3*T(1, x^2*y) + T(x) + T(1)", ctx)
        seen = []
        build_variable = lang.variable

        def recording(ctx, name):
            seen.append(name)
            return build_variable(ctx, name)

        monkeypatch.setattr(lang, "variable", recording)
        tree = parse("T(x^2*y, x + 1) - 3*T(x+1, x^2*y) + T(x + 1)", ctx.variables)
        assert evaluate(tree, ctx) == expanded
        # the two distinct factors x^2*y and x+1 once each: once per
        # occurrence would read x, y twice and x three times
        assert sorted(seen) == ["x", "x", "y"]
        # the memo does not outlive the call
        evaluate(tree, ctx)
        assert sorted(seen) == ["x", "x", "x", "x", "y", "y"]

    @pytest.mark.parametrize("factor",
                             [UnitWord(1), POp(VarRef("x")), Geom(Lit(2)), Sum(UnitWord(2), ((False, Lit(1)),))],
                             ids=["unit-word", "P", "geom", "sum"])
    def test_a_factor_of_positive_degree_or_a_series_is_rejected(self, factor):
        ctx = Context(INT, INT.coeff(1), ("x",))
        with pytest.raises(EvalError, match="word factors must evaluate to polynomials"):
            evaluate(Tensor((factor,)), ctx)
        with pytest.raises(EvalError):
            evaluate(Tensor((VarRef("x"), factor)), ctx)

    def test_a_factor_of_degree_zero_is_its_polynomial(self):
        # the parser never builds these: T(U(0)) and T(T(x)) are parse errors
        ctx = Context(INT, INT.coeff(1), ("x",))
        assert evaluate(Tensor((UnitWord(0), VarRef("x"))), ctx) == evaluate_source("T(1, x)", ctx)
        assert evaluate(Tensor((Tensor((VarRef("x"),)),)), ctx) == evaluate_source("T(x)", ctx)

    def test_power_of_a_series(self):
        ctx = Context(Zmod(9), Zmod(9).coeff(3))
        cube = evaluate_source("geom(2)^3", ctx, precision=5)
        assert cube == evaluate_source("geom(2)*geom(2)*geom(2)", ctx, precision=5)
        assert evaluate_source("geom(2)^0", ctx, precision=5) == evaluate_source("geom(0)", ctx, precision=5)

    def test_series_times_element_in_either_order(self):
        ctx = Context(RAT, RAT.coeff(2), ("x",))
        word = evaluate_source("T(x, 1) - 1/2*U(2)", ctx)
        series = sr.geometric_unit_series(ctx, RAT.coeff(3), 4)
        expected = sr.complete_product(series, sr.embed(word, 4))
        assert evaluate_source("geom(3)*(T(x, 1) - 1/2*U(2))", ctx, precision=4) == expected
        assert evaluate_source("(T(x, 1) - 1/2*U(2))*geom(3)", ctx, precision=4) == expected

    def test_a_literal_first_factor_scales_the_rest(self):
        # the expected values are scalar elements times the operand
        ctx = Context(RAT, RAT.coeff(1), ("x", "y"))
        geom3 = sr.geometric_unit_series(ctx, RAT.coeff(3), 3)
        doubled = sr.complete_product(sr.embed(scalar(ctx, 2), 3), geom3)
        assert evaluate_source("2*geom(3)", ctx, precision=3) == doubled
        assert evaluate_source("geom(3)*2", ctx, precision=3) == doubled
        halved = sr.complete_product(sr.embed(scalar(ctx, RAT.coeff(Fraction(-1, 2))), 2),
                                     sr.geometric_unit_series(ctx, RAT.coeff(2), 2))
        assert evaluate_source("-1/2*geom(2)", ctx, precision=2) == halved
        assert evaluate_source("2*3*U(1)", ctx) == element(ctx, {(UNIT_MONOMIAL,) * 2: 6})
        assert evaluate_source("0*T(x)", ctx).is_zero()
        assert evaluate_source("2*T(x)*T(y)", ctx) == element(ctx, {(Monomial.of(x=1, y=1),): 2})

    def test_a_word_of_one_term_factors_is_one_word(self):
        assert evaluate_source("T(3*x,2*y)", Context(Zmod(6), Zmod(6).coeff(1), ("x", "y"))).is_zero()
        ctx = Context(INT, INT.coeff(1), ("x", "y"))
        assert evaluate_source("T(x-x,y)", ctx).is_zero()
        x, y, u = Monomial.of(x=1), Monomial.of(y=1), UNIT_MONOMIAL
        assert evaluate_source("T(2*x,y+1)", ctx) == element(ctx, {(x, y): 2, (x, u): 2})
        # one-term factors after the expansion has begun, and before it
        assert evaluate_source("T(2*x,y+1,3*y)", ctx) == element(ctx, {(x, y, y): 6, (x, u, y): 6})
        assert evaluate_source("T(y+1,2*x)", ctx) == element(ctx, {(y, x): 2, (u, x): 2})

    def test_rational_literal_needs_invertible_denominator(self):
        assert evaluate_source("1/2", Context(Zmod(5), Zmod(5).coeff(1))).terms[0][1].value == 3
        with pytest.raises(EvalError):
            evaluate_source("1/2", Context(INT, INT.coeff(1)))
        with pytest.raises(EvalError):
            evaluate_source("1/5", Context(Zmod(5), Zmod(5).coeff(1)))
        # a literal first factor is read before the factor it scales, so
        # its error comes first
        with pytest.raises(EvalError, match="1/2 is not an integer"):
            evaluate_source("1/2*geom(U(1))", Context(INT, INT.coeff(1)))

    @pytest.mark.parametrize("ring, src, message", [
        (INT, "1/2*T(x)", "1/2 is not an integer"),
        (Zmod(6), "2/3*T(x)", "3 is not invertible in mod:6"),
        # before the error of the word it scales
        (INT, "1/2*T(z)", "1/2 is not an integer"),
        (INT, "T(x) + 1/2*T(1/3)", "1/2 is not an integer"),
        (Zmod(6), "T(x) - 2/3*T(x, 1/2)", "3 is not invertible in mod:6"),
    ], ids=["int", "mod6", "int-unknown-variable", "int-sum", "mod6-sum"])
    def test_a_scaled_word_raises_its_literal_error_first(self, ring, src, message):
        with pytest.raises(EvalError) as err:
            evaluate(parse(src), Context(ring, ring.coeff(1), ("x",)))
        assert str(err.value) == message

    def test_a_sum_of_scaled_words_builds_no_element_per_term(self, monkeypatch):
        rng = random.Random(27)
        terms, factors = [], set()
        for i in range(300):
            word = [rng.choice(("x", "y", "1", "3")) for _ in range(1 + i % 4)]
            factors.update(word)
            c = rng.randint(1, 9)
            terms.append(f"{c}*T({','.join(word)})" if c > 1 else f"T({','.join(word)})")
        signs = [rng.choice("+-") for _ in terms[1:]]
        src = terms[0] + "".join(f" {sign} {term}" for sign, term in zip(signs, terms[1:]))
        ctx = Context(RAT, RAT.coeff(1), ("x", "y"))
        expected = pairwise_fold(terms, signs, ctx, 1)
        calls = []
        for module in (lang, freebax.shuffle):
            def counting(ctx, acc, from_raw=module.from_raw):
                calls.append(len(acc))
                return from_raw(ctx, acc)
            monkeypatch.setattr(module, "from_raw", counting)
        assert evaluate_source(src, ctx) == expected
        # one element per distinct word factor, and one for the sum
        assert len(calls) <= len(factors) + 1

    def test_geom_requires_scalar_ratio(self):
        ctx = Context(INT, INT.coeff(1))
        with pytest.raises(EvalError):
            evaluate_source("geom(U(1))", ctx)

    def test_lam_literal(self):
        ctx = Context(INT, INT.coeff(7))
        assert evaluate_source("lam", ctx) == one(ctx).scaled(7)

    def test_unknown_nodes_are_rejected(self):
        # the parser never builds these: it rejects unknown names itself
        ctx = Context(INT, INT.coeff(1), ("x",))
        with pytest.raises(EvalError) as err:
            evaluate(VarRef("z"), ctx)
        assert str(err.value) == "unknown variable 'z'"
        node = object()
        with pytest.raises(EvalError) as err:
            evaluate(node, ctx)
        assert str(err.value) == f"cannot evaluate node {node!r}"


# (source, variables, message, position) of malformed input, captured from
# the parser with one method per precedence level that this one replaced.
# The only differences allowed since are the end-of-input texts: "found
# None" became "found end of input", and "unexpected token None" became
# "unexpected end of input"; and a number token is shown as written, not by
# its integer value ("x٣" said "unexpected trailing input 3", "U 007" said
# "found 7").
LONG_LITERAL = "7" * 5000
GOLDEN_PARSE_ERRORS = [
    ("U(1", None, "expected ')', found end of input", 3),
    ("T(x,", None, "unexpected end of input", 4),
    ("T(P(x))", None, "'P' cannot appear inside T(...): word factors must be polynomial expressions", 2),
    ("T(T(1))", None, "'T' cannot appear inside T(...): word factors must be polynomial expressions", 2),
    ("3/0", None, "zero denominator", 2),
    ("U(x)", None, "expected 'nat', found 'x'", 2),
    ("T()", None, "unexpected token ')'", 2),
    ("T(x,,y)", None, "unexpected token ','", 4),
    ("x ^ y", None, "expected 'nat', found 'y'", 4),
    ("U(100001)", None, "unit word degree 100001 exceeds 100000", 2),
    (LONG_LITERAL, None, "integer literal of 5000 digits is too long", 0),
    ("T(x) + " + LONG_LITERAL, None, "integer literal of 5000 digits is too long", 7),
    (LONG_LITERAL + " é", None, "integer literal of 5000 digits is too long", 0),
    ("é " + LONG_LITERAL, None, "unexpected character 'é'", 0),
    ("٣" * 5000, None, "integer literal of 5000 digits is too long", 0),
    ("P(" * 101 + "x" + ")" * 101, None, "expression nests deeper than 100 levels", 200),
    ("-" * 100 + "1", None, "expression nests deeper than 100 levels", 100),
    ("é", None, "unexpected character 'é'", 0),
    ("x²", None, "unexpected character '²'", 1),
    (") é", None, "unexpected character 'é'", 2),
    ("x٣", None, "unexpected trailing input ٣", 1),
    ("1 +", None, "unexpected end of input", 3),
    ("", None, "unexpected end of input", 0),
    ("   ", None, "unexpected end of input", 3),
    ("2*-", None, "unexpected end of input", 3),
    ("geom(", None, "unexpected end of input", 5),
    ("1 + U(1) -", None, "unexpected end of input", 10),
    ("x^", None, "expected 'nat', found end of input", 2),
    ("1/", None, "expected 'nat', found end of input", 2),
    ("P(x", None, "expected ')', found end of input", 3),
    ("()", None, "unexpected token ')'", 1),
    (")", None, "unexpected token ')'", 0),
    ("P()", None, "unexpected token ')'", 2),
    ("x y", None, "unexpected trailing input 'y'", 2),
    ("T(x)(", None, "unexpected trailing input '('", 4),
    ("lam(1)", None, "unexpected trailing input '('", 3),
    ("1/x", None, "expected 'nat', found 'x'", 2),
    ("U 5", None, "expected '(', found 5", 2),
    ("U 007", None, "expected '(', found 007", 2),
    ("U(1) 007", None, "unexpected trailing input 007", 5),
    ("U(007 x", None, "expected ')', found 'x'", 6),
    ("U(1,2)", None, "expected ')', found ','", 3),
    ("T(x y)", None, "expected ')', found 'y'", 4),
    ("x + 1", ("y",), "unknown variable 'x'", 0),
    ("T(x, z)", ("x", "y"), "unknown variable 'z'", 5),
]


def _golden_id(row):
    src = row[0]
    return src if len(src) <= 20 else f"{src[:8]}...{len(src)}-chars"


class TestParseErrors:
    @pytest.mark.parametrize("src, variables, message, pos", GOLDEN_PARSE_ERRORS,
                             ids=[_golden_id(row) for row in GOLDEN_PARSE_ERRORS])
    def test_golden_error_table(self, src, variables, message, pos):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if "too long" in message and not 0 < limit < 5000:
            pytest.skip("no int-string limit below 5000 digits")
        with pytest.raises(ParseError) as err:
            parse(src, variables)
        assert str(err.value) == f"{message} (at position {pos})"
        assert err.value.pos == pos

    def test_unicode_digits_are_literals(self):
        # \d matches any decimal digit, as it did before
        assert parse("٣+1") == Sum(Lit(3), ((False, Lit(1)),))
        assert parse("x^٢") == lang.Pow(lang.VarRef("x"), 2)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string limit")
    def test_long_name_is_not_a_long_literal(self):
        name = "x" + "1" * (sys.get_int_max_str_digits() + 1)
        assert parse(name) == lang.VarRef(name)

    def test_repeated_word_factor_is_one_node(self):
        tree = parse("T(x^2*y, 1) + 3*T(1, x^2*y) - T(x^2*y)")
        (_, scaled), (_, last) = tree.rest
        first = tree.first.factors[0]
        assert scaled.factors[1].factors[1] is first
        assert last.factors[0] is first
        assert tree.first.factors[1] is scaled.factors[1].factors[0]

    def test_nesting_limit_through_the_factor_memo(self):
        # T(((((x))))) nests 5 levels below its T; seen first at the top
        # level, its shared node is reused only where reparsing would fit
        word = "T(((((x)))))"
        fits = parse(word + " + " + "P(" * 94 + word + ")" * 94)
        inner = fits.rest[0][1]
        for _ in range(94):
            inner = inner.arg
        assert inner.factors[0] is fits.first.factors[0]
        for first in (word, "T(((((y)))))"):  # with and without a memo hit
            for levels, pos in ((95, 211), (96, 212)):
                with pytest.raises(ParseError, match=f"nests deeper than {MAX_NESTING} levels") as err:
                    parse(first + " + " + "P(" * levels + word + ")" * levels)
                assert err.value.pos == pos

    def test_nested_tensor_diagnostic(self):
        with pytest.raises(ParseError) as err:
            parse("T(T(1))")
        assert "inside T" in str(err.value)

    def test_unknown_variable_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("x + 1", variables=("y",))
        assert "position 0" in str(err.value)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 + 2 )")

    def test_power_needs_literal(self):
        with pytest.raises(ParseError):
            parse("U(1)^x")

    @pytest.mark.parametrize("src, pos", [("x +  $ y", 5), (" \t#", 2), ("T(1,x)é", 6)])
    def test_unexpected_character_position(self, src, pos):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(src)
        assert err.value.pos == pos

    def test_trailing_whitespace_is_ignored(self):
        assert parse("x + 1 \t\n ") == parse("x+1")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string limit")
    def test_literal_beyond_the_int_string_limit(self):
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        for src, pos in ((digits, 0), ("x + " + digits, 4), ("x^" + digits, 2)):
            with pytest.raises(ParseError, match="too long") as err:
                parse(src)
            assert err.value.pos == pos

    def test_unit_word_degree_limit(self):
        assert parse(f"U({MAX_UNIT_DEGREE})") == lang.UnitWord(MAX_UNIT_DEGREE)
        with pytest.raises(ParseError, match="exceeds") as err:
            parse(f"1 + U({MAX_UNIT_DEGREE + 1})")
        assert err.value.pos == 6

    def test_nesting_limit(self):
        # P^n(x) is nested n + 1 levels deep
        deepest = "P(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1)
        ctx = Context(INT, INT.coeff(1), ("x",))
        assert len(evaluate_source(deepest, ctx).terms[0][0]) == MAX_NESTING
        with pytest.raises(ParseError, match="nests deeper"):
            parse("(" + deepest + ")")
        with pytest.raises(ParseError, match="nests deeper"):
            parse("-" * MAX_NESTING + "1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_argv(capsys, *argv):
    """``run_cli`` for a command line argparse may reject, whose
    ``SystemExit`` code stands for the return code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_captured(argv):
    """``run_argv`` without capsys, whose fixture Hypothesis cannot reset
    between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_or_exit(capsys, parser, argv):
    """The parser's Namespace for argv, or the code and the output of its
    ``SystemExit``."""
    try:
        return parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


GOLDEN_SUM_WORDS = (
    "T(x)", "T(1,y)", "T(x*y,x^2)", "T(y^2,1,x)",
    "T(1)", "T(y)", "T(x^2,y)", "T(x,x)", "T(1,x*y)", "T(y^2,y^2,1)", "T(x,1,y)", "T(x*y)",
)


def golden_sum_source() -> str:
    """200 rational terms over twelve words: every word repeats, and the
    terms of the first four words cancel to zero."""
    rng = random.Random(2004)
    terms = []
    for _ in range(100):
        i = rng.randrange(len(GOLDEN_SUM_WORDS))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
        d = -c if i < 4 else Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        terms += [(c, GOLDEN_SUM_WORDS[i]), (d, GOLDEN_SUM_WORDS[i])]
    rng.shuffle(terms)
    return "0 " + " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{w}" for c, w in terms)


class TestCommandLine:
    def test_eval_ok(self, capsys):
        code, out, _ = run_cli(capsys, "--ring", "mod:9", "--lambda", "3", "eval", "U(1)*U(1)")
        assert code == 0
        assert out.strip() == "3*T(1,1) + 2*T(1,1,1)"

    def test_byte_identical_reruns(self, capsys):
        argv = ["--ring", "int", "--lambda", "2", "--vars", "x,y", "eval", BAXTER_SOURCE]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second == (0, "0\n", "")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "T(")
        assert code == 2 and "error" in err

    def test_unknown_variable_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "zz + 1")
        assert code == 2 and "zz" in err

    def test_json_eval(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "--ring", "mod:9", "--lambda", "3", "eval", "U(1)*U(1)")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "eval"
        assert payload["context"]["ring"] == "mod:9"
        assert payload["result"]["terms"][0] == {"coeff": "3", "word": [[], []]}

    def test_enumerate_shuffles(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-shuffles", "2", "2")
        assert code == 0
        assert out.strip().endswith("count 13")

    def test_enumerate_shuffles_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "enumerate-shuffles", "1", "1")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 3

    def test_enumerate_shuffles_listing_is_pinned(self, capsys):
        # every line of the listing, in order, in text and in --json; CI
        # compares the installed console script with the same two files
        data = os.path.join(os.path.dirname(__file__), "data")
        for argv, name in ((("enumerate-shuffles", "3", "2"), "enumerate_shuffles_3_2.txt"),
                           (("--json", "enumerate-shuffles", "2", "2"), "enumerate_shuffles_2_2.json")):
            code, out, err = run_cli(capsys, *argv)
            with open(os.path.join(data, name), "rb") as f:
                assert (code, out.encode(), err) == (0, f.read(), ""), name

    @pytest.mark.parametrize("m, n", [("3", "-1"), ("-1", "3"), ("-2", "-1")])
    def test_enumerate_shuffles_rejects_negative_lengths(self, capsys, m, n):
        code, out, err = run_cli(capsys, "enumerate-shuffles", m, n)
        assert code == 2 and out == "" and "nonnegative" in err

    @pytest.mark.parametrize("argv, message", [
        (("enumerate-shuffles", "-1", "2"), "tail length must be nonnegative"),
        (("enumerate-shuffles", "2", "-1"), "tail length must be nonnegative"),
        (("--vars", "x", "phi", "x", "--len", "0"), "sequence length must be at least 1"),
    ], ids=["enumerate-first", "enumerate-second", "phi-length"])
    def test_a_bad_count_is_one_error_line(self, capsys, argv, message):
        # the library's count check names the argument, with no traceback
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_deep_nesting_exits_two_without_traceback(self):
        deep = "P(" * 400 + "x" + ")" * 400
        src = os.path.dirname(os.path.dirname(freebax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "freebax.cli", "--vars", "x", "eval", deep],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "nests deeper" in proc.stderr and "Traceback" not in proc.stderr

    def test_power_of_zero_is_fast(self):
        # zero is squared in about 2*log2(k) products; multiplying by the
        # base took k - 1 of them, over 10 s at this exponent
        src = os.path.dirname(os.path.dirname(freebax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "freebax.cli", "eval", "0^3000000"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0\n"

    def test_long_flat_sum_exits_zero_without_traceback(self):
        flat = " + ".join(["U(1)"] * 3000)
        src = os.path.dirname(os.path.dirname(freebax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "freebax.cli", "eval", flat],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "3000*T(1,1)\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("expression", ["U(99999999999999)", "U(1"])
    def test_rejected_unit_word_exits_two_without_traceback(self, expression):
        src = os.path.dirname(os.path.dirname(freebax.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "freebax.cli", "eval", expression],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("expression, message", [
        ("U(1", "error: expected ')', found end of input (at position 3)\n"),
        ("1 +", "error: unexpected end of input (at position 3)\n"),
    ], ids=["U(1", "1 +"])
    def test_end_of_input_is_named(self, capsys, expression, message):
        assert run_cli(capsys, "eval", expression) == (2, "", message)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
    def test_coefficient_beyond_the_int_string_limit(self):
        src = os.path.dirname(os.path.dirname(freebax.__file__))
        for flag in ((), ("--json",)):
            argv = [sys.executable, "-m", "freebax.cli", *flag, "eval", "10^5000"]
            env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="4300")
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == (
                "error: a coefficient of 5001 digits exceeds the limit of 4300 digits for "
                "printing an integer; set PYTHONINTMAXSTRDIGITS=0 to print it\n"
            )
            env["PYTHONINTMAXSTRDIGITS"] = "0"
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0 and proc.stderr == ""
            if flag:
                assert json.loads(proc.stdout)["result"]["terms"][0]["coeff"] == "1" + "0" * 5000
            else:
                assert proc.stdout == "1" + "0" * 5000 + "*T(1)\n"

    def test_huge_exponent(self, capsys):
        # square-and-multiply: 30 products, not 3 million
        code, out, _ = run_cli(capsys, "--vars", "x", "eval", "x^3000000")
        assert (code, out) == (0, "T(x^3000000)\n")

    @pytest.mark.parametrize("argv, text, payload", [
        (
            ["--ring", "rat", "--lambda", "2", "--precision", "5", "eval", "geom(3)*U(1) + geom(1/2)"],
            "T(1) + 15/2*T(1,1) + 169/4*T(1,1,1) + 1513/8*T(1,1,1,1) + 12097/16*T(1,1,1,1,1)"
            " + 90721/32*T(1,1,1,1,1,1) + O(deg 6)\n",
            '{"command": "eval", "context": {"lambda": "2", "ring": "rat", "variables": []}, '
            '"result": {"components": [{"degree": 0, "element": {"kind": "element", "terms": '
            '[{"coeff": "1", "word": [[]]}]}}, {"degree": 1, "element": {"kind": "element", '
            '"terms": [{"coeff": "15/2", "word": [[], []]}]}}, {"degree": 2, "element": {"kind": '
            '"element", "terms": [{"coeff": "169/4", "word": [[], [], []]}]}}, {"degree": 3, '
            '"element": {"kind": "element", "terms": [{"coeff": "1513/8", "word": [[], [], [], '
            '[]]}]}}, {"degree": 4, "element": {"kind": "element", "terms": [{"coeff": '
            '"12097/16", "word": [[], [], [], [], []]}]}}, {"degree": 5, "element": {"kind": '
            '"element", "terms": [{"coeff": "90721/32", "word": [[], [], [], [], [], []]}]}}], '
            '"kind": "series", "precision": 5}}\n',
        ),
        (
            ["--ring", "mod:6", "--lambda", "2", "--vars", "x,y", "eval", "(T(x,y)+3*T(y,1,x))^3 - T(1,x)*T(y)"],
            "5*T(y,x) + 4*T(x^3,y^3)\n",
            '{"command": "eval", "context": {"lambda": "2", "ring": "mod:6", "variables": ["x", '
            '"y"]}, "result": {"kind": "element", "terms": [{"coeff": "5", "word": [[["y", 1]], '
            '[["x", 1]]]}, {"coeff": "4", "word": [[["x", 3]], [["y", 3]]]}]}}\n',
        ),
        (
            ["--ring", "rat", "--vars", "x,y", "eval", golden_sum_source()],
            '-15/4*T(1) - 73/12*T(y) + 79/12*T(x*y) - 31/12*T(1,x*y) - 121/6*T(x,x) + 49/4*T(x^2,y) '
            '+ 205/12*T(x,1,y) - 35/2*T(y^2,y^2,1)\n',
            '{"command": "eval", "context": {"lambda": "1", "ring": "rat", "variables": ["x", '
            '"y"]}, "result": {"kind": "element", "terms": [{"coeff": "-15/4", "word": [[]]}, '
            '{"coeff": "-73/12", "word": [[["y", 1]]]}, {"coeff": "79/12", "word": [[["x", 1], '
            '["y", 1]]]}, {"coeff": "-31/12", "word": [[], [["x", 1], ["y", 1]]]}, {"coeff": '
            '"-121/6", "word": [[["x", 1]], [["x", 1]]]}, {"coeff": "49/4", "word": [[["x", 2]], '
            '[["y", 1]]]}, {"coeff": "205/12", "word": [[["x", 1]], [], [["y", 1]]]}, {"coeff": '
            '"-35/2", "word": [[["y", 2]], [["y", 2]], []]}]}}\n',
        ),
        (
            ["--ring", "mod:6", "--vars", "x,y", "eval", "T((x+y+1)^3, x*y - 2) - 2*T(x)"],
            '4*T(x) + 4*T(1,1) + T(1,x*y) + 3*T(x,x*y) + 3*T(y,x*y) + 3*T(x^2,x*y) + 3*T(y^2,x*y) + '
            '3*T(x*y^2,x*y) + 3*T(x^2*y,x*y) + 4*T(x^3,1) + T(x^3,x*y) + 4*T(y^3,1) + T(y^3,x*y)\n',
            '{"command": "eval", "context": {"lambda": "1", "ring": "mod:6", "variables": ["x", '
            '"y"]}, "result": {"kind": "element", "terms": [{"coeff": "4", "word": [[["x", 1]]]}, '
            '{"coeff": "4", "word": [[], []]}, {"coeff": "1", "word": [[], [["x", 1], ["y", 1]]]}, '
            '{"coeff": "3", "word": [[["x", 1]], [["x", 1], ["y", 1]]]}, {"coeff": "3", "word": '
            '[[["y", 1]], [["x", 1], ["y", 1]]]}, {"coeff": "3", "word": [[["x", 2]], [["x", 1], '
            '["y", 1]]]}, {"coeff": "3", "word": [[["y", 2]], [["x", 1], ["y", 1]]]}, {"coeff": '
            '"3", "word": [[["x", 1], ["y", 2]], [["x", 1], ["y", 1]]]}, {"coeff": "3", "word": '
            '[[["x", 2], ["y", 1]], [["x", 1], ["y", 1]]]}, {"coeff": "4", "word": [[["x", 3]], '
            '[]]}, {"coeff": "1", "word": [[["x", 3]], [["x", 1], ["y", 1]]]}, {"coeff": "4", '
            '"word": [[["y", 3]], []]}, {"coeff": "1", "word": [[["y", 3]], [["x", 1], ["y", '
            '1]]]}]}}\n',
        ),
    ], ids=["rat-series", "mod6-element", "rat-sum200", "mod6-poly-factors"])
    def test_golden_eval_output(self, capsys, argv, text, payload):
        assert run_cli(capsys, *argv) == (0, text, "")
        assert run_cli(capsys, "--json", *argv) == (0, payload, "")

    def test_phi_command(self, capsys):
        code, out, _ = run_cli(capsys, "--ring", "int", "--lambda", "2", "phi", "U(1)", "--len", "4")
        assert code == 0
        assert out == "[1] 0\n[2] 2*T(1)\n[3] 4*T(1)\n[4] 6*T(1)\n"

    @pytest.mark.parametrize("length", ["0", "-3"])
    def test_phi_rejects_nonpositive_length(self, capsys, length):
        code, out, err = run_cli(capsys, "phi", "U(1)", "--len", length)
        assert code == 2 and out == "" and "length" in err

    def test_ideal_member_vars(self, capsys):
        code, out, _ = run_cli(capsys, "--vars", "x,y", "ideal-member", "--gens", "x", "T(x,y) + T(x,1)")
        assert code == 0 and out.strip() == "true"

    def test_ideal_member_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "ideal-member", "--gens", "scalar:2", "2*U(1) + 3*U(2)")
        assert code == 0 and out.strip() == "false"

    def test_verify_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "prop-unit", "weight0-nilpotent")
        assert code == 0
        assert "checks passed" in out

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "charp")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert all(r["verdict"] == "pass" for r in payload["report"])

    def test_verify_failure_exit_one(self, capsys, monkeypatch):
        bad = lambda seed, precision: [WitnessReport("rigged", (), False, "forced failure")]
        monkeypatch.setitem(SUITES, "rigged", bad)
        code, out, _ = run_cli(capsys, "verify", "rigged")
        assert code == 1
        assert "FAIL" in out

    def test_out_of_memory_exits_two_with_one_error_line(self, capsys, monkeypatch):
        def exhausted(a, b):
            raise MemoryError

        monkeypatch.setattr(freebax.shuffle, "shuffle_product", exhausted)
        for flag in ((), ("--json",)):
            assert run_argv(capsys, *flag, "--vars", "x", "eval", "T(x)*T(x)") == (2, "", "error: out of memory\n")

    def test_unknown_suite_exits_two_with_one_error_line(self, capsys):
        err = f"error: unknown suites ['nosuch']; available: {', '.join(SUITES)} or all\n"
        for flag in ((), ("--json",)):
            assert run_argv(capsys, *flag, "verify", "nosuch") == (2, "", err)
            # every name is checked before any suite runs
            assert run_argv(capsys, *flag, "verify", "charp", "nosuch") == (2, "", err)
            assert run_argv(capsys, *flag, "verify", "all", "nosuch") == (2, "", err)

    def test_phi_of_a_series(self, capsys):
        argv = ("--ring", "int", "--lambda", "2", "--precision", "4", "phi", "geom(1)", "--len", "3")
        assert run_cli(capsys, *argv) == (0, "[1] T(1)\n[2] 3*T(1)\n[3] 9*T(1)\n", "")

    def test_ideal_member_of_a_series_exits_two(self, capsys):
        argv = ("--vars", "x", "ideal-member", "--gens", "x", "geom(2)")
        assert run_cli(capsys, *argv) == (2, "", "error: ideal membership applies to finite elements\n")

    def test_geom_of_a_series_exits_two(self, capsys):
        assert run_cli(capsys, "eval", "geom(geom(2))") == (
            2, "", "error: geom ratio must be a scalar, not a series\n")

    def test_reserved_variable_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--vars", "lam", "eval", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("name", ["é", "xé", "-x"])
    def test_variable_names_are_names_the_parser_reads(self, capsys, name):
        with pytest.raises(SystemExit) as err:
            main(["--vars", name, "eval", "1"])
        assert err.value.code == 2
        assert f"argument --vars: invalid variable name {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--ring", "rat", "--lambda", "1/0", "eval", "1"), "zero denominator in rat coefficient '1/0'"),
        (("--ring", "rat", "ideal-member", "--gens", "scalar:1/0", "U(1)"),
         "zero denominator in rat coefficient '1/0'"),
        (("--vars", "x", "ideal-member", "--gens", "x,1y", "T(x)"), "invalid variable name '1y'"),
        (("--vars", "x", "ideal-member", "--gens", "x,", "T(x)"), "invalid variable name ''"),
        (("--vars", "x", "ideal-member", "--gens", "lam", "T(x)"), "'lam' is a reserved word"),
        (("--lambda", "foo", "verify", "charp"), "invalid int coefficient 'foo'"),
        (("--lambda", "foo", "enumerate-shuffles", "1", "1"), "invalid int coefficient 'foo'"),
        (("--ring", "mod:x", "eval", "1"), "argument --ring: invalid modulus 'x' in ring 'mod:x'"),
        (("--ring", "mod:", "eval", "1"), "argument --ring: invalid modulus '' in ring 'mod:'"),
        (("--precision", "-1", "eval", "1"), "argument --precision: precision must be nonnegative, not -1"),
        (("--precision", "-1", "verify", "charp"),
         "argument --precision: precision must be nonnegative, not -1"),
    ], ids=["rat-lambda", "rat-scalar-gens", "digit-gens", "empty-gens", "reserved-gens",
            "verify-lambda", "enumerate-lambda", "modulus-word", "modulus-empty",
            "eval-precision", "verify-precision"])
    def test_bad_flag_values_exit_two_without_traceback(self, capsys, argv, message):
        # exit 1 means only that a check failed; argparse reports a flag it
        # rejects itself after the usage line
        if message.startswith("argument "):
            err = build_parser().format_usage() + f"freebax: error: {message}\n"
        else:
            err = f"error: {message}\n"
        assert run_argv(capsys, *argv) == (2, "", err)
        assert run_argv(capsys, "--json", *argv) == (2, "", err)

    @pytest.mark.parametrize("argv, message", [
        (("--ring", "foo", "eval", "1"), "unknown ring 'foo' (use int, rat or mod:<m>)"),
        (("--ring", "mod:1", "eval", "1"), "modulus must be an integer >= 2"),
        (("--precision", "x", "eval", "1"), "invalid int value: 'x'"),
        (("--ring", "-x", "eval", "1"), "unknown ring '-x' (use int, rat or mod:<m>)"),
    ], ids=["ring-word", "modulus-one", "precision-word", "ring-minus"])
    def test_bad_ring_and_precision_are_named_after_the_usage(self, capsys, argv, message):
        err = build_parser().format_usage() + f"freebax: error: argument {argv[0]}: {message}\n"
        assert run_argv(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("argv, out", [
        (("--ring", "mod:5", "--lambda", "1/2", "eval", "lam"), "3*T(1)\n"),
        (("--ring", "int", "--lambda", "4/2", "eval", "lam"), "2*T(1)\n"),
        (("--ring", "rat", "--lambda=-3/6", "eval", "lam"), "-1/2*T(1)\n"),
        (("--ring", "mod:5", "ideal-member", "--gens", "scalar:1/2", "U(1)"), "true\n"),
    ], ids=["mod-lambda", "int-lambda", "rat-lambda", "mod-scalar-gens"])
    def test_flag_literals_divide_as_expressions_do(self, capsys, argv, out):
        assert run_cli(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("ring", ["int", "rat", "mod:5"])
    @pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", "1e100000000"])
    def test_flag_literals_have_no_decimals_exponents_or_underscores(self, capsys, ring, text):
        start = time.perf_counter()
        result = run_cli(capsys, "--ring", ring, "--lambda", text, "eval", "1")
        assert time.perf_counter() - start < 1.0
        assert result == (2, "", f"error: invalid {ring} coefficient {text!r}\n")

    def test_a_long_unit_run_is_placed_in_one_pass(self, capsys):
        # entry k of phi(U(n)) is lam^n C(k-1, n) T(1), by one running binomial
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--ring", "mod:7", "--lambda", "2", "phi", "U(6000)", "--len", "12001")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 12001
        assert lines[:6000] == [f"[{k}] 0" for k in range(1, 6001)]
        for k in (6001, 6002, 6008, 9000, 12001):
            c = pow(2, 6000, 7) * comb(k - 1, 6000) % 7
            assert lines[k - 1] == f"[{k}] " + ("0" if not c else "T(1)" if c == 1 else f"{c}*T(1)")

    def test_dense_unit_series_multiply_in_one_pass_of_rows(self, capsys):
        # geom(a)*geom(b) = geom(a + b + lam*a*b), and 2 + 3 + 3*2*3 = 2 mod 7;
        # the bound holds for one pass of rows, O(N^2), and fails a sum per
        # term pair, O(N^3)
        flags = ("--ring", "mod:7", "--lambda", "3", "--precision", "120", "eval")
        want = run_cli(capsys, *flags, "geom(2)")
        assert want[0] == 0 and want[1].count("T(") == 121
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert run_cli(capsys, *flags, "geom(2)*geom(3)") == want
            times.append(time.perf_counter() - start)
        assert min(times) < 0.25

    @pytest.mark.parametrize("argv, message", [
        (("--ring", "int", "--lambda", "1/0", "eval", "1"), "zero denominator in int coefficient '1/0'"),
        (("--ring", "int", "--lambda", "1/2", "eval", "1"), "1/2 is not an integer"),
    ], ids=["int-zero", "int-inexact"])
    def test_flag_fraction_that_does_not_divide_exits_two(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_a_literal_factor_that_does_not_divide_exits_two(self, capsys):
        assert run_cli(capsys, "--ring", "int", "eval", "1/2*U(1)") == (2, "", "error: 1/2 is not an integer\n")

    @pytest.mark.parametrize("argv, out", [
        (("--ring", "rat", "--lambda", "-1/2", "eval", "lam"), "-1/2*T(1)\n"),
        (("--ring", "rat", "--lam", "-3/6", "eval", "lam"), "-1/2*T(1)\n"),
        (("--ring", "mod:5", "--lambda", "-1/2", "--precision", "1", "eval", "lam"), "2*T(1)\n"),
        (("--ring", "int", "--lambda", "-4/2", "eval", "lam"), "-2*T(1)\n"),
        (("--ring", "rat", "--lambda", "-3", "eval", "lam"), "-3*T(1)\n"),
    ], ids=["rat", "rat-prefix", "mod-after-flag", "int", "int-no-fraction"])
    def test_negative_fraction_is_the_lambda_value(self, capsys, argv, out):
        # argparse alone reads "-1/2" as a flag, not as the flag's value
        assert run_cli(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ("--ring", "rat", "--lambda"),
        ("--ring", "rat", "--lambda", "--json", "eval", "lam"),
        ("--lambda", "--lambda", "-1/2", "eval", "lam"),
    ], ids=["at-end", "before-a-flag", "twice"])
    def test_lambda_without_a_value_is_still_a_usage_error(self, capsys, argv):
        err = build_parser().format_usage() + "freebax: error: argument --lambda: expected one argument\n"
        assert run_argv(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("argv, out", [
        (("--ring", "rat", "eval", "-1/2"), "-1/2*T(1)\n"),
        (("--vars", "x", "eval", "-x"), "-T(x)\n"),
        (("--vars", "x", "phi", "-T(x)", "--len", "2"), "[1] -T(x)\n[2] -T(1,x)\n"),
        (("--vars", "x", "ideal-member", "-x", "--gens", "x"), "true\n"),
        (("--vars", "x", "ideal-member", "--gens", "x", "-x"), "true\n"),
        (("--ring", "rat", "eval", "--", "-1/2"), "-1/2*T(1)\n"),
        (("--ring", "rat", "--lambda", "-1/2", "eval", "--", "-lam"), "1/2*T(1)\n"),
    ], ids=["eval-fraction", "eval-variable", "phi", "ideal-member", "ideal-member-last",
            "after-dashes", "after-dashes-and-lambda"])
    def test_an_expression_may_begin_with_a_minus(self, capsys, argv, out):
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_main_takes_a_tuple(self, capsys):
        assert main(("--ring", "rat", "eval", "-1/2")) == 0
        assert main(("--ring", "rat", "eval", "1/2")) == 0
        assert capsys.readouterr().out == "-1/2*T(1)\n1/2*T(1)\n"

    def test_short_help_is_still_an_option(self, capsys):
        code, out, err = run_argv(capsys, "eval", "-h")
        assert (code, err) == (0, "") and out.startswith("usage: freebax eval")

    def test_a_minus_value_after_a_flag_without_one_is_a_usage_error(self, capsys):
        # --help takes no value, so --help=-x is rejected before help prints
        code, out, err = run_argv(capsys, "--help", "-x")
        assert (code, out) == (2, "") and "'-x'" in err

    def test_golden_transcript(self):
        # every case of tests/data/cli_golden.json; CI runs the same cases
        # against the installed script
        failures = cli_golden.failures(cli_golden.in_process, cli_golden.load())
        assert not failures, "\n".join(failures)

    def test_reused_parser_leaks_no_state(self, capsys):
        # every golden case, and --help, whose text each Python version lays
        # out differently, so that no case holds it
        lines = [tuple(case["argv"]) for case in cli_golden.load()] + [("--help",)]
        argvs = [flag + argv for argv in lines for flag in ((), ("--json",))]
        forward = [run_argv(capsys, *argv) for argv in argvs]
        backward = [run_argv(capsys, *argv) for argv in reversed(argvs)][::-1]
        assert forward == backward
        code, out, _ = forward[argvs.index(("--help",))]
        assert code == 0 and out.startswith("usage: freebax")
        fresh = build_parser.__wrapped__()
        for argv in argvs:
            assert parse_or_exit(capsys, build_parser(), argv) == parse_or_exit(capsys, fresh, argv), argv

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli(capsys, "eval", "1")[0] == 0
        once = len(built)
        assert run_cli(capsys, "--json", "eval", "1")[0] == 0
        assert once and len(built) == once

    @pytest.mark.parametrize("patched, flag", [("to_obj", ()), ("__str__", ("--json",))],
                             ids=["text", "json"])
    def test_only_the_printed_output_is_rendered(self, capsys, monkeypatch, patched, flag):
        argv = (*flag, "--ring", "mod:9", "--lambda", "3", "eval", "U(1)*U(1)")
        printed = run_cli(capsys, *argv)
        assert printed[0] == 0

        def unused(self):
            raise AssertionError(f"Element.{patched} called")

        monkeypatch.setattr(Element, patched, unused)
        assert run_cli(capsys, *argv) == printed

    @pytest.mark.parametrize("argv, text, payload, warning", [
        (
            ("--vars", "x", "--ring", "mod:6", "--lambda", "2", "phi", "T(x,1)", "--len", "4"),
            "[1] 0\n[2] 2*T(1,x)\n[3] 4*T(1,1,x)\n[4] 0\n",
            '{"command": "phi", "context": {"lambda": "2", "ring": "mod:6", "variables": ["x"]}, '
            '"result": {"entries": [{"level": 1, "terms": []}, {"level": 2, "terms": [{"coeff": "2", '
            '"word": [[], [["x", 1]]]}]}, {"level": 3, "terms": [{"coeff": "4", "word": [[], [], '
            '[["x", 1]]]}]}, {"level": 1, "terms": []}], "kind": "sequence"}}\n',
            "lambda = 2 is a zero divisor in mod:6; phi may not be injective",
        ),
        (
            ("--ring", "rat", "--vars", "x", "ideal-member", "x", "--gens", "scalar:2"),
            "true\n",
            '{"command": "ideal-member", "context": {"lambda": "1", "ring": "rat", "variables": ["x"]}, '
            '"result": {"ideal": "(2)", "member": true}}\n',
            "every nonzero scalar generates the whole ring of rationals",
        ),
    ], ids=["phi-zero-divisor", "rat-scalar-ideal"])
    def test_library_warnings_are_one_line(self, capsys, argv, text, payload, warning):
        # no source path, line number or source line, in either mode
        assert run_cli(capsys, *argv) == (0, text, f"warning: {warning}\n")
        assert run_cli(capsys, "--json", *argv) == (0, payload, f"warning: {warning}\n")



# text over the grammar's alphabet, with characters it does not know
SOURCE_PIECES = (
    "x", "y", "z", "P", "T", "U", "geom", "lam", "0", "1", "7", "12", "/", "(", ")",
    "+", "-", "*", "^", ",", " ", "\t", "$", ".", "é", "\u0663", "_",
)

SUM_OPERANDS = (
    "T(x,y)", "T(x^2 + y, 1)", "3*T(1,x)", "T(x*y - 1)", "U(1)", "U(2)", "2*U(0)",
    "geom(2)", "geom(-1)", "P(geom(3))", "U(1)*geom(-1)", "P(T(x))",
)

# operands a literal factor scales: elements, and series of each precision
SCALED_OPERANDS = ("T(x,y)", "T(x^2 + y, 1) - 3*T(1,x)", "U(2)", "0", "geom(2)", "geom(-1) + T(x)", "P(geom(3))")
# (source, monomial) factors of a word
WORD_LETTERS = (("1", UNIT_MONOMIAL), ("x", Monomial.of(x=1)), ("y^2", Monomial.of(y=2)), ("x*y", Monomial.of(x=1, y=1)))


# command lines over a small alphabet: flags with good and bad values, each
# subcommand, "--", and cheap expressions, some of them beginning with "-"
GLOBAL_FLAGS = (
    ("--ring", "int"), ("--ring", "rat"), ("--ring", "mod:0"), ("--ring", "mod:1"), ("--ring", "mod:6"),
    ("--lambda", "-1/2"), ("--lambda", "2"), ("--lambda", "-x"), ("--lambda",), ("--vars", "x"),
    ("--vars", "-x"), ("--precision", "2"), ("--precision", "-1"), ("--json",), ("--",),
)
COMMANDS = (("eval",), ("phi",), ("ideal-member",), ("verify", "charp"), ("enumerate-shuffles",))
TAIL_TOKENS = ("--", "1", "2", "-1", "-1/2", "x", "-x", "-T(x)", "U(1)", "-U(1)", "--len", "--gens", "-h")


@st.composite
def signed_sums(draw):
    operands = draw(st.lists(st.sampled_from(SUM_OPERANDS), min_size=1, max_size=12))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=len(operands) - 1, max_size=len(operands) - 1))
    return operands, signs


def pairwise_fold(operands, signs, ctx, precision):
    """The sum evaluated one operand at a time, with the series rules of
    the completion: a finite element joins a series at its precision."""
    total = evaluate_source(operands[0], ctx, precision)
    for sign, src in zip(signs, operands[1:]):
        value = evaluate_source(src, ctx, precision)
        if isinstance(total, sr.Series) and isinstance(value, Element):
            value = sr.embed(value, total.precision)
        elif isinstance(total, Element) and isinstance(value, sr.Series):
            total = sr.embed(total, value.precision)
        total = total + value if sign == "+" else total - value
    return total


def literals(ring):
    """(source, Coeff) pairs of literals p/q whose denominator the ring can
    divide by."""
    nats = st.integers(0, 12)
    if ring.kind == "int":
        return st.tuples(nats, st.integers(1, 4)).map(lambda t: (f"{t[0] * t[1]}/{t[1]}", ring.coeff(t[0])))
    if ring.kind == "rat":
        return st.tuples(nats, st.integers(1, 6)).map(lambda t: (f"{t[0]}/{t[1]}", ring.coeff(Fraction(*t))))
    units = [q for q in range(1, ring.modulus) if gcd(q, ring.modulus) == 1]
    return st.tuples(nats, st.sampled_from(units)).map(
        lambda t: (f"{t[0]}/{t[1]}", ring.coeff(t[0] * pow(t[1], -1, ring.modulus))))


SCALED_WORD_CONTEXTS = [Context(ring, ring.coeff(2), ("x", "y")) for ring in (INT, RAT, Zmod(6), Zmod(7))]


def polynomial_texts():
    """Source text of sums, products and powers of x and y."""
    return st.recursive(
        st.sampled_from(["x", "y", "1", "2"]),
        lambda children: st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        ),
        max_leaves=4,
    )


@st.composite
def scaled_word_terms(draw, ring):
    """One operand of a sum of scaled words: c*T(...), -T(...), n/d*T(...)
    or T(...)."""
    word = "T(" + ", ".join(draw(st.lists(polynomial_texts(), min_size=1, max_size=3))) + ")"
    kind = draw(st.sampled_from(["int", "neg", "ratio", "plain"]))
    if kind == "int":
        return f"{draw(st.integers(0, 12))}*{word}"
    if kind == "ratio":
        return f"{draw(literals(ring))[0]}*{word}"
    return "-" + word if kind == "neg" else word


def enumerated_power(a, k):
    """a^k as k products by the enumeration oracle, starting from one."""
    out = one(a.ctx)
    for _ in range(k):
        out = shuffle_product_enumerated(out, a)
    return out


def polynomial_sources(ctx):
    """(source, degree-0 element) pairs of polynomial expressions, each
    element built by term-store sums and the enumeration oracle's products,
    never by the production kernel."""
    leaves = st.one_of(
        literals(ctx.ring).map(lambda lit: (lit[0], scalar(ctx, lit[1]))),
        st.just(("lam", scalar(ctx, ctx.lam))),
        st.sampled_from(ctx.variables).map(lambda v: (v, variable(ctx, v))),
    )
    ops = {"+": operator.add, "-": operator.sub, "*": shuffle_product_enumerated}

    def extend(children):
        return st.one_of(
            children.map(lambda c: (f"-({c[0]})", -c[1])),
            st.tuples(children, st.integers(0, 4)).map(
                lambda t: (f"({t[0][0]})^{t[1]}", enumerated_power(t[0][1], t[1]))),
            st.tuples(children, st.sampled_from("+-*"), children).map(
                lambda t: (f"({t[0][0]}) {t[1]} ({t[2][0]})", ops[t[1]](t[0][1], t[2][1]))),
        )

    return st.recursive(leaves, extend, max_leaves=4)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SOURCE_PIECES), max_size=40).map("".join),
           st.sampled_from([None, ("x", "y")]))
    def test_parse_raises_only_parse_error(self, src, variables):
        try:
            parse(src, variables)
        except ParseError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(BAXTER_IDENTITY_CONFIGS), st.data())
    def test_word_factors_evaluate_as_polynomials(self, config, data):
        ring, lam = config
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        (e, pe), (e2, pe2) = data.draw(polynomial_sources(ctx)), data.draw(polynomial_sources(ctx))
        assert evaluate_source(f"T({e}, {e2})", ctx) == tensor_word(ctx, pe, pe2)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(SUM_OPERANDS),
           st.sampled_from([("--vars", "x,y"), ("--ring", "rat", "--lambda", "-1/2", "--vars", "x,y")]))
    def test_a_leading_minus_reads_as_after_dashes(self, operand, flags):
        value = "-" + operand
        eval_run = run_captured((*flags, "eval", value))
        assert eval_run[0] == 0
        assert eval_run == run_captured((*flags, "eval", "--", value))
        phi_run = run_captured((*flags, "phi", value, "--len", "3"))
        assert phi_run[0] == 0
        assert phi_run == run_captured((*flags, "phi", "--len", "3", "--", value))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(GLOBAL_FLAGS), max_size=3), st.sampled_from(COMMANDS),
           st.lists(st.sampled_from(TAIL_TOKENS), max_size=3))
    def test_every_command_line_keeps_the_exit_codes(self, flags, command, tail):
        argv = [tok for flag in flags for tok in flag] + list(command) + tail
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                assert main(argv) in (0, 1, 2), argv
            except SystemExit as exc:
                assert exc.code in (0, 2), argv
        assert "Traceback" not in err.getvalue(), argv

    @settings(max_examples=100, deadline=None)
    @given(signed_sums(), st.sampled_from(CONTEXTS[2:4]), st.integers(0, 4))
    @example((["geom(2)", "T(x,y)", "geom(2)", "T(x,y)"], ["+", "-", "-"]), CONTEXTS[2], 3)
    @example((["T(x*y - 1)", "3*T(1,x)", "T(x*y - 1)", "3*T(1,x)"], ["+", "-", "+"]), CONTEXTS[3], 2)
    def test_sum_equals_the_pairwise_fold(self, signed, ctx, precision):
        operands, signs = signed
        src = operands[0] + "".join(f" {sign} {operand}" for sign, operand in zip(signs, operands[1:]))
        assert evaluate_source(src, ctx, precision) == pairwise_fold(operands, signs, ctx, precision)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(SCALED_WORD_CONTEXTS), st.data(), st.integers(0, 4))
    def test_a_sum_of_scaled_words_equals_the_termwise_fold(self, ctx, data, precision):
        terms = data.draw(st.lists(scaled_word_terms(ctx.ring), min_size=1, max_size=8))
        if data.draw(st.booleans()):
            k, r = data.draw(st.integers(0, 5)), data.draw(st.integers(-2, 2))
            terms.insert(data.draw(st.integers(0, len(terms))), f"{k}*geom({r})")
        signs = data.draw(st.lists(st.sampled_from("+-"), min_size=len(terms) - 1, max_size=len(terms) - 1))
        src = terms[0] + "".join(f" {sign} {term}" for sign, term in zip(signs, terms[1:]))
        assert evaluate_source(src, ctx, precision) == pairwise_fold(terms, signs, ctx, precision)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(CONTEXTS), st.data())
    def test_a_literal_factor_scales_like_its_scalar(self, ctx, data):
        lit, c = data.draw(literals(ctx.ring))
        operand = data.draw(st.sampled_from(SCALED_OPERANDS))
        e = evaluate_source(operand, ctx, 3)
        expected = scalar(ctx, c) * e
        assert evaluate_source(f"{lit}*({operand})", ctx, 3) == expected
        assert evaluate_source(f"({operand})*{lit}", ctx, 3) == expected
        # a word of one-term factors is one word with the product of their
        # coefficients
        factors = data.draw(st.lists(st.tuples(literals(ctx.ring), st.sampled_from(WORD_LETTERS)),
                                     min_size=1, max_size=4))
        src = "T(" + ", ".join(f"{lit}*{letter}" for (lit, _), (letter, _) in factors) + ")"
        product = ctx.ring.one()
        for (_, coeff), _ in factors:
            product = product * coeff
        word = tuple(monomial for _, (_, monomial) in factors)
        assert evaluate_source(src, ctx) == element(ctx, {word: product})
