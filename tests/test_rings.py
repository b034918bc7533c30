import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebax import (
    INT,
    RAT,
    UNIT_MONOMIAL,
    Coeff,
    Context,
    Monomial,
    Ring,
    RingMismatchError,
    Zmod,
    bar,
    characteristic,
    closed_form_unit_product,
    element,
    embed,
    enumerate_mixable_shuffles,
    evaluate_source,
    geometric_unit_series,
    inverse,
    is_nilpotent,
    is_unit,
    is_zero_divisor,
    lambda_valuation,
    make_series,
    p_prime,
    p_x_power,
    parse_coeff,
    phi,
    phi_constants,
    phi_series,
    reduce_mod,
    reduce_vars,
    scalar,
    seq_one,
    seq_zero,
    shuffle_product,
    t_sequence,
    truncate,
    unit_word,
    variable,
    zero,
)
from freebax.rings import power
from freebax.sequences import PhiInjectivityWarning


def egcd(a, b):
    """Extended gcd oracle: returns (g, s, t) with s*a + t*b = g."""
    if b == 0:
        return a, 1, 0
    g, s, t = egcd(b, a % b)
    return g, t, s - (a // b) * t


class TestArithmetic:
    def test_rational_add_normalizes(self):
        a = RAT.coeff(Fraction(2, 3))
        b = RAT.coeff(Fraction(1, 6))
        assert a + b == RAT.coeff(Fraction(5, 6))

    def test_modular_mul(self):
        assert Zmod(9).coeff(5) * Zmod(9).coeff(7) == Zmod(9).coeff(8)

    def test_neg_zero(self):
        for ring in (INT, RAT, Zmod(9)):
            assert -ring.zero() == ring.zero()

    def test_negative_residues_reduce(self):
        assert Zmod(9).coeff(-3) == Zmod(9).coeff(6)

    def test_subtraction_in_both_orders(self):
        assert INT.coeff(5) - INT.coeff(7) == INT.coeff(-2)
        assert 1 - INT.coeff(5) == INT.coeff(-4)
        m = Zmod(6)
        assert m.coeff(2) - m.coeff(5) == m.coeff(3)
        assert 1 - m.coeff(2) == m.coeff(5)
        half = RAT.coeff(Fraction(1, 2))
        assert 1 - half == half

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            INT.coeff(1) + RAT.coeff(1)

    def test_pow(self):
        assert Zmod(9).coeff(2) ** 4 == Zmod(9).coeff(7)
        assert RAT.coeff(Fraction(1, 2)) ** 3 == RAT.coeff(Fraction(1, 8))


class TestCoeffOnTheLeft:
    """A coefficient hands an algebra value on its right to that value:
    ``c * a`` scales it through ``__rmul__``, and ``c + a`` and ``c - a``
    have no meaning."""

    @pytest.mark.parametrize("make", [
        lambda ctx: unit_word(ctx, 1) + variable(ctx, "x"),
        lambda ctx: embed(unit_word(ctx, 1) + variable(ctx, "x"), 3),
        lambda ctx: phi(unit_word(ctx, 1) + variable(ctx, "x"), 3),
        lambda ctx: bar(INT, 2, {(UNIT_MONOMIAL, Monomial.of(x=1)): INT.coeff(2)}),
    ], ids=["element", "series", "sequence", "bar"])
    def test_coefficient_times_value(self, make):
        a, c = make(Context(INT, INT.coeff(2), ("x",))), INT.coeff(3)
        assert c * a == a + a + a
        with pytest.raises(TypeError):
            c + a
        with pytest.raises(TypeError):
            c - a


class TestCharacteristic:
    def test_values(self):
        assert characteristic(INT) == 0
        assert characteristic(RAT) == 0
        assert characteristic(Zmod(9)) == 9


class TestPredicates:
    def test_two_is_not_a_unit_in_the_integers(self):
        assert not is_unit(INT.coeff(2))

    def test_one_is_a_unit_everywhere(self):
        for ring in (INT, RAT, Zmod(9), Zmod(6)):
            assert is_unit(ring.one())

    def test_unit_mod_9_matches_extended_gcd(self):
        g, s, _ = egcd(4, 9)
        assert g == 1 and (4 * s) % 9 == 1
        assert is_unit(Zmod(9).coeff(4))

    def test_zero_divisor_mod_9_by_search(self):
        witnesses = [d for d in range(1, 9) if (3 * d) % 9 == 0]
        assert witnesses  # 3 * 3 = 0 mod 9
        assert is_zero_divisor(Zmod(9).coeff(3))

    def test_zero_divisor_trivial_cases(self):
        assert not is_zero_divisor(INT.coeff(2))
        assert not is_zero_divisor(Zmod(9).coeff(0))

    def test_nilpotent_by_powers(self):
        assert (3 ** 2) % 9 == 0
        assert is_nilpotent(Zmod(9).coeff(3))
        assert all(pow(3, k, 6) == 3 for k in range(1, 7))
        assert not is_nilpotent(Zmod(6).coeff(3))

    def test_zero_is_nilpotent(self):
        for ring in (INT, RAT, Zmod(4)):
            assert is_nilpotent(ring.zero())

    def test_unit_xor_zero_or_zero_divisor(self):
        for m in (4, 6, 9, 12, 13):
            ring = Zmod(m)
            for c in range(m):
                coeff = ring.coeff(c)
                assert is_unit(coeff) != (c == 0 or is_zero_divisor(coeff))

    def test_nilpotent_matches_direct_powers_up_to_64(self):
        for m in range(2, 65):
            ring = Zmod(m)
            for c in range(m):
                direct = any(pow(c, k, m) == 0 for k in range(1, m + 1))
                assert is_nilpotent(ring.coeff(c)) == direct, (c, m)


class TestValuation:
    def test_examples(self):
        two = INT.coeff(2)
        assert lambda_valuation(INT.coeff(12), two) == 2
        assert lambda_valuation(INT.coeff(0), two) == math.inf

    def test_negative_by_repeated_division(self):
        n, v = 8, 0
        while n % 2 == 0:
            n //= 2
            v += 1
        assert v == 3
        assert lambda_valuation(INT.coeff(-8), INT.coeff(2)) == 3

    def test_rejects_nonprime_lambda(self):
        with pytest.raises(ValueError):
            lambda_valuation(INT.coeff(12), INT.coeff(6))

    def test_rejects_non_integer_ring(self):
        with pytest.raises(ValueError):
            lambda_valuation(RAT.coeff(4), RAT.coeff(2))


class TestInverse:
    def test_examples(self):
        assert inverse(Zmod(9).coeff(4)) * Zmod(9).coeff(4) == Zmod(9).one()
        assert inverse(RAT.coeff(Fraction(-2, 3))) == RAT.coeff(Fraction(-3, 2))
        assert inverse(INT.coeff(-1)) == INT.coeff(-1)

    def test_non_unit(self):
        with pytest.raises(ValueError):
            inverse(INT.coeff(2))


small_ints = st.integers(min_value=-30, max_value=30)


@st.composite
def ring_and_triples(draw):
    ring = draw(st.sampled_from([INT, RAT, Zmod(9), Zmod(6)]))
    def c():
        if ring.kind == "rat":
            return ring.coeff(Fraction(draw(small_ints), draw(st.integers(1, 9))))
        return ring.coeff(draw(small_ints))
    return ring, c(), c(), c()


class TestRingAxioms:
    @given(ring_and_triples())
    def test_axioms(self, data):
        ring, a, b, c = data
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero() == a
        assert a * ring.one() == a
        assert a + (-a) == ring.zero()


class TestParsing:
    def test_round_trip(self):
        assert parse_coeff(RAT, "-1/2") == RAT.coeff(Fraction(-1, 2))
        assert parse_coeff(INT, "-7") == INT.coeff(-7)
        assert parse_coeff(Zmod(9), "-3") == Zmod(9).coeff(6)

    def test_rejects_fraction_over_integers(self):
        with pytest.raises(ValueError):
            parse_coeff(INT, "1/2")

    def test_str(self):
        assert str(RAT.coeff(Fraction(-1, 2))) == "-1/2"
        assert str(Zmod(9).coeff(-3)) == "6"

    @pytest.mark.parametrize("ring, text, value", [
        (Zmod(5), "1/2", 3),
        (Zmod(9), "-1/2", 4),
        (INT, "4/2", 2),
        (INT, "-6/3", -2),
        (RAT, "-3/6", Fraction(-1, 2)),
        (RAT, " +2/4 ", Fraction(1, 2)),
    ])
    def test_fractions_divide_as_in_expressions(self, ring, text, value):
        assert parse_coeff(ring, text) == ring.coeff(value)

    @pytest.mark.parametrize("ring, text, message", [
        (INT, "1/2", "1/2 is not an integer"),
        (Zmod(6), "1/2", "2 is not invertible in mod:6"),
        (Zmod(9), "-1/3", "3 is not invertible in mod:9"),
    ])
    def test_denominator_must_divide(self, ring, text, message):
        with pytest.raises(ValueError) as err:
            parse_coeff(ring, text)
        assert str(err.value) == message

    @pytest.mark.parametrize("ring", [INT, RAT, Zmod(5)], ids=str)
    @pytest.mark.parametrize("text", ["", "1/", "/2", "1/-2", "--1", "1 / 2", "x"])
    def test_only_expression_literals_are_read(self, ring, text):
        with pytest.raises(ValueError) as err:
            parse_coeff(ring, text)
        assert str(err.value) == f"invalid {ring} coefficient {text!r}"

    @pytest.mark.parametrize("ring", [INT, RAT, Zmod(5)], ids=str)
    def test_zero_denominator(self, ring):
        with pytest.raises(ValueError) as err:
            parse_coeff(ring, "1/0")
        assert str(err.value) == f"zero denominator in {ring} coefficient '1/0'"

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([INT, RAT, Zmod(6), Zmod(9)]),
        st.tuples(st.sampled_from(["", "-"]), st.integers(0, 60), st.none() | st.integers(0, 12)).map(
            lambda t: f"{t[0]}{t[1]}" + ("" if t[2] is None else f"/{t[2]}")),
    )
    def test_flags_and_expressions_read_literals_alike(self, ring, text):
        # either both read the same scalar or both reject the literal
        ctx = Context(ring, ring.one())
        try:
            flag = scalar(ctx, parse_coeff(ring, text))
        except ValueError:
            flag = None
        try:
            expression = evaluate_source(text, ctx)
        except ValueError:
            expression = None
        assert flag == expression


class TestInputChecks:
    def test_ring_kind_takes_no_modulus(self):
        with pytest.raises(ValueError) as err:
            Ring("int", 5)
        assert str(err.value) == "ring 'int' takes no modulus"

    def test_integer_coefficient_must_be_an_int(self):
        with pytest.raises(TypeError) as err:
            Coeff(INT, 1.5)
        assert str(err.value) == "int coefficient must be an int, got 1.5"

    def test_coefficient_exponent_must_be_nonnegative(self):
        with pytest.raises(ValueError) as err:
            INT.coeff(2) ** -1
        assert str(err.value) == "exponent must be nonnegative"

    @pytest.mark.parametrize("k", [True, False, 2.0], ids=["true", "false", "float"])
    def test_coefficient_exponent_must_be_an_int_not_a_bool(self, k):
        with pytest.raises(TypeError) as err:
            INT.coeff(2) ** k
        assert str(err.value) == f"exponent must be an integer, got {k!r}"


# every public function that takes a count, with valid other arguments:
# (name, call with the count k, the name its messages give, least count)
COUNT_ARGUMENTS = (
    ("unit_word", unit_word, "degree", 0),
    ("closed_form_unit_product-m", lambda ctx, k: closed_form_unit_product(ctx, k, 1), "degree", 0),
    ("closed_form_unit_product-n", lambda ctx, k: closed_form_unit_product(ctx, 1, k), "degree", 0),
    ("enumerate_mixable_shuffles-m", lambda ctx, k: enumerate_mixable_shuffles(k, 1), "tail length", 0),
    ("enumerate_mixable_shuffles-n", lambda ctx, k: enumerate_mixable_shuffles(1, k), "tail length", 0),
    ("p_x_power", lambda ctx, k: p_x_power(variable(ctx, "x"), k), "iteration count", 0),
    ("power", lambda ctx, k: power(2, k, lambda: 1, True), "exponent", 0),
    ("Element-pow", lambda ctx, k: variable(ctx, "x") ** k, "exponent", 0),
    ("Series-pow", lambda ctx, k: embed(variable(ctx, "x"), 2) ** k, "exponent", 0),
    ("Coeff-pow", lambda ctx, k: ctx.lam ** k, "exponent", 0),
    ("bar", lambda ctx, k: bar(ctx.ring, k, {}), "bar level", 1),
    ("seq_zero", seq_zero, "sequence length", 1),
    ("seq_one", seq_one, "sequence length", 1),
    ("t_sequence", lambda ctx, k: t_sequence(ctx, variable(ctx, "x"), k), "sequence length", 1),
    ("phi", lambda ctx, k: phi(variable(ctx, "x"), k), "sequence length", 1),
    ("phi_constants", lambda ctx, k: phi_constants(ctx, [ctx.lam], k), "sequence length", 1),
    ("phi_series", lambda ctx, k: phi_series(embed(variable(ctx, "x"), 3), k), "sequence length", 1),
    ("make_series-precision", lambda ctx, k: make_series(ctx, k, {}), "precision", 0),
    ("make_series-degree", lambda ctx, k: make_series(ctx, 3, {k: zero(ctx)}), "component degree", 0),
    ("embed", lambda ctx, k: embed(variable(ctx, "x"), k), "precision", 0),
    ("truncate", lambda ctx, k: truncate(embed(variable(ctx, "x"), 3), k), "precision", 0),
    ("geometric_unit_series", lambda ctx, k: geometric_unit_series(ctx, ctx.lam, k), "precision", 0),
)


def junk_counts(least):
    """Values that are no count, and ints below ``least``."""
    return st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-3, 3).filter(lambda f: not f.is_integer()),
        st.sampled_from([True, False, "2", None, Fraction(3, 1)]),
        st.integers(least - 3, least - 1),
    )


class TestCountContract:
    """A count is an int and not a bool, checked by ``rings.check_count``:
    any other value raises TypeError and an int below the least count
    ValueError, each message naming the argument."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=st.sampled_from(COUNT_ARGUMENTS), data=st.data())
    def test_every_count_argument_follows_the_contract(self, case, data):
        _, call, what, least = case
        ctx = Context(INT, INT.coeff(1), ("x",))
        call(ctx, least)
        bad = data.draw(junk_counts(least), label="count")
        if type(bad) is not int:
            error, message = TypeError, f"{what} must be an integer, got {bad!r}"
        elif what == "component degree":
            # a component degree is an int of any sign to the count check;
            # make_series names the range of degrees instead
            error, message = ValueError, f"component degree {bad} outside [0, 3]"
        else:
            error, message = ValueError, f"{what} must be at least {least}" if least else f"{what} must be nonnegative"
        with pytest.raises(error) as err:
            call(ctx, bad)
        assert type(err.value) is error and str(err.value) == message


class TestInPlaceReduce:
    """``Ring.reduce`` normalizes the dict it is handed, which its caller
    has just built; so no operation may hand it an operand's own dict."""

    @pytest.mark.parametrize(
        "ring, acc, expected",
        [
            (INT, {"a": 0, "b": -3, "c": 2}, {"b": -3, "c": 2}),
            (RAT, {"a": Fraction(0), "b": Fraction(-1, 2), "c": 4}, {"b": Fraction(-1, 2), "c": 4}),
            (Zmod(9), {"a": 18, "b": -1, "c": 4, "d": 0, "e": 9}, {"b": 8, "c": 4}),
        ],
        ids=["int", "rat", "mod9"],
    )
    def test_returns_the_dict_it_was_given(self, ring, acc, expected):
        out = ring.reduce(acc)
        assert out is acc
        assert acc == expected

    @given(st.integers(2, 12), st.dictionaries(st.integers(0, 20), st.integers(-50, 50)))
    def test_residues_in_range_and_no_zeros(self, m, acc):
        expected = {k: v % m for k, v in acc.items() if v % m}
        out = Zmod(m).reduce(acc)
        assert out is acc
        assert acc == expected
        assert all(0 < v < m for v in acc.values())

    def test_no_operation_mutates_an_operand(self):
        x, y = Monomial.of(x=1), Monomial.of(y=1)
        ctx = Context(INT, INT.coeff(2), ("x", "y"))
        a = element(ctx, {(x,): INT.coeff(3), (UNIT_MONOMIAL, y): INT.coeff(-6), (x, x): INT.coeff(9)})
        b = element(ctx, {(y,): INT.coeff(1), (x, y): INT.coeff(-2)})
        ring9 = Zmod(9)
        ctx9 = Context(ring9, ring9.coeff(3), ("x", "y"))
        a9 = element(ctx9, {(x,): ring9.coeff(3), (UNIT_MONOMIAL, y): ring9.coeff(6)})
        bar_a = bar(ring9, 1, {(x,): ring9.coeff(3)})
        bar_b = bar(ring9, 2, {(UNIT_MONOMIAL, y): ring9.coeff(6)})
        s = phi(a, 5)
        operands = [a, b, a9, bar_a, bar_b, *s.entries]
        before = [dict(t._raw) for t in operands]

        # the first seven cancel terms, which Ring.reduce deletes in place
        assert (a + (-a)).is_zero()
        assert (a - a).is_zero()
        assert a.scaled(0).is_zero()
        assert a9.scaled(9).is_zero()
        assert a9.scaled(3).is_zero()
        assert (bar_a * bar_b).is_zero()
        assert reduce_mod(a, 3).is_zero()
        assert not shuffle_product(a, b).is_zero()
        assert not reduce_vars(a, ("x",)).is_zero()
        assert not p_prime(s).is_zero()
        assert not phi(a, 5).is_zero()
        with pytest.warns(PhiInjectivityWarning):
            phi(a9, 5)

        assert [t._raw for t in operands] == before
