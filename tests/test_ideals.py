import random
import warnings

import pytest

from freebax import (
    INT,
    RAT,
    Context,
    IdealSpec,
    Monomial,
    Zmod,
    baxter_P,
    baxter_ideal_member,
    element,
    evaluate_source,
    lambda_adic_valuation,
    one,
    reduce_mod,
    reduce_vars,
    scalar_ideal,
    shuffle_product,
    tensor_word,
    unit_word,
    variable,
    variable_ideal,
)
from freebax.ideals import TrivialIdealWarning
from freebax.verify import random_element

x = Monomial.of(x=1)
y = Monomial.of(y=1)


def ctx_int(lam, variables=("x", "y")):
    return Context(INT, INT.coeff(lam), variables)


class TestMembership:
    def test_word_with_generator_factor(self):
        ctx = ctx_int(1)
        a = tensor_word(ctx, x, y)
        assert baxter_ideal_member(a, variable_ideal("x"))

    def test_unit_word_is_outside(self):
        ctx = ctx_int(1)
        assert not baxter_ideal_member(unit_word(ctx, 1), variable_ideal("x"))

    def test_scalar_ideal_even_coefficients(self):
        ctx = ctx_int(1)
        a = baxter_P(variable(ctx, "x")).scaled(2) + variable(ctx, "y").scaled(4)
        assert baxter_ideal_member(a, scalar_ideal(INT.coeff(2)))
        assert lambda_adic_valuation(
            element(Context(INT, INT.coeff(2), ("x", "y")), dict(a.terms))
        ) >= 1

    def test_scalar_ideal_rejects_odd(self):
        ctx = ctx_int(1)
        a = variable(ctx, "x").scaled(2) + one(ctx).scaled(3)
        assert not baxter_ideal_member(a, scalar_ideal(INT.coeff(2)))

    def test_rationals_warn_trivial(self):
        ctx = Context(RAT, RAT.coeff(1), ("x",))
        with pytest.warns(TrivialIdealWarning):
            assert baxter_ideal_member(variable(ctx, "x"), scalar_ideal(RAT.coeff(2)))

    @pytest.mark.parametrize("src", ["T(x) + U(1) + U(2)", "0"], ids=["three-terms", "zero"])
    def test_rationals_warn_once_per_call(self, src):
        ctx = Context(RAT, RAT.coeff(1), ("x",))
        a = evaluate_source(src, ctx)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert baxter_ideal_member(a, scalar_ideal(RAT.coeff(2)))
        assert [w.category for w in caught] == [TrivialIdealWarning]
        # the warning names the caller's line, not a line of the library
        assert caught[0].filename == __file__

    def test_modular_scalar_ideal(self):
        # membership in (c) mod m comes down to divisibility by gcd(c, m)
        ring = Zmod(9)
        ctx = Context(ring, ring.one(), ("x",))
        assert baxter_ideal_member(variable(ctx, "x").scaled(6), scalar_ideal(ring.coeff(3)))
        assert not baxter_ideal_member(variable(ctx, "x").scaled(2), scalar_ideal(ring.coeff(6)))
        # a unit generates everything
        assert baxter_ideal_member(variable(ctx, "x").scaled(5), scalar_ideal(ring.coeff(2)))

    def test_unknown_generator(self):
        ctx = ctx_int(1)
        with pytest.raises(ValueError):
            baxter_ideal_member(one(ctx), variable_ideal("z"))

    def test_scalar_generator_of_another_ring(self):
        with pytest.raises(ValueError, match="different ring"):
            baxter_ideal_member(one(ctx_int(1)), scalar_ideal(Zmod(4).coeff(2)))


class TestIdealSpec:
    def test_malformed_specs_are_rejected(self):
        with pytest.raises(ValueError, match="at least one generator"):
            variable_ideal()
        with pytest.raises(ValueError, match="nonzero generator"):
            scalar_ideal(INT.zero())
        with pytest.raises(ValueError, match="unknown ideal kind 'foo'"):
            IdealSpec("foo")

    def test_generators_as_a_string_are_rejected(self):
        # "xy" would read as the generators x and y, so that T(x,y) passed
        # as a member and T(xy) did not
        with pytest.raises(TypeError) as err:
            IdealSpec("vars", "xy")
        assert str(err.value) == "variables must be a tuple of names, got 'xy'"
        assert variable_ideal("xy").names == ("xy",)

    def test_generators_are_checked_when_the_ideal_is_built(self):
        with pytest.raises(TypeError) as err:
            IdealSpec("vars", None)
        assert str(err.value) == "variables must be a tuple of names, got None"
        with pytest.raises(ValueError, match="invalid variable name '1y'"):
            variable_ideal("1y")
        with pytest.raises(ValueError, match="'lam' is a reserved word"):
            variable_ideal("x", "lam")
        # a repeated generator adds nothing to the ideal, and stays accepted
        assert variable_ideal("x", "x").names == ("x", "x")

    def test_context_variables_that_are_not_iterable_are_named(self):
        with pytest.raises(TypeError) as err:
            Context(INT, INT.coeff(1), None)
        assert str(err.value) == "variables must be a tuple of names, got None"


class TestIdealClosure:
    def test_closed_under_products_and_P(self):
        ctx = ctx_int(1, ("x", "y", "z"))
        spec = variable_ideal("x")
        rng = random.Random(31)
        checked = 0
        while checked < 30:
            a = random_element(rng, ctx)
            if a.is_zero() or not baxter_ideal_member(a, spec):
                continue
            b = random_element(rng, ctx)
            assert baxter_ideal_member(shuffle_product(a, b), spec)
            assert baxter_ideal_member(baxter_P(a), spec)
            checked += 1

    def test_scalar_membership_matches_valuation(self):
        ctx = Context(INT, INT.coeff(2), ("x",))
        spec = scalar_ideal(INT.coeff(2))
        rng = random.Random(37)
        for _ in range(100):
            a = random_element(rng, ctx)
            assert baxter_ideal_member(a, spec) == (lambda_adic_valuation(a) >= 1)


class TestModularReduction:
    def test_starts_from_the_integers(self):
        with pytest.raises(ValueError, match="integer context"):
            reduce_mod(one(Context(RAT, RAT.coeff(1))), 5)

    def test_kills_multiples(self):
        ctx = ctx_int(1)
        assert reduce_mod(unit_word(ctx, 1).scaled(3), 3).is_zero()

    def test_homomorphism_against_independent_products(self):
        ctx = ctx_int(2)
        rng = random.Random(41)
        for _ in range(40):
            a = random_element(rng, ctx)
            b = random_element(rng, ctx)
            for m in (4, 5, 9):
                lhs = reduce_mod(shuffle_product(a, b), m)
                rhs = shuffle_product(reduce_mod(a, m), reduce_mod(b, m))
                assert lhs == rhs

    def test_commutes_with_P(self):
        ctx = ctx_int(2)
        rng = random.Random(43)
        for _ in range(20):
            a = random_element(rng, ctx)
            assert reduce_mod(baxter_P(a), 6) == baxter_P(reduce_mod(a, 6))

    def test_surjective_on_basis(self):
        ctx = ctx_int(1)
        w = tensor_word(ctx, x, y)
        image = reduce_mod(w, 5)
        assert [t[0] for t in image.terms] == [t[0] for t in w.terms]


class TestVariableReduction:
    def test_example(self):
        ctx = ctx_int(1)
        a = tensor_word(ctx, x, y) + tensor_word(ctx, Monomial(), y)
        out = reduce_vars(a, ("x",))
        assert len(out.terms) == 1
        assert out.terms[0][0] == (Monomial(), y)
        assert out.ctx.variables == ("y",)

    def test_kernel_is_the_ideal(self):
        ctx = ctx_int(1, ("x", "y", "z"))
        rng = random.Random(47)
        for _ in range(100):
            a = random_element(rng, ctx)
            assert reduce_vars(a, ("x",)).is_zero() == baxter_ideal_member(a, variable_ideal("x"))

    def test_homomorphism(self):
        ctx = ctx_int(2, ("x", "y", "z"))
        rng = random.Random(53)
        for _ in range(40):
            a = random_element(rng, ctx)
            b = random_element(rng, ctx)
            assert reduce_vars(shuffle_product(a, b), ("x",)) == shuffle_product(
                reduce_vars(a, ("x",)), reduce_vars(b, ("x",))
            )
            assert reduce_vars(baxter_P(a), ("x",)) == baxter_P(reduce_vars(a, ("x",)))

    def test_surjective_on_codomain_basis(self):
        # every word over the surviving variables is its own preimage
        ctx = ctx_int(1, ("x", "y", "z"))
        survivor = tensor_word(ctx, y, Monomial.of(z=2))
        image = reduce_vars(survivor, ("x",))
        assert [t[0] for t in image.terms] == [t[0] for t in survivor.terms]

    def test_unknown_variable(self):
        ctx = ctx_int(1)
        with pytest.raises(ValueError):
            reduce_vars(one(ctx), ("q",))

    def test_variables_as_a_string_are_rejected(self):
        # "xy" would kill x and y, not the variable xy
        ctx = ctx_int(1, ("x", "y", "xy"))
        a = tensor_word(ctx, x, y) + tensor_word(ctx, Monomial.of(xy=1))
        with pytest.raises(TypeError) as err:
            reduce_vars(a, "xy")
        assert str(err.value) == "variables must be a tuple of names, got 'xy'"
        assert reduce_vars(a, ("xy",)) == reduce_vars(tensor_word(ctx, x, y), ("xy",))
        with pytest.raises(TypeError) as err:
            reduce_vars(a, 5)
        assert str(err.value) == "variables must be a tuple of names, got 5"
