import random
from fractions import Fraction

import pytest

from freebax import (
    INT,
    RAT,
    Context,
    Zmod,
    baxter_P,
    complete_P,
    complete_product,
    embed,
    geometric_unit_series,
    make_series,
    one,
    scalar,
    shuffle_product,
    shuffle_product_enumerated,
    tensor_word,
    truncate,
    unit_word,
    zero,
    zero_series,
)
from freebax.poly import UNIT_MONOMIAL, Monomial
from freebax.shuffle import ContextMismatchError
from freebax.verify import BAXTER_IDENTITY_CONFIGS, random_element


def ctx_of(ring, lam, variables=()):
    return Context(ring, ring.coeff(lam), variables)


class TestEmbedding:
    def test_is_a_homomorphism(self):
        ctx = ctx_of(INT, 2, ("x", "y"))
        rng = random.Random(1)
        for _ in range(20):
            a = random_element(rng, ctx)
            b = random_element(rng, ctx)
            lhs = complete_product(embed(a, 8), embed(b, 8))
            assert lhs == embed(shuffle_product(a, b), 8)

    def test_commutes_with_the_operator(self):
        ctx = ctx_of(INT, 1, ("x",))
        rng = random.Random(2)
        for _ in range(20):
            a = random_element(rng, ctx, max_word_len=2)
            assert complete_P(embed(a, 6)) == embed(baxter_P(a), 7)


class TestGeometricSeries:
    def test_zero_ratio(self):
        ctx = ctx_of(RAT, 1)
        s = geometric_unit_series(ctx, RAT.coeff(0), 5)
        assert dict(s.components) == {0: one(ctx)}

    def test_ratio_one(self):
        ctx = ctx_of(INT, 1)
        s = geometric_unit_series(ctx, INT.coeff(1), 3)
        assert dict(s.components) == {n: unit_word(ctx, n) for n in range(4)}

    def test_paper_witness_ratio(self):
        ctx = ctx_of(RAT, 1)
        s = geometric_unit_series(ctx, RAT.coeff(-1), 4)
        components = dict(s.components)
        assert components[2] == unit_word(ctx, 2)
        assert components[3] == unit_word(ctx, 3).scaled(-1)


class TestZeroDivisorProducts:
    @pytest.mark.parametrize("precision", [1, 5, 12, 20])
    def test_rational_witness_vanishes(self, precision):
        ctx = ctx_of(RAT, 1)
        x = embed(unit_word(ctx, 1), precision)
        y = geometric_unit_series(ctx, RAT.coeff(-1), precision)
        assert complete_product(x, y).is_zero()
        assert not x.is_zero() and not y.is_zero()

    @pytest.mark.parametrize("precision", [1, 5, 12, 20])
    def test_integer_weight_two_witness_vanishes(self, precision):
        ctx = ctx_of(INT, 2)
        x = make_series(
            ctx,
            precision,
            {n: unit_word(ctx, n).scaled((-1) ** (n + 1)) for n in range(1, precision + 1)},
        )
        y_comps = {0: scalar(ctx, 2)}
        y_comps.update(
            {n: unit_word(ctx, n).scaled((-1) ** n) for n in range(1, precision + 1)}
        )
        y = make_series(ctx, precision, y_comps)
        assert complete_product(x, y).is_zero()
        assert not x.is_zero() and not y.is_zero()


class TestTruncation:
    def test_identity_at_own_precision(self):
        ctx = ctx_of(INT, 1)
        s = geometric_unit_series(ctx, INT.coeff(1), 6)
        assert truncate(s, 6) == s

    def test_composition(self):
        ctx = ctx_of(INT, 1)
        s = geometric_unit_series(ctx, INT.coeff(2), 7)
        assert truncate(truncate(s, 5), 3) == truncate(s, 3)

    def test_cannot_extend(self):
        ctx = ctx_of(INT, 1)
        s = zero_series(ctx, 3)
        with pytest.raises(ValueError):
            truncate(s, 4)

    def test_truncation_is_a_ring_map(self):
        ctx = ctx_of(INT, 2, ("x",))
        rng = random.Random(3)
        for _ in range(15):
            a = embed(random_element(rng, ctx, max_terms=4), 6)
            b = embed(random_element(rng, ctx, max_terms=4), 6)
            assert truncate(complete_product(a, b), 4) == complete_product(
                truncate(a, 4), truncate(b, 4)
            )


class TestPrecision:
    def test_min_rule(self):
        ctx = ctx_of(INT, 1)
        a = geometric_unit_series(ctx, INT.coeff(1), 9)
        b = geometric_unit_series(ctx, INT.coeff(1), 4)
        assert complete_product(a, b).precision == 4
        assert complete_product(a, b) == complete_product(truncate(a, 4), b)
        assert (a + b).precision == 4

    def test_coherence_under_recompute(self):
        # computing at higher precision then truncating changes nothing
        ctx = ctx_of(Zmod(9), 3, ("x",))
        rng = random.Random(4)
        for _ in range(50):
            a = random_element(rng, ctx, max_terms=3, max_word_len=3)
            b = random_element(rng, ctx, max_terms=3, max_word_len=3)
            low = complete_product(embed(a, 3), embed(b, 3))
            high = complete_product(embed(a, 9), embed(b, 9))
            assert truncate(high, 3) == low


class TestCompleteOperator:
    def test_prepends_unit(self):
        ctx = ctx_of(RAT, 1)
        s = complete_P(embed(one(ctx), 0))
        assert s.precision == 1
        assert dict(s.components) == {1: unit_word(ctx, 1)}

    def test_zero(self):
        ctx = ctx_of(RAT, 1)
        assert complete_P(zero_series(ctx, 5)).is_zero()

    def test_baxter_identity_in_the_completion(self):
        ctx = ctx_of(RAT, Fraction(1), ("x",))
        rng = random.Random(5)
        for _ in range(15):
            a = embed(random_element(rng, ctx, max_word_len=2), 5)
            b = embed(random_element(rng, ctx, max_word_len=2), 5)
            lhs = complete_product(complete_P(a), complete_P(b))
            rhs = (
                complete_P(complete_product(a, complete_P(b)))
                + complete_P(complete_product(b, complete_P(a)))
                + complete_P(complete_product(a, b)) * ctx.lam
            )
            assert lhs == rhs


class TestRendering:
    def test_str_marker(self):
        ctx = ctx_of(INT, 1)
        s = geometric_unit_series(ctx, INT.coeff(1), 2)
        assert str(s) == "T(1) + T(1,1) + T(1,1,1) + O(deg 3)"
        assert str(zero_series(ctx, 12)) == "0 + O(deg 13)"


class TestSeriesContract:
    def test_make_series_rejects_a_non_homogeneous_component(self):
        ctx = ctx_of(INT, 1)
        with pytest.raises(ValueError, match="homogeneous"):
            make_series(ctx, 4, {1: unit_word(ctx, 1) + unit_word(ctx, 2)})
        with pytest.raises(ValueError, match="homogeneous"):
            make_series(ctx, 4, {2: unit_word(ctx, 1)})

    def test_make_series_rejects_an_out_of_range_degree(self):
        ctx = ctx_of(INT, 1)
        with pytest.raises(ValueError, match="outside"):
            make_series(ctx, 2, {3: unit_word(ctx, 3)})
        with pytest.raises(ValueError, match="outside"):
            make_series(ctx, 2, {-1: one(ctx)})

    @pytest.mark.parametrize("degree, component", [(True, lambda ctx: unit_word(ctx, 1)), (1.5, zero)],
                             ids=["bool", "float"])
    def test_make_series_component_degree_must_be_an_integer(self, degree, component):
        # True was read as degree 1, and 1.5 was accepted
        ctx = ctx_of(INT, 1)
        with pytest.raises(TypeError) as err:
            make_series(ctx, 3, {degree: component(ctx)})
        assert str(err.value) == f"component degree must be an integer, got {degree!r}"

    def test_negative_precision_is_rejected(self):
        ctx = ctx_of(INT, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            make_series(ctx, -1, {})
        with pytest.raises(ValueError, match="nonnegative"):
            embed(one(ctx), -1)
        with pytest.raises(ValueError, match="nonnegative"):
            geometric_unit_series(ctx, INT.coeff(2), -1)

    @pytest.mark.parametrize("build", [
        lambda ctx: embed(unit_word(ctx, 1), 1.5),
        lambda ctx: make_series(ctx, 1.5, {}),
        lambda ctx: truncate(embed(unit_word(ctx, 1), 3), 1.5),
    ], ids=["embed", "make-series", "truncate"])
    def test_precision_must_be_an_integer(self, build):
        # a fractional precision would print as O(deg 2.5)
        with pytest.raises(TypeError) as err:
            build(ctx_of(INT, 1))
        assert str(err.value) == "precision must be an integer, got 1.5"

    @pytest.mark.parametrize("precision", [True, False, "a", None, 2.5])
    @pytest.mark.parametrize("build", [
        lambda ctx, n: embed(unit_word(ctx, 1), n),
        lambda ctx, n: make_series(ctx, n, {}),
        lambda ctx, n: truncate(embed(unit_word(ctx, 1), 3), n),
        lambda ctx, n: geometric_unit_series(ctx, INT.coeff(2), n),
    ], ids=["embed", "make-series", "truncate", "geometric"])
    def test_precision_is_checked_before_use(self, build, precision):
        # a bool is no precision, though it is an int
        with pytest.raises(TypeError) as err:
            build(ctx_of(INT, 1), precision)
        assert str(err.value) == f"precision must be an integer, got {precision!r}"

    def test_component_map_round_trip(self):
        ctx = ctx_of(Zmod(9), 3, ("x", "y"))
        rng = random.Random(41)
        for _ in range(20):
            s = embed(random_element(rng, ctx, max_word_len=3), 1)
            n = s.precision
            assert make_series(ctx, n, dict(s.components)) == s
            assert s.components == tuple(sorted(dict(s.components).items()))
            assert all(d <= n for d, _ in s.components)
            assert s.finite_part() == sum((e for _, e in s.components), zero(ctx))

    def test_components_are_the_nonzero_degrees_in_order(self):
        ctx = ctx_of(RAT, 2)
        quarter = RAT.coeff(Fraction(1, 4))
        s = geometric_unit_series(ctx, RAT.coeff(Fraction(1, 2)), 4) - embed(unit_word(ctx, 2).scaled(quarter), 4)
        assert [d for d, _ in s.components] == [0, 1, 3, 4]
        components = dict(s.components)
        assert 2 not in components
        assert components[3] == unit_word(ctx, 3).scaled(RAT.coeff(Fraction(1, 8)))

    def test_make_series_rejects_a_component_of_another_context(self):
        ctx = ctx_of(INT, 1)
        with pytest.raises(ContextMismatchError) as err:
            make_series(ctx, 2, {1: unit_word(ctx_of(INT, 2), 1)})
        assert str(err.value) == "component context mismatch"

    def test_operand_of_another_type(self):
        ctx = ctx_of(INT, 1)
        s = embed(unit_word(ctx, 1), 3)
        with pytest.raises(TypeError) as err:
            s + one(ctx)
        assert str(err.value) == f"expected a series, got {one(ctx)!r}"
        with pytest.raises(TypeError) as err:
            s * 1.5
        assert str(err.value) == "unsupported operand type(s) for *: 'Series' and 'float'"

    def test_operand_of_another_context(self):
        s = embed(unit_word(ctx_of(INT, 1), 1), 3)
        t = embed(unit_word(ctx_of(INT, 2), 1), 3)
        for op in (lambda: s + t, lambda: s * t):
            with pytest.raises(ContextMismatchError) as err:
                op()
            assert str(err.value) == "series belong to different contexts"


X, Y, ONE = Monomial.of(x=1), Monomial.of(y=1), UNIT_MONOMIAL


def cut_product_inputs(ring, lam, n, rng):
    """Named pairs of series at precision n over one of the six settings:
    unit series, unit tails behind a non-unit head, and the mixed tails
    whose pairs take the insertion and memoized routes beside the closed
    form."""
    ctx = ctx_of(ring, lam, ("x", "y"))

    def coeff():
        return ring.coeff(rng.choice([-3, -2, -1, 1, 2, 3, 5]))

    def unit_series():
        return embed(sum((unit_word(ctx, d).scaled(coeff()) for d in range(n + 1)), zero(ctx)), n)

    def word(*factors):
        return embed(tensor_word(ctx, *factors), n)

    geom2 = geometric_unit_series(ctx, ring.coeff(2), n)
    x7 = word(*[X] * 7)
    return [
        ("units", unit_series(), unit_series()),
        ("geom", geom2, geometric_unit_series(ctx, ring.coeff(-1), n)),
        ("nonunit-head", word(X, ONE, ONE) + word(Y, ONE) + unit_series(), unit_series()),
        ("nonunit-head-both", word(X, ONE, ONE) + geom2, word(Y, ONE, ONE, ONE) + word(X)),
        ("g-unit-tail-with-x", word(ONE, X, *[ONE] * 6), geom2),
        ("g-x-ends", word(X, *[ONE] * 6, X), word(Y, *[ONE] * 6, Y)),
        ("g-x7-squared", x7, x7),
    ]


class TestCutProducts:
    """``complete_product`` hands its precision to the kernel, whose route
    for all-unit tails then builds no word above it; the cut product must
    equal the full product cut afterwards."""

    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS, ids=str)
    def test_equals_the_product_cut_afterwards(self, ring, lam):
        rng = random.Random(f"{ring}:{lam}")
        for n in range(13):
            for name, x, y in cut_product_inputs(ring, lam, n, rng):
                want = embed(shuffle_product(x.finite_part(), y.finite_part()), n)
                assert complete_product(x, y) == want, (name, n)
                assert complete_product(y, x) == want, (name, n)

    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS, ids=str)
    def test_equals_the_enumeration_cut_afterwards(self, ring, lam):
        rng = random.Random(f"oracle:{ring}:{lam}")
        for n in range(6):
            for name, x, y in cut_product_inputs(ring, lam, n, rng):
                want = embed(shuffle_product_enumerated(x.finite_part(), y.finite_part()), n)
                assert complete_product(x, y) == want, (name, n)
