"""Monomials, and polynomials as the degree-0 elements of the free Baxter
algebra: the base algebra C[X] is its degree-0 part, a sum of words of one
monomial each, whose products never meet the weight."""
import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebax import (
    INT,
    RAT,
    Coeff,
    Context,
    Monomial,
    RingMismatchError,
    Zmod,
    bar,
    element,
    nilradical_member_weight0,
    zero,
)
from freebax.poly import _INTERNED, PRODUCTS, UNIT_MONOMIAL


def base_ctx(ring):
    # weight 0, which the nilradical description needs
    return Context(ring, ring.zero(), ("x", "y"))


def P(ring, *pairs):
    """The polynomial sum of c*m over (m, c) pairs, as a degree-0 element."""
    return element(base_ctx(ring), {(m,): ring.coeff(c) for m, c in pairs})


def eval_poly(p, point):
    """Independent oracle: evaluate a polynomial at an integer point."""
    total = 0
    for (mono,), coeff in p.terms:
        v = coeff.value
        for var, e in mono.exps:
            v *= point[var] ** e
        total += v
    return total


x = Monomial.of(x=1)
y = Monomial.of(y=1)
one = Monomial()


class TestMonomial:
    def test_mul(self):
        assert Monomial.of(x=1) * Monomial.of(x=2, y=1) == Monomial.of(x=3, y=1)
        assert one * x == x
        assert Monomial.of(x=2, y=1) * Monomial.of(y=1, z=1) == Monomial.of(x=2, y=2, z=1)

    def test_str(self):
        assert str(Monomial.of(x=2, y=1)) == "x^2*y"
        assert str(one) == "1"

    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial((("x", 0),))
        with pytest.raises(ValueError):
            Monomial((("y", 1), ("x", 1)))


class TestInterning:
    def test_equal_exponents_give_one_instance(self):
        assert Monomial.of(x=1) is Monomial((("x", 1),))
        assert Monomial() is UNIT_MONOMIAL

    def test_product_is_interned(self):
        assert Monomial.of(x=1) * Monomial.of(x=2, y=1) is Monomial.of(x=3, y=1)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_return_the_interned_instance(self, clone):
        m = Monomial.of(x=2, y=1)
        assert clone(m) is m
        assert clone(UNIT_MONOMIAL) is UNIT_MONOMIAL
        assert UNIT_MONOMIAL.exps == ()

    def test_frozen(self):
        m = Monomial.of(x=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.exps = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            UNIT_MONOMIAL.sort_key = (1, ())
        assert m.exps == (("x", 1),) and UNIT_MONOMIAL.sort_key == (0, ())


MONOMIALS = st.builds(Monomial.of, x=st.integers(0, 3), y=st.integers(0, 2), z=st.integers(0, 2))
# word factors, the unit among them as often as in padded words
FACTORS = st.one_of(st.just(UNIT_MONOMIAL), MONOMIALS)


class TestProductTable:
    @settings(max_examples=60, deadline=None)
    @given(a=MONOMIALS, b=MONOMIALS)
    def test_entries_are_the_products(self, a, b):
        for p, q in ((a, b), (b, a), (UNIT_MONOMIAL, a), (a, UNIT_MONOMIAL), (UNIT_MONOMIAL, UNIT_MONOMIAL)):
            first = PRODUCTS[p, q]  # a miss, or a hit from an earlier example
            assert first is Monomial.__mul__(p, q)
            assert PRODUCTS[p, q] is first  # now a hit
        assert PRODUCTS[UNIT_MONOMIAL, a] is a is PRODUCTS[a, UNIT_MONOMIAL]

    def test_every_stored_entry_is_the_product(self):
        rng = random.Random(3)
        pool = [Monomial.of(x=rng.randint(0, 4), y=rng.randint(0, 4)) for _ in range(12)]
        for _ in range(60):
            PRODUCTS[rng.choice(pool), rng.choice(pool)]
        # whatever earlier tests and the kernels have stored too
        for (a, b), p in list(PRODUCTS.items()):
            assert p is Monomial.__mul__(a, b)

    def test_size_is_bounded_by_the_interned_monomials(self):
        P(INT, (x, 1), (y, 2), (one, 1)) ** 4  # fills the table through the kernel
        assert PRODUCTS
        assert len(PRODUCTS) <= len(_INTERNED) ** 2

    @settings(max_examples=80, deadline=None)
    @given(
        wa=st.lists(FACTORS, min_size=1, max_size=3),
        wb=st.lists(FACTORS, min_size=3, max_size=5),
        last=MONOMIALS.filter(lambda m: m is not UNIT_MONOMIAL),
    )
    def test_bar_product_is_slot_by_slot(self, wa, wb, last):
        # wb ends in a non-unit factor, so it keeps a higher level than
        # wa, which is padded with units
        wb = wb + [last]
        level = len(wb)
        pa, pb = tuple(wa) + (one,) * (level - len(wa)), tuple(wb)
        want = bar(INT, level, {tuple(f * g for f, g in zip(pa, pb)): INT.coeff(6)})
        a, b = bar(INT, len(wa), {tuple(wa): INT.coeff(2)}), bar(INT, len(wb), {tuple(wb): INT.coeff(3)})
        assert a * b == want == b * a


class TestArithmetic:
    def test_difference_of_squares(self):
        a = P(INT, (x, 1), (y, 1))
        b = P(INT, (x, 1), (y, -1))
        assert a * b == P(INT, (Monomial.of(x=2), 1), (Monomial.of(y=2), -1))

    def test_mul_by_one(self):
        p = P(INT, (Monomial.of(x=2), 3), (one, 1))
        assert p * P(INT, (one, 1)) == p

    def test_square_mod_two_matches_integer_expansion(self):
        # oracle: expand over the integers, then reduce coefficients mod 2
        z = P(INT, (x, 1), (one, 1))
        expanded = z * z
        reduced = element(base_ctx(Zmod(2)), {w: Zmod(2).coeff(c.value) for w, c in expanded.terms})
        direct = P(Zmod(2), (x, 1), (one, 1)) ** 2
        assert direct == reduced == P(Zmod(2), (Monomial.of(x=2), 1), (one, 1))

    def test_evaluation_homomorphism(self):
        rng = random.Random(7)
        for _ in range(50):
            a = P(INT, *[(m, rng.randint(-3, 3)) for m in (x, y, Monomial.of(x=1, y=2), one)])
            b = P(INT, *[(m, rng.randint(-3, 3)) for m in (x, Monomial.of(y=2), one)])
            point = {"x": rng.randint(-5, 5), "y": rng.randint(-5, 5)}
            assert eval_poly(a * b, point) == eval_poly(a, point) * eval_poly(b, point)
            assert eval_poly(a + b, point) == eval_poly(a, point) + eval_poly(b, point)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            P(INT, (x, 1)) + P(RAT, (x, 1))


class TestNilpotence:
    """On degree-0 elements the nilradical description is N(C[X]) = N(C)[X]:
    a polynomial is nilpotent exactly when all of its coefficients are."""

    def test_witness_mod_9(self):
        p = P(Zmod(9), (x, 3), (one, 6))
        assert (p * p).is_zero()  # (3x+6)^2 = 9x^2 + 36x + 36 = 0 mod 9
        assert nilradical_member_weight0(p)

    def test_nonexamples(self):
        assert not nilradical_member_weight0(P(Zmod(4), (x, 1)))
        assert not nilradical_member_weight0(P(Zmod(4), (x, 2), (y, 1)))
        assert nilradical_member_weight0(zero(base_ctx(Zmod(4))))

    @pytest.mark.parametrize("m", [4, 6, 8, 9, 12])
    def test_matches_direct_powers(self, m):
        ring = Zmod(m)
        rng = random.Random(m)
        monos = [one, x, y, Monomial.of(x=2), Monomial.of(x=1, y=1)]
        for _ in range(40):
            p = P(ring, *[(rng.choice(monos), rng.randrange(m)) for _ in range(rng.randint(0, 3))])
            direct = False
            power = p
            for _ in range(m):
                if power.is_zero():
                    direct = True
                    break
                power = power * p
            assert nilradical_member_weight0(p) == direct, str(p)


class TestPolyContract:
    def test_insertion_order_does_not_matter(self):
        pairs = [(Monomial.of(x=2, y=1), 2), (one, -1), (y, 5)]
        forward = P(INT, *pairs)
        backward = P(INT, *reversed(pairs))
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert len({forward, backward}) == 1
        assert forward + zero(base_ctx(INT)) == forward
        assert P(INT, (x, 1)) + P(INT, (y, 1)) == P(INT, (y, 1)) + P(INT, (x, 1))

    def test_terms_are_sorted_coeffs_of_the_ring(self):
        ring = Zmod(7)
        p = P(ring, (y, 3), (one, 9), (Monomial.of(x=2), -1), (x, 1))
        monos = [m for (m,), _ in p.terms]
        assert monos == sorted(monos, key=lambda m: m.sort_key)
        assert all(isinstance(c, Coeff) and c.ring == ring for _, c in p.terms)
        assert dict(p.terms)[(one,)] == ring.coeff(2)
        assert dict(p.terms)[(Monomial.of(x=2),)] == ring.coeff(6)

    def test_rational_values_are_fractions_in_terms(self):
        # an integral rational reached through Fraction arithmetic equals
        # the same value entered as an integer, hash included
        half = P(RAT, (x, 1)).scaled(RAT.coeff(Fraction(1, 2)))
        two = P(RAT, (x, 1)).scaled(2)
        assert half.scaled(4) == two and hash(half.scaled(4)) == hash(two)
        mixed = half + half + P(RAT, (one, 1)).scaled(RAT.coeff(Fraction(1, 3)))
        assert str(mixed) == "1/3*T(1) + T(x)"
        assert all(type(c.value) is Fraction for _, c in mixed.terms)

    def test_terms_vanishing_mod_m_are_dropped(self):
        ring = Zmod(6)
        p = P(ring, (x, 6), (y, 12), (one, 7))
        assert p.terms == (((one,), ring.coeff(1)),)
        assert (P(ring, (x, 2)) * P(ring, (y, 3))).is_zero()
        assert P(ring, (x, 2)).scaled(3) == zero(base_ctx(ring))

    def test_other_ring_is_rejected(self):
        with pytest.raises(RingMismatchError):
            element(base_ctx(INT), {(x,): RAT.coeff(1)})
        with pytest.raises(RingMismatchError):
            P(INT, (x, 1)) * P(Zmod(5), (x, 1))
        with pytest.raises(RingMismatchError):
            P(INT, (x, 1)).scaled(RAT.coeff(2))

    def test_coefficient_of_an_absent_monomial_is_zero(self):
        ring = Zmod(9)
        p = P(ring, (x, 4))
        assert p.coefficient((x,)) == ring.coeff(4)
        assert p.coefficient((y,)) == ring.zero()


monomials = st.sampled_from([one, x, y, Monomial.of(x=2), Monomial.of(x=1, y=1), Monomial.of(y=3)])


@st.composite
def poly_triples(draw):
    ring = draw(st.sampled_from([INT, Zmod(6), Zmod(9)]))
    def p():
        terms = draw(st.lists(st.tuples(monomials, st.integers(-4, 4)), max_size=4))
        return P(ring, *[(m, c) for m, c in terms if c])
    return p(), p(), p()


class TestAlgebraLaws:
    @settings(max_examples=60)
    @given(poly_triples())
    def test_ring_laws(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


class TestSerialization:
    def test_str_order(self):
        p = P(INT, (one, 1), (Monomial.of(x=2, y=1), 3))
        assert str(p) == "T(1) + 3*T(x^2*y)"

    def test_str_signs(self):
        p = P(INT, (x, -1), (one, 2))
        assert str(p) == "2*T(1) - T(x)"

    def test_to_obj(self):
        p = P(INT, (Monomial.of(x=2), 3), (one, 1))
        assert p.to_obj() == {"kind": "element", "terms": [
            {"coeff": "1", "word": [[]]},
            {"coeff": "3", "word": [[["x", 2]]]},
        ]}


# Element and BarElement share one term store; per ring, each case gives a
# function that builds a value from (word, Coeff) pairs, three words, and a
# word that is never used
def _element_store(ring):
    ctx = Context(ring, ring.coeff(2), ("x", "y"))
    return (lambda pairs: element(ctx, dict(pairs))), [(x, y), (UNIT_MONOMIAL, x), (y,)], (x, x, x)


def _bar_store(ring):
    keys = [(x, y), (UNIT_MONOMIAL, x), (y, UNIT_MONOMIAL)]
    return (lambda pairs: bar(ring, 2, dict(pairs))), keys, (x, x)


STORES = {"Element": _element_store, "BarElement": _bar_store}


def _sample(store, ring):
    build, keys, absent = STORES[store](ring)
    pairs = [(k, ring.coeff(c)) for k, c in zip(keys, (2, -1, 5))]
    return build, pairs, absent


@pytest.mark.parametrize("store", STORES)
class TestTermStoreContract:
    def test_insertion_order_does_not_matter(self, store):
        build, pairs, _ = _sample(store, INT)
        forward, backward = build(pairs), build(reversed(pairs))
        assert forward == backward
        assert hash(forward) == hash(backward)

    def test_negation_and_difference(self, store):
        build, pairs, _ = _sample(store, INT)
        a = build(pairs)
        assert not a.is_zero() and (a + (-a)).is_zero()
        assert a - a == a + (-a)

    def test_scaling(self, store):
        build, pairs, _ = _sample(store, INT)
        a = build(pairs)
        assert 3 * a == a.scaled(3) != a
        build9, pairs9, _ = _sample(store, Zmod(9))
        a9 = build9(pairs9)
        assert not a9.is_zero() and a9.scaled(9).is_zero()

    def test_coefficient(self, store):
        build, pairs, absent = _sample(store, INT)
        a = build(pairs)
        assert a.coefficient(pairs[0][0]) == INT.coeff(2)
        assert a.coefficient(absent) == INT.zero()

    def test_foreign_ring_is_rejected(self, store):
        build, pairs, _ = _sample(store, INT)
        build9, pairs9, _ = _sample(store, Zmod(9))
        a, b = build(pairs), build9(pairs9)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(RingMismatchError):
                op()
