import random
from math import comb

import pytest

from freebax import (
    INT,
    RAT,
    Context,
    Monomial,
    Poly,
    Zmod,
    bar,
    bar_one,
    bar_scalar,
    bar_zero,
    baxter_P,
    one,
    p_prime,
    phi,
    phi_constants,
    phi_series,
    scalar,
    seq_one,
    seq_zero,
    shuffle_product,
    t_sequence,
    unit_word,
    zero,
)
from freebax.poly import UNIT_MONOMIAL
from freebax.sequences import PhiInjectivityWarning
from freebax.series import embed
from freebax.verify import random_coeff, random_element

x = Monomial.of(x=1)
y = Monomial.of(y=1)
xy = Monomial.of(x=1, y=1)


def ctx_of(ring, lam, variables=("x", "y")):
    return Context(ring, ring.coeff(lam), variables)


def B(ring, level, *pairs):
    return bar(ring, level, {w: ring.coeff(c) for w, c in pairs})


class TestBarElements:
    def test_level_one_product(self):
        assert B(INT, 1, ((x,), 1)) * B(INT, 1, ((y,), 1)) == B(INT, 1, ((xy,), 1))

    def test_padding_product(self):
        # oracle: pad (y) to (y, 1) by hand, then multiply factor by factor
        lhs = B(INT, 2, ((UNIT_MONOMIAL, x), 1))
        rhs = B(INT, 1, ((y,), 1))
        padded = B(INT, 2, ((y, UNIT_MONOMIAL), 1))
        by_hand = bar(
            INT,
            2,
            {
                (UNIT_MONOMIAL * y, x * UNIT_MONOMIAL): INT.one(),
            },
        )
        assert lhs * padded == by_hand
        assert lhs * rhs == by_hand == B(INT, 2, ((y, x), 1))

    def test_unit_is_neutral(self):
        u = B(INT, 3, ((x, y, xy), 2), ((x, x, UNIT_MONOMIAL), 5))
        assert u * bar_one(INT) == u

    def test_canonical_trimming(self):
        # a trailing all-unit column is removed, repeatedly
        b = B(INT, 3, ((x, UNIT_MONOMIAL, UNIT_MONOMIAL), 2))
        assert b.level == 1
        assert b == B(INT, 1, ((x,), 2))

    def test_trimming_is_stable(self):
        b = B(INT, 4, ((x, y, UNIT_MONOMIAL, UNIT_MONOMIAL), 1))
        again = bar(b.ring, b.level, dict(b.terms))
        assert again == b and again.level == b.level == 2

    def test_mixed_levels_add(self):
        a = B(INT, 1, ((x,), 1))
        b = B(INT, 2, ((UNIT_MONOMIAL, y), 3))
        total = a + b
        assert total == B(INT, 2, ((x, UNIT_MONOMIAL), 1), ((UNIT_MONOMIAL, y), 3))

    def test_zero_collapses_to_level_one(self):
        a = B(INT, 2, ((x, y), 1))
        assert (a - a) == bar_zero(INT)
        assert (a - a).level == 1


class TestSequences:
    def test_identity_sequence(self):
        ctx = ctx_of(INT, 1)
        rng = random.Random(1)
        s = phi(random_element(rng, ctx), 6)
        assert s * seq_one(ctx, 6) == s

    def test_zero_annihilates(self):
        ctx = ctx_of(INT, 1)
        s = t_sequence(ctx, Poly.variable(INT, "x"), 5)
        assert (s * seq_zero(ctx, 5)).is_zero()

    def test_t_product_entry_formula(self):
        ctx = ctx_of(INT, 1)
        tx = t_sequence(ctx, Poly.variable(INT, "x"), 6)
        ty = t_sequence(ctx, Poly.variable(INT, "y"), 6)
        prod = tx * ty
        for k in range(1, 7):
            expected = bar(INT, k, {(UNIT_MONOMIAL,) * (k - 1) + (xy,): INT.one()})
            assert prod.entry(k) == expected


class TestPPrime:
    def test_on_ones(self):
        for lam in (1, 2, 3):
            ctx = ctx_of(INT, lam)
            out = p_prime(seq_one(ctx, 6))
            for k in range(1, 7):
                assert out.entry(k) == bar_scalar(INT, INT.coeff(lam * (k - 1)))

    def test_on_zero(self):
        ctx = ctx_of(INT, 2)
        assert p_prime(seq_zero(ctx, 5)).is_zero()

    @pytest.mark.filterwarnings("ignore::freebax.sequences.PhiInjectivityWarning")
    def test_linear(self):
        ctx = ctx_of(Zmod(9), 3)
        rng = random.Random(2)
        for _ in range(15):
            a = phi(random_element(rng, ctx), 7)
            b = phi(random_element(rng, ctx), 7)
            assert p_prime(a + b) == p_prime(a) + p_prime(b)


class TestTSequence:
    def test_unit_gives_identity(self):
        ctx = ctx_of(INT, 1)
        assert t_sequence(ctx, Poly.one(INT), 5) == seq_one(ctx, 5)

    def test_slot_placement(self):
        ctx = ctx_of(INT, 1)
        tx = t_sequence(ctx, Poly.variable(INT, "x"), 4)
        assert tx.entry(3) == bar(INT, 3, {(UNIT_MONOMIAL, UNIT_MONOMIAL, x): INT.one()})

    def test_additive(self):
        ctx = ctx_of(INT, 1)
        px, py = Poly.variable(INT, "x"), Poly.variable(INT, "y")
        assert t_sequence(ctx, px + py, 5) == t_sequence(ctx, px, 5) + t_sequence(ctx, py, 5)


class TestPhi:
    @pytest.mark.parametrize("lam", [0, 1, 2, 3])
    def test_unit_word_closed_form(self, lam):
        # the image of the degree-n unit word has entry k = C(k-1, n) lam^n
        ctx = ctx_of(INT, lam)
        for n in range(6):
            img = phi(unit_word(ctx, n), 9)
            for k in range(1, 10):
                expected = bar_scalar(INT, INT.coeff(comb(k - 1, n) * lam ** n))
                assert img.entry(k) == expected, (n, k)

    def test_unit_maps_to_ones(self):
        ctx = ctx_of(INT, 2)
        assert phi(one(ctx), 8) == seq_one(ctx, 8)

    def test_single_recursion_step(self):
        from freebax import tensor_word

        ctx = ctx_of(INT, 2)
        w = tensor_word(ctx, x, y)
        lhs = phi(w, 8)
        rhs = t_sequence(ctx, Poly.variable(INT, "x"), 8) * p_prime(
            t_sequence(ctx, Poly.variable(INT, "y"), 8)
        )
        assert lhs == rhs
        # and the homomorphism route: w = x * P(y)
        via_product = phi(shuffle_product(fbvar(ctx, "x"), baxter_P(fbvar(ctx, "y"))), 8)
        assert via_product == rhs

    def test_homomorphism(self):
        for ring, lam in ((INT, 1), (INT, 2), (RAT, 1)):
            ctx = ctx_of(ring, lam)
            rng = random.Random(f"hom:{ring}:{lam}")
            for _ in range(25):
                a = random_element(rng, ctx)
                b = random_element(rng, ctx)
                pa, pb = phi(a, 10), phi(b, 10)
                assert phi(shuffle_product(a, b), 10) == pa * pb
                assert phi(baxter_P(a), 10) == p_prime(pa)

    def test_warns_when_weight_is_a_zero_divisor(self):
        ctx = ctx_of(Zmod(9), 3)
        with pytest.warns(PhiInjectivityWarning):
            phi(unit_word(ctx, 1), 4)


def fbvar(ctx, name):
    from freebax import variable

    return variable(ctx, name)


class TestPhiConstants:
    def test_unit_vector(self):
        ctx = ctx_of(INT, 2)
        out = phi_constants(ctx, [INT.one()], 6)
        assert out == seq_one(ctx, 6)

    def test_degree_one_vector(self):
        ctx = ctx_of(INT, 3)
        out = phi_constants(ctx, [INT.coeff(0), INT.one()], 6)
        for k in range(1, 7):
            assert out.entry(k) == bar_scalar(INT, INT.coeff(comb(k - 1, 1) * 3))

    @pytest.mark.parametrize("lam", [0, 1, 2, 3])
    def test_agrees_with_phi(self, lam):
        ctx = ctx_of(INT, lam)
        for top in range(11):
            rng = random.Random(f"consts:{lam}:{top}")
            bs = [random_coeff(rng, INT) for _ in range(top + 1)]
            combo = zero(ctx)
            for n, b in enumerate(bs):
                combo = combo + unit_word(ctx, n).scaled(b)
            assert phi(combo, 10) == phi_constants(ctx, bs, 10)

    def test_alternating_example_pattern(self):
        # coefficients (0, 1, -1, 1, ...) at weight 2 produce entries 0, 2, 0, 2, ...
        ctx = ctx_of(INT, 2)
        bs = [INT.coeff(0)] + [INT.coeff((-1) ** (n + 1)) for n in range(1, 12)]
        out = phi_constants(ctx, bs, 12)
        for k in range(1, 13):
            assert out.entry(k) == bar_scalar(INT, INT.coeff(0 if k % 2 else 2))


class TestCharPAnnihilation:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_product_of_shifted_factors_vanishes(self, p):
        ring = Zmod(p)
        ctx = Context(ring, ring.one(), ())
        length = 3 * p
        prod = seq_one(ctx, length)
        for i in range(p):
            factor = scalar(ctx, i) + unit_word(ctx, 1)
            prod = prod * phi(factor, length)
        assert prod.is_zero()


class TestPhiSeries:
    def test_entries_match_finite_phi(self):
        ctx = ctx_of(INT, 2)
        a = unit_word(ctx, 1).scaled(3) + unit_word(ctx, 4).scaled(-1) + one(ctx)
        assert phi_series(embed(a, 6), 7) == phi(a, 7)

    def test_guard_against_unknown_entries(self):
        ctx = ctx_of(INT, 2)
        s = embed(one(ctx), 3)
        with pytest.raises(ValueError):
            phi_series(s, 6)

    def test_nonpositive_length_rejected(self):
        ctx = ctx_of(INT, 2)
        for length in (0, -3):
            with pytest.raises(ValueError, match="length"):
                phi(one(ctx), length)
            with pytest.raises(ValueError, match="length"):
                phi_series(embed(one(ctx), 3), length)


class TestRendering:
    def test_lines(self):
        ctx = ctx_of(INT, 2)
        img = phi(unit_word(ctx, 1), 3)
        assert str(img) == "[1] 0\n[2] 2*T(1)\n[3] 4*T(1)"
