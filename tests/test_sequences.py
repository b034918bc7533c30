import contextlib
import random
import warnings
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebax import (
    INT,
    RAT,
    Context,
    Monomial,
    SequenceElement,
    Zmod,
    bar,
    bar_one,
    bar_scalar,
    bar_zero,
    baxter_P,
    element,
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
    tensor_word,
    unit_word,
    variable,
    zero,
)
from freebax.cli import main
from freebax.poly import UNIT_MONOMIAL
from freebax.rings import Coeff, RingMismatchError
from freebax.shuffle import ContextMismatchError
from freebax.sequences import PhiInjectivityWarning
from freebax.series import embed
from freebax.shuffle import word_key
from freebax.verify import BAXTER_IDENTITY_CONFIGS, random_coeff, random_element

x = Monomial.of(x=1)
y = Monomial.of(y=1)
xy = Monomial.of(x=1, y=1)


def ctx_of(ring, lam, variables=("x", "y")):
    return Context(ring, ring.coeff(lam), variables)


def B(ring, level, *pairs):
    return bar(ring, level, {w: ring.coeff(c) for w, c in pairs})


# (ring, weight, phi warns): beyond the integers, the rationals with a
# non-integral weight, and two moduli whose weight is a zero divisor
OTHER_RINGS = [
    pytest.param(RAT, Fraction(3, 2), False, id="rat"),
    pytest.param(Zmod(9), 3, True, id="mod9-weight3"),
    pytest.param(Zmod(6), 2, True, id="mod6-weight2"),
]


def sample_coeff(rng, ring):
    """``random_coeff``, but over the rationals mostly non-integral."""
    if ring == RAT:
        return RAT.coeff(Fraction(rng.randint(-9, 9), rng.randint(2, 5)))
    return random_coeff(rng, ring)


@contextlib.contextmanager
def injectivity_warning(warns):
    """Assert that the block warns PhiInjectivityWarning exactly when
    ``warns``."""
    if warns:
        with pytest.warns(PhiInjectivityWarning):
            yield
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", PhiInjectivityWarning)
            yield


def phi_expecting(warns, a, length):
    """phi(a, length), asserting that it warns exactly when ``warns``."""
    with injectivity_warning(warns):
        return phi(a, length)


def p_prime_by_definition(a):
    """P' from its definition, in bar element arithmetic: entry k is
    lambda times the sum of entries 1..k-1."""
    out = []
    prefix = bar_zero(a.ctx.ring)
    for e in a.entries:
        out.append(prefix.scaled(a.ctx.lam))
        prefix = prefix + e
    return SequenceElement(a.ctx, tuple(out))


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


class TestBarContract:
    def test_insertion_order_does_not_matter(self):
        pairs = [((x, y), 2), ((UNIT_MONOMIAL, xy), -1), ((y, UNIT_MONOMIAL), 5)]
        forward = B(INT, 2, *pairs)
        backward = B(INT, 2, *reversed(pairs))
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert len({forward, backward}) == 1

    def test_terms_are_sorted_coeffs_of_the_ring(self):
        ring = Zmod(7)
        b = B(ring, 3, ((y, x, x), 3), ((UNIT_MONOMIAL, UNIT_MONOMIAL, x), 9), ((xy, y, x), -1), ((x, x, x), 1))
        words = [w for w, _ in b.terms]
        assert words == sorted(words, key=word_key)
        assert all(isinstance(c, Coeff) and c.ring == ring for _, c in b.terms)
        assert dict(b.terms)[(UNIT_MONOMIAL, UNIT_MONOMIAL, x)] == ring.coeff(2)
        assert dict(b.terms)[(xy, y, x)] == ring.coeff(6)

    def test_rational_values_are_fractions_in_terms(self):
        # an integral rational reached through Fraction arithmetic equals
        # the same value entered as an integer, hash included
        half = B(RAT, 1, ((x,), Fraction(1, 2)))
        two = B(RAT, 1, ((x,), 2))
        assert half.scaled(4) == two and hash(half.scaled(4)) == hash(two)
        mixed = two * half + two.scaled(RAT.coeff(Fraction(1, 3)))
        assert str(mixed) == "2/3*T(x) + T(x^2)"
        assert all(type(c.value) is Fraction for _, c in mixed.terms)

    def test_other_ring_is_rejected(self):
        a = B(INT, 1, ((x,), 1))
        other = B(RAT, 1, ((x,), 1))
        with pytest.raises(RingMismatchError):
            a + other
        with pytest.raises(RingMismatchError):
            a * other
        with pytest.raises(RingMismatchError):
            a.scaled(RAT.coeff(2))
        with pytest.raises(RingMismatchError):
            a * Zmod(5).coeff(2)

    def test_product_vanishing_mod_9_is_zero(self):
        ring = Zmod(9)
        a = B(ring, 2, ((x, y), 3), ((y, UNIT_MONOMIAL), 6))
        b = B(ring, 3, ((y, x, y), 3))
        prod = a * b
        assert prod == bar_zero(ring)
        assert prod.level == 1 and prod.is_zero()


BAR_RINGS = [INT, RAT, Zmod(6)]
BAR_FACTORS = st.sampled_from([UNIT_MONOMIAL, x, y, xy, Monomial.of(x=2)])


@st.composite
def padded_bars(draw, ring):
    """A level from 1 to 4 and a word -> Coeff mapping at that level, its
    words ending in runs of unit factors of any length."""
    level = draw(st.integers(1, 4))
    mapping = {}
    for _ in range(draw(st.integers(0, 4))):
        units = draw(st.integers(0, level))
        head = draw(st.lists(BAR_FACTORS, min_size=level - units, max_size=level - units))
        num, den = draw(st.integers(-4, 4)), draw(st.integers(1, 3))
        mapping[tuple(head) + (UNIT_MONOMIAL,) * units] = ring.coeff(
            Fraction(num, den) if ring == RAT else num
        )
    return level, mapping


def pad_to(mapping, level):
    return {w + (UNIT_MONOMIAL,) * (level - len(w)): c for w, c in mapping.items()}


def reference_terms(ring, level, mapping):
    """The (level, terms) a bar element should show for a mapping at
    ``level``: zeros dropped, then all-unit trailing columns cut down to
    level 1."""
    terms = {w: c for w, c in mapping.items() if not c.is_zero()}
    while level > 1 and all(w[-1] is UNIT_MONOMIAL for w in terms):
        level -= 1
        terms = {w[:-1]: c for w, c in terms.items()}
    return level, terms


class TestTrimmedStore:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ring=st.sampled_from(BAR_RINGS))
    def test_sum_and_product_match_padding_by_hand(self, data, ring):
        (la, ma), (lb, mb) = data.draw(padded_bars(ring)), data.draw(padded_bars(ring))
        a, b = bar(ring, la, ma), bar(ring, lb, mb)
        level = max(la, lb)
        pa, pb = pad_to(ma, level), pad_to(mb, level)
        total = dict(pa)
        for w, c in pb.items():
            total[w] = total.get(w, ring.zero()) + c
        product = {}
        for wa, ca in pa.items():
            for wb, cb in pb.items():
                w = tuple(f * g for f, g in zip(wa, wb))
                product[w] = product.get(w, ring.zero()) + ca * cb
        for got, want in ((a + b, total), (a * b, product)):
            assert (got.level, dict(got.terms)) == reference_terms(ring, level, want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), ring=st.sampled_from(BAR_RINGS))
    def test_padding_does_not_change_an_element(self, data, ring):
        b = bar(ring, *data.draw(padded_bars(ring)))
        terms = dict(b.terms)
        for level in range(b.level, b.level + 3):
            padded = pad_to(terms, level)
            assert bar(ring, level, padded) == b
            for w, c in padded.items():
                short = w
                while len(short) > 1 and short[-1] is UNIT_MONOMIAL:
                    short = short[:-1]
                assert b.coefficient(w) == c == b.coefficient(w[:b.level]) == b.coefficient(short)


class TestSequences:
    def test_identity_sequence(self):
        ctx = ctx_of(INT, 1)
        rng = random.Random(1)
        s = phi(random_element(rng, ctx), 6)
        assert s * seq_one(ctx, 6) == s

    def test_zero_annihilates(self):
        ctx = ctx_of(INT, 1)
        s = t_sequence(ctx, variable(ctx, "x"), 5)
        assert (s * seq_zero(ctx, 5)).is_zero()

    def test_t_product_entry_formula(self):
        ctx = ctx_of(INT, 1)
        tx = t_sequence(ctx, variable(ctx, "x"), 6)
        ty = t_sequence(ctx, variable(ctx, "y"), 6)
        prod = tx * ty
        for k in range(1, 7):
            expected = bar(INT, k, {(UNIT_MONOMIAL,) * (k - 1) + (xy,): INT.one()})
            assert prod.entry(k) == expected

    def test_negation_subtraction_and_scaling(self):
        ctx = ctx_of(INT, 2)
        a, b = phi(unit_word(ctx, 1), 4), phi(unit_word(ctx, 2), 4)
        assert (-a).entries == tuple(-e for e in a.entries)
        assert a - b == a + (-b) and (a - a).is_zero()
        assert 3 * a == a + a + a == a * 3

    def test_entry_outside_the_range_is_rejected(self):
        ctx = ctx_of(INT, 2)
        s = phi(unit_word(ctx, 1), 4)
        for k in (0, -1, 5):
            with pytest.raises(IndexError, match=r"1\.\.4"):
                s.entry(k)
        assert [s.entry(k) for k in range(1, 5)] == list(s.entries)


class TestPPrime:
    def test_on_ones(self):
        cases = [(INT, 1), (INT, 2), (INT, 3)] + [p.values[:2] for p in OTHER_RINGS]
        for ring, lam in cases:
            ctx = ctx_of(ring, lam)
            out = p_prime(seq_one(ctx, 6))
            for k in range(1, 7):
                assert out.entry(k) == bar_scalar(ring, ring.coeff(lam * (k - 1))), (ring, lam, k)

    def test_on_zero(self):
        ctx = ctx_of(INT, 2)
        assert p_prime(seq_zero(ctx, 5)).is_zero()

    def test_linear(self):
        cases = [(INT, 2, False)] + [p.values for p in OTHER_RINGS]
        for ring, lam, warns in cases:
            ctx = ctx_of(ring, lam)
            rng = random.Random(f"p_prime:{ring}:{lam}")
            for _ in range(15):
                a = phi_expecting(warns, random_element(rng, ctx), 7) * sample_coeff(rng, ring)
                b = phi_expecting(warns, random_element(rng, ctx), 7) * sample_coeff(rng, ring)
                assert p_prime(a + b) == p_prime(a) + p_prime(b)
                assert p_prime(a) == p_prime_by_definition(a)


class TestTSequence:
    def test_unit_gives_identity(self):
        ctx = ctx_of(INT, 1)
        assert t_sequence(ctx, one(ctx), 5) == seq_one(ctx, 5)

    def test_slot_placement(self):
        ctx = ctx_of(INT, 1)
        tx = t_sequence(ctx, variable(ctx, "x"), 4)
        assert tx.entry(3) == bar(INT, 3, {(UNIT_MONOMIAL, UNIT_MONOMIAL, x): INT.one()})

    def test_additive(self):
        ctx = ctx_of(INT, 1)
        px, py = variable(ctx, "x"), variable(ctx, "y")
        assert t_sequence(ctx, px + py, 5) == t_sequence(ctx, px, 5) + t_sequence(ctx, py, 5)

    def test_nonpositive_length_rejected(self):
        ctx = ctx_of(INT, 1)
        for length in (0, -1):
            with pytest.raises(ValueError, match="length"):
                t_sequence(ctx, one(ctx), length)

    def test_positive_degree_rejected(self):
        ctx = ctx_of(INT, 1)
        for p in (unit_word(ctx, 1), variable(ctx, "x") + tensor_word(ctx, x, y)):
            with pytest.raises(ValueError, match="degree 0"):
                t_sequence(ctx, p, 3)

    def test_other_context_rejected(self):
        ctx = ctx_of(INT, 1)
        for other in (ctx_of(INT, 2), ctx_of(Zmod(5), 1), ctx_of(INT, 1, ("x",))):
            with pytest.raises(ContextMismatchError):
                t_sequence(ctx, variable(other, "x"), 3)

    def test_other_values_rejected(self):
        ctx = ctx_of(INT, 1)
        with pytest.raises(TypeError, match="degree-0 element"):
            t_sequence(ctx, x, 3)


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
        ctx = ctx_of(INT, 2)
        w = tensor_word(ctx, x, y)
        lhs = phi(w, 8)
        rhs = t_sequence(ctx, variable(ctx, "x"), 8) * p_prime(t_sequence(ctx, variable(ctx, "y"), 8))
        assert lhs == rhs
        # and the homomorphism route: w = x * P(y)
        via_product = phi(shuffle_product(variable(ctx, "x"), baxter_P(variable(ctx, "y"))), 8)
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


def phi_by_definition(a, length):
    """phi from its recursion: a word maps to t(head) * P'(image of its tail)."""
    ctx = a.ctx
    out = seq_zero(ctx, length)
    for w, c in a.terms:
        out = out + word_by_definition(ctx, w, length) * c
    return out


def word_by_definition(ctx, w, length):
    head = t_sequence(ctx, tensor_word(ctx, w[0]), length)
    if len(w) == 1:
        return head
    return head * p_prime(word_by_definition(ctx, w[1:], length))


REFEREE_CONTEXTS = [ctx_of(INT, 2), ctx_of(RAT, 1), ctx_of(Zmod(9), 3)]
monomials = st.builds(Monomial.of, x=st.integers(0, 2), y=st.integers(0, 2))
words = st.lists(monomials, min_size=1, max_size=3).map(tuple)


# phi of words of one to three factors over int, rat and mod:6, some
# ending in units, as text and --json
PHI_MIXED_GOLDENS = [
    pytest.param(
        ['--ring', 'int', '--lambda', '2', '--vars', 'x,y', 'phi', 'T(x) + T(x,1,y) - 2*T(1,1,1) + T(y,x,1)', '--len', '4'],
        (
            '[1] T(x)\n'
            '[2] T(1,x)\n'
            '[3] -8*T(1,1,1) + T(1,1,x) + 4*T(1,x,y) + 4*T(y,1,x)\n'
            '[4] -24*T(1,1,1,1) + T(1,1,1,x) + 8*T(1,1,x,y) + 4*T(1,x,1,y) + 4*T(1,y,1,x) + 8*T(y,1,1'
            ',x)\n'
        ),
        (
            '{"command": "phi", "context": {"lambda": "2", "ring": "int", "variables": ["x", "y"]}, "'
            'result": {"entries": [{"level": 1, "terms": [{"coeff": "1", "word": [[["x", 1]]]}]}, {"l'
            'evel": 2, "terms": [{"coeff": "1", "word": [[], [["x", 1]]]}]}, {"level": 3, "terms": [{'
            '"coeff": "-8", "word": [[], [], []]}, {"coeff": "1", "word": [[], [], [["x", 1]]]}, {"co'
            'eff": "4", "word": [[], [["x", 1]], [["y", 1]]]}, {"coeff": "4", "word": [[["y", 1]], []'
            ', [["x", 1]]]}]}, {"level": 4, "terms": [{"coeff": "-24", "word": [[], [], [], []]}, {"c'
            'oeff": "1", "word": [[], [], [], [["x", 1]]]}, {"coeff": "8", "word": [[], [], [["x", 1]'
            '], [["y", 1]]]}, {"coeff": "4", "word": [[], [["x", 1]], [], [["y", 1]]]}, {"coeff": "4"'
            ', "word": [[], [["y", 1]], [], [["x", 1]]]}, {"coeff": "8", "word": [[["y", 1]], [], [],'
            ' [["x", 1]]]}]}], "kind": "sequence"}}\n'
        ),
        id='int',
    ),
    pytest.param(
        ['--ring', 'rat', '--lambda', '1/2', '--vars', 'x,y', 'phi', '1/2*T(x,y,1) + T(1,x) - 2/3*U(2) + T(y)', '--len', '4'],
        (
            '[1] T(y)\n'
            '[2] T(1,y) + 1/2*T(x,1)\n'
            '[3] -1/6*T(1,1,1) + T(1,1,y) + 1/2*T(1,x,1) + 1/8*T(1,y,x) + 1/2*T(x,1,1)\n'
            '[4] -1/2*T(1,1,1,1) + T(1,1,1,y) + 1/2*T(1,1,x,1) + 1/4*T(1,1,y,x) + 1/2*T(1,x,1,1) + 1/'
            '8*T(1,y,1,x) + 1/2*T(x,1,1,1)\n'
        ),
        (
            '{"command": "phi", "context": {"lambda": "1/2", "ring": "rat", "variables": ["x", "y"]},'
            ' "result": {"entries": [{"level": 1, "terms": [{"coeff": "1", "word": [[["y", 1]]]}]}, {'
            '"level": 2, "terms": [{"coeff": "1", "word": [[], [["y", 1]]]}, {"coeff": "1/2", "word":'
            ' [[["x", 1]], []]}]}, {"level": 3, "terms": [{"coeff": "-1/6", "word": [[], [], []]}, {"'
            'coeff": "1", "word": [[], [], [["y", 1]]]}, {"coeff": "1/2", "word": [[], [["x", 1]], []'
            ']}, {"coeff": "1/8", "word": [[], [["y", 1]], [["x", 1]]]}, {"coeff": "1/2", "word": [[['
            '"x", 1]], [], []]}]}, {"level": 4, "terms": [{"coeff": "-1/2", "word": [[], [], [], []]}'
            ', {"coeff": "1", "word": [[], [], [], [["y", 1]]]}, {"coeff": "1/2", "word": [[], [], [['
            '"x", 1]], []]}, {"coeff": "1/4", "word": [[], [], [["y", 1]], [["x", 1]]]}, {"coeff": "1'
            '/2", "word": [[], [["x", 1]], [], []]}, {"coeff": "1/8", "word": [[], [["y", 1]], [], [['
            '"x", 1]]]}, {"coeff": "1/2", "word": [[["x", 1]], [], [], []]}]}], "kind": "sequence"}}\n'
        ),
        id='rat',
    ),
    pytest.param(
        ['--ring', 'mod:6', '--lambda', '5', '--vars', 'x,y', 'phi', 'T(x,1) + 3*T(1,y,x) + 4*U(1) + 5*T(y,1,1)', '--len', '4'],
        (
            '[1] 0\n'
            '[2] 2*T(1,1) + 5*T(1,x)\n'
            '[3] 4*T(1,1,1) + 4*T(1,1,x) + 5*T(1,1,y) + 3*T(x,y,1)\n'
            '[4] 3*T(1,1,1,x) + 3*T(1,1,1,y) + 3*T(1,x,y,1) + 3*T(x,1,y,1) + 3*T(x,y,1,1)\n'
        ),
        (
            '{"command": "phi", "context": {"lambda": "5", "ring": "mod:6", "variables": ["x", "y"]},'
            ' "result": {"entries": [{"level": 1, "terms": []}, {"level": 2, "terms": [{"coeff": "2",'
            ' "word": [[], []]}, {"coeff": "5", "word": [[], [["x", 1]]]}]}, {"level": 3, "terms": [{'
            '"coeff": "4", "word": [[], [], []]}, {"coeff": "4", "word": [[], [], [["x", 1]]]}, {"coe'
            'ff": "5", "word": [[], [], [["y", 1]]]}, {"coeff": "3", "word": [[["x", 1]], [["y", 1]],'
            ' []]}]}, {"level": 4, "terms": [{"coeff": "3", "word": [[], [], [], [["x", 1]]]}, {"coef'
            'f": "3", "word": [[], [], [], [["y", 1]]]}, {"coeff": "3", "word": [[], [["x", 1]], [["y'
            '", 1]], []]}, {"coeff": "3", "word": [[["x", 1]], [], [["y", 1]], []]}, {"coeff": "3", "'
            'word": [[["x", 1]], [["y", 1]], [], []]}]}], "kind": "sequence"}}\n'
        ),
        id='mod6',
    ),
]


class TestPhiReferee:
    @settings(max_examples=150, deadline=None)
    @given(
        ctx=st.sampled_from(REFEREE_CONTEXTS),
        terms=st.dictionaries(words, st.integers(-4, 4), max_size=4),
        length=st.integers(1, 6),
    )
    @pytest.mark.filterwarnings("ignore::freebax.sequences.PhiInjectivityWarning")
    def test_matches_the_definitional_recursion(self, ctx, terms, length):
        a = element(ctx, {w: ctx.ring.coeff(c) for w, c in terms.items()})
        got = phi(a, length)
        assert isinstance(got, SequenceElement) and got.length == length
        assert got == phi_by_definition(a, length)

    def test_golden_cli_output(self, capsys):
        argv = ["--vars", "x,y", "--lambda", "2", "phi", "T(x,y) + 3*T(y,1,x) - T(1,x)", "--len", "4"]
        assert main(argv) == 0
        assert capsys.readouterr().out == PHI_GOLDEN_TEXT
        assert main(["--json", *argv]) == 0
        assert capsys.readouterr().out == PHI_GOLDEN_JSON

    @pytest.mark.parametrize("argv, text, payload", PHI_MIXED_GOLDENS)
    def test_golden_cli_output_on_mixed_lengths(self, capsys, argv, text, payload):
        # words of one to three factors, some ending in units, summed into
        # each entry
        assert main(argv) == 0
        assert capsys.readouterr() == (text, "")
        assert main(["--json", *argv]) == 0
        assert capsys.readouterr() == (payload, "")


SHARED_TAILS = st.sampled_from([(), (UNIT_MONOMIAL,), (y,), (x, UNIT_MONOMIAL), (UNIT_MONOMIAL, y), (xy, x)])


@st.composite
def mixed_terms(draw, ring):
    """(word, Coeff) pairs with distinct words: unit words, whose images
    phi reads from its memo as suffixes of longer unit words, and words
    whose tails come from a small pool, so that tails are shared and are
    suffixes of other words."""
    units = draw(st.sets(st.integers(0, 3), max_size=3))
    words = {(UNIT_MONOMIAL,) * (n + 1) for n in units}
    for _ in range(draw(st.integers(0, 5))):
        head = draw(st.sampled_from([UNIT_MONOMIAL, x, y, xy]))
        words.add((head,) + draw(SHARED_TAILS))
    values = st.integers(-4, 4).filter(bool)
    if ring == RAT:
        values = st.builds(Fraction, values, st.integers(1, 3))
    return [(w, ring.coeff(draw(values))) for w in sorted(words, key=word_key)]


class TestPhiTopLevelRoute:
    """phi writes the image of each top-level word straight into its
    output and reads memoized images only for words that are suffixes of
    other words' tails; checked against one recursion step done with
    SequenceElement operations."""

    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS, ids=str)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), length=st.integers(1, 5))
    @pytest.mark.filterwarnings("ignore::freebax.sequences.PhiInjectivityWarning")
    def test_each_word_is_head_times_p_prime_of_the_tail(self, ring, lam, data, length):
        ctx = ctx_of(ring, lam)
        terms = data.draw(mixed_terms(ring))
        want = seq_zero(ctx, length)
        for w, c in terms:
            image = t_sequence(ctx, tensor_word(ctx, w[0]), length)
            if len(w) > 1:
                image = image * p_prime(phi(element(ctx, {w[1:]: ring.one()}), length))
            assert phi(element(ctx, {w: ring.one()}), length) == image
            want = want + image * c
        shuffled = data.draw(st.permutations(terms))
        for order in (terms, terms[::-1], shuffled):
            assert phi(element(ctx, dict(order)), length) == want


PHI_GOLDEN_TEXT = (
    '[1] 0\n'
    '[2] -2*T(x,1) + 2*T(y,x)\n'
    '[3] -2*T(1,x,1) + 2*T(1,y,x) - 2*T(x,1,1) + 12*T(x,1,y) + 2*T(y,1,x)\n'
    '[4] -2*T(1,1,x,1) + 2*T(1,1,y,x) - 2*T(1,x,1,1) + 12*T(1,x,1,y) + 2*T(1,y,1,x) - 2*T(x,1,1,1) + 24*T(x,1,1,y) + 2*T(y,1,1,x)\n'
)
PHI_GOLDEN_JSON = (
    '{"command": "phi", "context": {"lambda": "2", "ring": "int", "variables": ["x", "y"]}, '
    '"result": {"entries": [{"level": 1, "terms": []}, {"level": 2, "terms": [{"coeff": "-2", '
    '"word": [[["x", 1]], []]}, {"coeff": "2", "word": [[["y", 1]], [["x", 1]]]}]}, '
    '{"level": 3, "terms": [{"coeff": "-2", "word": [[], [["x", 1]], []]}, {"coeff": "2", '
    '"word": [[], [["y", 1]], [["x", 1]]]}, {"coeff": "-2", "word": [[["x", 1]], [], []]}, '
    '{"coeff": "12", "word": [[["x", 1]], [], [["y", 1]]]}, {"coeff": "2", "word": [[["y", '
    '1]], [], [["x", 1]]]}]}, {"level": 4, "terms": [{"coeff": "-2", "word": [[], [], [["x", '
    '1]], []]}, {"coeff": "2", "word": [[], [], [["y", 1]], [["x", 1]]]}, {"coeff": "-2", '
    '"word": [[], [["x", 1]], [], []]}, {"coeff": "12", "word": [[], [["x", 1]], [], [["y", '
    '1]]]}, {"coeff": "2", "word": [[], [["y", 1]], [], [["x", 1]]]}, {"coeff": "-2", '
    '"word": [[["x", 1]], [], [], []]}, {"coeff": "24", "word": [[["x", 1]], [], [], [["y", '
    '1]]]}, {"coeff": "2", "word": [[["y", 1]], [], [], [["x", 1]]]}]}], "kind": "sequence"}}\n'
)


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

    @pytest.mark.parametrize(
        "ring, lam, warns",
        [pytest.param(INT, lam, False, id=str(lam)) for lam in range(4)] + OTHER_RINGS,
    )
    def test_agrees_with_phi(self, ring, lam, warns):
        ctx = ctx_of(ring, lam)
        for top in range(11):
            rng = random.Random(f"consts:{ring}:{lam}:{top}")
            bs = [sample_coeff(rng, ring) for _ in range(top + 1)]
            combo = zero(ctx)
            for n, b in enumerate(bs):
                combo = combo + unit_word(ctx, n).scaled(b)
            with injectivity_warning(warns):
                constants = phi_constants(ctx, bs, 10)
            assert phi_expecting(warns, combo, 10) == constants

    def test_warns_when_weight_is_a_zero_divisor(self):
        ctx = ctx_of(Zmod(6), 2)
        with pytest.warns(PhiInjectivityWarning, match="lambda = 2 is a zero divisor in mod:6"):
            phi_constants(ctx, [1, 1], 3)

    @pytest.mark.parametrize("lam", range(4))
    def test_integers_stay_silent(self, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi_constants(ctx_of(INT, lam), [1, 1], 3).length == 3

    def test_other_ring_is_rejected(self):
        ctx = ctx_of(INT, 2)
        with pytest.raises(RingMismatchError, match="coefficient ring rat != int"):
            phi_constants(ctx, [INT.one(), RAT.coeff(Fraction(1, 2))], 4)

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
            with pytest.raises(ValueError, match="length"):
                phi_constants(ctx, [INT.one()], length)


class TestRendering:
    def test_lines(self):
        ctx = ctx_of(INT, 2)
        img = phi(unit_word(ctx, 1), 3)
        assert str(img) == "[1] 0\n[2] 2*T(1)\n[3] 4*T(1)"
