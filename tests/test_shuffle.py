import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freebax.shuffle as shuffle_module
from freebax import (
    INT,
    RAT,
    Coeff,
    Context,
    ContextMismatchError,
    Monomial,
    RingMismatchError,
    Zmod,
    apply_mixable,
    baxter_P,
    closed_form_unit_product,
    complete_product,
    degree_components,
    element,
    embed,
    enumerate_mixable_shuffles,
    evaluate_source,
    geometric_unit_series,
    is_zero_divisor,
    lambda_adic_valuation,
    one,
    p_prime,
    p_x_power,
    phi,
    reduce_mod,
    reduce_vars,
    scalar,
    shuffle_product,
    shuffle_product_enumerated,
    tensor_word,
    unit_word,
    variable,
    zero,
)
from freebax.poly import PRODUCTS, UNIT_MONOMIAL
from freebax.rings import power
from freebax.sequences import PhiInjectivityWarning
from freebax.shuffle import word_key
from freebax.verify import BAXTER_IDENTITY_CONFIGS, random_element


def ctx_int(lam, variables=()):
    return Context(INT, INT.coeff(lam), variables)


def delannoy(m, n, cache={}):
    """Lattice-path oracle for the number of mixable shuffles."""
    if m == 0 or n == 0:
        return 1
    if (m, n) not in cache:
        cache[(m, n)] = delannoy(m - 1, n) + delannoy(m, n - 1) + delannoy(m - 1, n - 1)
    return cache[(m, n)]


class TestEnumeration:
    def test_1_1_by_hand(self):
        shuffles = enumerate_mixable_shuffles(1, 1)
        assert len(shuffles) == 3
        # the x-first shuffle admits the merge at (1,2); the y-first one admits none
        merged = [s for s in shuffles if s.merges]
        assert len(merged) == 1 and merged[0].sigma == (1, 2) and merged[0].merges == (1,)

    @pytest.mark.parametrize("m", range(5))
    def test_empty_second_tail(self, m):
        assert len(enumerate_mixable_shuffles(m, 0)) == 1

    def test_2_2_is_13(self):
        assert len(enumerate_mixable_shuffles(2, 2)) == 13

    def test_counts_match_lattice_recursion(self):
        for m in range(7):
            for n in range(7):
                assert len(enumerate_mixable_shuffles(m, n)) == delannoy(m, n)

    def test_shuffles_are_valid(self):
        for m, n in [(2, 3), (3, 2), (4, 1)]:
            seen = set()
            for s in enumerate_mixable_shuffles(m, n):
                seen.add((s.sigma, s.merges))
                firsts = [k for k, v in enumerate(s.sigma) if v <= m]
                assert [s.sigma[k] for k in firsts] == sorted(s.sigma[k] for k in firsts)
                seconds = [k for k, v in enumerate(s.sigma) if v > m]
                assert [s.sigma[k] for k in seconds] == sorted(s.sigma[k] for k in seconds)
                for k in s.merges:
                    assert s.sigma[k - 1] <= m < s.sigma[k]
            assert len(seen) == len(enumerate_mixable_shuffles(m, n))


class TestProductExamples:
    @pytest.mark.parametrize("lam", [0, 1, 2])
    def test_degree_one_square(self, lam):
        ctx = ctx_int(lam)
        u = unit_word(ctx, 1)
        expected = unit_word(ctx, 2).scaled(2) + unit_word(ctx, 1).scaled(lam)
        assert shuffle_product(u, u) == expected

    def test_empty_tail_degenerates_to_head_product(self):
        ctx = ctx_int(5, ("x", "y"))
        a = tensor_word(ctx, Monomial.of(x=1), Monomial.of(x=1))
        b = tensor_word(ctx, Monomial.of(y=1))
        assert shuffle_product(a, b) == tensor_word(ctx, Monomial.of(x=1, y=1), Monomial.of(x=1))

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("lam", [1, 2])
    def test_degree_one_times_degree_n(self, n, lam):
        ctx = ctx_int(lam)
        got = shuffle_product(unit_word(ctx, 1), unit_word(ctx, n))
        expected = unit_word(ctx, n + 1).scaled(n + 1) + unit_word(ctx, n).scaled(n * lam)
        assert got == expected

    def test_degree_zero_words_multiply_in_base(self):
        ctx = ctx_int(3, ("x", "y"))
        assert shuffle_product(variable(ctx, "x"), variable(ctx, "y")) == tensor_word(
            ctx, Monomial.of(x=1, y=1)
        )

    def test_unit_element_is_neutral(self):
        ctx = ctx_int(2, ("x",))
        rng = random.Random(5)
        for _ in range(20):
            a = random_element(rng, ctx)
            assert shuffle_product(a, one(ctx)) == a


class TestClosedForm:
    def test_1_1(self):
        for lam in (0, 1, 2, 7):
            ctx = ctx_int(lam)
            assert closed_form_unit_product(ctx, 1, 1) == unit_word(ctx, 2).scaled(2) + unit_word(
                ctx, 1
            ).scaled(lam)

    @pytest.mark.parametrize("n", range(6))
    def test_m_zero_is_identity(self, n):
        ctx = ctx_int(3)
        assert closed_form_unit_product(ctx, 0, n) == unit_word(ctx, n)

    def test_2_2_against_enumeration(self):
        # independent oracle: the definitional enumeration product
        ctx = ctx_int(1)
        by_enumeration = shuffle_product_enumerated(unit_word(ctx, 2), unit_word(ctx, 2))
        expected = (
            unit_word(ctx, 4).scaled(6) + unit_word(ctx, 3).scaled(6) + unit_word(ctx, 2)
        )
        assert by_enumeration == expected
        assert closed_form_unit_product(ctx, 2, 2) == expected

    @pytest.mark.parametrize("lam", [0, 1, 2, 5])
    def test_matches_product_up_to_6(self, lam):
        ctx = ctx_int(lam)
        for m in range(7):
            for n in range(7):
                assert closed_form_unit_product(ctx, m, n) == shuffle_product(
                    unit_word(ctx, m), unit_word(ctx, n)
                )

    @pytest.mark.parametrize("lam", [0, 1, 2, 5])
    def test_kernel_and_closed_form_match_the_enumeration_up_to_6(self, lam):
        # the kernel sums all-unit tails by Pascal's rule on rows; the
        # closed form and the definitional enumeration referee it
        ctx = ctx_int(lam)
        for m in range(7):
            for n in range(7):
                a, b = unit_word(ctx, m), unit_word(ctx, n)
                want = shuffle_product_enumerated(a, b)
                assert shuffle_product(a, b) == want, (m, n)
                assert closed_form_unit_product(ctx, m, n) == want, (m, n)


class TestOracleEquivalence:
    @pytest.mark.parametrize("lam", [0, 1, 2])
    def test_generic_words(self, lam):
        names = tuple("abcdefghij")
        ctx = Context(INT, INT.coeff(lam), names)
        for m in range(4):
            for n in range(4):
                wa = tuple(Monomial.of(**{names[i]: 1}) for i in range(m + 1))
                wb = tuple(Monomial.of(**{names[m + 1 + j]: 1}) for j in range(n + 1))
                a = element(ctx, {wa: INT.one()})
                b = element(ctx, {wb: INT.one()})
                assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)

    # multi-term elements with mixed word lengths share one kernel memo
    # across their term pairs
    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS, ids=str)
    def test_repeated_factors_and_nonunit_heads(self, ring, lam):
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        rng = random.Random(11)
        for _ in range(25):
            a = random_element(rng, ctx)
            b = random_element(rng, ctx)
            assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(shuffle_module, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(shuffle_module, name, counting)
    return calls


class TestOneFactorWords:
    """A word of one factor has an empty tail, so its products only
    multiply heads and never enter the tail-mixing recursion."""

    @staticmethod
    def one_factor(rng, ctx):
        return random_element(rng, ctx, max_terms=4, max_word_len=1)

    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS, ids=str)
    def test_matches_the_oracle(self, ring, lam):
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        rng = random.Random(13)
        for _ in range(25):
            short, short2, other = self.one_factor(rng, ctx), self.one_factor(rng, ctx), random_element(rng, ctx)
            for a, b in ((short, other), (other, short), (short, short2)):
                assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)

    def test_coefficients_cancelling_mod_9(self):
        ctx = Context(Zmod(9), Zmod(9).coeff(3), ("x", "y"))
        x, y = variable(ctx, "x"), variable(ctx, "y")
        a = x.scaled(3) + scalar(ctx, 3)
        b = tensor_word(ctx, Monomial.of(y=1), UNIT_MONOMIAL).scaled(3) + x.scaled(6)
        assert shuffle_product(a, b) == shuffle_product_enumerated(a, b) == zero(ctx)
        # x*y from two term pairs: 1 + 8 = 0 mod 9
        c = shuffle_product(x + y.scaled(8), x + y)
        assert c == shuffle_product_enumerated(x + y.scaled(8), x + y)
        assert c == tensor_word(ctx, Monomial.of(x=2)) + tensor_word(ctx, Monomial.of(y=2)).scaled(8)

    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS, ids=str)
    def test_scalar_operand_scales_the_other(self, ring, lam, monkeypatch):
        # a single unit word returns the other operand scaled, on either
        # side, without splitting either operand into term pairs
        calls = count_calls(monkeypatch, "_parts")
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        rng = random.Random(19)
        values = [Fraction(2, 3), -1] if ring == RAT else [3, -1, 5]
        for _ in range(10):
            other = random_element(rng, ctx)
            for v in values:
                c = scalar(ctx, ring.coeff(v))
                want = shuffle_product_enumerated(c, other)
                assert shuffle_product(c, other) == shuffle_product(other, c) == want
                assert want == other.scaled(ring.coeff(v))
        assert calls == []

    def test_kernel_is_not_entered(self, monkeypatch):
        calls = count_calls(monkeypatch, "_mix")
        ctx = Context(RAT, RAT.coeff(2), ("x", "y"))
        rng = random.Random(17)
        long_word = tensor_word(ctx, Monomial.of(x=1), UNIT_MONOMIAL, Monomial.of(y=2))
        for _ in range(10):
            short = self.one_factor(rng, ctx)
            shuffle_product(short, long_word)
            shuffle_product(long_word, short)
            shuffle_product(short, self.one_factor(rng, ctx))
        assert calls == []
        # a tail of repeated unit factors still enters the memoized kernel
        shuffle_product(long_word, unit_word(ctx, 3))
        assert calls


LETTERS = (UNIT_MONOMIAL, Monomial.of(x=1), Monomial.of(y=1), Monomial.of(x=1, y=1))


def words_of(min_factors, max_factors):
    return st.lists(st.sampled_from(LETTERS), min_size=min_factors, max_size=max_factors).map(tuple)


def elements_of(ctx, words):
    return st.dictionaries(words, st.integers(1, 8), min_size=1, max_size=2).map(lambda m: element(ctx, m))


def count_routes(monkeypatch):
    """Counters of the calls into the three routes of single term pairs."""
    return {name: count_calls(monkeypatch, name) for name in ("_place", "_insert", "_mix")}


def routes_taken(routes):
    """The routes that ran since the last call, whose counters it clears."""
    taken = {name for name, calls in routes.items() if calls}
    for calls in routes.values():
        calls.clear()
    return taken


class TestKernelRoutes:
    """The pairs of all-unit tails behind one pair of heads are summed at
    once by ``_unit_rows``, the closed form read by Pascal's rule.  Of the
    other pairs, unless the longer tail is all units: one whose shorter
    tail has at most INSERT_MAX factors is inserted straight into the
    product; one with a longer shorter tail is arranged by ``_place`` from
    the cached table of its shape when that fits TEMPLATE_MAX, unless both
    tails repeat one factor.  Every other pair enters the memoized
    ``_mix``."""

    def test_short_tail_is_inserted(self, monkeypatch):
        routes = count_routes(monkeypatch)
        ctx = Context(RAT, RAT.coeff(2), ("x", "y"))
        x, y = Monomial.of(x=1), Monomial.of(y=1)
        long_word = tensor_word(ctx, UNIT_MONOMIAL, x, y, UNIT_MONOMIAL, x)
        for short in (tensor_word(ctx, y, x), tensor_word(ctx, x, UNIT_MONOMIAL, UNIT_MONOMIAL),
                      tensor_word(ctx, x, y)):
            assert shuffle_product(long_word, short) == shuffle_product_enumerated(long_word, short)
            assert shuffle_product(short, long_word) == shuffle_product_enumerated(short, long_word)
            assert routes_taken(routes) == {"_insert"}

    def test_long_tails_and_repeated_factors_enter_mix(self, monkeypatch):
        routes = count_routes(monkeypatch)
        ctx = Context(RAT, RAT.coeff(2), ("x", "y"))
        x, y = Monomial.of(x=1), Monomial.of(y=1)
        pairs = [
            # two tails of three factors: D(3, 3) = 63 shuffles, a table fits at weight 2
            (tensor_word(ctx, x, y, x, UNIT_MONOMIAL), tensor_word(ctx, y, UNIT_MONOMIAL, x, y), "_place"),
            # tails of three and four factors: D(4, 3) = 129 shuffles, past the cap
            (tensor_word(ctx, x, y, x, UNIT_MONOMIAL), tensor_word(ctx, y, UNIT_MONOMIAL, x, y, x), "_mix"),
            # two tails of one factor repeated, whose table would fit
            (tensor_word(ctx, y, x, x, x), tensor_word(ctx, x, x, x, x), "_mix"),
            # a short tail against a tail of repeated unit factors
            (tensor_word(ctx, x, y), unit_word(ctx, 4), "_mix"),
            # two all-unit tails: _unit_rows, none of the single-pair routes
            (unit_word(ctx, 2), unit_word(ctx, 1), None),
        ]
        for a, b, route in pairs:
            routes_taken(routes)
            assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)
            assert shuffle_product(b, a) == shuffle_product_enumerated(b, a)
            assert routes_taken(routes) == ({route} if route else set())

    def test_a_repeated_nonunit_factor_is_inserted_like_any_tail(self, monkeypatch):
        routes = count_routes(monkeypatch)
        ctx = Context(RAT, RAT.coeff(2), ("x", "y"))
        x, y = Monomial.of(x=1), Monomial.of(y=1)
        long_word = tensor_word(ctx, *[x] * 9)
        for short in (tensor_word(ctx, y, y), tensor_word(ctx, UNIT_MONOMIAL, x, x), unit_word(ctx, 1)):
            assert shuffle_product(long_word, short) == shuffle_product_enumerated(long_word, short)
            assert shuffle_product(short, long_word) == shuffle_product_enumerated(short, long_word)
            assert routes_taken(routes) == {"_insert"}

    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS, ids=str)
    def test_runs_of_the_inserted_factor_match_the_oracle(self, ring, lam, monkeypatch):
        # a factor placed alone in a run of equal factors gives one word
        # per run, emitted once with the summed weight; merges of a unit
        # give the longer tail itself at every position
        mixed, inserted = count_calls(monkeypatch, "_mix"), count_calls(monkeypatch, "_insert")
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        x, y, u = Monomial.of(x=1), Monomial.of(y=1), UNIT_MONOMIAL
        longs = (
            tensor_word(ctx, y, x, x, u, x, x, x, y),
            tensor_word(ctx, x, u, u, x, u, u, u),
            tensor_word(ctx, u, x, x, x, x),
            tensor_word(ctx, y, u, y, u, u),
        )
        shorts = (
            tensor_word(ctx, y, x), tensor_word(ctx, x, u), tensor_word(ctx, u, x, x),
            tensor_word(ctx, x, u, x), tensor_word(ctx, y, u, u), unit_word(ctx, 1),
        )
        for long_word in longs:
            for short in shorts:
                a = long_word.scaled(3) + short
                assert shuffle_product(long_word, short) == shuffle_product_enumerated(long_word, short)
                assert shuffle_product(short, a) == shuffle_product_enumerated(short, a)
        assert inserted and mixed == []

    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS, ids=str)
    def test_all_unit_tails_take_the_closed_form(self, ring, lam, monkeypatch):
        mixed, inserted = count_calls(monkeypatch, "_mix"), count_calls(monkeypatch, "_insert")
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        x = Monomial.of(x=1)
        # unit tails behind unit and non-unit heads, with one-factor words
        a = unit_word(ctx, 3).scaled(2) + unit_word(ctx, 1) + tensor_word(ctx, x, UNIT_MONOMIAL, UNIT_MONOMIAL)
        b = unit_word(ctx, 2) - unit_word(ctx, 4) + tensor_word(ctx, x) + tensor_word(ctx, x, UNIT_MONOMIAL)
        assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)
        assert shuffle_product(b, a) == shuffle_product_enumerated(b, a)
        assert mixed == [] and inserted == []

    def test_cut_unit_series_product_builds_no_word_above_the_precision(self, monkeypatch):
        mixed, inserted = count_calls(monkeypatch, "_mix"), count_calls(monkeypatch, "_insert")
        words = []
        from_raw = shuffle_module.from_raw

        def recording(ctx, acc):
            words.extend(acc)
            return from_raw(ctx, acc)

        # every word the kernel builds reaches from_raw in its dict
        monkeypatch.setattr(shuffle_module, "from_raw", recording)
        n = 30
        ctx = Context(RAT, RAT.coeff(1))
        x = geometric_unit_series(ctx, RAT.coeff(2), n)
        y = geometric_unit_series(ctx, RAT.coeff(-3), n)
        cut = complete_product(x, y)
        assert max(map(len, words)) == n + 1
        assert mixed == [] and inserted == []
        # geom(a) * geom(b) = geom(a + b + lam a b)
        assert cut == geometric_unit_series(ctx, RAT.coeff(2 - 3 - 6), n)
        # uncut, the same finite parts still give words of 2n + 1 factors
        full = shuffle_product(x.finite_part(), y.finite_part())
        assert max(len(w) for w, _ in full.raw_items()) == 2 * n + 1
        assert embed(full, n) == cut

    @settings(max_examples=150, deadline=None)
    @given(config=st.sampled_from(BAXTER_IDENTITY_CONFIGS), data=st.data(), swap=st.booleans())
    def test_short_tails_match_the_oracle(self, config, data, swap):
        ring, lam = config
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        # one tail of 1-2 factors, the other of up to 6
        short = data.draw(elements_of(ctx, words_of(2, 3)))
        other = data.draw(elements_of(ctx, words_of(1, 7)))
        a, b = (other, short) if swap else (short, other)
        assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)


def letter_word(length, start=1):
    """A word of ``length`` factors from LETTERS, cycling from ``start``, so
    that its tail repeats letters and holds units but is not all units."""
    return tuple(LETTERS[(start + k) % len(LETTERS)] for k in range(length))


def fits(m, n, merging):
    """Whether the table of tails of m >= n factors fits TEMPLATE_MAX: its
    shuffles, counted by the lattice-path oracle, times m + n + 1."""
    shuffles = delannoy(m, n) if merging else math.comb(m + n, n)
    return shuffles * (m + n + 1) <= shuffle_module.TEMPLATE_MAX


class TestTemplateRoute:
    """``_place`` arranges the two tails of a pair by the cached table of
    its shape, built by ``_template`` from no code of the enumeration."""

    def test_template_pairs_match_the_oracle(self, monkeypatch):
        placed = count_calls(monkeypatch, "_place")

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(config=st.sampled_from(BAXTER_IDENTITY_CONFIGS + ((Zmod(4), 2),)), data=st.data(),
               swap=st.booleans())
        def check(config, data, swap):
            ring, lam = config
            ctx = Context(ring, ring.coeff(lam), ("x", "y"))
            # a shorter tail of 2-4 factors, a longer one of 2-8
            short = data.draw(elements_of(ctx, words_of(3, 5)))
            other = data.draw(elements_of(ctx, words_of(3, 9)))
            a, b = (other, short) if swap else (short, other)
            assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)

        check()
        assert placed

    @pytest.mark.parametrize("ring, lam", BAXTER_IDENTITY_CONFIGS + ((Zmod(4), 2),), ids=str)
    def test_every_shape_with_a_table_matches_the_oracle(self, ring, lam, monkeypatch):
        placed = count_calls(monkeypatch, "_place")
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        rng = random.Random(31)
        shapes = [(m, n) for n in range(shuffle_module.INSERT_MAX + 1, 6) for m in range(n, 12) if fits(m, n, bool(lam))]
        assert shapes
        for m, n in shapes:
            for _ in range(3):
                a = element(ctx, {tuple(rng.choice(LETTERS) for _ in range(m + 1)): rng.randint(1, 3)})
                b = element(ctx, {tuple(rng.choice(LETTERS) for _ in range(n + 1)): rng.randint(1, 3)})
                assert shuffle_product(a, b) == shuffle_product_enumerated(a, b), (m, n)
        assert len(placed) >= 2 * len(shapes)

    @pytest.mark.parametrize("merging", [False, True], ids=["weight-0", "weight-nonzero"])
    def test_tables_list_the_mixable_shuffles(self, merging, monkeypatch):
        # on distinct letters every word of the table is told apart, so the
        # groups must equal the enumeration's words, merge count by merge count
        monkeypatch.setattr(shuffle_module, "_TEMPLATES", {})
        names = tuple("abcdefgh")
        letters = [Monomial.of(**{v: 1}) for v in names]
        head = Monomial.of(a=1, b=1)
        for m in range(1, 5):
            for n in range(1, 5):
                long, short = tuple(letters[:m]), tuple(letters[4:4 + n])
                src = (head,) + long + short + tuple(PRODUCTS[f, s] for f in long for s in short)
                table = shuffle_module._template(m, n, merging)
                got = [Counter(g(src) for g in getters) for getters in table]
                want = [Counter() for _ in range(min(m, n) + 1 if merging else 1)]
                for ms in enumerate_mixable_shuffles(m, n):
                    if merging or not ms.merges:
                        want[len(ms.merges)][(head,) + apply_mixable(ms, long, short)] += 1
                assert got == want, (m, n)

    @pytest.mark.parametrize("ring, lam, n", [(INT, 0, 3), (INT, 0, 4), (RAT, 2, 3)],
                             ids=["weight-0-short-3", "weight-0-short-4", "weight-2-short-3"])
    def test_the_shapes_either_side_of_the_cap(self, ring, lam, n, monkeypatch):
        routes = count_routes(monkeypatch)
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        assert n > shuffle_module.INSERT_MAX and fits(n, n, bool(lam))
        m = n
        while fits(m + 1, n, bool(lam)):
            m += 1
        # the largest longer tail that fits, and one factor more
        for long, route in ((m, "_place"), (m + 1, "_mix")):
            a = element(ctx, {letter_word(long + 1): 3})
            b = element(ctx, {letter_word(n + 1, start=2): -2})
            assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)
            assert shuffle_product(b, a) == shuffle_product_enumerated(b, a)
            assert routes_taken(routes) == {route}, (long, n)

    @pytest.mark.parametrize("ring, lam", [(INT, 0), (RAT, 2)], ids=["weight-0", "weight-2"])
    def test_tails_of_one_repeated_factor_enter_mix(self, ring, lam, monkeypatch):
        # at weight 0 the table would write C(6, 3) = 20 copies of one word
        routes = count_routes(monkeypatch)
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        x, y = Monomial.of(x=1), Monomial.of(y=1)
        for tail, route in (((x, x, x), "_mix"), ((x, x, y), "_place"), ((y, y, y), "_place")):
            a, b = tensor_word(ctx, y, x, x, x), tensor_word(ctx, x, *tail)
            assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)
            assert routes_taken(routes) == {route}, tail

    def test_the_tables_share_no_code_with_the_oracle(self, monkeypatch):
        ctx2, ctx0 = Context(RAT, RAT.coeff(2), ("x", "y")), Context(Zmod(9), Zmod(9).zero(), ("x", "y"))
        pairs = []
        for ctx in (ctx2, ctx0):
            a = element(ctx, {letter_word(4): 2, letter_word(3, start=3): 1})
            b = element(ctx, {letter_word(4, start=2): 5, letter_word(7): -1})
            pairs.append((a, b, shuffle_product_enumerated(a, b)))

        def refuse(*args):
            raise AssertionError("the kernel read the enumeration oracle")

        monkeypatch.setattr(shuffle_module, "enumerate_mixable_shuffles", refuse)
        monkeypatch.setattr(shuffle_module, "apply_mixable", refuse)
        monkeypatch.setattr(shuffle_module, "_TEMPLATES", {})
        placed = count_calls(monkeypatch, "_place")
        for a, b, want in pairs:
            assert shuffle_product(a, b) == shuffle_product(b, a) == want
        assert placed and shuffle_module._TEMPLATES


# the settings of the Baxter-identity suite, and weights whose square
# vanishes: 2 in Z/4, and 4 in Z/8
UNIT_ROW_CONFIGS = BAXTER_IDENTITY_CONFIGS + ((Zmod(4), 2), (Zmod(8), 4))
UNIT_HEADS = (UNIT_MONOMIAL, Monomial.of(x=1), Monomial.of(x=1, y=1))


@st.composite
def unit_tail_sums(draw, ctx, top):
    """A sum of c * h (x) 1^n with heads h from UNIT_HEADS and n <= top:
    per head, either every degree up to a drawn one (dense) or a few
    degrees (sparse)."""
    terms = {}
    for h in draw(st.lists(st.sampled_from(UNIT_HEADS), min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            degrees = range(draw(st.integers(0, top)) + 1)
        else:
            degrees = draw(st.sets(st.integers(0, top), min_size=1, max_size=3))
        for n in degrees:
            terms[(h,) + (UNIT_MONOMIAL,) * n] = draw(st.integers(-4, 4))
    return element(ctx, terms)


def closed_form_sum(a, b):
    """The product of two sums of words h (x) 1^n, term pair by term pair,
    from ``closed_form_unit_product`` with its heads multiplied."""
    ctx = a.ctx
    acc = {}
    for wa, ca in a.terms:
        for wb, cb in b.terms:
            head = wa[0] * wb[0]
            for w, c in closed_form_unit_product(ctx, len(wa) - 1, len(wb) - 1).terms:
                w = (head,) + w[1:]
                acc[w] = acc[w] + ca * cb * c if w in acc else ca * cb * c
    return element(ctx, acc)


class TestUnitRows:
    """``_unit_rows`` sums all the pairs of all-unit tails behind a pair of
    heads by Pascal's rule on rows; the closed form term pair by term pair,
    the enumeration and the uncut product referee it."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(config=st.sampled_from(UNIT_ROW_CONFIGS), data=st.data())
    def test_unit_tail_sums_match_the_referees(self, config, data):
        ring, lam = config
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        a, b = data.draw(unit_tail_sums(ctx, 40)), data.draw(unit_tail_sums(ctx, 40))
        product = shuffle_product(a, b)
        assert product == closed_form_sum(a, b)
        # cut at the lower of two precisions, which may lie below the
        # degrees of the other operand
        p, q = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 40))
        x, y = embed(a, p), embed(b, q)
        want = embed(shuffle_product(x.finite_part(), y.finite_part()), min(p, q))
        assert complete_product(x, y) == want == embed(product, min(p, q))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(config=st.sampled_from(UNIT_ROW_CONFIGS), data=st.data())
    def test_short_unit_tail_sums_match_the_enumeration(self, config, data):
        ring, lam = config
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        a, b = data.draw(unit_tail_sums(ctx, 5)), data.draw(unit_tail_sums(ctx, 5))
        assert shuffle_product(a, b) == shuffle_product_enumerated(a, b)


def law_context(config):
    ring, lam = config
    return Context(ring, ring.coeff(lam), ("x", "y"))


def law_elements(ctx):
    """At most 3 words of 1-3 factors drawn from {1, x, y, x*y}."""
    words = st.dictionaries(words_of(1, 3), st.integers(-6, 6), max_size=3)
    return words.map(lambda m: element(ctx, m))


class TestAlgebraLaws:
    """The laws of the free Baxter algebra, on small elements over each
    ``BAXTER_IDENTITY_CONFIGS`` setting.  Their products take all four
    kernel routes: two all-unit tails such as (1, 1) are summed by
    ``_unit_rows``, a tail of 1-2 factors is inserted, two tails of three
    factors, as in P(a) P(b), are arranged by a table, and one against an
    all-unit tail enters ``_mix``."""

    @settings(max_examples=60, deadline=None)
    @given(config=st.sampled_from(BAXTER_IDENTITY_CONFIGS), data=st.data())
    def test_ring_laws(self, config, data):
        ctx = law_context(config)
        a, b, c = (data.draw(law_elements(ctx)) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(config=st.sampled_from(BAXTER_IDENTITY_CONFIGS), data=st.data())
    def test_baxter_identity(self, config, data):
        ctx = law_context(config)
        a, b = data.draw(law_elements(ctx)), data.draw(law_elements(ctx))
        P = baxter_P
        assert P(a) * P(b) - P(a * P(b)) - P(P(a) * b) - P(a * b).scaled(ctx.lam) == zero(ctx)

    @settings(max_examples=40, deadline=None)
    @given(config=st.sampled_from(BAXTER_IDENTITY_CONFIGS), data=st.data(), length=st.integers(1, 6))
    def test_phi_is_a_homomorphism(self, config, data, length):
        ctx = law_context(config)
        a, b = data.draw(law_elements(ctx)), data.draw(law_elements(ctx))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pa = phi(a, length)
            assert phi(a * b, length) == pa * phi(b, length)
            assert phi(baxter_P(a), length) == p_prime(pa)
        # only a zero-divisor weight, here 3 in Z/9, is warned about
        expected = [PhiInjectivityWarning] * 4 if is_zero_divisor(ctx.lam) else []
        assert [w.category for w in caught] == expected

    @settings(max_examples=40, deadline=None)
    @given(config=st.sampled_from(BAXTER_IDENTITY_CONFIGS), data=st.data())
    def test_quotient_maps_are_homomorphisms(self, config, data):
        ctx = law_context(config)
        a, b = data.draw(law_elements(ctx)), data.draw(law_elements(ctx))
        maps = [lambda e: reduce_vars(e, ("x",))]
        if ctx.ring == INT:
            maps += [lambda e, m=m: reduce_mod(e, m) for m in (4, 5)]
        for f in maps:
            assert f(a * b) == f(a) * f(b)
            assert f(baxter_P(a)) == baxter_P(f(a))

    @settings(max_examples=60, deadline=None)
    @given(config=st.sampled_from(BAXTER_IDENTITY_CONFIGS), data=st.data())
    def test_rendering_parses_back(self, config, data):
        ctx = law_context(config)
        a = data.draw(law_elements(ctx))
        assert evaluate_source(str(a), ctx) == a


class TestBaxterOperator:
    def test_examples(self):
        ctx = ctx_int(1, ("x", "y", "z"))
        assert baxter_P(one(ctx)) == unit_word(ctx, 1)
        w = tensor_word(ctx, Monomial.of(x=1), Monomial.of(y=2))
        assert baxter_P(w) == tensor_word(ctx, UNIT_MONOMIAL, Monomial.of(x=1), Monomial.of(y=2))

    def test_linearity(self):
        ctx = ctx_int(1, ("x", "y", "z"))
        a = variable(ctx, "x").scaled(2)
        b = tensor_word(ctx, Monomial.of(y=1), Monomial.of(z=1)).scaled(3)
        assert baxter_P(a + b) == baxter_P(a) + baxter_P(b)

    def test_identity_holds(self):
        # the defining relation, across all three rings
        configs = [(INT, 0), (INT, 1), (INT, 2), (RAT, 1), (Zmod(9), 0), (Zmod(9), 3)]
        for ring, lam in configs:
            ctx = Context(ring, ring.coeff(lam), ("x", "y"))
            rng = random.Random(f"identity:{ring}:{lam}")
            for _ in range(25):
                a = random_element(rng, ctx)
                b = random_element(rng, ctx)
                lhs = shuffle_product(baxter_P(a), baxter_P(b))
                rhs = (
                    baxter_P(shuffle_product(a, baxter_P(b)))
                    + baxter_P(shuffle_product(b, baxter_P(a)))
                    + baxter_P(shuffle_product(a, b)).scaled(ctx.lam)
                )
                assert lhs == rhs


class TestIteratedP:
    def test_zero_iterations(self):
        ctx = ctx_int(4, ("x",))
        assert p_x_power(variable(ctx, "x"), 0) == one(ctx)

    def test_two_iterations_weight_zero(self):
        ctx = ctx_int(0)
        assert p_x_power(one(ctx), 2) == unit_word(ctx, 2)

    def test_one_iteration_is_P(self):
        ctx = ctx_int(2, ("x", "y"))
        rng = random.Random(3)
        for _ in range(10):
            a = random_element(rng, ctx)
            assert p_x_power(a, 1) == baxter_P(a)


class TestPowers:
    def test_first_power(self):
        ctx = ctx_int(1, ("x",))
        a = variable(ctx, "x") + unit_word(ctx, 1)
        assert a ** 1 == a

    def test_cube_weight_zero_rationals(self):
        ctx = Context(RAT, RAT.coeff(0))
        u = unit_word(ctx, 1)
        # two routes: direct powering, and the factorial identity via iterated P
        direct = u ** 3
        via_iterates = p_x_power(one(ctx), 3).scaled(math.factorial(3))
        assert direct == via_iterates == unit_word(ctx, 3).scaled(6)

    def test_square_is_self_product(self):
        ctx = ctx_int(2, ("x", "y"))
        rng = random.Random(9)
        for _ in range(10):
            a = random_element(rng, ctx)
            assert a ** 2 == shuffle_product(a, a)

    def test_commutative_associative(self):
        ctx = Context(Zmod(6), Zmod(6).coeff(5), ("x", "y"))
        rng = random.Random(13)
        for _ in range(15):
            a, b, c = (random_element(rng, ctx, max_word_len=2) for _ in range(3))
            assert shuffle_product(a, b) == shuffle_product(b, a)
            assert shuffle_product(shuffle_product(a, b), c) == shuffle_product(
                a, shuffle_product(b, c)
            )


    def test_power_matches_repeated_product(self):
        ctx = Context(Zmod(9), Zmod(9).coeff(3), ("x",))
        rng = random.Random(29)
        for k in range(8):
            a = random_element(rng, ctx, max_terms=2, max_word_len=2)
            expected = one(ctx)
            for _ in range(k):
                expected = shuffle_product(expected, a)
            assert a ** k == expected

    def test_power_rejects_bad_exponents(self):
        ctx = ctx_int(1)
        a = unit_word(ctx, 1)
        assert a ** 0 == one(ctx)
        with pytest.raises(ValueError):
            a ** -1


class Counted:
    """A stand-in value that counts the products made from it."""

    def __init__(self, exponent, log):
        self.exponent, self.log = exponent, log

    def __mul__(self, other):
        self.log.append(1)
        return Counted(self.exponent + other.exponent, self.log)


class TestPowerRoutine:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 255, 256, 1000, 3_000_000])
    def test_square_and_multiply(self, k):
        log = []
        out = power(Counted(1, log), k, None, True)
        assert out.exponent == k
        assert len(log) <= 2 * k.bit_length()

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 100])
    def test_repeated_multiplication(self, k):
        log = []
        out = power(Counted(1, log), k, None, False)
        assert out.exponent == k
        assert len(log) == k - 1

    @pytest.mark.parametrize("by_squaring", [True, False])
    def test_zero_exponent_returns_the_unit(self, by_squaring):
        log = []
        unit = Counted(0, log)
        assert power(Counted(1, log), 0, lambda: unit, by_squaring) is unit and not log

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            power(Counted(1, []), -1, None, True)


class TestPowerMethodChoice:
    """Each type squares only where its powers do not grow."""

    @staticmethod
    def count_products(monkeypatch, owner, name):
        log = []
        inner = getattr(owner, name)

        def counted(a, b):
            log.append(1)
            return inner(a, b)

        monkeypatch.setattr(owner, name, counted)
        return log

    def test_one_factor_word_is_squared(self, monkeypatch):
        import freebax.shuffle as sh

        ctx = ctx_int(1, ("x",))
        log = self.count_products(monkeypatch, sh, "shuffle_product")
        assert variable(ctx, "x") ** 16 == tensor_word(ctx, Monomial.of(x=16))
        assert len(log) == 4

    def test_growing_element_is_multiplied_by_the_base(self, monkeypatch):
        import freebax.shuffle as sh

        ctx = ctx_int(1, ("x",))
        u = unit_word(ctx, 1)
        expected = one(ctx)
        for _ in range(16):
            expected = shuffle_product(expected, u)
        log = self.count_products(monkeypatch, sh, "shuffle_product")
        assert u ** 16 == expected
        assert len(log) == 15
        del log[:]
        assert (variable(ctx, "x") + u) ** 3 != zero(ctx) and len(log) == 2

    def test_series_is_squared(self, monkeypatch):
        import freebax.series as sr

        ctx = ctx_int(1)
        g = sr.geometric_unit_series(ctx, INT.coeff(2), 6)
        expected = sr.embed(one(ctx), 6)
        for _ in range(16):
            expected = sr.complete_product(expected, g)
        log = self.count_products(monkeypatch, sr, "complete_product")
        assert g ** 16 == expected
        assert len(log) == 4

    def test_zero_is_squared(self, monkeypatch):
        import freebax.shuffle as sh

        ctx = ctx_int(1, ("x",))
        u = unit_word(ctx, 1)
        log = self.count_products(monkeypatch, sh, "shuffle_product")
        assert (u - u) ** 16 == zero(ctx)
        assert len(log) <= 8
        assert zero(ctx) ** 0 == one(ctx)


class TestElementContract:
    def test_insertion_order_does_not_matter(self):
        ctx = ctx_int(2, ("x", "y"))
        x, y = Monomial.of(x=1), Monomial.of(y=1)
        pairs = [((x, y), INT.coeff(2)), ((UNIT_MONOMIAL, x), INT.coeff(-1)), ((y,), INT.coeff(5))]
        forward = element(ctx, dict(pairs))
        backward = element(ctx, dict(reversed(pairs)))
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert len({forward, backward}) == 1
        assert forward + zero(ctx) == forward

    def test_terms_are_sorted_coeffs_of_the_ring(self):
        ring = Zmod(7)
        ctx = Context(ring, ring.coeff(3), ("x", "y"))
        x, y = Monomial.of(x=1), Monomial.of(y=1)
        a = element(ctx, {
            (y, x, x): ring.coeff(3),
            (UNIT_MONOMIAL,): ring.coeff(9),
            (x, y): ring.coeff(-1),
            (UNIT_MONOMIAL, x): ring.coeff(1),
        })
        words = [w for w, _ in a.terms]
        assert words == sorted(words, key=word_key)
        assert all(isinstance(c, Coeff) and c.ring == ring for _, c in a.terms)
        assert dict(a.terms)[(UNIT_MONOMIAL,)] == ring.coeff(2)
        assert dict(a.terms)[(x, y)] == ring.coeff(6)

    def test_rational_values_are_fractions_in_terms(self):
        # an integral rational reached through Fraction arithmetic equals
        # the same value entered as an integer, hash included
        ctx = Context(RAT, RAT.coeff(1), ("x",))
        half = variable(ctx, "x").scaled(RAT.coeff(Fraction(1, 2)))
        two = variable(ctx, "x").scaled(2)
        assert half.scaled(4) == two and hash(half.scaled(4)) == hash(two)
        mixed = half + half + unit_word(ctx, 1).scaled(RAT.coeff(Fraction(1, 3)))
        assert str(mixed) == "T(x) + 1/3*T(1,1)"
        assert all(type(c.value) is Fraction for _, c in mixed.terms)

    def test_other_ring_is_rejected(self):
        a = unit_word(ctx_int(1), 1)
        other = unit_word(Context(RAT, RAT.coeff(1)), 1)
        with pytest.raises(RingMismatchError):
            a + other
        with pytest.raises(RingMismatchError):
            a.scaled(RAT.coeff(2))
        with pytest.raises(RingMismatchError):
            a * Zmod(5).coeff(2)
        with pytest.raises(RingMismatchError):
            element(ctx_int(1), {(UNIT_MONOMIAL,): RAT.coeff(1)})
        with pytest.raises(RingMismatchError):
            scalar(ctx_int(1), RAT.coeff(1))

    def test_coefficient_of_an_absent_word_is_zero(self):
        ring = Zmod(9)
        ctx = Context(ring, ring.coeff(3), ("x",))
        a = variable(ctx, "x").scaled(4)
        assert a.coefficient((Monomial.of(x=1),)) == ring.coeff(4)
        assert a.coefficient((UNIT_MONOMIAL, Monomial.of(x=1))) == ring.zero()

    def test_sum_cancelling_mod_9_is_zero(self):
        ring = Zmod(9)
        ctx = Context(ring, ring.coeff(3), ("x",))
        a = variable(ctx, "x").scaled(3) + unit_word(ctx, 2).scaled(6)
        total = a + a.scaled(2)
        assert total == zero(ctx)
        assert total.is_zero() and str(total) == "0" and total.terms == ()


class TestValuation:
    def test_examples(self):
        ctx = ctx_int(2, ("x", "y"))
        a = baxter_P(variable(ctx, "x")).scaled(4) + variable(ctx, "y").scaled(2)
        assert lambda_adic_valuation(a) == 1
        assert lambda_adic_valuation(zero(ctx)) == math.inf
        assert lambda_adic_valuation(unit_word(ctx, 1).scaled(8)) == 3

    def test_superadditive_under_product(self):
        ctx = ctx_int(2, ("x",))
        rng = random.Random(17)
        for _ in range(40):
            a = random_element(rng, ctx, max_word_len=2)
            b = random_element(rng, ctx, max_word_len=2)
            va, vb = lambda_adic_valuation(a), lambda_adic_valuation(b)
            assert lambda_adic_valuation(shuffle_product(a, b)) >= va + vb


class TestGrading:
    def test_components(self):
        ctx = ctx_int(1, ("x", "y"))
        a = variable(ctx, "x") + baxter_P(variable(ctx, "y"))
        comps = degree_components(a)
        assert set(comps) == {0, 1}
        assert comps[0] == variable(ctx, "x")
        assert comps[1] == baxter_P(variable(ctx, "y"))
        assert degree_components(zero(ctx)) == {}

    def test_components_resum(self):
        ctx = ctx_int(2, ("x", "y"))
        rng = random.Random(23)
        for _ in range(10):
            a = random_element(rng, ctx)
            total = zero(ctx)
            for comp in degree_components(a).values():
                total = total + comp
            assert total == a

    def test_degree_bounds_from_enumeration(self):
        # every mixable shuffle of (m, n) tails has length in [max(m,n), m+n]
        for m in range(5):
            for n in range(5):
                for s in enumerate_mixable_shuffles(m, n):
                    produced = m + n - len(s.merges)
                    assert max(m, n) <= produced <= m + n
                    assert len(s.merges) <= min(m, n)

    def test_product_degree_window(self):
        ctx = ctx_int(1)
        for m in range(5):
            for n in range(5):
                prod = shuffle_product(unit_word(ctx, m), unit_word(ctx, n))
                degrees = {len(w) - 1 for w, _ in prod.terms}
                assert degrees <= set(range(max(m, n), m + n + 1))

    def test_low_degree_output_ignores_high_degree_input(self):
        # the degree-d part of a product only sees inputs of degree <= d
        ctx = ctx_int(2, ("x",))
        rng = random.Random(29)
        for _ in range(10):
            a = random_element(rng, ctx, max_terms=4)
            b = random_element(rng, ctx, max_terms=4)
            d = 2
            def cut(e):
                kept = {w: c for w, c in e.terms if len(w) - 1 <= d}
                return element(ctx, kept)
            full = degree_components(shuffle_product(a, b)).get(d, zero(ctx))
            cutprod = degree_components(shuffle_product(cut(a), cut(b))).get(d, zero(ctx))
            assert full == cutprod


class TestTensorWord:
    """Word factors are monomials or polynomials, given as degree-0
    elements of the word's context."""

    ctx = Context(Zmod(6), Zmod(6).coeff(2), ("x", "y"))
    x, y = Monomial.of(x=1), Monomial.of(y=1)

    def test_degree0_factors_expand_multilinearly(self):
        ctx, x, y = self.ctx, self.x, self.y
        px, py = variable(ctx, "x"), variable(ctx, "y")
        expected = tensor_word(ctx, x, y, x) + tensor_word(ctx, UNIT_MONOMIAL, y, x).scaled(3)
        assert tensor_word(ctx, px + scalar(ctx, 3), py, x) == expected
        assert tensor_word(ctx, px.scaled(2), py.scaled(3)) == zero(ctx)  # 6 = 0 mod 6
        assert tensor_word(ctx, x, zero(ctx)) == zero(ctx)

    def test_positive_degree_is_rejected(self):
        ctx = self.ctx
        for f in (unit_word(ctx, 1), variable(ctx, "x") + tensor_word(ctx, self.x, self.y)):
            with pytest.raises(ValueError, match="degree 0"):
                tensor_word(ctx, self.x, f)

    def test_other_context_is_rejected(self):
        ring = Zmod(6)
        for other in (Context(ring, ring.coeff(1), ("x", "y")), Context(INT, INT.coeff(2), ("x", "y")),
                      Context(ring, ring.coeff(2), ("x",))):
            with pytest.raises(ContextMismatchError):
                tensor_word(self.ctx, variable(other, "x"))
        assert issubclass(ContextMismatchError, RingMismatchError)

    def test_other_values_are_rejected(self):
        for f in (3, "x", self.ctx.ring.coeff(1)):
            with pytest.raises(TypeError, match="monomials or degree-0 elements"):
                tensor_word(self.ctx, self.x, f)
        with pytest.raises(ValueError, match="at least one factor"):
            tensor_word(self.ctx)


class TestContextChecks:
    def test_mismatch(self):
        a = one(ctx_int(1))
        b = one(ctx_int(2))
        with pytest.raises(ContextMismatchError):
            shuffle_product(a, b)

    def test_lambda_must_live_in_ring(self):
        with pytest.raises(Exception):
            Context(INT, RAT.coeff(1))

    @pytest.mark.parametrize("name, message", [
        ("lam", "'lam' is a reserved word"),  # T(lam) would read back as 3*T(1)
        ("x*y", "invalid variable name 'x*y'"),  # T(x*y) would read back as a product
    ])
    def test_variable_names_are_names_the_parser_reads(self, name, message):
        with pytest.raises(ValueError) as err:
            Context(INT, INT.coeff(3), (name,))
        assert str(err.value) == message

    def test_variables_as_a_string_are_rejected(self):
        # "xy" would read as the names x and y, and variable(ctx, "xy")
        # would pass its membership test as a substring
        with pytest.raises(TypeError) as err:
            Context(INT, INT.coeff(1), "xy")
        assert str(err.value) == "variables must be a tuple of names, got 'xy'"

    def test_variables_are_stored_as_a_tuple(self):
        ctx = Context(INT, INT.coeff(1), ["x"])
        assert ctx.variables == ("x",)
        assert ctx == ctx_int(1, ("x",)) and hash(ctx) == hash(ctx_int(1, ("x",)))

    def test_the_raw_weight_is_read_once_and_not_a_field(self):
        half, two = Context(RAT, RAT.coeff(Fraction(1, 2))), Context(RAT, RAT.coeff(Fraction(4, 2)))
        assert half.lam_raw == Fraction(1, 2) and type(two.lam_raw) is int and two.lam_raw == 2
        assert Context(Zmod(9), Zmod(9).coeff(-6)).lam_raw == 3
        assert repr(two) == "Context(ring=Ring(kind='rat', modulus=None), lam=Coeff(ring=Ring(kind='rat', " \
            "modulus=None), value=Fraction(2, 1)), variables=())"
        assert two.to_obj() == {"ring": "rat", "lambda": "2", "variables": []}
        assert two == Context(RAT, RAT.coeff(2)) and hash(two) == hash(Context(RAT, RAT.coeff(2)))

    def test_scalar_embedding(self):
        ctx = ctx_int(1)
        assert scalar(ctx, 3) == one(ctx).scaled(3)
        assert scalar(ctx, 0) == zero(ctx)
        ring = Zmod(9)
        ctx = Context(ring, ring.zero())
        assert scalar(ctx, -8) == scalar(ctx, ring.coeff(1)) == one(ctx)
        assert scalar(ctx, 9) == zero(ctx)


class TestInputChecks:
    """Each constructor and operator names the argument it rejects."""

    @pytest.mark.parametrize("build, message", [
        (lambda ctx: unit_word(ctx, -1), "degree must be nonnegative"),
        (lambda ctx: element(ctx, {(): 1}), "tensor words must have at least one factor"),
        (lambda ctx: variable(ctx, "z"), "unknown variable 'z'"),
        # a monomial outside the context would render as text that does not parse back
        (lambda ctx: element(ctx, {(UNIT_MONOMIAL, Monomial.of(x=1, z=2)): 1}), "unknown variable 'z'"),
        (lambda ctx: tensor_word(ctx, Monomial.of(x=1), Monomial.of(z=1)), "unknown variable 'z'"),
        (lambda ctx: p_x_power(variable(ctx, "x"), -1), "iteration count must be a nonnegative integer"),
    ], ids=["unit-word-degree", "empty-word", "unknown-variable", "element-variable", "tensor-word-variable",
            "p-x-power-count"])
    def test_constructor_arguments(self, build, message):
        with pytest.raises(ValueError) as err:
            build(ctx_int(1, ("x",)))
        assert str(err.value) == message

    # a bool is an int to Python, but not a count: it gets the message of 2.0
    @pytest.mark.parametrize("count", [True, False, 2.0], ids=["true", "false", "float"])
    @pytest.mark.parametrize("build, message", [
        (lambda ctx, k: variable(ctx, "x") ** k, "exponent must be a nonnegative integer"),
        (lambda ctx, k: p_x_power(variable(ctx, "x"), k), "iteration count must be a nonnegative integer"),
    ], ids=["power", "p-x-power"])
    def test_counts_must_be_ints_not_bools(self, build, message, count):
        with pytest.raises(ValueError) as err:
            build(ctx_int(1, ("x",)), count)
        assert str(err.value) == message

    @pytest.mark.parametrize("m, n, bad", [(True, 1, True), (1, False, False), (1.5, 2, 1.5), (2, 2.0, 2.0),
                                           ("1", 1, "1")], ids=["true", "false", "float", "whole-float", "str"])
    def test_tail_lengths_must_be_ints_not_bools(self, m, n, bad):
        with pytest.raises(TypeError) as err:
            enumerate_mixable_shuffles(m, n)
        assert str(err.value) == f"tail length must be an integer, got {bad!r}"

    @pytest.mark.parametrize("degree", [1.5, "a", True, None])
    def test_unit_word_degree_must_be_an_integer(self, degree):
        with pytest.raises(TypeError) as err:
            unit_word(ctx_int(1), degree)
        assert str(err.value) == f"degree must be an integer, got {degree!r}"

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (2, 1), (1, 2)])
    def test_apply_mixable_tails_must_fit_the_shape(self, m, n):
        ms = enumerate_mixable_shuffles(1, 1)[0]
        with pytest.raises(ValueError) as err:
            apply_mixable(ms, (UNIT_MONOMIAL,) * m, (UNIT_MONOMIAL,) * n)
        assert str(err.value) == "tail lengths do not match the shuffle shape"

    @pytest.mark.parametrize("mapping", [None, 5, [1, 2]], ids=["none", "int", "list-of-ints"])
    def test_element_needs_a_mapping(self, mapping):
        with pytest.raises(TypeError) as err:
            element(ctx_int(1), mapping)
        assert str(err.value) == f"mapping must map words to coefficients, got {mapping!r}"

    def test_word_factor_of_another_type(self):
        with pytest.raises(TypeError) as err:
            element(ctx_int(1, ("x",)), {("x",): 1})
        assert str(err.value) == "word factors must be monomials, got 'x'"

    def test_operand_of_another_type(self):
        a = unit_word(ctx_int(1), 1)
        with pytest.raises(TypeError) as err:
            a + 1
        assert str(err.value) == "expected an algebra element, got 1"
        with pytest.raises(TypeError) as err:
            a * 1.5
        assert str(err.value) == "unsupported operand type(s) for *: 'Element' and 'float'"

    def test_operand_of_another_context(self):
        a, b = unit_word(ctx_int(1), 1), unit_word(ctx_int(2), 1)
        for op in (lambda: a + b, lambda: a * b):
            with pytest.raises(ContextMismatchError) as err:
                op()
            assert str(err.value) == "elements belong to different contexts"
