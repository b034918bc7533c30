import json
import os
import random

import pytest

from freebax import (
    INT,
    RAT,
    Context,
    Monomial,
    PreconditionError,
    Zmod,
    charp_zero_divisor_witness,
    complete_zero_divisor_witness,
    integer_lambda2_witness,
    lemma_power_suite,
    nilradical_member_weight0,
    one,
    reducedness_conditions,
    run_suites,
    scalar,
    shuffle_product,
    tensor_word,
    unit_word,
    weight0_nilpotent_witness,
    zero,
)
import freebax.sequences as sq
from freebax import verify
from freebax.lang import evaluate_source
from freebax.verify import SUITES, random_element

x = Monomial.of(x=1)
y = Monomial.of(y=1)
PINNED_REPORT = os.path.join(os.path.dirname(__file__), "data", "verify_all.json")


class TestCharPWitness:
    @pytest.mark.parametrize("p,lam", [(2, 1), (3, 1), (3, 2), (5, 2)])
    def test_passes(self, p, lam):
        assert charp_zero_divisor_witness(p, lam).verdict

    def test_hand_check_p2(self):
        # (U1)(1 + U1) = U1*U1 + U1 = (2 U2 + U1) + U1 = 0 mod 2 at weight 1
        ring = Zmod(2)
        ctx = Context(ring, ring.one())
        u = unit_word(ctx, 1)
        prod = shuffle_product(u, one(ctx) + u)
        assert prod.is_zero()

    def test_rejects_composite(self):
        with pytest.raises(PreconditionError):
            charp_zero_divisor_witness(6, 1)

    def test_rejects_zero_weight(self):
        with pytest.raises(PreconditionError):
            charp_zero_divisor_witness(3, 0)


class TestWeight0Witness:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_passes(self, q):
        from freebax import weight0_nilpotent_witness

        assert weight0_nilpotent_witness(q).verdict

    def test_characteristic_below_two_is_rejected(self):
        with pytest.raises(PreconditionError) as err:
            weight0_nilpotent_witness(1)
        assert str(err.value) == "the characteristic must be at least 2"

    def test_low_powers_survive_mod_5(self):
        ring = Zmod(5)
        ctx = Context(ring, ring.zero())
        u = unit_word(ctx, 1)
        assert u ** 2 == unit_word(ctx, 2).scaled(2)
        assert not (u ** 2).is_zero()


class TestNilradical:
    def test_positive_degree_is_nilpotent(self):
        ring = Zmod(4)
        ctx = Context(ring, ring.zero())
        assert nilradical_member_weight0(unit_word(ctx, 1))

    def test_unit_head_blocks(self):
        ring = Zmod(4)
        ctx = Context(ring, ring.zero())
        assert not nilradical_member_weight0(one(ctx) + unit_word(ctx, 1))

    def test_nilpotent_head_passes_and_direct_power_vanishes(self):
        ring = Zmod(4)
        ctx = Context(ring, ring.zero(), ("x", "y"))
        a = scalar(ctx, 2) + tensor_word(ctx, x, y)
        assert nilradical_member_weight0(a)
        assert (a ** 4).is_zero()

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            nilradical_member_weight0(one(Context(INT, INT.coeff(0))))
        ring = Zmod(4)
        with pytest.raises(PreconditionError):
            nilradical_member_weight0(one(Context(ring, ring.one())))

    @pytest.mark.parametrize("m", [4, 9])
    def test_matches_direct_powers(self, m):
        ring = Zmod(m)
        ctx = Context(ring, ring.zero(), ("x", "y"))
        rng = random.Random(f"nilrad:{m}")
        for _ in range(100):
            a = random_element(rng, ctx, max_terms=2, max_word_len=2)
            # oracle: sixteenth power by repeated squaring; index bounds:
            # head squares to zero, single positive words die by 6, pairs by 12
            sq = shuffle_product(a, a)
            sq = shuffle_product(sq, sq)
            sq = shuffle_product(sq, sq)
            sq = shuffle_product(sq, sq)
            assert nilradical_member_weight0(a) == sq.is_zero(), str(a)

    def test_suite_passes(self):
        reports = run_suites("nilradical")
        assert [r.verdict for r in reports] == [True] * 2


class TestCompleteZeroDivisor:
    def test_rational(self):
        assert complete_zero_divisor_witness(Context(RAT, RAT.coeff(1)), 20).verdict

    def test_mod5(self):
        ring = Zmod(5)
        assert complete_zero_divisor_witness(Context(ring, ring.coeff(2)), 15).verdict

    def test_gate_rejects_non_unit_weight(self):
        with pytest.raises(PreconditionError):
            complete_zero_divisor_witness(Context(INT, INT.coeff(2)), 10)


class TestIntegerLambda2:
    def test_passes(self):
        assert integer_lambda2_witness(20).verdict

    def test_report_inputs_reparse_to_zero_product(self):
        # the serialized inputs are honest: re-parse and re-multiply
        from freebax.series import complete_product, embed

        rep = integer_lambda2_witness(8)
        ctx = Context(INT, INT.coeff(2))
        parts = dict(rep.inputs)
        finite_x = parts["x"].split(" + O(")[0]
        finite_y = parts["y"].split(" + O(")[0]
        ex = evaluate_source(finite_x, ctx)
        ey = evaluate_source(finite_y, ctx)
        assert complete_product(embed(ex, 8), embed(ey, 8)).is_zero()


class TestLemmaPower:
    def test_small_run(self):
        reports = lemma_power_suite(trials=4)
        assert all(r.verdict for r in reports)


class TestReducedness:
    def test_squarefree_unit_weight(self):
        ring = Zmod(6)
        assert reducedness_conditions(Context(ring, ring.one(), ("x",))) == "satisfied"

    def test_weight_zero_mod4_fails(self):
        # its witness U(1)^4 = 0 is the weight0-nilpotent report for q = 4
        ring = Zmod(4)
        assert reducedness_conditions(Context(ring, ring.zero(), ("x",))) == "conditions-fail"

    @pytest.mark.parametrize("m, lam", [(5, 0), (6, 2), (4, 1)], ids=["zero-weight", "zero-divisor", "not-reduced"])
    def test_each_condition_is_needed(self, m, lam):
        ring = Zmod(m)
        assert reducedness_conditions(Context(ring, ring.coeff(lam))) == "conditions-fail"

    def test_characteristic_zero_out_of_scope(self):
        assert reducedness_conditions(Context(INT, INT.coeff(0), ("x",))) == "out-of-scope"

    def test_suite_passes(self):
        reports = run_suites("reducedness")
        assert [r.verdict for r in reports] == [True] * 3


class TestDomainProbe:
    @pytest.mark.parametrize("ring", [INT, RAT])
    def test_no_zero_divisors_found_at_weight_zero(self, ring):
        ctx = Context(ring, ring.zero(), ("x", "y"))
        rng = random.Random(f"domain:{ring}")
        found = 0
        for _ in range(200):
            a = random_element(rng, ctx, max_terms=2, max_word_len=2)
            b = random_element(rng, ctx, max_terms=2, max_word_len=2)
            if a.is_zero() or b.is_zero():
                continue
            if shuffle_product(a, b).is_zero():
                found += 1
        assert found == 0


class TestSuites:
    def test_registry_names(self):
        assert set(SUITES) == {
            "baxter-identity",
            "prop-unit",
            "oracle-equivalence",
            "charp",
            "weight0-nilpotent",
            "complete-zero-divisor",
            "int-lambda2",
            "lemma-power",
            "phi-homomorphism",
            "ideal-quotient",
            "reducedness",
            "nilradical",
        }

    def test_fast_suites_pass(self):
        # every suite but the two slow ones reproduces its reports in the
        # pinned `freebax --json verify all` output, details included
        reports = run_suites([n for n in SUITES if n not in ("lemma-power", "phi-homomorphism")])
        with open(PINNED_REPORT) as f:
            pinned = json.load(f)["report"]
        assert [r.to_obj() for r in reports] == [
            r for r in pinned if not r["claim"].startswith(("lemma-power", "phi-"))]
        assert len(reports) == 41 and all(r.verdict for r in reports)

    @pytest.mark.parametrize("ring, lam", verify.BAXTER_IDENTITY_CONFIGS, ids=str)
    def test_random_pairs_have_no_zero_member(self, ring, lam):
        # a zero member satisfies every probed identity, so it probes nothing
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        pairs = list(verify._random_pairs(random.Random(f"7:{ring}:{lam}"), ctx, 200))
        assert len(pairs) == 200
        assert not any(a.is_zero() or b.is_zero() for a, b in pairs)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suites(["no-such-suite"])
        # "all" does not excuse an unknown name beside it
        with pytest.raises(ValueError, match=r"\['no-such-suite'\]"):
            run_suites(["all", "no-such-suite"])

    def test_a_single_name_may_be_a_string(self):
        reports = run_suites("charp")
        assert reports and reports == run_suites(["charp"])

    def test_report_shape(self):
        rep = charp_zero_divisor_witness(2, 1)
        obj = rep.to_obj()
        assert obj["verdict"] == "pass"
        assert "factor0" in obj["inputs"]
        assert rep.line().startswith("PASS")


class TestFailurePaths:
    """A referee that disagrees makes its check FAIL, naming the first
    mismatch, and the check draws nothing after it."""

    def test_prop_unit(self, monkeypatch):
        real = verify.closed_form_unit_product

        def rigged(ctx, m, n):
            out = real(ctx, m, n)
            return out + one(ctx) if (m, n) in ((2, 3), (4, 1)) else out

        monkeypatch.setattr(verify, "closed_form_unit_product", rigged)
        reports = verify.suite_prop_unit()
        assert [r.verdict for r in reports] == [False] * 4
        assert {r.detail for r in reports} == {"mismatch at (2, 3)"}

    def test_mixable_shuffle_counts(self, monkeypatch):
        table = {(m, n): verify._delannoy(m, n) for m in range(7) for n in range(7)}
        monkeypatch.setattr(verify, "_delannoy", lambda m, n: table[m, n] + ((m, n) in ((3, 2), (5, 5))))
        counts, oracle = verify.suite_oracle_equivalence()
        assert counts.claim == "mixable-shuffle-counts" and not counts.verdict
        assert counts.detail == "size mismatch at (3, 2)"
        assert oracle.verdict

    def test_product_oracle(self, monkeypatch):
        real = verify.shuffle_product_enumerated

        def rigged(a, b):
            ((wa, _),), ((wb, _),) = a.raw_items(), b.raw_items()
            out = real(a, b)
            if (a.ctx.lam.value, len(wa) - 1, len(wb) - 1) in ((1, 2, 3), (2, 0, 0)):
                return out + one(a.ctx)
            return out

        monkeypatch.setattr(verify, "shuffle_product_enumerated", rigged)
        counts, oracle = verify.suite_oracle_equivalence()
        assert counts.verdict
        assert oracle.claim == "product-oracle-equivalence" and not oracle.verdict
        assert oracle.detail == "mismatch at (1, 2, 3)"

    def test_phi_constants(self, monkeypatch):
        real = sq.phi_constants

        def rigged(ctx, bs, length):
            out = real(ctx, bs, length)
            if (ctx.lam.value, len(bs) - 1) in ((1, 4), (3, 10)):
                return out + sq.seq_one(ctx, length)
            return out

        monkeypatch.setattr(sq, "phi_constants", rigged)
        constants, *homomorphism = verify.suite_phi_homomorphism(pairs=2)
        assert constants.claim == "phi-constants-closed-form" and not constants.verdict
        assert constants.detail == "mismatch at (1, 4)"
        assert all(r.verdict for r in homomorphism)

    def test_scalar_membership(self, monkeypatch):
        real = verify.lambda_adic_valuation
        seen = []

        def rigged(a):
            seen.append(a)
            v = real(a)
            if len(seen) in (3, 7):
                return 0 if v >= 1 else 1  # flips membership in (2)
            return v

        monkeypatch.setattr(verify, "lambda_adic_valuation", rigged)
        reports = {r.claim: r for r in verify.suite_ideal_quotient(pairs=20)}
        scalar = reports.pop("scalar-membership-valuation")
        assert not scalar.verdict
        assert scalar.detail == f"failed on {seen[2]}"
        assert len(seen) == 3
        assert all(r.verdict for r in reports.values())

    @staticmethod
    def drawn_pairs(monkeypatch):
        """Record the random pairs verify's checks draw, in order."""
        real, seen = verify._random_pairs, []

        def recording(rng, ctx, n):
            for pair in real(rng, ctx, n):
                seen.append(pair)
                yield pair

        monkeypatch.setattr(verify, "_random_pairs", recording)
        return seen

    @staticmethod
    def reparses(a):
        return evaluate_source(str(a), a.ctx) == a

    def test_lemma_power_names_n_and_x(self, monkeypatch):
        real = verify.factorial
        monkeypatch.setattr(verify, "factorial", lambda n: real(n) + (n == 3))
        real_draw, xs = verify.random_element, []

        def recording(*args, **kwargs):
            xs.append(real_draw(*args, **kwargs))
            return xs[-1]

        monkeypatch.setattr(verify, "random_element", recording)
        reports = verify.lemma_power_suite(trials=3)
        assert [r.verdict for r in reports] == [False, False]
        for report in reports:
            x = [a for a in xs if str(a.ctx.ring) in report.claim][-1]
            assert report.detail == f"factorial-identity failed at n = 3, x = {x}"
            assert self.reparses(x)

    def test_phi_homomorphism_names_the_pair(self, monkeypatch):
        real, calls = sq.p_prime, []

        def rigged(s):
            calls.append(s)
            out = real(s)
            return out + sq.seq_one(s.ctx, len(s.entries)) if len(calls) == 3 else out

        monkeypatch.setattr(sq, "p_prime", rigged)
        pairs = self.drawn_pairs(monkeypatch)
        constants, *homomorphism = verify.suite_phi_homomorphism(pairs=5)
        assert constants.verdict
        assert [r.verdict for r in homomorphism] == [False, True, True]
        a, b = pairs[2]
        assert homomorphism[0].detail == f"failed: operator; a = {a}, b = {b}"
        assert len(pairs) == 3 + 5 + 5  # the failing check draws no further
        assert self.reparses(a) and self.reparses(b)

    def test_quotient_checks_name_the_pair(self, monkeypatch):
        real_product, products = verify.shuffle_product, []
        real_member, members = verify.baxter_ideal_member, []

        def rigged_product(a, b):
            products.append(a)
            out = real_product(a, b)
            return out + one(a.ctx) if len(products) == 3 else out

        def rigged_member(a, spec):
            members.append(a)
            return real_member(a, spec) != (len(members) == 2)

        monkeypatch.setattr(verify, "shuffle_product", rigged_product)
        monkeypatch.setattr(verify, "baxter_ideal_member", rigged_member)
        pairs = self.drawn_pairs(monkeypatch)
        mod, kernel, scalar = verify.suite_ideal_quotient(pairs=5)
        # the third product is the left side of the first pair's check mod 5
        a, b = pairs[0]
        assert not mod.verdict and mod.detail == f"failed product mod 5; a = {a}, b = {b}"
        a, b = pairs[2]
        assert not kernel.verdict and kernel.detail == f"failed kernel; a = {a}, b = {b}"
        assert scalar.verdict
        assert len(pairs) == 1 + 2

    def test_reducedness_names_the_vanishing_power(self, monkeypatch):
        real, bases = verify.shuffle_product, []

        def rigged(powered, a):
            bases.append(a)
            return zero(a.ctx) if len(bases) == 4 else real(powered, a)

        monkeypatch.setattr(verify, "shuffle_product", rigged)
        first, *rest = verify.suite_reducedness()
        # the fourth product is the first element's fifth power
        assert not first.verdict and first.detail == f"({bases[0]})^5 = 0"
        assert bases[:4] == [bases[0]] * 4
        assert all(r.verdict for r in rest)
        assert sum(a.ring == Zmod(5) for a in bases) == 4  # the failing check draws no further
        assert self.reparses(bases[0])

    def test_reducedness_fails_where_the_conditions_fail(self, monkeypatch):
        configs = ((Zmod(4), 0), (Zmod(6), 2), (INT, 1), (Zmod(5), 2))
        monkeypatch.setattr(verify, "REDUCEDNESS_CONFIGS", configs)
        reports = verify.suite_reducedness()
        assert [r.verdict for r in reports] == [False, False, False, True]
        assert [r.detail for r in reports[:3]] == ["reducedness conditions: conditions-fail"] * 2 + [
            "reducedness conditions: out-of-scope"]

    def test_nilradical_names_the_element(self, monkeypatch):
        real, seen = verify.nilradical_member_weight0, []

        def rigged(a):
            seen.append(a)
            return not real(a)

        monkeypatch.setattr(verify, "nilradical_member_weight0", rigged)
        reports = verify.suite_nilradical()
        assert [r.verdict for r in reports] == [False, False]
        assert len(seen) == 2  # each check stops at its first element
        for report, a in zip(reports, seen):
            assert report.detail == f"description and 16th power disagree on {a}"
            assert str(a.ring) in report.claim
