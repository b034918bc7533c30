"""Acceptance checks, one per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic: a check passes only when the computed
residual is identically zero (or the compared structures are equal), at
the stated sizes and, where stated, within the runtime budget.
"""
import random
import time

from freebax import (
    INT,
    RAT,
    Context,
    Zmod,
    baxter_P,
    complete_zero_divisor_witness,
    integer_lambda2_witness,
    one,
    unit_word,
)
from freebax.lang import evaluate_source
from freebax.verify import (
    lemma_power_suite,
    random_element,
    suite_baxter_identity,
    suite_charp,
    suite_ideal_quotient,
    suite_nilradical,
    suite_oracle_equivalence,
    suite_phi_homomorphism,
    suite_prop_unit,
    suite_weight0_nilpotent,
)

BAXTER_SOURCE = "P(x) * P(y) - P(x*P(y)) - P(y*P(x)) - lam*P(x*y)"


def record(number: int, ok: bool, label: str):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {number}: {label}"


def test_01_baxter_identity_all_rings():
    start = time.perf_counter()
    reports = suite_baxter_identity(pairs=200)
    elapsed = time.perf_counter() - start
    ok = all(r.verdict for r in reports) and len(reports) == 6 and elapsed < 10.0
    record(1, ok, f"Baxter identity, 200 pairs x 6 configurations ({elapsed:.1f}s)")


def test_02_unit_product_closed_form():
    reports = suite_prop_unit()
    ok = all(r.verdict for r in reports) and len(reports) == 4
    record(2, ok, "closed binomial form = computed product, m,n <= 6, four weights")


def test_03_oracle_equivalence():
    from freebax import enumerate_mixable_shuffles

    reports = suite_oracle_equivalence()
    ok = all(r.verdict for r in reports)
    ok = ok and len(enumerate_mixable_shuffles(2, 2)) == 13
    record(3, ok, "recursion = (sigma, T) enumeration, m,n <= 4; counts match lattice recursion")


def test_04_sequence_morphism():
    reports = suite_phi_homomorphism(pairs=100)
    ok = all(r.verdict for r in reports)
    record(4, ok, "closed form on constants and Baxter homomorphism at length 10")


def test_05_complete_zero_divisor_witness():
    start = time.perf_counter()
    r1 = complete_zero_divisor_witness(Context(RAT, RAT.coeff(1)), 20)
    r2 = complete_zero_divisor_witness(Context(Zmod(5), Zmod(5).coeff(2)), 20)
    elapsed = time.perf_counter() - start
    ok = r1.verdict and r2.verdict and elapsed < 1.0
    record(5, ok, f"unit-weight completion zero divisor at precision 20 ({elapsed:.2f}s)")


def test_06_integer_weight_two_example():
    r = integer_lambda2_witness(20)
    record(6, r.verdict, "integer weight-2 series product vanishes; images alternate (0,2)/(2,0)")


def test_07_charp_zero_divisors():
    start = time.perf_counter()
    reports = suite_charp()
    elapsed = time.perf_counter() - start
    ok = all(r.verdict for r in reports) and len(reports) == 1 + 2 + 4 + 6 and elapsed < 30.0
    record(7, ok, f"char-p product of p shifted factors vanishes, p <= 7, all weights ({elapsed:.1f}s)")


def test_08_weight_zero_nilpotents():
    reports = suite_weight0_nilpotent() + lemma_power_suite()
    # the nilradical description against a^16 = 0, mod 4 and mod 9
    nilradical = suite_nilradical()
    ok = all(r.verdict for r in reports + nilradical) and len(nilradical) == 2
    record(8, ok, "factorial powers, q-th power vanishing, nilradical = direct powers")


def test_09_ideals_and_quotients():
    reports = suite_ideal_quotient(pairs=100)
    ok = all(r.verdict for r in reports)
    record(9, ok, "quotients are Baxter homomorphisms; memberships match kernels and valuation")


def test_10_cli_round_trip_and_determinism():
    contexts = [
        Context(INT, INT.coeff(0), ("x", "y")),
        Context(INT, INT.coeff(1), ("x", "y")),
        Context(INT, INT.coeff(2), ("x", "y")),
        Context(RAT, RAT.coeff(1), ("x", "y")),
        Context(Zmod(9), Zmod(9).coeff(3), ("x", "y")),
        Context(Zmod(5), Zmod(5).coeff(2), ("x", "y")),
    ]
    rng = random.Random(2024)
    ok = True
    for i in range(200):
        ctx = contexts[i % len(contexts)]
        a = random_element(rng, ctx, max_terms=4, max_word_len=3)
        ok = ok and evaluate_source(str(a), ctx) == a

    renders = set()
    for ctx in contexts:
        value = evaluate_source(BAXTER_SOURCE, ctx)
        ok = ok and value.is_zero()
        renders.add(str(value))
    ok = ok and renders == {"0"}

    once = str(evaluate_source("P(U(1)) * T(x,y) + lam*U(2)", contexts[2]))
    again = str(evaluate_source("P(U(1)) * T(x,y) + lam*U(2)", contexts[2]))
    ok = ok and once == again
    record(10, ok, "parse/render round-trip, identity evaluates to 0 everywhere, reruns identical")
