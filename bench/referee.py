"""Referees: judge each operation's result outside the timed span.

A referee reads the library's result objects as plain data (words as
exponent tuples, coefficients as ints or Fractions) and compares them with
what the spec predicts by arithmetic of its own: the binomial closed form
for products of unit words, the closed form of ``phi`` on unit-word
combinations, direct summation for ``T(...)`` sums, and ideal membership
decided word by word.  Where no closed form exists it checks an identity
the result must satisfy (Baxter, homomorphism, commutation with the
quotient maps) or compares with the enumeration oracle.

``check(name, fb, spec, result)`` returns None when the result is right,
or a one-line reason.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import (
    COMPLETION_PHI_LEN,
    PHI_LEN,
    PROBE_CONFIGS,
    geometric_coeffs,
    modulus,
    phi_unit_entries,
    probes_build,
    ring_of,
    ring_value,
    unit_product_coeffs,
)


class Mismatch(Exception):
    pass


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def normal(ring: str, values: dict) -> dict:
    out = {}
    for k, v in values.items():
        v = ring_value(ring, v)
        if v:
            out[k] = v
    return out


def unit_degrees(element) -> dict:
    """Degree -> value of an element supported on pure unit words."""
    out = {}
    for word, c in element.terms:
        expect(all(not m.exps for m in word), f"non-unit word in {element}")
        out[len(word) - 1] = c.value
    return out


def series_degrees(series) -> dict:
    out = {}
    for d, e in series.components:
        comp = unit_degrees(e)
        expect(set(comp) <= {d}, f"component {d} is not homogeneous")
        out.update(comp)
    return out


def bar_scalar_value(bar_element):
    """The value of a constant bar entry (0 for the zero entry)."""
    if not bar_element.terms:
        return 0
    (word, c), = bar_element.terms
    expect(len(word) == 1 and not word[0].exps, f"entry {bar_element} is not a scalar")
    return c.value


def check_unit_phi(ring: str, lam, coeffs, image, length: int, what: str) -> None:
    expect(len(image.entries) == length, f"{what}: {len(image.entries)} entries, not {length}")
    want = [ring_value(ring, v) for v in phi_unit_entries(coeffs, lam, length)]
    got = [ring_value(ring, bar_scalar_value(e)) for e in image.entries]
    expect(got == want, f"{what}: phi entries {got} != closed form {want}")


def ring_lam(ring: str, lam):
    return Fraction(lam) if ring == "rat" else lam


# --- completion ---------------------------------------------------------------

def check_completion(fb, spec, result) -> None:
    kind, ring, lam, n, a, b = spec
    lamv = ring_lam(ring, lam)
    if kind == "annih":
        m = modulus(ring)
        ratio = Fraction(-1, lam) if m is None else (-pow(lam, -1, m)) % m
        b = geometric_coeffs(ratio, n)
    p, px, py, pp = result
    want = normal(ring, unit_product_coeffs(a, b, lamv, n))
    got = normal(ring, series_degrees(p))
    expect(p.precision == n, f"product precision {p.precision} != {n}")
    expect(got == want, f"product {got} != closed form {want}")
    if kind != "units":
        expect(p.is_zero(), "known annihilating pair has a nonzero product")
    else:
        expect(bool(got), "unit-series product with unit constant terms vanished")
    length = min(n + 1, COMPLETION_PHI_LEN)
    check_unit_phi(ring, lamv, a, px, length, "phi(x)")
    check_unit_phi(ring, lamv, b, py, length, "phi(y)")
    coeffs = [want.get(d, 0) for d in range(n + 1)]
    check_unit_phi(ring, lamv, coeffs, pp, length, "phi(x*y)")
    if kind == "pair2":
        xs = [bar_scalar_value(e) for e in px.entries]
        ys = [bar_scalar_value(e) for e in py.entries]
        expect(xs == [0 if k % 2 else 2 for k in range(1, length + 1)], f"phi(x) is {xs}, not (0,2,0,2,...)")
        expect(ys == [2 if k % 2 else 0 for k in range(1, length + 1)], f"phi(y) is {ys}, not (2,0,2,0,...)")


# --- probes -------------------------------------------------------------------

def check_probes(fb, spec, result) -> None:
    ci, xt, _, _, oracle = spec
    xy, residual, pairs, killed, member = result
    ring, lam = PROBE_CONFIGS[ci]
    expect(residual.is_zero(), f"Baxter residual {residual} != 0 (ring {ring}, lambda {lam})")
    for k, (lhs, rhs) in enumerate(pairs):
        expect(lhs == rhs, f"identity {k}: {lhs} != {rhs}")
    want_member = all(any(v == "x" for m in w for v, _ in m) for _, w in xt)
    expect(member == want_member, f"ideal membership {member} != {want_member}")
    expect(killed == want_member, f"quotient kills x: {killed}, membership {want_member}")
    if oracle:
        _, x, y, _ = probes_build(fb, spec)
        expect(xy == fb.shuffle_product_enumerated(x, y), "recursion != enumeration oracle")


# --- sequence -----------------------------------------------------------------

def check_sequence(fb, spec, result) -> None:
    if spec[0] == "const":
        _, lam, bs = spec
        got, closed = result
        check_unit_phi("int", lam, bs, got, PHI_LEN, "phi(combination)")
        check_unit_phi("int", lam, bs, closed, PHI_LEN, "phi_constants")
        return
    p_ab, pa_pb, p_pa, pprime_pa = result
    expect(len(p_ab.entries) == PHI_LEN, f"phi has {len(p_ab.entries)} entries, not {PHI_LEN}")
    expect(p_ab == pa_pb, "phi(a*b) != phi(a)*phi(b)")
    expect(p_pa == pprime_pa, "phi(P a) != P'(phi a)")


# --- expressions --------------------------------------------------------------

DEFAULT_CONTEXT = {"--ring": "int", "--lambda": "1", "--vars": ""}


def global_flags(argv) -> dict:
    flags = dict(DEFAULT_CONTEXT)
    for i, tok in enumerate(argv[:-1]):
        if tok in flags:
            flags[tok] = argv[i + 1]
    return flags


def word_of(obj) -> tuple:
    return tuple(tuple((v, e) for v, e in m) for m in obj)


def parse_value(ring: str, text: str):
    return ring_value(ring, Fraction(text) if "/" in text else int(text))


def json_terms(ring: str, terms) -> dict:
    return {word_of(t["word"]): parse_value(ring, t["coeff"]) for t in terms}


def element_terms(element) -> dict:
    return {tuple(m.exps for m in w): c.value for w, c in element.terms}


def expected_terms(spec_expect) -> dict:
    kind = spec_expect[0]
    if kind == "sum":
        _, ring, terms = spec_expect
        acc: dict = {}
        for c, w in terms:
            acc[w] = acc.get(w, 0) + c
        return normal(ring, acc)
    if kind == "unitprod":
        _, ring, lam, a, b = spec_expect
        coeffs = unit_product_coeffs(a, b, ring_lam(ring, lam), len(a) + len(b))
        return normal(ring, {((),) * (d + 1): v for d, v in coeffs.items()})
    return {}  # "zero"


PHI_LINE = re.compile(r"\[(\d+)\] (?:0|(-?)(\d+\*)?T\(1\))$")


def text_phi_entries(text: str) -> list:
    out = []
    for line in text.splitlines():
        m = PHI_LINE.match(line)
        expect(m is not None, f"unexpected phi line {line!r}")
        if line.endswith(" 0"):
            out.append(0)
        else:
            v = int(m.group(3)[:-1]) if m.group(3) else 1
            out.append(-v if m.group(2) else v)
    return out


def check_expressions(fb, spec, result) -> None:
    argv, spec_expect = spec
    rc, out, err = result
    expect(rc == 0, f"exit code {rc}: {err.strip()}")
    expect(err == "", f"unexpected stderr {err.strip()!r}")
    as_json = "--json" in argv
    payload = json.loads(out) if as_json else None
    flags = global_flags(argv)
    kind = spec_expect[0]
    if kind in ("sum", "unitprod", "zero"):
        want = expected_terms(spec_expect)
        ring = flags["--ring"]
        if as_json:
            got = json_terms(ring, payload["result"]["terms"])
        else:
            # parse(render(a)) == a: the printed text must evaluate back
            ctx = fb.Context(*_ring_lam(fb, flags), tuple(v for v in flags["--vars"].split(",") if v))
            got = normal(ring, element_terms(fb.evaluate_source(out.strip(), ctx)))
        expect(got == want, f"result {got} != expected {want}")
    elif kind == "series_zero":
        n = spec_expect[1]
        if as_json:
            expect(payload["result"]["components"] == [], "series is not zero")
            expect(n is None or payload["result"]["precision"] == n, "wrong precision")
        else:
            m = re.fullmatch(r"0 \+ O\(deg (\d+)\)\n", out)
            expect(m is not None and (n is None or int(m.group(1)) == n + 1), f"output {out!r}")
    elif kind == "geomprod":
        _, lam, r1, r2, n = spec_expect
        want = normal("int", unit_product_coeffs(geometric_coeffs(r1, n), geometric_coeffs(r2, n), lam, n))
        if as_json:
            got = {}
            for comp in payload["result"]["components"]:
                for d, v in json_terms("int", comp["element"]["terms"]).items():
                    got[len(d) - 1] = v
            expect(got == want, f"series {got} != closed form {want}")
        else:
            expect(out.endswith(f" + O(deg {n + 1})\n"), f"output {out!r}")
            ctx = fb.Context(*_ring_lam(fb, flags), ())
            finite = fb.evaluate_source(out.rsplit(" + O(", 1)[0], ctx)
            expect(normal("int", unit_degrees(finite)) == want, "rendered series != closed form")
    elif kind == "phi":
        _, ring, lam, coeffs, length = spec_expect
        want = [ring_value(ring, v) for v in phi_unit_entries(coeffs, lam, length)]
        if as_json:
            got = []
            for entry in payload["result"]["entries"]:
                vals = json_terms(ring, entry["terms"])
                expect(set(vals) <= {((),)}, f"entry {entry} is not a scalar")
                got.append(vals.get(((),), 0))
        else:
            got = [ring_value(ring, v) for v in text_phi_entries(out)]
        expect(got == want, f"phi entries {got} != closed form {want}")
    elif kind == "member":
        got = payload["result"]["member"] if as_json else {"true\n": True, "false\n": False}.get(out)
        expect(got == spec_expect[1], f"membership {got!r} != {spec_expect[1]}")
    elif kind == "enum":
        _, m, n = spec_expect
        want = delannoy(m, n)
        if as_json:
            expect(payload["count"] == len(payload["shuffles"]) == want, "wrong shuffle count")
        else:
            expect(out.splitlines()[-1] == f"count {want}", f"last line {out.splitlines()[-1]!r}")
            expect(len(out.splitlines()) == want + 1, "wrong number of shuffle lines")
    elif kind == "verify":
        if as_json:
            expect(payload["ok"] is True and payload["report"], "verify report not ok")
            expect(all(r["verdict"] == "pass" for r in payload["report"]), "a verify check failed")
        else:
            m = re.fullmatch(r"(\d+)/(\d+) checks passed", out.splitlines()[-1])
            expect(m is not None and m.group(1) == m.group(2) != "0", f"last line {out.splitlines()[-1]!r}")
    else:
        raise ValueError(kind)


def _ring_lam(fb, flags):
    ring = ring_of(fb, flags["--ring"])
    return ring, fb.parse_coeff(ring, flags["--lambda"])


def delannoy(m: int, n: int) -> int:
    if m == 0 or n == 0:
        return 1
    return delannoy(m - 1, n) + delannoy(m, n - 1) + delannoy(m - 1, n - 1)


CHECKS = {
    "completion": check_completion,
    "probes": check_probes,
    "sequence": check_sequence,
    "expressions": check_expressions,
}


def check(name: str, fb, spec, result) -> str | None:
    try:
        CHECKS[name](fb, spec, result)
    except Mismatch as exc:
        return str(exc)
    except Exception as exc:  # a malformed result is a failed check, not a crash
        return f"{type(exc).__name__}: {exc}"
    return None
