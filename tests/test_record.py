"""The contract of the frozen value classes: the methods ``record`` builds
behave as those of ``dataclass(frozen=True)`` did, and importing the CLI
loads neither ``dataclasses`` nor ``inspect``."""
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import freebax
from freebax import INT, RAT, Context, Monomial, Ring, Zmod, bar, element, make_series, scalar, unit_word
from freebax.lang import LamRef, Lit, Product, Sum, Tensor, VarRef
from freebax.verify import WitnessReport

x = Monomial.of(x=1)
CTX = Context(INT, INT.coeff(2), ("x",))


def test_reprs_are_pinned():
    assert repr(Zmod(9)) == "Ring(kind='mod', modulus=9)"
    assert repr(INT.coeff(3)) == "Coeff(ring=Ring(kind='int', modulus=None), value=3)"
    assert repr(Sum(VarRef("x"), ((False, Lit(1)),))) == (
        "Sum(first=VarRef(name='x'), rest=((False, Lit(num=1, den=1)),))")
    assert repr(x) == "Monomial(exps=(('x', 1),))"
    assert repr(LamRef()) == "LamRef()"


def test_equality_compares_the_class_then_the_fields():
    a, b = VarRef("x"), Lit(1)
    assert Sum(a, ((False, b),)) == Sum(VarRef("x"), ((False, Lit(1, 1)),))
    assert Sum(a, ((False, b),)) != Sum(a, ((True, b),))
    assert Sum(a, ((False, b),)) != Sum(b, ((False, a),))
    # the same fields under another class
    assert Product((a, b)) != Tensor((a, b))
    assert Zmod(9) != Zmod(3) and RAT != INT
    assert Zmod(9) != "mod:9" and Lit(1) != (1, 1)
    assert LamRef() == LamRef()


@pytest.mark.parametrize("make", [
    lambda: Zmod(9),
    lambda: RAT.coeff(3),
    lambda: Sum(VarRef("x"), ((False, Lit(1)),)),
    lambda: LamRef(),
    lambda: Context(INT, INT.coeff(2), ("x",)),
    lambda: element(CTX, {(x, x): 3, (x,): 1}),
    lambda: element(CTX, {(x,): 1, (x, x): 3}),
    lambda: bar(INT, 2, {(x, x): INT.coeff(2)}),
], ids=["ring", "coeff", "ast", "empty", "context", "element", "element-reordered", "bar"])
def test_equal_values_hash_equal(make):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("obj, name", [
    (Zmod(9), "modulus"),
    (INT.coeff(3), "value"),
    (Lit(3), "den"),
    (CTX, "variables"),
    (unit_word(CTX, 1), "_raw"),
    (x, "exps"),
    (Zmod(9), "not_a_field"),
])
def test_fields_are_frozen(obj, name):
    before = repr(obj)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    assert repr(obj) == before


def test_keyword_construction_and_defaults():
    assert Lit(3).den == 1
    assert Lit(num=3, den=2) == Lit(3, 2)
    assert Ring(kind="mod", modulus=9) == Zmod(9)
    assert Ring("int") == INT
    assert Context(INT, INT.coeff(1)).variables == ()
    with pytest.raises(TypeError):
        Lit()
    with pytest.raises(TypeError):
        Lit(1, 2, 3)
    with pytest.raises(TypeError):
        VarRef(title="x")


def test_post_init_still_checks():
    with pytest.raises(ValueError, match="unknown ring kind 'foo'"):
        Ring("foo")
    with pytest.raises(ValueError, match="modulus"):
        Ring("mod", 1)
    with pytest.raises(ValueError, match="distinct"):
        Context(INT, INT.coeff(1), ("x", "x"))
    assert type(RAT.coeff(4).value) is Fraction
    assert Zmod(9).coeff(-1).value == 8


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda v: pickle.loads(pickle.dumps(v)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("make", [
    lambda: Zmod(9),
    lambda: RAT.coeff(3),
    lambda: Sum(VarRef("x"), ((False, Lit(1)),)),
    lambda: CTX,
    lambda: element(CTX, {(x, x): 3, (x,): 1}) + scalar(CTX, 1),
    lambda: make_series(CTX, 3, {1: unit_word(CTX, 1)}),
    lambda: bar(INT, 2, {(x, x): INT.coeff(2)}),
    lambda: WitnessReport("claim", (("k", "v"),), True, "detail"),
], ids=["ring", "coeff", "ast", "context", "element", "series", "bar", "report"])
def test_copies_are_equal(clone, make):
    value = make()
    assert clone(value) == value and repr(clone(value)) == repr(value)


# The standard-library modules freebax.cli imports, directly or through the
# package; importing them first leaves only what freebax itself adds.
IMPORT_GUARD = """
import argparse, fractions, itertools, json, math, operator, random, re, sys, warnings
before = set(sys.modules)
import freebax.cli
added = {"dataclasses", "inspect"} & (set(sys.modules) - before)
sys.exit(f"importing freebax.cli added {sorted(added)}" if added else 0)
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(freebax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
