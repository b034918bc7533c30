"""The contract of the frozen value classes: the methods ``record`` builds
behave as those of ``dataclass(frozen=True)`` did, importing the CLI loads
neither ``dataclasses`` nor ``inspect``, and it compiles ``__init__`` alone."""
import ast
import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import freebax
from freebax import INT, RAT, Context, Monomial, Ring, Zmod, bar, element, make_series, scalar, unit_word
from freebax.lang import LamRef, Lit, Neg, Product, Sum, Tensor, VarRef
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


@pytest.mark.parametrize("value", [LamRef(), VarRef("x"), Lit(3, 2), CTX],
                         ids=["no-field", "one-field", "two-fields", "three-fields"])
def test_hash_is_the_hash_of_the_field_tuple(value):
    assert hash(value) == hash(tuple(getattr(value, n) for n in type(value).__annotations__))


class Unequal:
    """A field value that fails any comparison."""

    def __eq__(self, other):
        raise AssertionError("a field was compared")


def test_a_record_equals_itself_without_comparing_fields():
    r = Neg(Unequal())
    assert r == r and not r != r
    with pytest.raises(AssertionError, match="a field was compared"):
        r == Neg(Unequal())


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


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(freebax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    proc = _run_fresh(IMPORT_GUARD)
    assert proc.returncode == 0, proc.stderr


# Prints each source string exec'd while freebax.cli is imported, with the
# qualified name of the __init__ it defined, if any.  The import system
# execs each module's code object, which is not source.
EXEC_GUARD = """
import argparse, builtins, fractions, itertools, json, math, operator, random, re, sys, warnings
real_exec, sources = builtins.exec, []
def exec(source, *args, **kwargs):
    if isinstance(source, str):
        sources.append((source, args[0] if args else kwargs.get("globals", {})))
    return real_exec(source, *args, **kwargs)
builtins.exec = exec
import freebax.cli
builtins.exec = real_exec
print(json.dumps([[s, getattr(ns.get("__init__"), "__qualname__", "")] for s, ns in sources]))
"""


def _record_classes() -> list[str]:
    """The names of the package's classes decorated by ``record``."""
    package, names = os.path.dirname(freebax.__file__), []
    for path in sorted(os.listdir(package)):
        if path.endswith(".py"):
            with open(os.path.join(package, path), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            names += [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                      and any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)]
    return names


def test_cli_import_compiles_one_init_per_record_class():
    proc = _run_fresh(EXEC_GUARD)
    assert proc.returncode == 0, proc.stderr
    sources = json.loads(proc.stdout)
    classes = _record_classes()
    assert len(classes) >= 20
    assert sorted(init for _, init in sources) == sorted(f"{c}.__init__" for c in classes)
    for source, _ in sources:
        defined = [node.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        assert defined == ["__init__"], source
