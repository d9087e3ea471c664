"""Source invariants of the package, checked on its syntax trees.

* No ``assert`` statement: a check that ``python -O`` strips is no check.
* No ``functools.cache`` / ``lru_cache``: caches exist only where a
  measurement justifies them, and none does today.
* No call of ``ratmat.solve_consistent``, ``g_inverse``, ``inverse`` or
  ``vector`` outside ``ratmat`` itself: they take and give ``Fraction``
  matrices at the public edge, while the package computes on integer
  matrices over one denominator.
"""

import ast
from pathlib import Path

import pytest

import orthoplan

SOURCES = sorted(Path(orthoplan.__file__).parent.glob("*.py"))
CACHES = {"cache", "lru_cache"}
EDGE = {"solve_consistent", "g_inverse", "inverse", "vector"}


def violations(path):
    """(line, what) for every broken invariant in one source file."""
    module = ast.parse(path.read_text(), filename=str(path))
    edge_names = set()     # local names bound to the Fraction edge of ratmat
    if path.stem != "ratmat":
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module == "ratmat":
                edge_names |= {a.asname or a.name for a in node.names if a.name in EDGE}
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in CACHES:
                    found.append((dec.lineno, f"@{name} decorator"))
        if isinstance(node, ast.Call) and path.stem != "ratmat":
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in EDGE
                    and isinstance(func.value, ast.Name) and func.value.id == "ratmat"):
                found.append((node.lineno, f"ratmat.{func.attr} call"))
            if isinstance(func, ast.Name) and func.id in edge_names:
                found.append((node.lineno, f"{func.id} call"))
    return found


def test_every_module_is_checked():
    assert {p.stem for p in SOURCES} >= {"anova", "ratmat", "orthogonality", "optimality"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_invariants(path):
    assert violations(path) == []


BAD = '''
from functools import lru_cache
import functools
from . import ratmat
from .ratmat import g_inverse as gi

@lru_cache(maxsize=None)
def a(m):
    assert m
    return ratmat.solve_consistent(m, m)

@functools.cache
def b(m):
    return gi(m), ratmat.vector([1]), ratmat.inverse(m), ratmat.rank(m)
'''


def test_the_checker_sees_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD)
    assert sorted(what for _, what in violations(path)) == [
        "@cache decorator", "@lru_cache decorator", "assert statement", "gi call",
        "ratmat.inverse call", "ratmat.solve_consistent call", "ratmat.vector call"]
