"""Source invariants of the package, checked on its syntax trees.

* No ``assert`` statement: a check that ``python -O`` strips is no check.
* No ``functools.cache`` / ``lru_cache``: caches exist only where a
  measurement justifies them; the one today is per instance, the float
  matrix and spectrum of a ``ContrastMatrix``.
* No call of ``ratmat.g_inverse`` outside ``ratmat`` itself: it takes and
  gives ``Fraction`` matrices at the public edge, while the package
  computes on integer matrices over one denominator.
* No call of the elimination kernel (``ratmat._eliminate``,
  ``_back_substitute``, ``_solve_scaled``) outside ``ratmat``: the other
  layers reach it through ``schur_complement``, ``_g_inverse`` and ``rank``.
* Start-up: ``__init__`` imports no submodule (its exports resolve on first
  use), and ``cli`` imports at module level only the standard library and
  the layers every verb runs (``errors``, ``orthogonality``, ``plan``), so
  a verb loads only the modules it runs.
* One family dispatch: ``cli`` names the private family builders
  (``_potp``, ``_potb2``, ``_potb3``, ``_asym``) in ``_built`` only, so
  ``construct`` and ``catalog`` cannot build a family two ways.
* The benchmark under ``bench/`` reads the package through its exports:
  every ``orthoplan.<name>`` it reads is exported, and every public name of
  ``ratmat`` is called from another module or from ``bench/``, so no public
  name of ``ratmat`` goes unused and none that the benchmark calls goes away.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import orthoplan
from orthoplan import ratmat, seed_plans
from orthoplan.plan import plan_dumps

PACKAGE = Path(orthoplan.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
CACHES = {"cache", "lru_cache"}
EDGE = {"g_inverse"}
KERNEL = {"_eliminate", "_back_substitute", "_solve_scaled"}
PRIVATE = EDGE | KERNEL    # the names of ratmat that no other module calls


def violations(path):
    """(line, what) for every broken invariant in one source file."""
    module = ast.parse(path.read_text(), filename=str(path))
    edge_names = set()     # local names bound to the Fraction edge or the kernel of ratmat
    if path.stem != "ratmat":
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module == "ratmat":
                edge_names |= {a.asname or a.name for a in node.names if a.name in PRIVATE}
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
            if (isinstance(func, ast.Attribute) and func.attr in PRIVATE
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
from .ratmat import _eliminate as elim

@lru_cache(maxsize=None)
def a(m):
    assert m
    return ratmat.g_inverse(m)

@functools.cache
def b(m):
    return gi(m), ratmat.rank(m)

def c(m):
    return ratmat._solve_scaled(m, m), elim(m, 1), ratmat._g_inverse(m)
'''


def test_the_checker_sees_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD)
    assert sorted(what for _, what in violations(path)) == [
        "@cache decorator", "@lru_cache decorator", "assert statement", "elim call", "gi call",
        "ratmat._solve_scaled call", "ratmat.g_inverse call"]


CLI_LAYERS = {".errors", ".orthogonality", ".plan"}
VERB_LAYERS = ("constructions", "gf", "arrays", "optimality", "anova")


def module_level_imports(path):
    """(line, module) for every import that runs when the module is
    imported, relative modules written with their leading dots."""
    todo = list(ast.parse(path.read_text(), filename=str(path)).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "." * node.level + (node.module or "")
        todo.extend(ast.iter_child_nodes(node))


def test_init_imports_no_submodule():
    found = [(line, m) for line, m in module_level_imports(PACKAGE / "__init__.py")
             if m.startswith(".") or m.split(".")[0] == "orthoplan"]
    assert found == []


def test_cli_imports_only_the_stdlib_and_the_shared_layers():
    found = [(line, m) for line, m in module_level_imports(PACKAGE / "cli.py")
             if m not in CLI_LAYERS and m.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_the_import_checks_see_nested_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json\nif True:\n    from . import gf\n"
                    "def f():\n    from .anova import ss_adjusted\n")
    assert sorted(module_level_imports(path)) == [(1, "json"), (3, ".")]


BUILDERS = ("_potp", "_potb2", "_potb3", "_asym")


def builder_scopes(path):
    """{builder: sorted scopes} for the private family builders named in one
    file (by name, attribute or import); a scope is the top-level function
    that names it, or '<module>'."""
    found = {b: set() for b in BUILDERS}
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in found:
                found[name].add(scope)
    return {b: sorted(scopes) for b, scopes in found.items()}


def test_cli_names_the_family_builders_in_one_function():
    assert builder_scopes(PACKAGE / "cli.py") == {b: ["_built"] for b in BUILDERS}


BAD_DISPATCH = '''
from .constructions import _potp
from . import constructions

def one(h, s):
    return _potp(h, s), constructions._potb2(h)

def two(h):
    from .constructions import _potb2 as product
    return product(h)
'''


def test_the_dispatch_check_sees_each_kind_of_reference(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_DISPATCH)
    assert builder_scopes(path) == {"_potp": ["<module>", "one"], "_potb2": ["one", "two"],
                                    "_potb3": [], "_asym": []}


def test_verify_loads_none_of_the_other_layers(tmp_path, src_env):
    plan = tmp_path / "potp_3_4.json"
    plan.write_text(plan_dumps(seed_plans()["potp_3_4"]))
    argv = ["verify", "--check", "pfc", "--plan", str(plan), "--out", str(tmp_path / "out.json")]
    code = ("import json, sys\nfrom orthoplan.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('orthoplan'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env, timeout=120)
    rc, loaded = json.loads(proc.stdout)
    report = json.loads((tmp_path / "out.json").read_text())
    assert rc == 1 and report["check"] == "pfc" and report["pass"] is False
    assert "orthoplan.orthogonality" in loaded
    assert [m for m in loaded if m.split(".")[-1] in VERB_LAYERS] == []


def test_every_export_resolves_to_its_module_object():
    names = {}
    exec("from orthoplan import *", names)
    assert len(set(orthoplan.__all__)) == len(orthoplan.__all__) == 63
    for name in orthoplan.__all__:
        module = importlib.import_module(f"orthoplan.{orthoplan._MODULE_OF[name]}")
        assert getattr(orthoplan, name) is getattr(module, name) is names[name]
    assert set(dir(orthoplan)) >= set(orthoplan.__all__) | {"__version__"}
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        orthoplan.no_such_name


def attribute_reads(path, owner, calls_only=False):
    """The names ``x`` of every ``owner.x`` read in one file (only those
    called, ``owner.x(...)``, when ``calls_only``)."""
    nodes = ast.walk(ast.parse(path.read_text(), filename=str(path)))
    if calls_only:
        nodes = (n.func for n in nodes if isinstance(n, ast.Call))
    return {n.attr for n in nodes if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == owner}


def test_the_benchmark_reads_only_exported_names():
    """A name the traced benchmark pass reads from ``orthoplan`` cannot be
    removed from the exports without this test failing."""
    assert {p.stem for p in BENCH} >= {"run", "traced_op", "workloads"}
    read = set().union(*(attribute_reads(p, "orthoplan") for p in BENCH))
    assert {"g_inverse", "rank", "c_matrix_factor"} <= read
    assert sorted(read - set(orthoplan.__all__)) == []


def test_every_public_name_of_ratmat_has_a_caller():
    """Each name in ``ratmat.__all__`` is called by another module of the
    package (``ratmat.x(...)``) or by the benchmark (``orthoplan.x(...)``)."""
    called = set()
    for path in SOURCES:
        if path.stem != "ratmat":
            called |= attribute_reads(path, "ratmat", calls_only=True)
    for path in BENCH:
        called |= {x for x in attribute_reads(path, "orthoplan", calls_only=True)
                   if orthoplan._MODULE_OF.get(x) == "ratmat"}
    assert sorted(set(ratmat.__all__) - called) == []
