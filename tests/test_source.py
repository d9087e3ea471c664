"""Source invariants of the package, checked on its syntax trees.

* No ``assert`` statement: a check that ``python -O`` strips is no check.
* No ``warnings`` import: a claim that does not hold fails the family's
  own check, and a warning beside that failure only adds a second message.
* No ``functools.cache`` / ``lru_cache``: caches exist only where a
  measurement justifies them; the one today is per instance, the float
  matrix and spectrum of a ``ContrastMatrix``.
* No call of ``ratmat.g_inverse`` outside ``ratmat`` itself: it takes and
  gives ``Fraction`` matrices at the public edge, while the package
  computes on integer matrices over one denominator.
* No call of the elimination kernel (``ratmat._eliminate``,
  ``_back_substitute``, ``_solve_scaled``) outside ``ratmat``: the other
  layers reach it through ``schur_complement``, ``_g_inverse`` and ``rank``.
* No ``.tolist()`` call in ``ratmat``: the exact kernel keeps one matrix
  form, the integer object array, from its input to its result.
* No floating point in ``ratmat`` (no float literal, no ``float`` or
  float dtype name, no ``linalg``): the exact kernel is exact only.
* One contrast layer: ``contrasts`` alone defines the Helmert rows, the
  congruence H num H', the eigenvalue routine and its tolerance, and no
  other module names the Helmert rows or their norms.
* One coupling map: only ``orthogonality`` tests the pair blocks of a
  stacked information matrix for zero, so ``optimality`` never subscripts
  the information matrix ``num``; its ledger reads each factor's pairwise
  orthogonality off ``orthogonality._coupling``.
* One document writer: only ``plan`` calls ``json.dumps``, ``json.dump``
  or ``JSONEncoder``, so every report is written in bounded pieces by
  ``plan._dump`` and no verb holds a whole JSON text.
* Start-up: ``__init__`` imports no submodule (its exports resolve on first
  use), and ``cli`` imports at module level only the standard library and
  the layers every verb runs (``errors``, ``plan``), so a verb loads only
  the modules it runs: ``anova`` loads neither ``orthogonality`` nor
  ``contrasts``.  ``__init__``, ``errors`` and ``plan`` import no numpy at
  module level (``plan.gram`` imports it when called), so ``import
  orthoplan.cli`` loads no numpy and a refusal the CLI decides exits first.
* One route per EstSSQ fact: ``anova`` imports, anywhere in the file, only
  ``errors``, ``plan`` and ``ratmat``, so the experiment decides its
  condition from its own two forms, not from ``orthogonality``.
* One coordinate system for the ledger: ``optimality`` takes none of
  ``_information``, ``_factor_information``, ``_contrast`` or ``_columns``
  from ``orthogonality``, so it reads the contrast C-matrix the report
  prints, not a second level-coordinate copy of the information.
* One family dispatch: ``cli`` names the private family builders
  (``_potp``, ``_potb2``, ``_potb3``, ``_asym``) in ``_built`` only, so
  ``construct`` and ``catalog`` cannot build a family two ways.
* One process entry: ``gc.freeze`` is named only in ``cli._run``, nothing
  names ``os._exit``, and the ``orthoplan`` script of ``pyproject.toml`` is
  the function the ``__main__`` block of ``cli`` calls, so ``main`` stays
  free of process-wide state for in-process callers.
* The benchmark under ``bench/`` reads the package through its exports:
  every ``orthoplan.<name>`` it reads is exported, so none that the
  benchmark calls goes away.
* One public route per quantity: every public function, class and method
  of the package is referenced outside its own definition, by the package,
  ``bench/`` or ``demos/`` (a name only the tests run belongs in
  ``tests/``), and each module's ``__all__`` lists only names the module
  defines.
* Layers meet at public fields: no module reads ``x._name`` for an ``x``
  other than ``self`` or a module the file imports, so no layer hands
  private state of its objects to another.
* No unread state: every field of a package dataclass is read as an
  attribute, ``obj.field``, outside ``__post_init__``, by the package,
  ``bench/`` or ``demos/``.  The match is by attribute name, so a field
  that shares its name with an attribute read elsewhere passes.
* No exception type that nothing tells apart: every exception class the
  package defines is named by an ``except`` clause of the package, so a
  raise site that only needs a message raises a built-in type.
"""

import ast
import builtins
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import dumps

import orthoplan
from orthoplan import seed_plans
from orthoplan.plan import plan_to_json

PACKAGE = Path(orthoplan.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
BENCH = sorted((ROOT / "bench").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CACHES = {"cache", "lru_cache"}
EDGE = {"g_inverse"}
KERNEL = {"_eliminate", "_back_substitute", "_solve_scaled"}
PRIVATE = EDGE | KERNEL    # the names of ratmat that no other module calls


def foreign_exports(module):
    """(line, name) for every name in a module's literal ``__all__`` that the
    module does not define at its top level (an imported name is not
    defined there)."""
    defined, listed = set(), []
    for node in module.body:
        if isinstance(node, DEFINITIONS):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names and isinstance(node.value, (ast.List, ast.Tuple)):
                listed = [(e.lineno, e.value) for e in node.value.elts
                          if isinstance(e, ast.Constant)]
    return [(line, name) for line, name in listed if name not in defined]


def decorator_names(node):
    """(line, name) for each decorator of a definition: ``x`` for ``@x``,
    ``@mod.x`` and ``@x(...)``."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        yield dec.lineno, name


def violations(path):
    """(line, what) for every broken invariant in one source file."""
    module = ast.parse(path.read_text(), filename=str(path))
    edge_names = set()     # local names bound to the Fraction edge or the kernel of ratmat
    if path.stem != "ratmat":
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module == "ratmat":
                edge_names |= {a.asname or a.name for a in node.names if a.name in PRIVATE}
    found = [(line, f"__all__ lists {name}, not defined here")
             for line, name in foreign_exports(module)]
    for node in ast.walk(module):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        if (isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "warnings"):
            found.append((node.lineno, "warnings import"))
        if isinstance(node, DEFINITIONS):
            found.extend((line, f"@{name} decorator")
                         for line, name in decorator_names(node) if name in CACHES)
        if (isinstance(node, ast.Call) and path.stem == "ratmat"
                and isinstance(node.func, ast.Attribute) and node.func.attr == "tolist"):
            found.append((node.lineno, ".tolist() call in the kernel"))
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
import warnings
from warnings import warn
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

__all__ = ["a", "b", "c", "gi", "missing"]
'''


def test_the_checker_sees_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD)
    assert sorted(what for _, what in violations(path)) == [
        "@cache decorator", "@lru_cache decorator", "__all__ lists gi, not defined here",
        "__all__ lists missing, not defined here", "assert statement", "elim call", "gi call",
        "ratmat._solve_scaled call", "ratmat.g_inverse call", "warnings import",
        "warnings import"]
    kernel = tmp_path / "ratmat.py"
    kernel.write_text("def rank(m):\n    return len(_eliminate(m.tolist(), m.shape[1])[1])\n")
    assert violations(kernel) == [(2, ".tolist() call in the kernel")]


def identifier(node):
    """The name a node binds or reads: a name, an attribute or an import alias."""
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None)


def float_code(path):
    """(line, what) for every floating-point construct in one file: a float
    or complex literal, the name ``float`` or a float dtype (``float64``),
    and ``linalg``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = identifier(node)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif name is not None and (name.startswith("float") or name == "linalg"):
            found.append((node.lineno, name))
    return found


HELMERT = {"_helmert", "helmert_norms"}
CONTRAST_LAYER = HELMERT | {"congruence", "checked_eigenvalues", "_EIGEN_TOL"}


def contrast_layer(path):
    """(line, what) for every definition of a ``CONTRAST_LAYER`` name in one
    file, and every reference to the Helmert rows or their norms."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, DEFINITIONS) and node.name in CONTRAST_LAYER:
            found.append((node.lineno, f"defines {node.name}"))
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
              and node.id in CONTRAST_LAYER):
            found.append((node.lineno, f"defines {node.id}"))
        elif identifier(node) in HELMERT:
            found.append((node.lineno, f"names {identifier(node)}"))
    return found


def test_ratmat_holds_no_floating_point_code():
    assert float_code(PACKAGE / "ratmat.py") == []


def test_only_contrasts_knows_the_contrast_basis():
    found = {p.name: contrast_layer(p) for p in SOURCES if p.stem != "contrasts"}
    assert {name: hits for name, hits in found.items() if hits} == {}
    defined = {what.split()[1] for _, what in contrast_layer(PACKAGE / "contrasts.py")
               if what.startswith("defines")}
    assert defined == CONTRAST_LAYER


def information_blocks(path):
    """(line, what) for every subscript of the information matrix ``num``
    in one file."""
    return [(node.lineno, "subscript of num")
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Subscript) and identifier(node.value) == "num"]


def test_only_orthogonality_tests_the_pair_blocks_of_the_information():
    assert information_blocks(PACKAGE / "optimality.py") == []


BAD_LAYERS = '''
import numpy as np
from .contrasts import helmert_norms

_EIGEN_TOL = 1e-9

def _helmert(x):
    return np.linalg.eigh(x), float(x[0]), x.astype(np.float64), 2.5, helmert_norms(3)

def orth_pass(num, own):
    return not num[own, :own.start].any() and (num[own, own.stop:] == 0).all()
'''


def test_the_layer_checks_see_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_LAYERS)
    assert sorted(what for _, what in float_code(path)) == [
        "float", "float64", "linalg", "literal 1e-09", "literal 2.5"]
    assert sorted(what for _, what in contrast_layer(path)) == [
        "defines _EIGEN_TOL", "defines _helmert", "names helmert_norms", "names helmert_norms"]
    assert information_blocks(path) == [(11, "subscript of num"), (11, "subscript of num")]


JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def json_writers(path):
    """(line, what) for every reference to a JSON writer of the standard
    library in one file: ``json.dump``, ``json.dumps`` or ``JSONEncoder``
    read off the ``json`` module (under any alias) or imported from it."""
    module = ast.parse(path.read_text(), filename=str(path))
    aliases = {a.asname or a.name for node in ast.walk(module) if isinstance(node, ast.Import)
               for a in node.names if a.name == "json"}
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("json"):
            found.extend((node.lineno, f"imports {a.name}")
                         for a in node.names if a.name in JSON_WRITERS)
        elif isinstance(node, ast.Attribute) and node.attr in JSON_WRITERS and (
                identifier(node.value) in aliases or node.attr == "JSONEncoder"):
            found.append((node.lineno, f"json.{node.attr}"))
    return found


def test_only_plan_writes_json_text():
    found = {p.name: json_writers(p) for p in SOURCES if p.stem != "plan"}
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert [what for _, what in json_writers(PACKAGE / "plan.py")] == ["json.JSONEncoder"]


BAD_WRITERS = '''
import json
import json as j
from json import dumps, JSONEncoder as Enc
from json.encoder import JSONEncoder

def f(doc, fh):
    json.dump(doc, fh)
    return j.dumps(doc), json.encoder.JSONEncoder(indent=2), json.loads("1")
'''


def test_the_json_writer_check_sees_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_WRITERS)
    assert sorted(json_writers(path)) == [
        (4, "imports JSONEncoder"), (4, "imports dumps"), (5, "imports JSONEncoder"),
        (8, "json.dump"), (9, "json.JSONEncoder"), (9, "json.dumps")]


CLI_LAYERS = {".errors", ".plan"}
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


NUMPY_FREE = ("__init__.py", "errors.py", "plan.py")


def numpy_at_import(path):
    """Lines of the imports of numpy that run when the module is imported."""
    return sorted(line for line, m in module_level_imports(path) if m.split(".")[0] == "numpy")


def test_the_start_up_layers_import_no_numpy():
    found = {name: numpy_at_import(PACKAGE / name) for name in NUMPY_FREE}
    assert found == {name: [] for name in NUMPY_FREE}


def test_the_import_checks_see_nested_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json\nif True:\n    from . import gf\n"
                    "def f():\n    from .anova import ss_adjusted\n")
    assert sorted(module_level_imports(path)) == [(1, "json"), (3, ".")]
    path.write_text("import numpy as np\nfrom numpy.linalg import eigh\n"
                    "try:\n    import numpy\nexcept ImportError:\n    pass\n"
                    "import numpyish\ndef gram(plan):\n    import numpy as np\n")
    assert numpy_at_import(path) == [1, 2, 4]


ANOVA_LAYERS = {"errors", "plan", "ratmat"}


def package_imports(path):
    """(line, module) for every import of a package module anywhere in the
    file, function bodies included: ``from . import x``, ``from .x import y``,
    ``from orthoplan import x`` and ``import orthoplan.x`` each name x."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names if a.name.startswith("orthoplan.")]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "orthoplan":
            names = node.module.split(".")[1:2] or [a.name for a in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names)


def test_anova_imports_only_the_exact_kernel_and_the_plan():
    found = [(line, m) for line, m in package_imports(PACKAGE / "anova.py")
             if m not in ANOVA_LAYERS]
    assert found == []


def test_the_anova_import_check_sees_each_kind(tmp_path):
    path = tmp_path / "anova.py"
    path.write_text("import json\nfrom . import ratmat, orthogonality\n"
                    "from .orthogonality import _information\n"
                    "def f():\n    import orthoplan.orthogonality\n"
                    "    from orthoplan import orthogonality as o\n"
                    "    from orthoplan.plan import gram\n")
    assert sorted(package_imports(path)) == [
        (2, "orthogonality"), (2, "ratmat"), (3, "orthogonality"), (5, "orthogonality"),
        (6, "orthogonality"), (7, "plan")]


LEVEL_ROUTE = {"_information", "_factor_information", "_contrast", "_columns"}


def names_taken(path, module):
    """(line, name) for every name the file takes from the package module
    ``module``, anywhere in the file: ``from .module import name`` (aliased
    too), ``from orthoplan.module import name`` and ``m.name`` for ``m`` a
    name bound to the module by ``from . import module [as m]``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")
            if (node.level and source == [module]) or source == ["orthoplan", module]:
                yield from ((node.lineno, a.name) for a in node.names)
            elif (node.level and not node.module) or source == ["orthoplan"]:
                bound |= {a.asname or a.name for a in node.names if a.name == module}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and identifier(node.value) in bound:
            yield node.lineno, node.attr


def test_optimality_reads_no_level_coordinate_information():
    found = [(line, name) for line, name in names_taken(PACKAGE / "optimality.py", "orthogonality")
             if name in LEVEL_ROUTE]
    assert found == []


def test_the_level_route_check_sees_each_kind(tmp_path):
    path = tmp_path / "optimality.py"
    path.write_text("from .orthogonality import _coupling, _contrast as c\n"
                    "from . import orthogonality as o, ratmat\n"
                    "def f(plan):\n    from orthoplan.orthogonality import _columns\n"
                    "    from orthoplan import orthogonality\n"
                    "    return o._information(plan), orthogonality._factor_information(plan)\n")
    assert sorted(names_taken(path, "orthogonality")) == [
        (1, "_contrast"), (1, "_coupling"), (4, "_columns"), (6, "_factor_information"),
        (6, "_information")]


BUILDERS = ("_potp", "_potb2", "_potb3", "_asym")


def name_scopes(path, names):
    """{name: sorted scopes} for the ``names`` named in one file (by name,
    attribute or import); a scope is the top-level function that names it,
    or '<module>'."""
    found = {b: set() for b in names}
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for node in ast.walk(top):
            name = identifier(node)
            if name in found:
                found[name].add(scope)
    return {b: sorted(scopes) for b, scopes in found.items()}


def test_cli_names_the_family_builders_in_one_function():
    assert name_scopes(PACKAGE / "cli.py", BUILDERS) == {b: ["_built"] for b in BUILDERS}


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
    assert name_scopes(path, BUILDERS) == {"_potp": ["<module>", "one"],
                                           "_potb2": ["one", "two"], "_potb3": [], "_asym": []}


PROCESS_ONLY = ("freeze", "_exit")


def main_block_call(path):
    """The function a module's ``if __name__ == "__main__":`` block passes
    the result of to ``sys.exit``, or None."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, ast.If) and ast.unparse(top.test) == "__name__ == '__main__'":
            body = "\n".join(ast.unparse(stmt) for stmt in top.body)
            match = re.fullmatch(r"sys\.exit\((\w+)\(\)\)", body)
            return match and match[1]
    return None


def script_entry():
    """The function ``pyproject.toml`` names as the ``orthoplan`` script;
    read as text, since ``tomllib`` is newer than the oldest Python supported."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^\[project\.scripts\]\northoplan = "orthoplan\.cli:(\w+)"$', text, re.M)
    return match and match[1]


def test_only_the_process_entry_freezes_the_collector():
    """``gc.freeze`` has one call site, ``cli._run``, which ``main`` never
    reaches, and nothing calls ``os._exit``, which skips stdio flushing."""
    found = {(p.name, name, scope) for p in SOURCES
             for name, scopes in name_scopes(p, PROCESS_ONLY).items() for scope in scopes}
    assert found == {("cli.py", "freeze", "_run")}


def test_the_script_and_the_main_block_share_one_process_entry():
    assert script_entry() == main_block_call(PACKAGE / "cli.py") == "_run"


def test_the_entry_checks_see_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("import gc\nfrom os import _exit\n\ndef main():\n    gc.freeze()\n"
                    "\nif __name__ == '__main__':\n    sys.exit(main())\n")
    assert name_scopes(path, PROCESS_ONLY) == {"freeze": ["main"], "_exit": ["<module>"]}
    assert main_block_call(path) == "main"
    path.write_text("if __name__ == '__main__':\n    main()\n")
    assert main_block_call(path) is None


def test_verify_loads_none_of_the_other_layers(tmp_path, src_env):
    plan = tmp_path / "potp_3_4.json"
    plan.write_text(dumps(plan_to_json(seed_plans()["potp_3_4"])))
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


def test_anova_loads_neither_the_pair_reports_nor_the_contrasts(tmp_path, src_env):
    plan = tmp_path / "potb_2_7.json"
    plan.write_text(dumps(plan_to_json(seed_plans()["potb_2_7"])))
    argv = ["anova", "--plan", str(plan), "--target", "A1", "--adjust", "block",
            "--trials", "2", "--out", str(tmp_path / "out.json")]
    code = ("import json, sys\nfrom orthoplan.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('orthoplan'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env, timeout=120)
    rc, loaded = json.loads(proc.stdout)
    report = json.loads((tmp_path / "out.json").read_text())
    assert rc == 0 and report["biconditional_observed"] is True
    assert "orthoplan.anova" in loaded
    assert [m for m in loaded if m in ("orthoplan.orthogonality", "orthoplan.contrasts")] == []


def test_every_export_resolves_to_its_module_object():
    names = {}
    exec("from orthoplan import *", names)
    assert len(set(orthoplan.__all__)) == len(orthoplan.__all__) == 48
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


def public_definitions(tree):
    """(qualified name, node) for every public top-level function and class
    of a module and every public method of those classes."""
    for top in tree.body:
        if isinstance(top, DEFINITIONS) and not top.name.startswith("_"):
            yield top.name, top
            if isinstance(top, ast.ClassDef):
                yield from ((f"{top.name}.{node.name}", node) for node in top.body
                            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"))


def references(tree):
    """(name, enclosing definitions) for every name, attribute and imported
    name read in a module."""
    todo = [(tree, ())]
    while todo:
        node, inside = todo.pop()
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name is not None:
            yield name, inside
        if isinstance(node, DEFINITIONS):
            inside = (*inside, node)
        todo.extend((child, inside) for child in ast.iter_child_nodes(node))


def private_definitions(tree):
    """(name, node) for every private top-level function and class of a
    module; a dunder such as a module ``__getattr__`` is the interpreter's
    to call."""
    for top in tree.body:
        if (isinstance(top, DEFINITIONS) and top.name.startswith("_")
                and not top.name.endswith("__")):
            yield top.name, top


def unreferenced(defining, referencing, definitions=public_definitions):
    """'module.name' for every definition (by default every public one) in
    the files ``defining`` that no file of ``referencing`` names outside
    that definition itself."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in {*defining, *referencing}}
    seen = {}
    for path in referencing:
        for name, inside in references(trees[path]):
            seen.setdefault(name, []).append(inside)
    return [f"{path.stem}.{qualified}" for path in defining
            for qualified, node in definitions(trees[path])
            if all(node in inside for inside in seen.get(node.name, []))]


def test_every_public_name_has_a_caller():
    """No public function, class or method of the package is kept only for
    the tests: each has a reference in the package, the benchmark or a demo."""
    assert DEMOS and {p.stem for p in BENCH} >= {"traced_op"}
    assert unreferenced(SOURCES, SOURCES + BENCH + DEMOS) == []


def test_every_private_name_has_a_caller():
    """No private top-level function or class of the package is a helper
    that only the tests call: each has a reference in the package, the
    benchmark or a demo."""
    assert unreferenced(SOURCES, SOURCES + BENCH + DEMOS, private_definitions) == []


BAD_CALLERS = {
    "lib": '''
def used():
    return 1

def unused():
    return 2

def recursive(n):
    return recursive(n - 1) if n else 0

def _private():
    return 3

class Kept:
    def read(self):
        return self.read_other()

    def read_other(self):
        return used()

    def __repr__(self):
        return "Kept"

class Lonely:
    pass
''',
    "user": '''
from lib import Kept

def run():
    return Kept().read()
''',
}


def test_the_caller_check_sees_each_kind(tmp_path):
    paths = []
    for stem, text in BAD_CALLERS.items():
        paths.append(tmp_path / f"{stem}.py")
        paths[-1].write_text(text)
    assert unreferenced(paths[:1], paths) == ["lib.unused", "lib.recursive", "lib.Lonely"]
    assert unreferenced(paths[:1], paths[:1]) == [
        "lib.unused", "lib.recursive", "lib.Kept", "lib.Kept.read", "lib.Lonely"]


BAD_PRIVATE_CALLERS = {
    "lib": '''
def _used():
    return 1

def _unused():
    return 2

def _recursive(n):
    return _recursive(n - 1) if n else 0

def _imported():
    return 3

class _Form:
    pass

class _Lonely:
    pass

def __getattr__(name):
    return _Form

def public():
    return _used()

class Kept:
    def _method(self):
        return 4
''',
    "user": '''
from lib import _imported

def run():
    return _imported()

def _local():
    return 5
''',
}


def test_the_private_caller_check_sees_each_kind(tmp_path):
    paths = []
    for stem, text in BAD_PRIVATE_CALLERS.items():
        paths.append(tmp_path / f"{stem}.py")
        paths[-1].write_text(text)
    assert unreferenced(paths, paths, private_definitions) == [
        "lib._unused", "lib._recursive", "lib._Lonely", "user._local"]
    assert unreferenced(paths[:1], paths[:1], private_definitions) == [
        "lib._unused", "lib._recursive", "lib._imported", "lib._Lonely"]


def dataclass_fields(tree):
    """(class name, field name) for every annotated field of each top-level
    ``@dataclass`` class of a module."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and any(n == "dataclass" for _, n in decorator_names(top)):
            yield from ((top.name, node.target.id) for node in top.body
                        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))


def attributes_read(tree):
    """Every name ``x`` read as an attribute, ``obj.x``, outside a
    ``__post_init__``."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        todo.extend(ast.iter_child_nodes(node))


def unread_fields(defining, reading):
    """'module.Class.field' for every dataclass field of the files
    ``defining`` that no file of ``reading`` reads outside ``__post_init__``."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in {*defining, *reading}}
    read = set().union(*(attributes_read(trees[p]) for p in reading))
    return [f"{path.stem}.{cls}.{name}" for path in defining
            for cls, name in dataclass_fields(trees[path]) if name not in read]


def test_every_dataclass_field_is_read():
    """No field is carried that nothing reads: each is read by the package,
    the benchmark or a demo, not only by its own constructor check."""
    assert unread_fields(SOURCES, SOURCES + BENCH + DEMOS) == []


BAD_FIELDS = '''
import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Kept:
    read: int
    checked: int
    written: int
    unread: int

    def __post_init__(self):
        if self.checked < 0:
            raise ValueError


@dataclasses.dataclass
class Other:
    value: int


class Plain:
    note: str


def use(k, o):
    k.written = 0
    return k.read, o.value
'''


def test_the_field_check_sees_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_FIELDS)
    assert unread_fields([path], [path]) == ["bad.Kept.checked", "bad.Kept.written",
                                             "bad.Kept.unread"]


def foreign_private_reads(path):
    """(line, text) for every ``x._name`` read in one file whose ``x`` is
    neither ``self`` nor a name bound to a module by an import of the file;
    dunder names belong to the language, not to a layer."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owners = {"self"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            owners |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level and not node.module:
            owners |= {a.asname or a.name for a in node.names}
    return sorted((n.lineno, ast.unparse(n)) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and n.attr.startswith("_") and not n.attr.endswith("__")
                  and not (isinstance(n.value, ast.Name) and n.value.id in owners))


def test_layers_meet_at_public_fields():
    """No module reads private state off another module's object: what one
    layer hands to the next is a public field or a return value."""
    assert {p.name: foreign_private_reads(p) for p in SOURCES} == {p.name: [] for p in SOURCES}


BAD_PRIVATE_READS = '''
import numpy as np
from . import ratmat as rm
from .plan import _dump


class Report:
    def read(self, rep):
        return self._x, rm._over(1), np._core, _dump, type(rep).__name__, rep._x


def hand_off(rep, other):
    other._y = rep.c._y
    return rep()._z
'''


def test_the_private_read_check_sees_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_PRIVATE_READS)
    assert foreign_private_reads(path) == [(9, "rep._x"), (13, "rep.c._y"), (14, "rep()._z")]


def class_name(node):
    """``x`` for a class written ``x`` or ``mod.x``, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def uncaught_exceptions(paths):
    """'module.Class' for every exception class defined in the files
    ``paths`` (a subclass of a built-in exception, directly or through other
    classes defined there) that no ``except`` clause in those files names."""
    bases, where, caught = {}, {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [class_name(b) for b in node.bases]
                where[node.name] = path.stem
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(class_name(t) for t in types)

    def is_exception(name, seen=()):
        builtin = getattr(builtins, name or "", None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return name in bases and name not in seen and any(
            is_exception(b, (*seen, name)) for b in bases[name])

    return sorted(f"{where[name]}.{name}" for name in bases
                  if name not in caught and any(is_exception(b) for b in bases[name]))


def test_every_exception_class_is_caught():
    """Each exception type of the package is told apart by some handler:
    ``cli.main`` maps ``VerificationFailed`` to exit 1."""
    assert uncaught_exceptions(SOURCES) == []


BAD_EXCEPTIONS = '''
import builtins


class Named(ArithmeticError):
    pass


class Unnamed(ValueError):
    pass


class Deeper(Unnamed):
    pass


class Qualified(builtins.LookupError):
    pass


class Caught(Exception):
    pass


class Plain:
    pass


class Mixin(Plain):
    pass


def run(mod, f):
    try:
        f()
    except (Named, KeyError):
        pass
    except mod.Caught:
        pass
'''


def test_the_exception_check_sees_each_kind(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_EXCEPTIONS)
    assert uncaught_exceptions([path]) == ["bad.Deeper", "bad.Qualified", "bad.Unnamed"]


TESTS = sorted((ROOT / "tests").glob("*.py"))

# The witness of each self-check: a test that makes exactly that check fail,
# with its message.  Keyed by module and message template, each f-string
# field written {}; a template that two sites of one module share (two routes
# to one claim) has one witness for both.
WITNESSES = {
    ("anova", "V'V = C for {} adjusted for {}"): "test_l_that_is_not_v_transposed_is_refused",
    ("arrays", "hadamard({}): H H' = {} I"):
        "test_hadamard_refuses_a_matrix_that_fails_the_identity",
    ("constructions", "{}: incidence pattern at {},{}"):
        "test_a_seed_breaking_the_theorem_fails_the_potp_pattern_check",
    ("constructions", "{}: pairs orthogonal through {},{}"):
        "test_potp_requires_orthogonality_through_the_leading_pair",
    ("constructions", "{}: {} factors in {} blocks"):
        "test_product_requires_the_shape_its_inputs_give",
    ("constructions", "{}: contrast C-matrix = {} I"):
        "test_product_requires_the_contrast_scalar_it_states",
    ("constructions", "asym s={}: s-level pairs orthogonal through block"):
        "test_asym_requires_the_report_it_hands_over",
    ("constructions", "{}: N({},inf) = J"):
        "test_asym_requires_a_flat_incidence_against_the_extended_factor",
    ("constructions", "{}: L({}) = M' + I on even blocks, J - M' on odd ones"):
        "test_asym_requires_the_level_by_block_pattern",
    ("constructions", "{}: L({}) is a BIBD(v={}, b={}, r={}, k={}, lambda={})"):
        "test_failed_construction_check_exits_one_under_any_flags",
    ("gf", "GF({}): every unit has an inverse"): "test_reducible_modulus_is_a_failed_self_check",
    ("gf", "GF({}): squares and non-squares each fill half the units"):
        "test_square_classes_require_two_halves",
    ("orthogonality", "M 1_A = 0 for every factor A"):
        "test_ledger_checks_that_each_c_a_sums_to_zero",
    ("ratmat", "no inconsistent equation"): "test_an_inconsistent_system_is_a_failed_self_check",
    ("ratmat", "M Z = d RHS"): "test_self_checks_survive_python_O",
    ("ratmat", "M G M = M"): "test_a_wrong_g_inverse_is_a_failed_self_check",
}


def message_template(node):
    """A message's text with each f-string field written ``{}``; None for a
    message that is not a string literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def require_sites(path):
    """(line, template) for every ``require(ok, message)`` call in one file."""
    return sorted((node.lineno, message_template(node.args[1]))
                  for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.Call) and identifier(node.func) == "require")


def unwitnessed(paths, witnesses, tests):
    """(file, line, what) for every ``require`` site of the files ``paths``
    that ``witnesses`` does not map, or maps to a test that no file of
    ``tests`` defines."""
    defined = {node.name for p in tests for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    found = []
    for path in paths:
        for line, message in require_sites(path):
            test = witnesses.get((path.stem, message))
            if test is None:
                found.append((path.name, line, f"no witness for {message!r}"))
            elif test not in defined:
                found.append((path.name, line, f"witness {test} is not defined"))
    return found


def test_every_self_check_has_a_witness():
    """Each self-check is seen to fail by a named test, and every entry of
    the map names a site that still exists."""
    sites = {(p.stem, message) for p in SOURCES for _, message in require_sites(p)}
    assert unwitnessed(SOURCES, WITNESSES, TESTS) == []
    assert sorted(set(WITNESSES) - sites) == []


BAD_SITES = '''
from . import errors
from .errors import require


def f(ok, what, a):
    require(ok, "plain claim")
    require(ok, f"{what}: N({a},inf) = J")
    errors.require(ok, f"{what}: {a:>3} listed" " twice")
    require(ok, what)
    require(ok, "unmapped claim")
'''


def test_the_witness_check_sees_each_kind(tmp_path):
    path, tests = tmp_path / "bad.py", tmp_path / "test_bad.py"
    path.write_text(BAD_SITES)
    tests.write_text("def test_plain():\n    pass\n\ndef helper_flat():\n    pass\n"
                     "\nclass TestFlat:\n    def test_flat(self):\n        pass\n")
    assert require_sites(path) == [(7, "plain claim"), (8, "{}: N({},inf) = J"),
                                   (9, "{}: {} listed twice"), (10, None),
                                   (11, "unmapped claim")]
    witnesses = {("bad", "plain claim"): "test_plain", ("bad", "{}: N({},inf) = J"): "test_flat",
                 ("bad", "{}: {} listed twice"): "helper_flat"}
    assert unwitnessed([path], witnesses, [tests]) == [
        ("bad.py", 9, "witness helper_flat is not defined"),
        ("bad.py", 10, "no witness for None"),
        ("bad.py", 11, "no witness for 'unmapped claim'")]
