"""Every name a package module imports is used in that module, a rule's
private helpers stay with the module that owns the rule, only the experiment
path imports dataclasses, the sampler stands apart from the ledger and
certificate modules, every public function is reached from outside its own
module, the lazy package namespace serves exactly __all__, each name as its
module holds it now, and no value class spells the __init__ that its frozen
base generates."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subgeneral

# experiments binds rank_rows without calling it: the benchmark's tracer test
# asserts the binding (perfbench/tests/test_tracer.py:77)
# experiments binds chain_check without calling it, since its chain summary
# runs quang.chain_check_column: the benchmark's tracer wraps the binding
# (perfbench/tracer.py:178)
# quang binds rank_rows without calling it, since its combination reads
# position.greedy_basis: the benchmark's tracer test asserts the binding
# (perfbench/tests/test_tracer.py:76)
ALLOWED = {
    ("experiments", "rank_rows"),
    ("experiments", "chain_check"),
    ("quang", "rank_rows"),
}


def _unused_imports(tree) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    package = Path(subgeneral.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [(path.stem, name) for name in _unused_imports(tree)]
    assert set(unused) == ALLOWED


def test_experiments_imports_no_private_name_of_quang_or_places():
    path = Path(subgeneral.__file__).parent / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        (node.module, a.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("quang", "places")
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == []


def _scoped_imports(tree, modules) -> set:
    """(enclosing function or None, module) for each import of one of modules."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.update((scope, a.name) for a in child.names if a.name in modules)
            elif isinstance(child, ast.ImportFrom) and child.module in modules:
                found.add((scope, child.module))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else scope)

    visit(tree, None)
    return found


def test_only_experiments_imports_dataclasses_or_typing():
    # value classes derive from _frozen.Frozen, so dataclasses (which imports
    # inspect, ast and dis) stays off the start-up of every command but
    # experiment, whose handler imports dataclasses.replace when it runs;
    # annotations say int | None, so no module imports typing
    package = Path(subgeneral.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {
            (path.stem, scope, module)
            for scope, module in _scoped_imports(tree, {"dataclasses", "typing"})
        }
    assert found == {
        ("experiments", None, "dataclasses"),
        ("cli", "_cmd_experiment", "dataclasses"),
    }


def test_the_sampler_imports_no_ledger_or_certificate_module():
    path = Path(subgeneral.__file__).parent / "sampling.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scoped_imports(tree, {"weil"}) == {(None, "weil")}
    assert _scoped_imports(tree, {"experiments", "quang", "position", "seshadri", "cli"}) == set()


def _only_stores_its_arguments(init: ast.FunctionDef) -> bool:
    """Whether every statement of an __init__ stores one parameter unchanged
    as an attribute: object.__setattr__(self, "name", name), or a write of
    it into a dict such as self.__dict__."""
    params = {a.arg for a in init.args.args[1:] + init.args.kwonlyargs}

    def stores(stmt) -> bool:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            return (
                ast.unparse(call.func) == "object.__setattr__"
                and len(call.args) == 3
                and isinstance(call.args[2], ast.Name)
                and call.args[2].id in params
            )
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
            if isinstance(target, ast.Subscript):
                return isinstance(value, ast.Name) and value.id in params
            return ast.unparse(value) == "self.__dict__"
        return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)

    return all(map(stores, init.body))


def test_no_value_class_spells_the_generated_init():
    # _frozen.Frozen generates the __init__ that only stores its arguments;
    # a class keeps its own only where it normalizes or checks them
    package = Path(subgeneral.__file__).parent
    spelled = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "Frozen" in map(ast.unparse, node.bases):
                spelled += [
                    node.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    and _only_stores_its_arguments(item)
                ]
    assert spelled == []
    stored = ast.parse(
        "def __init__(self, a, b=1):\n"
        "    object.__setattr__(self, 'a', a)\n"
        "    d = self.__dict__\n"
        "    d['b'] = b\n"
    ).body[0]
    normalized = ast.parse(
        "def __init__(self, a):\n    object.__setattr__(self, 'a', abs(a))\n"
    ).body[0]
    assert _only_stores_its_arguments(stored)
    assert not _only_stores_its_arguments(normalized)


_SAMPLE_ONLY = """
import sys, subgeneral
x = subgeneral.projective_space(2)
sample = subgeneral.sample_points(x, 0.0, 3.0, 50, 0, (subgeneral.LinearForm((1, 1, 0)),))
assert len(sample.points) == 50
modules = ("sampling", "experiments", "quang", "position", "seshadri")
watched = ["subgeneral." + m for m in modules] + ["dataclasses", "typing"]
print([m for m in watched if m in sys.modules])
"""


def test_sampling_points_loads_no_experiment_module():
    # a process that only samples compiles no ledger, report or certificate
    # code (run under -S: site may import typing)
    src = str(Path(subgeneral.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", _SAMPLE_ONLY],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == [repr(["subgeneral.sampling"])]


# public functions whose only callers are tests: the paper's C_v of a
# combination and dim(J meet X) of a family of hyperplanes
UNREACHED = {"chain_constant", "intersection_dim"}


def _identifiers(path: Path) -> set:
    """Every name a file spells: identifiers, attributes, imported names and
    string constants (the benchmark's tracer names what it wraps by string)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_function_is_named_outside_its_module():
    # by another package module, by the benchmark, or by an acceptance test
    package = Path(subgeneral.__file__).parent
    root = package.parents[1]
    outside = sorted((root / "perfbench").rglob("*.py")) + [root / "tests" / "test_acceptance.py"]
    named = {path: _identifiers(path) for path in sorted(package.glob("*.py")) + outside}
    unreached = set()
    for name in subgeneral.__all__:
        fn = getattr(subgeneral, name)
        if not inspect.isfunction(fn):
            continue
        home = package / (fn.__module__.rsplit(".", 1)[1] + ".py")
        if not any(
            name in names for path, names in named.items()
            if path not in (home, package / "__init__.py")
        ):
            unreached.add(name)
    assert unreached == UNREACHED


def test_the_lazy_namespace_matches_all():
    eager = {
        name for name, value in vars(subgeneral).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(subgeneral._LAZY) | eager == set(subgeneral.__all__)
    for name in subgeneral.__all__:
        value = getattr(subgeneral, name)
        home = "subgeneral." + subgeneral._LAZY[name]
        assert getattr(importlib.import_module(home), name) is value, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home, name
    assert set(subgeneral.__all__) <= set(dir(subgeneral))
    namespace = {}
    exec("from subgeneral import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(subgeneral.__all__)
    with pytest.raises(AttributeError):
        subgeneral.no_such_name


def test_a_package_name_is_the_defining_modules_current_value(monkeypatch):
    # nothing is cached in the package: a wrapper set on the module shows,
    # and once it is taken away the original does again
    original = subgeneral.quang.quang_combine
    monkeypatch.setattr(subgeneral.quang, "quang_combine", len)
    assert subgeneral.quang_combine is len
    monkeypatch.undo()
    assert subgeneral.quang_combine is original
    assert "quang_combine" not in vars(subgeneral)
