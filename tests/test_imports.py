"""Every name a package module imports is used in that module, and a rule's
private helpers stay with the module that owns the rule."""

import ast
from pathlib import Path

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
