"""The benchmark's library calls still match the library.

``bench/run.py`` imports teamtrace modules and calls their functions
directly. A rename, a deletion or a dropped parameter in ``src/`` would
only show when the benchmark runs; this test reads the script's syntax
tree and checks every such name and call against the installed package.
"""
import ast
import importlib
import inspect
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _imported_names(tree: ast.AST) -> dict[str, object]:
    """Every name the script imports from teamtrace, at any depth, bound to
    what it names; one that does not resolve maps to None."""
    names = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "teamtrace"):
            continue
        parent = importlib.import_module(node.module)
        for alias in node.names:
            try:
                obj = getattr(parent, alias.name)
            except AttributeError:
                try:  # a submodule the package does not import itself
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    obj = None
            names[alias.asname or alias.name] = obj
    return names


def _target(node: ast.expr, names: dict[str, object]):
    """(label, object) for ``name`` or ``name.attr`` over an imported name;
    the object is None where the attribute is missing."""
    if isinstance(node, ast.Name) and node.id in names:
        return node.id, names[node.id]
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in names):
        return f"{node.value.id}.{node.attr}", getattr(names[node.value.id], node.attr, None)
    return None


def _tree():
    return ast.parse(BENCH_RUN.read_text(), filename=str(BENCH_RUN))


def test_every_imported_name_and_attribute_exists():
    tree = _tree()
    names = _imported_names(tree)
    missing = sorted(name for name, obj in names.items() if obj is None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (found := _target(node, names)):
            if found[1] is None:
                missing.append(f"line {node.lineno}: {found[0]}")
    assert missing == []


def test_every_library_call_binds_to_its_signature():
    tree = _tree()
    names = _imported_names(tree)
    bad, checked = [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not (found := _target(node.func, names)):
            continue
        label, func = found
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        if func is None or starred or any(k.arg is None for k in node.keywords):
            continue  # a missing name fails the test above; a starred call has no count
        try:
            inspect.signature(func).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as e:
            bad.append(f"line {node.lineno}: {label}: {e}")
        checked += 1
    assert bad == []
    assert checked >= 10  # the walk found the stage calls
