"""Every package module imports at top level, so its import lines are its
whole dependency list and the layering can be read from them; its ``__all__``
names only what it defines, and the package re-exports only such names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robustvar"
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def exported(tree) -> list[str]:
    """The names in a module's ``__all__``; none when it has no ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def defined(tree) -> set[str]:
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_no_imports_inside_functions():
    found = set()
    for module, tree in TREES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{module}.py:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(found) == []


def test_every_exported_name_is_defined_in_its_module():
    stale = [
        f"{module}.{name}"
        for module, tree in TREES.items()
        for name in exported(tree)
        if name not in defined(tree)
    ]
    assert stale == []


def test_package_reexports_only_exported_names():
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in TREES["__init__"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in exported(TREES[node.module])
    ]
    assert unlisted == []
