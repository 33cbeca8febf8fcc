"""Every public top-level def or class in ``src/spectralforge`` is reached
from the package, the benchmark or the acceptance suite, or is exported.

The files are read with ``ast``, never imported, so the check stays fast.
A name counts as reached when some file names it (as a variable or an
attribute) outside its own definition; the unit tests do not count, since
a name that only its own test calls reaches no user.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectralforge"

# Reached only by the tests that compare the fast path against them.
ORACLES = ("vanishing_by_division",)


def _sources() -> list[Path]:
    return [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "bench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute name used under ``node``."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unreached() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _sources()}
    exported = set().union(*map(_exported, trees.values()))
    # the names each top-level statement of every file uses
    uses = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported or name in ORACLES:
                continue
            if not any(name in names for other, names in uses if other is not node):
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_public_name_is_reached():
    assert unreached() == []
