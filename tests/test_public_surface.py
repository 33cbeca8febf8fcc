"""Every public top-level def or class in ``src/spectralforge``, and every
public method or property of a public class, is reached from the package,
the benchmark or the acceptance suite, or is exported.

The files are read with ``ast``, never imported, so the check stays fast.
A top-level name counts as reached when some file names it (as a variable
or an attribute) outside its own definition; a method or property, when
some file names it as an attribute outside its own definition.  The unit
tests do not count, since a name that only its own test calls reaches no
user.  The check goes by name alone: a member whose name some other
reached attribute shares passes it (``DigitSet.residues``, say, would pass
through ``ResidueClassSet.residues``).

The exact layer is also imported on its own, to check that it loads
without numpy.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectralforge"

# Reached only by the tests that compare the fast path against them.
ORACLES = ("vanishing_by_division", "TruncatedMeasure.mu_hat", "TruncatedMeasure.mu_hat_rational")


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


def _attributes(node: ast.AST) -> set[str]:
    """Every attribute name used under ``node``."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _public(name: str) -> bool:
    return not name.startswith("_")


def unreached() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _sources()}
    exported = set().union(*map(_exported, trees.values()))
    # the names each top-level statement of every file uses, and the
    # attribute names each statement uses, a class body split into its own
    uses = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    member_uses = [
        (stmt, _attributes(stmt))
        for tree in trees.values()
        for node in tree.body
        for stmt in (node.body if isinstance(node, ast.ClassDef) else [node])
    ]
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            name = node.name
            if name not in exported and name not in ORACLES:
                if not any(name in names for other, names in uses if other is not node):
                    missing.append(f"{path.stem}.{name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef) or not _public(member.name):
                    continue
                if f"{name}.{member.name}" in ORACLES:
                    continue
                if not any(member.name in attrs for other, attrs in member_uses if other is not member):
                    missing.append(f"{path.stem}.{name}.{member.name}")
    return missing


def test_every_public_name_is_reached():
    assert unreached() == []


def test_exact_layer_never_imports_numpy():
    """The package promises an integer-only exact layer: importing its five
    modules in a fresh interpreter leaves numpy unloaded."""
    modules = ("digitsets", "cyclotomic", "hadamard", "productform", "cm_tiling")
    code = "; ".join(
        [f"import spectralforge.{m}" for m in modules] + ["import sys", "print('numpy' in sys.modules)"]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_loads_only_stdlib_numpy_and_the_package():
    """``import spectralforge.cli`` is what the benchmark's ``setup_s``
    times: every top-level module it loads is in the standard library, or
    is numpy or the package itself."""
    code = (
        "import sys; before = set(sys.modules); import spectralforge.cli; "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True, check=True
    )
    loaded = ast.literal_eval(out.stdout)
    assert "spectralforge" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names and m not in ("numpy", "spectralforge")] == []
