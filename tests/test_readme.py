"""README.md against the package: the limit table names every public
``*_LIMIT`` constant with its module and value, and the library quick
start runs as written."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PACKAGE = ROOT / "src" / "spectralforge"


def _limit_rows() -> dict[tuple[str, str], str]:
    """(module, name) -> the value cell of each row of the limit table."""
    start = README.index("| Limit | Module | Value |")
    table = README[start:].split("\n\n", 1)[0].splitlines()[2:]
    rows = {}
    for line in table:
        name, module, value = (cell.strip().strip("`") for cell in line.strip("|").split("|")[:3])
        assert (module, name) not in rows, f"{name} appears twice"
        rows[module, name] = value
    return rows


def _defined_limits() -> set[tuple[str, str]]:
    """(module, name) of each public ``*_LIMIT`` assigned at a module's top level."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*_LIMIT", target.id):
                        found.add((path.stem, target.id))
    return found


def _value(cell: str) -> int:
    """A value cell as an integer: ``2^k`` or a decimal with optional commas."""
    power = re.fullmatch(r"2\^(\d+)", cell)
    return 2 ** int(power.group(1)) if power else int(cell.replace(",", ""))


def test_limit_table_equals_the_package_constants():
    rows = _limit_rows()
    assert set(rows) == _defined_limits()
    for (module, name), cell in rows.items():
        assert _value(cell) == getattr(importlib.import_module(f"spectralforge.{module}"), name), name


def test_library_quick_start_runs():
    section = README.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
