"""The bench tracer wraps functions by name; each name must still exist.

``bench/tracer.py`` is read as text, never imported or edited, so this
check stays fast and leaves the benchmark untouched.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_traced_function_exists():
    targets = _targets()
    assert targets
    for mod_name, names in targets.items():
        module = importlib.import_module(f"spectralforge.{mod_name}")
        for name in names:
            obj = module
            for attr in name.split("."):
                assert hasattr(obj, attr), f"spectralforge.{mod_name}.{name} no longer exists"
                obj = getattr(obj, attr)
            assert callable(obj), f"spectralforge.{mod_name}.{name} is not callable"
