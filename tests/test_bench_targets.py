"""The bench tracer wraps functions by name; each name must still exist,
and each function it times as a leaf must call no other wrapped function.

``bench/tracer.py`` is read as text, never imported or edited, so this
check stays fast and leaves the benchmark untouched.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _assigned(name: str):
    """The literal value bound to ``name`` in bench/tracer.py; a
    ``frozenset({...})`` call is read as its set."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "frozenset":
                value = value.args[0]
            return ast.literal_eval(value)
    raise AssertionError(f"bench/tracer.py defines no {name}")


def _targets() -> dict:
    return _assigned("TARGETS")


def _definition(qualname: str) -> ast.FunctionDef:
    """The def of ``module.function`` or ``module.Class.method`` in src/."""
    mod_name, *path = qualname.split(".")
    scope = ast.parse((ROOT / "src" / "spectralforge" / f"{mod_name}.py").read_text(encoding="utf-8"))
    for part in path:
        scope = next(
            node
            for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part
        )
    return scope


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


def test_traced_leaves_call_no_traced_function():
    count_only = _assigned("COUNT_ONLY")
    traced = {
        f"{mod}.{fn}".rsplit(".", 1)[-1]: f"{mod}.{fn}"
        for mod, fns in _targets().items()
        for fn in fns
        if f"{mod}.{fn}" != count_only
    }
    for leaf in sorted(_assigned("LEAVES")):
        called = {
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(_definition(leaf))
            if isinstance(node, ast.Call)
        }
        wrapped = sorted(traced[name] for name in called if name in traced)
        assert not wrapped, f"leaf {leaf} calls traced {wrapped}"
