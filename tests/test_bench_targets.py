"""The bench tracer wraps functions by name; each name must still exist,
and each function it times as a leaf must call no other wrapped function.
The bench's Z_72 pin must equal the count tier-1 pins.

``bench/tracer.py`` and ``bench/test_bench.py`` are read as text, never
imported or edited, so these checks stay fast and leave the benchmark
untouched.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
BENCH_TESTS = ROOT / "bench" / "test_bench.py"
PRODUCTFORM_TESTS = ROOT / "tests" / "test_productform.py"


def _assigned(name: str, path: Path = TRACER):
    """The literal value bound to ``name`` at the top of ``path``; a
    ``frozenset({...})`` call is read as its set."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "frozenset":
                value = value.args[0]
            return ast.literal_eval(value)
    raise AssertionError(f"{path.relative_to(ROOT)} defines no {name}")


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


def test_bench_z72_pin_equals_the_tier1_count():
    """bench/test_bench.py::test_z72_vanishing_counts pins the vanishing
    tests of its two Z_72 jobs, and their total; each job's count is
    tests/test_productform.py's Z72_VANISHING_TESTS, so a change that moves
    either count fails in tier-1."""
    count = _assigned("Z72_VANISHING_TESTS", PRODUCTFORM_TESTS)
    tree = ast.parse(BENCH_TESTS.read_text(encoding="utf-8"))
    test = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "test_z72_vanishing_counts")
    pins = {
        ast.unparse(node.left): ast.literal_eval(node.comparators[0])
        for node in ast.walk(test)
        if isinstance(node, ast.Compare) and isinstance(node.comparators[0], (ast.List, ast.Constant))
    }
    total = "result['trace']['cyclotomic.vanishing_sum_test.calls']"
    assert (pins["per_job"], pins[total]) == ([count, count], 2 * count)
