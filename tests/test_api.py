import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import vframe
from vframe import bounds, cli, decoder, frames, montecarlo, poly

MODULES = (poly, frames, bounds, decoder, montecarlo, cli)

TOLERANCE_NAME = re.compile(r"(^|_)tol(_|$)")


def public_callables():
    """(qualified name, callable) for every public function and public
    class of the package, and every public method of those classes."""
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{mod.__name__}.{name}", obj
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and callable(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_decode_is_the_only_callable_with_a_tolerance_parameter():
    # Every other numerical threshold is a module constant with one owner
    # (see README "Numerical notes"); only decode's acceptance residual
    # is set by callers.
    found = {}
    for qualname, fn in public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        names = [p for p in params if TOLERANCE_NAME.search(p)]
        if names:
            found[qualname] = names
    assert found == {"vframe.decoder.decode": ["tol"]}


# Runs in a fresh interpreter: the bounds, an estimate, an in-process
# sweep and one decode, reporting the scipy modules loaded after them.
SCIPY_PROBE = """
import json, sys
import vframe as vf
from vframe import cli
vf.distortion_lower_bound(vf.BoundInput(6, 12, 2))
frame = vf.make_vandermonde_frame(vf.default_nodes(8), 4)
vf.estimate_distortion(frame, 2, 20, seed=1)
assert cli.main(["sweep", "--n-list", "3", "--m-factors", "2", "--samples", "10",
                 "--seed", "1", "--out", sys.argv[1]]) == 0
outcome = vf.decode(frame, 2.0 * frame.matrix[2])
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps({"loaded": loaded, "support": outcome.rep.support,
                  "status": outcome.status}))
"""


def test_no_vframe_call_loads_scipy(tmp_path):
    # Loading scipy's LAPACK wrappers costs about 28 MB of peak RSS and
    # 0.1 s of start-up; the library needs only numpy, so no call loads it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "sweep.csv")],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["status"] == "ok" and report["support"] == [3]


def test_no_function_keeps_a_cache_across_calls():
    # A memoizing decorator keeps its table for the life of the process.
    caches, found = {"cache", "lru_cache"}, set()
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "vframe").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    owner.update((id(sub), node.name) for sub in ast.walk(dec))
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "functools"
                    for alias in node.names if alias.name in caches}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in caches or \
                    isinstance(node, ast.Name) and node.id in imported:
                found.add(f"{path.stem}.{owner.get(id(node), node.lineno)}")
    assert found == set()


THRESHOLD_ROW = re.compile(r"^\s*\| `(\w+)\.([A-Z_]+)` \| `([^`]+)` \|", re.MULTILINE)


def test_readme_threshold_table_matches_the_code():
    # README "Numerical notes" lists every public float constant of the
    # package with its value; a row per constant, each value as the code has it.
    root = Path(__file__).resolve().parent.parent
    rows = THRESHOLD_ROW.findall((root / "README.md").read_text(encoding="utf-8"))
    modules = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in MODULES}
    for module, name, value in rows:
        assert getattr(modules[module], name) == float(value), f"{module}.{name}"
    # Assigned a float literal at module level; a re-imported name is not counted.
    assigned = {(path.stem, target.id)
                for path in sorted((root / "src" / "vframe").glob("*.py"))
                for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, float)
                for target in node.targets if not target.id.startswith("_")}
    assert sorted((module, name) for module, name, _ in rows) == sorted(assigned)


def test_the_package_does_not_reexport_the_polynomial_helpers():
    # The polynomial layer is the decoder's internals: it is reached as
    # vframe.poly, and its error as vframe.errors.DivideByZeroPoly.
    for name in ("poly_degree", "poly_divmod", "poly_eval", "poly_trim", "DivideByZeroPoly"):
        assert not hasattr(vframe, name)
