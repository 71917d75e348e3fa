import inspect
import re

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
