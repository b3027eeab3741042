"""The public surface is what the package itself uses: every name in the
`__all__` of linalg, means, verify, randgen, sweep, matio and cli, and
every public method and property of the classes among them, is read
somewhere in the package's own code, by the CLI or the proof chain. Routes
that only tests use are composed in `conftest.py` from the package's
private primitives. The benchmark's tracer wraps names by module and class,
so those names must stay where it looks for them, read or not."""

import ast
import importlib
import importlib.util
import inspect
from functools import cached_property
from pathlib import Path

import pytest

import opmeans
from opmeans import cli, linalg, matio, means, randgen, sweep, verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def names_read_in_package() -> set[str]:
    """Every Name and Attribute in the package's modules."""
    read = set()
    for path in Path(opmeans.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def public_members(cls) -> list[str]:
    """The public methods and properties a class defines itself."""
    kinds = (property, cached_property, classmethod, staticmethod)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))]


@pytest.mark.parametrize("module", [linalg, means, verify, randgen, sweep, matio, cli], ids=lambda m: m.__name__)
def test_every_public_name_is_read_in_package(module):
    read = names_read_in_package()
    traced = {meth for _, _, meth, _ in load_tracer().METHODS}
    exported = [getattr(module, name) for name in module.__all__]
    members = [m for cls in exported if inspect.isclass(cls) for m in public_members(cls) if m not in traced]
    unread = [name for name in [*module.__all__, *members] if name not in read]
    assert unread == []


def test_traced_names_exist():
    # the tracer wraps each method through its class's __dict__ and each
    # module's functions through its __all__; a missing one is a KeyError
    # or AttributeError in the traced benchmark run
    tracer = load_tracer()
    for short, cls_name, meth, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"opmeans.{short}"), cls_name)
        assert meth in cls.__dict__, (short, cls_name, meth)
    for short in tracer.MODULES:
        assert hasattr(importlib.import_module(f"opmeans.{short}"), "__all__"), short
