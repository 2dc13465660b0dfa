"""Every exported name resolves, so a deleted function leaves no stale export,
and the library exports only what the library itself runs."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kernelep


def exports():
    """(module, name) for every name in the package's and its modules' __all__."""
    modules = ["kernelep"] + sorted(
        f"kernelep.{m.name}" for m in pkgutil.iter_modules(kernelep.__path__)
    )
    return [
        (modname, name)
        for modname in modules
        for name in getattr(importlib.import_module(modname), "__all__", ())
    ]


def test_every_export_resolves():
    pairs = exports()
    declaring = {modname for modname, _ in pairs}
    assert {"kernelep", "kernelep.kernels", "kernelep.operator", "kernelep.cli"} <= declaring
    stale = [
        f"{modname}.{name}"
        for modname, name in pairs
        if not hasattr(importlib.import_module(modname), name)
    ]
    assert stale == []
    assert len(pairs) == len(set(pairs))


def identifiers(path: Path) -> set[str]:
    """Names a module's code uses: bare names, attributes and imported names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


@pytest.mark.parametrize("modname", ["kernelep.kernels", "kernelep.regress", "kernelep.ep_engine"])
def test_exports_are_used_by_another_module(modname):
    # test-only reference code belongs in tests/helpers.py, not in the package
    package = Path(kernelep.__file__).parent
    own = Path(importlib.import_module(modname).__file__)
    used = set().union(*(identifiers(p) for p in package.glob("*.py") if p != own))
    unused = [
        name for name in importlib.import_module(modname).__all__ if name not in used
    ]
    assert unused == []
