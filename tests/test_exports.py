"""Every exported name resolves, so a deleted function leaves no stale export."""

import importlib
import pkgutil

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
