"""The benchmark's counted and traced hooks all resolve in the package.

perfbench/run.py records a hook it cannot find in ``missing_hooks`` and runs
on, so a renamed or removed module binding would silently empty a per-layer
metric.  This test fails instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402


@pytest.mark.parametrize("modname, attr, span", run.COUNTED + run.TRACED)
def test_hook_resolves(modname, attr, span):
    assert callable(getattr(importlib.import_module(modname), attr, None)), span
