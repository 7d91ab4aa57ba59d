"""Every script under ``examples/`` imports cleanly against the package.

Only the imports and module-level code run; ``main`` is not called (the
scripts run full scenarios).  A renamed or retired name the examples
import fails here instead of on a reader's first run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
