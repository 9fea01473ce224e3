"""Every call the benchmark tracer wraps still exists under its traced name.

``perfbench/tracing.py`` patches layer functions and methods by name
(``LAYER_TARGETS``).  A rename in ``src/`` would only surface as a crash of
``perfbench/run.py --trace 1``; this check makes it fail the test suite.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_TARGETS


@pytest.mark.parametrize(
    "module_name,owner",
    [(target[0], target[1]) for target in _layer_targets()],
)
def test_layer_target_resolves(module_name, owner):
    module = importlib.import_module(module_name)
    if "." in owner:
        class_name, method = owner.split(".")
        assert callable(getattr(getattr(module, class_name), method))
    else:
        assert callable(module.__dict__[owner])
