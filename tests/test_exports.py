"""Every package's ``__all__`` names something that exists."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_entries_resolve_and_star_import_works(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


#: Constructor parameters of the serving surface, in order.  A new setting
#: has to be added here, so it shows up as a visible test edit.
CONSTRUCTOR_PARAMETERS = {
    "repro.query.QueryPlanner": ("executor", "cache", "policy", "result_cache"),
    "repro.query.FactorCache": ("max_systems", "store"),
    "repro.query.ResultCache": ("max_entries",),
    "repro.serve.MeasureServer": (
        "planner", "max_batch", "max_wait_ms", "policy", "store",
        "register_lineage", "history", "shards",
    ),
    "repro.shard.ShardedPlanner": (
        "shards", "policy", "result_cache", "store", "start_timeout",
    ),
}


@pytest.mark.parametrize("path", sorted(CONSTRUCTOR_PARAMETERS))
def test_constructor_parameters_are_pinned(path):
    module_name, _, name = path.rpartition(".")
    cls = getattr(importlib.import_module(module_name), name)
    assert tuple(inspect.signature(cls).parameters) == CONSTRUCTOR_PARAMETERS[path]
