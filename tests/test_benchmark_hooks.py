"""The names the benchmark patches from outside still exist.

``perfbench/tracing.py`` wraps module attributes by name and
``perfbench/calibrate.py`` paces ``coordinator.best_response_pass``; a
renamed, inlined or deleted name would break only the traced benchmark run,
so tier-1 checks the lookups here.
"""

import importlib
import importlib.util
import os

import pytest

from conftest import REPO_ROOT


def load_tracing():
    path = os.path.join(REPO_ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [
    entry[:2] for entry in load_tracing().TRACED])
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"fleetdr.{module}")
    assert callable(getattr(target, attr, None)), \
        f"fleetdr.{module}.{attr} is gone"


def test_paced_pass_resolves():
    coordinator = importlib.import_module("fleetdr.coordinator")
    assert callable(getattr(coordinator, "best_response_pass", None))
