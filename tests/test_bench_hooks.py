"""The benchmark's per-layer tracing patches ratelab by name; every name it
patches must still exist, or a traced run breaks outside this suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves(tracing):
    hooks = tracing._wrappers(tracing.Tracer())
    assert hooks
    for module_name, attr, _ in hooks:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner, attr = getattr(owner, cls_name, None), method
            assert owner is not None, f"{module_name}.{cls_name} is gone"
            assert attr in vars(owner), f"{module_name}.{cls_name}.{attr} is gone"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr} is gone"
