"""Every name a module exports exists, once."""

import importlib

import pytest


@pytest.mark.parametrize(
    "name", ["hilbert", "model", "dynamics", "protocols", "tomography"]
)
def test_all_names_exist_once(name):
    module = importlib.import_module(f"catsim.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []
