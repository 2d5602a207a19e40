"""Every ``__all__`` entry of every module under ``repro`` resolves.

A deletion leaves stale ``__all__`` entries behind that only ``from m
import *`` trips over; this walks the package so tier-1 catches them.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names nothing for {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
