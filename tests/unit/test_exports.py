"""Every ``__all__`` entry of every module under ``repro`` resolves.

A deletion leaves stale ``__all__`` entries behind that only ``from m
import *`` trips over; this walks the package so tier-1 catches them.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_the_solver_stack_imports_without_scipy_spatial():
    """Only ``footprint="voronoi"`` builds triangulate; every other
    process (a serve worker, the steady CLI) should not pay the import."""
    code = "import sys, repro.app.antarctica; sys.exit('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize(
    "options, imported", [({}, False), ({"preconditioner": "mdsc"}, True)], ids=["default", "mdsc"]
)
def test_only_an_mdsc_solve_imports_scipy_sparse_linalg(options, imported):
    """MDSC's coarse ``splu`` is the one user of ``scipy.sparse.linalg``
    (10 MB of peak RSS and 0.13 s of set-up): a default solve leaves the
    module out, and an mdsc solve is the control that pulls it in."""
    code = (
        "import sys\n"
        "from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig\n"
        f"velocity = VelocityConfig(**{options!r})\n"
        "AntarcticaTest.build(AntarcticaConfig(600.0, 3, velocity=velocity)).run()\n"
        "sys.exit('scipy.sparse.linalg' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == int(imported)
