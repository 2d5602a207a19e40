"""Config-layer regression tests.

The load-bearing one: ``AntarcticaConfig.velocity`` must build a fresh
``VelocityConfig`` per instance (``default_factory``), not share one
instance evaluated at import time.  The class-level-default variant
froze ``REPRO_OPERATOR_MODE`` as read when ``repro.app.config`` was
first imported, so ``monkeypatch.setenv`` in tests -- and any other
in-process environment change -- was silently ignored.
"""

import pytest

from repro.app.config import PRECONDITIONERS, AntarcticaConfig, VelocityConfig
from repro.serve.requests import SolveScenario


class TestEnvDefaultsAfterImport:
    def test_operator_mode_env_set_after_import_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPERATOR_MODE", "matrix-free")
        assert AntarcticaConfig().velocity.operator_mode == "matrix-free"
        assert VelocityConfig().operator_mode == "matrix-free"

    def test_operator_mode_env_unset_after_import_is_honored(self, monkeypatch):
        monkeypatch.delenv("REPRO_OPERATOR_MODE", raising=False)
        assert AntarcticaConfig().velocity.operator_mode == "assembled"

    def test_velocity_default_is_not_a_shared_instance(self, monkeypatch):
        monkeypatch.delenv("REPRO_OPERATOR_MODE", raising=False)
        a = AntarcticaConfig()
        monkeypatch.setenv("REPRO_OPERATOR_MODE", "matrix-free")
        b = AntarcticaConfig()
        # a was constructed under the old environment and keeps it; b
        # sees the new one -- impossible with one import-time instance
        assert a.velocity.operator_mode == "assembled"
        assert b.velocity.operator_mode == "matrix-free"

    def test_explicit_constructor_argument_still_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPERATOR_MODE", "matrix-free")
        cfg = AntarcticaConfig(velocity=VelocityConfig(operator_mode="assembled"))
        assert cfg.velocity.operator_mode == "assembled"


class TestPreconditionerTable:
    """Every consumer of a preconditioner name reads ``PRECONDITIONERS``
    (that every row builds under both operator modes is held in
    ``test_matfree.py::test_every_table_row_builds_and_solves``)."""

    def test_names_validate_for_exactly_the_table(self):
        names = list(PRECONDITIONERS)
        assert names == ["vline", "mdsc", "jacobi", "none"]
        for name in names:
            assert VelocityConfig(preconditioner=name).preconditioner == name
            assert SolveScenario("s", preconditioner=name).preconditioner == name
        # both validators reject anything else, naming the valid set
        for reject in (
            lambda: VelocityConfig(preconditioner="bogus"),
            lambda: SolveScenario("s", preconditioner="bogus"),
        ):
            with pytest.raises(ValueError, match="bogus.*" + ".*".join(names)):
                reject()
