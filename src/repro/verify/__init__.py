"""Correctness tooling: race checker, differential oracles, sanitizer.

Three pillars (see DESIGN.md §11):

* :mod:`repro.verify.race` -- write-set and iteration-order analysis of
  ``parallel_for`` bodies (Kokkos order-independence semantics);
* :mod:`repro.verify.oracles` -- the declarative implementation-vs-
  reference table (``python -m repro verify`` runs it), one module per
  suite of :data:`SUITES` (``repro.verify.oracles.kernels``, ...), their
  problems from :mod:`repro.verify.fixtures`;
* :mod:`repro.verify.sanitizer` -- the opt-in NaN/Inf, cancellation and
  denormal trap with op-level provenance.

Exports resolve lazily (PEP 562): :mod:`repro.autodiff.ops` imports the
sanitizer for its disarmed fast-path guard, and an eager package import
of the oracle/fixture modules from here would cycle back through
``repro.core``.
"""

from __future__ import annotations

#: the oracle suites, in registration order: each is the module
#: ``repro.verify.oracles.<suite>``.  Stated here so that ``repro verify
#: --suite`` lists them without importing any
SUITES = ("kernels", "jacobian", "spmd", "bytes", "matvec", "transient", "serve")

_EXPORTS = {
    # sanitizer
    "NumericalSanitizer": "repro.verify.sanitizer",
    "SanitizerError": "repro.verify.sanitizer",
    "SanitizerEvent": "repro.verify.sanitizer",
    "sanitizer": "repro.verify.sanitizer",
    "sanitizing": "repro.verify.sanitizer",
    # comparison
    "Divergence": "repro.verify.compare",
    "first_divergence": "repro.verify.compare",
    "max_abs_error": "repro.verify.compare",
    # race checker
    "RaceChecker": "repro.verify.race",
    "RaceFinding": "repro.verify.race",
    "RaceReport": "repro.verify.race",
    "check_order_independence": "repro.verify.race",
    "iteration_orders": "repro.verify.race",
    "record_access_sets": "repro.verify.race",
    # oracles
    "Oracle": "repro.verify.oracles",
    "OracleResult": "repro.verify.oracles",
    "ORACLES": "repro.verify.oracles",
    "run_oracles": "repro.verify.oracles",
    "suite_names": "repro.verify.oracles",
    # cli
    "verify": "repro.verify.cli",
}

__all__ = sorted([*_EXPORTS, "SUITES"])


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
