"""Differential oracle registry: implementations testify against each other.

Every fast path in this repo exists as a rewrite of a slower reference
-- optimized kernels vs the baseline listing, SFad derivatives vs the
definition of a derivative, fused assembly vs separate evaluation, the
SPMD solve vs the serial one, the rocprof byte formula vs the modeled
traffic, a resumed or faulted run vs the undisturbed one.  An
:class:`Oracle` makes each such pair executable: run both sides, compare
with an explicit tolerance contract, and report *first-divergence
context* (slot, both values, error magnitudes) rather than a bare
boolean.  An oracle with a planted negative control runs it too, and
fails when the control goes undetected.

The table is declarative: each suite of :data:`repro.verify.SUITES` is
the module of that name in this package, whose oracles register
themselves into :data:`ORACLES` with :func:`register` (the module names
the suite), in the order of :data:`~repro.verify.SUITES` and then of
their definition.  A new row goes into its suite's module and takes its
problems from :mod:`repro.verify.fixtures`.  ``python -m repro verify
--suite <tag>`` (or the test suite) executes any slice of it.  Tolerance
contracts, from strictest to loosest:

======================  =========================================
bitwise (rtol=atol=0)   SPMD vs serial, fused vs separate, value
                        parts across scalar types, byte formula,
                        resume vs uninterrupted, chaos vs fault-free
1e-12 relative          kernel variants (reassociated fp sums)
1e-12 relative          complex-step derivatives (exact method)
1e-8 relative           central differences (roundoff-limited;
                        truncation is zero -- the body is
                        quadratic along any direction)
======================  =========================================
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

from repro.verify import SUITES

__all__ = ["Oracle", "OracleResult", "ORACLES", "register", "run_oracles", "suite_names"]


@dataclass(frozen=True)
class Oracle:
    """One executable implementation-vs-reference contract."""

    name: str
    suite: str  # one of repro.verify.SUITES
    description: str
    fn: object  # () -> (list[Divergence], detail_str)


@dataclass
class OracleResult:
    """Outcome of one oracle run."""

    name: str
    suite: str
    passed: bool
    detail: str
    divergences: list = field(default_factory=list)

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] {self.suite}/{self.name}: {self.detail}"]
        lines += [f"    {d.describe()}" for d in self.divergences[:4]]
        return "\n".join(lines)


ORACLES: list[Oracle] = []


def register(name: str, description: str):
    """Decorator: add ``fn`` to :data:`ORACLES` under the suite its module names."""

    def deco(fn):
        suite = fn.__module__.rpartition(".")[2]
        ORACLES.append(Oracle(name=name, suite=suite, description=description, fn=fn))
        return fn

    return deco


def suite_names() -> list[str]:
    return sorted({o.suite for o in ORACLES})


def run_oracles(suites=None, progress=None) -> list[OracleResult]:
    """Execute the registry (optionally restricted to some suites)."""
    results = []
    for oracle in ORACLES:
        if suites and oracle.suite not in suites:
            continue
        if progress:
            progress(oracle)
        try:
            divergences, detail = oracle.fn()
        except Exception as exc:  # an oracle crashing is a failure, not an abort
            results.append(OracleResult(oracle.name, oracle.suite, False, f"raised {exc!r}"))
            continue
        results.append(
            OracleResult(
                name=oracle.name,
                suite=oracle.suite,
                passed=not divergences,
                detail=detail,
                divergences=list(divergences),
            )
        )
    return results


for _suite in SUITES:
    importlib.import_module(f"{__name__}.{_suite}")
