"""``python -m repro verify``: run the verification subsystem end to end.

The one acceptance gate.  Default invocation runs three layers, prints
one table, and exits 1 if any row fails:

1. the differential oracle registry (optionally one ``--suite``), each
   oracle with its planted negative control where it has one,
2. race/determinism checks (part of the ``kernels`` suite), and
3. a **detection selftest**: the seeded racy fixture kernel must be
   flagged by the race checker and the seeded perturbed kernel must be
   caught by the variant oracle.  A verifier that stops catching its
   own planted defects fails the run -- green must mean "checked", not
   "didn't look".

``--fixture racy|perturbed`` flips a planted defect into a pretend
production kernel: the run then *fails*, which is the CI negative
control proving the nonzero exit path stays wired.
"""

from __future__ import annotations

__all__ = ["register", "verify"]


def _racy_report(seed: int = 0):
    from repro.verify.fixtures import RacyNodalScatter, make_racy_fields
    from repro.verify.race import RaceChecker

    return RaceChecker(
        "racy-nodal-scatter",
        RacyNodalScatter,
        lambda: make_racy_fields(seed=seed),
    ).check()


def verify(suite: str = "all", fixture: str = "none", seed: int = 0) -> int:
    from repro.perf import format_table
    from repro.verify.oracles import perturbed_divergences, run_oracles

    rows = []
    failures = []

    def record(suite_tag, name, passed, detail):
        rows.append([suite_tag, name, "PASS" if passed else "FAIL", detail])
        if not passed:
            failures.append(f"{suite_tag}/{name}")

    # --fixture: a planted defect pretending to be production code; the
    # run must fail (the CI negative control for the exit path)
    if fixture == "racy":
        report = _racy_report(seed)
        print(report.describe())
        record("fixture", "racy-nodal-scatter", report.passed, f"{len(report.findings)} race finding(s)")
    elif fixture == "perturbed":
        divs = perturbed_divergences()
        for d in divs:
            print(d.describe())
        record("fixture", "perturbed-stokes", not divs, f"{len(divs)} divergence(s) vs baseline")
    else:
        suites = None if suite == "all" else [suite]

        def progress(oracle):
            print(f"  running {oracle.suite}/{oracle.name} ...", flush=True)

        for r in run_oracles(suites, progress=progress):
            record(r.suite, r.name, r.passed, r.detail)
            for d in r.divergences[:4]:
                print(f"    divergence: {d.describe()}")

        # detection selftest: the machinery must still catch planted defects
        if suite in ("all", "kernels"):
            report = _racy_report(seed)
            detected = not report.passed
            record(
                "selftest",
                "racy-fixture-detected",
                detected,
                f"{len(report.findings)} race finding(s), "
                f"{len(report.order_divergences)} order divergence(s) -- must be > 0",
            )
            divs = perturbed_divergences()
            record(
                "selftest",
                "perturbed-variant-detected",
                bool(divs),
                f"{len(divs)} divergence(s) vs baseline -- must be > 0"
                + (f"; max |diff| {divs[0].max_abs_err:.3e}" if divs else ""),
            )

    print()
    print(format_table(
        ["suite", "oracle", "status", "detail"],
        rows,
        title=f"verification report: {len(rows) - len(failures)}/{len(rows)} passed",
    ))
    if failures:
        print(f"FAILED: {', '.join(failures)}")
    print("verify:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def register(sub) -> None:
    from repro.verify.oracles import suite_names

    p = sub.add_parser(
        "verify", help="race checks + differential oracle table", description=__doc__
    )
    p.add_argument("--suite", default="all", choices=["all", *suite_names()], help="oracle suite")
    p.add_argument(
        "--fixture", default="none", choices=["none", "racy", "perturbed"],
        help="treat a planted defect as production",
    )
    p.set_defaults(run=lambda a: verify(suite=a.suite, fixture=a.fixture))
