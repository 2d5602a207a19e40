"""``python -m repro verify``: run the verification subsystem end to end.

Default invocation runs three layers and prints one table:

1. the differential oracle registry (optionally restricted via
   ``--suite kernels|jacobian|spmd|bytes``),
2. race/determinism checks (part of the ``kernels`` suite), and
3. a **detection selftest**: the seeded racy fixture kernel must be
   flagged by the race checker and the seeded perturbed kernel must be
   caught by the variant oracle.  A verifier that stops catching its
   own planted defects fails the run -- green must mean "checked", not
   "didn't look".

``--fixture racy|perturbed`` flips a planted defect into a pretend
production kernel: the run then *fails*, which is the CI negative
control proving the nonzero exit path stays wired.  ``--check`` makes
the exit code strict (nonzero on any failure); without it the run
prints FAIL rows but exits 0, like ``python -m repro chaos``.
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


def verify(suite: str = "all", check: bool = False, fixture: str = "none", seed: int = 0) -> int:
    from repro.perf import format_table
    from repro.verify.oracles import perturbed_divergences, run_oracles, suite_names

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
    elif fixture != "none":
        raise SystemExit(f"unknown fixture {fixture!r}; have: none, racy, perturbed")
    else:
        suites = None if suite == "all" else [suite]
        known = suite_names()
        if suites and suites[0] not in known:
            raise SystemExit(f"unknown suite {suite!r}; have: all, {', '.join(known)}")

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
    ok = not failures
    if failures:
        print(f"FAILED: {', '.join(failures)}")
    print("verify:", "PASS" if ok else "FAIL")
    return 0 if (ok or not check) else 1


def register(sub) -> None:
    p = sub.add_parser(
        "verify", help="race checks + differential oracle table", description=__doc__
    )
    p.add_argument(
        "--suite", default="all", help="oracle suite (all|kernels|jacobian|spmd|bytes|matvec)"
    )
    p.add_argument(
        "--fixture", default="none",
        help="treat a planted defect as production (none|racy|perturbed)",
    )
    p.add_argument("--check", action="store_true", help="exit nonzero on failure (the CI gate)")
    p.set_defaults(run=lambda a: verify(suite=a.suite, check=a.check, fixture=a.fixture))
