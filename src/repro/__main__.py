"""``python -m repro <command>``: one sub-command tree.

Every package registers its own sub-commands, flags and help from its
``cli.py``; this module assembles the tree and prints the paper's
artifacts as :mod:`repro.perf.paper` builds them.  A flag exists on exactly
the commands that read it; any other spelling exits 2.
"""

from __future__ import annotations

import argparse

from repro.observability import cli as observability_cli
from repro.perf import paper
from repro.perf.report import format_table
from repro.serve import cli as serve_cli
from repro.transient import cli as transient_cli
from repro.verify import cli as verify_cli

#: the paper's artifacts: sub-command -> help line
ARTIFACTS = {
    "table2": "LaunchBounds sweep on the MI250X GCD",
    "table3": "time per call and speedups",
    "table4": "e_time / e_DM efficiencies and Phi",
    "fig3": "rooflines (ASCII)",
    "fig5": "time-oriented portability plane (ASCII)",
}


def show(name: str, profiles) -> None:
    """Print one artifact off the eight paper profiles."""
    if name == "fig3":
        for spec in paper.PAPER_GPUS:
            print("\n" + paper.fig3_plot(profiles, spec))
    elif name == "fig5":
        for mode in paper.MODES:
            print("\n" + paper.fig5_plot(profiles, mode))
    else:
        table = paper.table2() if name == "table2" else getattr(paper, name)(profiles)
        print(format_table(table.headers, table.rows, title=table.title))


def solve(args=None) -> int:
    from repro.app import AntarcticaConfig, AntarcticaTest

    test = AntarcticaTest.build(AntarcticaConfig(resolution_km=300.0, num_layers=5))
    sol = test.run(callback=lambda k, x, f, lin: print(f"  newton {k + 1}: |F| = {f:.3e}"))
    passed, ref = test.check(sol)
    print(f"mean |u| = {sol.mean_velocity:.6f} m/yr  regression: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def everything(args=None) -> int:
    profiles = paper.paper_profiles()
    for name in ARTIFACTS:
        show(name, profiles)
        if name in ("table2", "table3"):  # the figures open with their own blank line
            print()
    print()
    return solve()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", metavar="command", required=True)
    for name, help_line in ARTIFACTS.items():
        sub.add_parser(name, help=help_line).set_defaults(
            run=lambda args: show(args.command, paper.paper_profiles()) or 0
        )
    sub.add_parser(
        "solve", help="the Antarctica velocity solve (coarse); exit 1 off its reference"
    ).set_defaults(run=solve)
    observability_cli.register(sub)  # profile perfdiff
    verify_cli.register(sub)
    serve_cli.register(sub)
    transient_cli.register(sub)
    sub.add_parser("all", help="every artifact, then the solve").set_defaults(run=everything)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
