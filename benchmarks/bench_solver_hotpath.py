"""Solver hot path: Newton steps/sec, phase breakdown, operator modes.

Each Newton step extracts residual and Jacobian from a single SFad
workset sweep and fills a cached sparsity plan (symbolic assembly done
once), so a step pays one DAG evaluation plus a pure numeric scatter.
This bench runs the small synthetic Antarctica and reports:

- Newton steps per second (end-to-end ``StokesVelocityProblem.solve``),
- the per-phase wall-time split (evaluate / scatter / preconditioner /
  gmres) from ``VelocitySolution.diagnostics["phase_seconds"]``,
- the evaluator-DAG sweep counts per mode, which pin the fusion
  invariant: one jacobian sweep per accepted step, one residual sweep
  per line-search trial and no initial residual-only sweep.

Wall time comes from the observability span tracer rather than an ad-hoc
``perf_counter`` pair: the solve runs inside an ``obs.tracing()``
session, the end-to-end number is the ``bench.solve`` span, and the
recorded span aggregate lands in the JSON artifact.

A second section runs the two ``operator_mode`` settings of the
Newton--Krylov hot path: ``assembled`` (CSR fill + SpMV matvecs) and
``matrix-free`` (element-block apply), same MGS orthogonalization.
Both run with the weak Jacobi preconditioner, so the Krylov spaces are
deep and the vector streams dominate; the modeled HBM bytes come from
the ``gmres.{matvec,stream}.bytes.*`` counters.  Neither mode is
asserted to move fewer: the element apply itself streams slightly more
than the SpMV on these meshes (DESIGN.md section 13).

A third section repeats both modes with the two-level ``mdsc``
preconditioner, so the gate also sees a production-strength solve:
GMRES iterations, matvecs and the modeled V-cycle bytes per solve.  A line smoother
pushed back past its stability limit shows here as iteration growth.
It also counts the symbolic halves of the MDSC set-up a build + solve
constructs (one ``ColumnCollapseMap`` per problem, gated) and times the
numeric set-up on the converged Jacobian (median of 7, advisory).

A fourth section runs the library ``antarctica-retreat`` scenario (12
coupled steps at the same 400 km / 4-layer size) and counts its Newton
steps and GMRES iterations: the transient solves stop on a target and
are the inexact ones (Eisenstat-Walker forcing), so a rule change that
buys iterations with steps, or gives both back, moves a gated leaf.

Two fixed costs every small solve shares are recorded with the default
solve: the symbolic ``AssemblyPlan`` build (``plan_build_s``, median of
7, advisory) and the bytes of ``(rows, num_dofs)`` Krylov storage
``gmres.py`` asks ``np.zeros`` for (``gmres_workspace_bytes_zeroed``,
deterministic: the basis is allocated uninitialised, so 0; it was
``(2 restart + 1) * 8 n`` per call).  So is one evaluator-DAG sweep per
mode at the converged velocity (``sweep_ms``, median of 7, advisory):
the layer the closed-form strain-rate and stress tangents cut.  And so
is the geometry a transient step rebuilds (``geometry_ms``, median of 7,
advisory): ``basis`` is one ``compute_basis_data`` of the 3-D mesh,
``refresh`` one whole ``refresh_geometry``.  And so is what the in-process
SPMD emulation adds to the same mesh at ``nparts=4`` (``spmd``, median of
7, advisory): ``build_ms`` is the ``AntarcticaTest.build`` difference,
``sweep_overhead_ms`` the difference of one ``residual_and_jacobian``
(rank sweeps plus the distributed scatter against one sweep and the
serial fill).  And so is the memory a solve holds (``memory``,
``tracemalloc`` bytes per dof, deterministic and gated):
``build_retained_bytes_per_dof`` is what ``AntarcticaTest.build`` keeps,
``solve_peak_bytes_per_dof`` the traced peak of the default solve with
that problem included.

The one artifact is the normalized perf-trajectory ``BENCH_solver.json``
at the repo root, which ``tools/check_bench.py`` diffs against the
committed baseline in CI (deterministic counters are hard-gated, wall
seconds are advisory).  Run standalone for a quick smoke (well under a
minute)::

    PYTHONPATH=src python benchmarks/bench_solver_hotpath.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

from repro import observability as obs
from repro.app.antarctica import AntarcticaTest
from repro.app.config import AntarcticaConfig, VelocityConfig
from repro.app.velocity_solver import QUADRATURE_ORDER
from repro.fem.assembly import AssemblyPlan
from repro.fem.discretization import compute_basis_data
from repro.fem.sparse import ColumnCollapseMap
from repro.observability.attribution import span_bytes
from repro.perf.report import format_table
from repro.transient import TransientEngine, get_scenario

#: small enough that every solve finishes in seconds, large enough that
#: the assembly/solve phases dominate interpreter overhead
SMOKE_CONFIG = AntarcticaConfig(
    resolution_km=400.0,
    num_layers=4,
    velocity=VelocityConfig(),
)

PHASES = ("evaluate", "scatter", "preconditioner", "gmres")


class _ZeroCountingNumpy:
    """``numpy`` as ``gmres.py`` sees it, counting the bytes of
    ``(rows, num_dofs)`` arrays it asks ``np.zeros`` for."""

    def __init__(self, num_dofs: int):
        self.num_dofs, self.bytes_zeroed = num_dofs, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, *args, **kwargs):
        out = np.zeros(shape, *args, **kwargs)
        if out.ndim == 2 and out.shape[1] == self.num_dofs:
            self.bytes_zeroed += out.nbytes
        return out


def run_hotpath(config: AntarcticaConfig = SMOKE_CONFIG) -> dict:
    """Solve the configured Antarctica; report rates, phases and sweeps."""
    # warmup: first-touch BLAS/ufunc initialization otherwise lands in
    # the timed solve and skews the phase split
    AntarcticaTest.build(
        replace(config, resolution_km=2.0 * config.resolution_km, num_layers=2)
    ).run()
    test = AntarcticaTest.build(config)
    obs.get_metrics().reset()  # this solve's snapshot, not cumulative
    counting_np = _ZeroCountingNumpy(test.problem.dofmap.num_dofs)
    with obs.tracing() as tracer, mock.patch.object(
        sys.modules["repro.solvers.gmres"], "np", counting_np
    ):
        with tracer.span("bench.solve"):
            sol = test.run()
    plan_walls = []
    for _ in range(7):
        t0 = time.perf_counter()
        AssemblyPlan(test.problem.dofmap, test.problem.bc_dofs)
        plan_walls.append(time.perf_counter() - t0)
    sweep_walls = {"jacobian": [], "residual": []}
    for _ in range(7):
        for mode, walls in sweep_walls.items():
            t0 = time.perf_counter()
            test.problem._sweep_blocks(sol.u, mode)
            walls.append(time.perf_counter() - t0)
    # re-extruding to the mesh's own thickness and surface rebuilds the
    # same coordinates, so the problem is bitwise what it was
    mesh, order = test.mesh, QUADRATURE_ORDER
    geometry_walls = {"basis": [], "refresh": []}
    for _ in range(7):
        t0 = time.perf_counter()
        compute_basis_data(mesh.coords, mesh.elems, mesh.elem_type, order)
        t1 = time.perf_counter()
        test.problem.refresh_geometry(mesh.thickness2d, mesh.surface2d)
        geometry_walls["basis"].append(t1 - t0)
        geometry_walls["refresh"].append(time.perf_counter() - t1)
    d = sol.diagnostics
    return {
        "plan_build_s": statistics.median(plan_walls),
        "sweep_ms": {mode: 1e3 * statistics.median(w) for mode, w in sweep_walls.items()},
        "geometry_ms": {k: 1e3 * statistics.median(w) for k, w in geometry_walls.items()},
        "spmd_ms": run_spmd_overhead(config, sol.u),
        "memory": run_memory(config),
        "gmres_workspace_bytes_zeroed": counting_np.bytes_zeroed,
        "solve_seconds": d["solve_seconds"],
        "newton_steps": sol.newton.iterations,
        "newton_steps_per_s": d["newton_steps_per_s"],
        "phase_seconds": d["phase_seconds"],
        "eval_sweeps": d["eval_sweeps"],
        "line_search_trials": sol.newton.num_residual_evals,
        # per-span aggregate (count + inclusive + self seconds): the
        # trajectory artifact's "spans" section, which perfdiff consumes
        # when the CI perf-gate trips
        "span_aggregate": {
            name: {
                "count": agg["count"],
                "total_s": agg["total_s"],
                "self_s": agg["self_s"],
            }
            for name, agg in tracer.aggregate().items()
        },
    }


def run_memory(config: AntarcticaConfig = SMOKE_CONFIG) -> dict:
    """Traced bytes per dof (``tracemalloc``, deterministic): what a built
    problem retains, and the peak of its default solve, problem included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        test = AntarcticaTest.build(config)
        retained = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        test.run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    num_dofs = test.problem.dofmap.num_dofs
    return {
        "build_retained_bytes_per_dof": retained / num_dofs,
        "solve_peak_bytes_per_dof": peak / num_dofs,
    }


def run_spmd_overhead(config: AntarcticaConfig, u: np.ndarray, nparts: int = 4) -> dict:
    """What ``nparts`` simulated ranks add to a build and to one fused
    residual + Jacobian evaluation: medians of 7, serial and SPMD
    alternating so drift hits both sides alike."""
    spmd_cfg = replace(config, velocity=replace(config.velocity, nparts=nparts))
    walls = {"build": ([], []), "sweep": ([], [])}
    for _ in range(7):
        for side, cfg in enumerate((config, spmd_cfg)):
            t0 = time.perf_counter()
            problem = AntarcticaTest.build(cfg).problem
            t1 = time.perf_counter()
            problem.residual_and_jacobian(u)
            walls["build"][side].append(t1 - t0)
            walls["sweep"][side].append(time.perf_counter() - t1)
    med = {k: [statistics.median(w) for w in sides] for k, sides in walls.items()}
    return {
        "build_ms": 1e3 * (med["build"][1] - med["build"][0]),
        "sweep_overhead_ms": 1e3 * (med["sweep"][1] - med["sweep"][0]),
    }


def run_operator_modes(
    config: AntarcticaConfig = SMOKE_CONFIG, preconditioner: str = "jacobi"
) -> dict:
    """Solve with assembled vs matrix-free operators; report modeled bytes.

    The default Jacobi preconditioner is deliberately weak: deep Krylov
    cycles put weight on the orthogonalization streams, which the
    production solve barely exercises.  ``preconditioner="mdsc"`` is
    the two-level solve, whose V-cycles carry their own modeled bytes.
    """
    out = {}
    for mode in ("assembled", "matrix-free"):
        cfg = replace(
            config,
            velocity=replace(
                config.velocity, operator_mode=mode, preconditioner=preconditioner
            ),
        )
        maps_built = []
        init = ColumnCollapseMap.__init__

        def counting_init(self, *args, **kwargs):
            maps_built.append(1)
            init(self, *args, **kwargs)

        with mock.patch.object(ColumnCollapseMap, "__init__", counting_init):
            test = AntarcticaTest.build(cfg)
            obs.get_metrics().reset()
            with obs.tracing() as tracer:
                with tracer.span("bench.solve", variant=mode) as sp:
                    sol = test.run()
        J = test.problem.jacobian(sol.u)
        setup_walls = []
        for _ in range(7):
            t0 = time.perf_counter()
            test.problem._build_preconditioner(J)
            setup_walls.append(time.perf_counter() - t0)
        d = sol.diagnostics
        counters = d["observability"]["metrics"]["counters"]
        gmres_iters = sum(sol.newton.linear_iterations)
        matvec_bytes = counters.get(f"gmres.matvec.bytes.{mode}", 0.0)
        stream_bytes = counters.get(f"gmres.stream.bytes.{mode}", 0.0)
        out[mode] = {
            "wall_seconds": sp.dur_s,
            "solve_seconds": d["solve_seconds"],
            "newton_steps": sol.newton.iterations,
            "gmres_iterations": gmres_iters,
            "gmres_matvecs": counters.get("gmres.matvecs", 0.0),
            "matvec_bytes": matvec_bytes,
            "stream_bytes": stream_bytes,
            "bytes_per_iteration": (matvec_bytes + stream_bytes) / max(1, gmres_iters),
            "vcycle_bytes": sum(
                span_bytes(s) for s in tracer.spans if s.name == "mdsc.vcycle"
            ),
            "mean_velocity": sol.mean_velocity,
            "symbolic_builds": len(maps_built),
            "setup_seconds": statistics.median(setup_walls),
        }
    return out


def run_transient_retreat() -> dict:
    """Newton steps and GMRES iterations of the library retreat run,
    cold step included; exact counts (``check_bench.py --rtol 0``)."""
    engine = TransientEngine(get_scenario("antarctica-retreat"))
    obs.get_metrics().reset()
    result = engine.run()
    counters = obs.get_metrics().snapshot()["counters"]
    return {
        "retreat_newton_steps": sum(result.newton_iterations),
        "retreat_gmres_iterations": counters["gmres.iterations"],
    }


MODE_HEADERS = [
    "Mode",
    "Solve [s]",
    "GMRES its",
    "Matvecs",
    "Matvec bytes",
    "Stream bytes",
    "Bytes/iter",
]


def _mode_rows(modes: dict) -> list[list]:
    return [
        [
            mode,
            modes[mode]["solve_seconds"],
            modes[mode]["gmres_iterations"],
            modes[mode]["gmres_matvecs"],
            modes[mode]["matvec_bytes"],
            modes[mode]["stream_bytes"],
            modes[mode]["bytes_per_iteration"],
        ]
        for mode in ("assembled", "matrix-free")
    ]


def _check_mode_report(modes: dict) -> None:
    """The acceptance assertions shared by pytest and standalone runs."""
    a, m = modes["assembled"], modes["matrix-free"]
    # both modes converge to the same physics (goldens tolerance)
    assert abs(m["mean_velocity"] - a["mean_velocity"]) <= 1.0e-5 * abs(
        a["mean_velocity"]
    )
    assert a["matvec_bytes"] > 0.0 and m["matvec_bytes"] > 0.0


def _check_mdsc_report(mdsc_modes: dict) -> None:
    # the set-up's symbolic half is built once per problem, whatever the
    # number of Newton steps
    assert all(m["symbolic_builds"] == 1 for m in mdsc_modes.values())


#: schema of the normalized CI perf-trajectory artifact; bump when the
#: layout changes so tools/check_bench.py refuses to diff across schemas
#: (2: added the "spans" per-span time aggregate for perfdiff; 3: the
#: fused/unfused nesting and the fused_*/unfused_* advisory leaves went
#: with the unfused solve path; 4: the "mdsc" block -- until then every
#: gated GMRES leaf came from the Jacobi rung; 5: bytes_per_iteration_ratio
#: went with the fused orthogonalization it measured)
BENCH_SOLVER_SCHEMA = 5


def solver_trajectory(report: dict, modes: dict, mdsc_modes: dict, transient: dict) -> dict:
    """The normalized ``BENCH_solver.json`` payload.

    Two signal classes, with the gate contract encoded in the layout
    (see DESIGN.md section 14): everything under ``"deterministic"`` is
    a reproducible counter (iterations, modeled bytes, sweep counts --
    lower is better) that ``tools/check_bench.py`` hard-fails on;
    everything under ``"advisory"`` is wall-clock (machine-dependent)
    and only ever warns.  The ``"spans"`` section carries the default
    solve's per-span time aggregate -- ignored by the gate's leaf diff,
    but ``python -m repro perfdiff`` reads it to attribute a tripped
    gate to specific solver phases.
    """
    det = {
        "newton": {
            "newton_steps": report["newton_steps"],
            "eval_sweeps_residual": report["eval_sweeps"]["residual"],
            "eval_sweeps_jacobian": report["eval_sweeps"]["jacobian"],
        },
        "gmres": {},
        "mdsc": {},
        "transient": transient,
        "gmres_workspace_bytes_zeroed": report["gmres_workspace_bytes_zeroed"],
        "memory": report["memory"],
    }
    for mode in ("assembled", "matrix-free"):
        m = modes[mode]
        det["gmres"][mode] = {
            "gmres_iterations": m["gmres_iterations"],
            "gmres_matvecs": m["gmres_matvecs"],
            "matvec_bytes": m["matvec_bytes"],
            "stream_bytes": m["stream_bytes"],
            "bytes_per_iteration": m["bytes_per_iteration"],
        }
        p = mdsc_modes[mode]
        det["mdsc"][mode] = {
            "gmres_iterations": p["gmres_iterations"],
            "gmres_matvecs": p["gmres_matvecs"],
            "vcycle_bytes": p["vcycle_bytes"],
            "symbolic_builds": p["symbolic_builds"],
        }
    advisory = {
        "solve_seconds": report["solve_seconds"],
        "plan_build_s": report["plan_build_s"],
        "sweep_ms": report["sweep_ms"],
        "geometry_ms": report["geometry_ms"],
        "spmd": report["spmd_ms"],
        "assembled_solve_seconds": modes["assembled"]["solve_seconds"],
        "matrix_free_solve_seconds": modes["matrix-free"]["solve_seconds"],
        "mdsc_assembled_setup_seconds": mdsc_modes["assembled"]["setup_seconds"],
        "mdsc_matrix_free_setup_seconds": mdsc_modes["matrix-free"]["setup_seconds"],
    }
    return {
        "bench": "solver_hotpath",
        "schema_version": BENCH_SOLVER_SCHEMA,
        "config": {
            "resolution_km": SMOKE_CONFIG.resolution_km,
            "num_layers": SMOKE_CONFIG.num_layers,
            "operator_mode_preconditioner": "jacobi",
        },
        "deterministic": det,
        "advisory": advisory,
        "spans": report["span_aggregate"],
    }


def _write_solver_trajectory(
    report: dict, modes: dict, mdsc_modes: dict, transient: dict, out: Path | None = None
) -> Path:
    """``BENCH_solver.json`` at the repo root: the perf-gate trajectory."""
    path = out if out is not None else Path(__file__).parents[1] / "BENCH_solver.json"
    doc = solver_trajectory(report, modes, mdsc_modes, transient)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _rows(report: dict) -> list[list]:
    return [
        [
            report["solve_seconds"],
            report["newton_steps_per_s"],
            *[report["phase_seconds"][p] for p in PHASES],
            report["eval_sweeps"]["residual"],
            report["eval_sweeps"]["jacobian"],
        ]
    ]


HEADERS = [
    "Solve [s]",
    "Steps/s",
    "Evaluate [s]",
    "Scatter [s]",
    "Precond [s]",
    "GMRES [s]",
    "Res sweeps",
    "Jac sweeps",
]


def _report_tables(report: dict, modes: dict, mdsc_modes: dict) -> list[tuple[str, str]]:
    return [
        ("solver_hotpath", format_table(HEADERS, _rows(report), title="Solver hot path")),
        (
            "solver_hotpath_modes",
            format_table(
                MODE_HEADERS,
                _mode_rows(modes),
                title="Operator modes: assembled vs matrix-free (jacobi)",
            ),
        ),
        (
            "solver_hotpath_mdsc",
            format_table(
                MODE_HEADERS + ["V-cycle bytes"],
                [
                    row + [mdsc_modes[row[0]]["vcycle_bytes"]]
                    for row in _mode_rows(mdsc_modes)
                ],
                title="Two-level preconditioner (mdsc), both operator modes",
            ),
        ),
    ]


def _check_hotpath_report(report: dict) -> None:
    # the fusion invariant: one jacobian sweep per accepted step, one
    # residual sweep per line-search trial, no initial residual sweep
    assert report["eval_sweeps"]["jacobian"] == report["newton_steps"]
    assert report["eval_sweeps"]["residual"] == report["line_search_trials"]
    # phase instrumentation covers the bulk of the solve wall time
    phase_sum = sum(report["phase_seconds"].values())
    assert 0.0 < phase_sum <= report["solve_seconds"] * 1.05
    assert report["gmres_workspace_bytes_zeroed"] == 0


def test_solver_hotpath_report(print_once, benchmark):
    report = run_hotpath()
    modes = run_operator_modes()
    mdsc_modes = run_operator_modes(preconditioner="mdsc")
    transient = run_transient_retreat()
    for key, table in _report_tables(report, modes, mdsc_modes):
        print_once(key, table)
    _check_hotpath_report(report)
    _check_mode_report(modes)
    _check_mdsc_report(mdsc_modes)
    _write_solver_trajectory(report, modes, mdsc_modes, transient)

    # the benchmarked operation: one end-to-end solve
    test = AntarcticaTest.build(SMOKE_CONFIG)
    benchmark(test.problem.solve)


def main() -> int:
    report = run_hotpath()
    modes = run_operator_modes()
    mdsc_modes = run_operator_modes(preconditioner="mdsc")
    transient = run_transient_retreat()
    for _, table in _report_tables(report, modes, mdsc_modes):
        print(table)
    print(
        f"transient retreat: {transient['retreat_newton_steps']} Newton steps, "
        f"{transient['retreat_gmres_iterations']} GMRES iterations"
    )
    sweeps, geometry = report["sweep_ms"], report["geometry_ms"]
    print(f"sweep (median of 7): jacobian {sweeps['jacobian']:.2f} ms, "
          f"residual {sweeps['residual']:.2f} ms")
    print(f"geometry (median of 7): basis {geometry['basis']:.2f} ms, "
          f"refresh {geometry['refresh']:.2f} ms")
    spmd = report["spmd_ms"]
    print(f"spmd nparts=4 minus serial (median of 7): build {spmd['build_ms']:.2f} ms, "
          f"sweep + scatter {spmd['sweep_overhead_ms']:.2f} ms")
    memory = report["memory"]
    print(f"traced memory: build retains {memory['build_retained_bytes_per_dof']:.0f} B/dof, "
          f"the solve peaks at {memory['solve_peak_bytes_per_dof']:.0f} B/dof")
    _check_hotpath_report(report)
    _check_mode_report(modes)
    _check_mdsc_report(mdsc_modes)
    print(f"artifact: {_write_solver_trajectory(report, modes, mdsc_modes, transient)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
