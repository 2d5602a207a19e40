"""The metric catalogue: names, units, and how each value is derived.

``BENCHMARK.json`` lists the same names (the self-test checks that the
two agree).  Layer prefixes are the packages under ``src/repro``.

Kinds of per-layer metric:

``self`` / ``incl``
    Seconds per operation from the traced pass: a span's self time
    (duration minus what its child spans cover) or inclusive time,
    averaged over the traced operations.  The ``self`` metrics plus the
    root span's own self time add up to the operation wall.
``calls`` / ``keysum``
    Per-operation call count of a span, or the sum of the value its
    wrapper read per call (modeled bytes of each V-cycle).
``count``
    Deterministic work count read from the program's own counters and
    results after every operation, traced or not; identical between
    operations of the sequential workloads, so ``compare`` checks them
    for equality.  Bytes are *computed* from array sizes, not measured.
``derived``
    Computed in :func:`per_layer` or by the workload.
"""

from __future__ import annotations

import statistics

from benchmarks.e2e.trace import ROOT

__all__ = ["END_TO_END", "PER_LAYER", "EXACT", "per_layer", "reconcile", "span_table"]

#: (name, unit, better, bound); README.md says where the bounds come from
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("time_to_solution_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better, kind, source span)
PER_LAYER = (
    # build
    ("app.build_s", "s", "lower", "incl", "app.build"),
    ("app.build_self_s", "s", "lower", "self", "app.build"),
    ("mesh.extrude_s", "s", "lower", "self", "mesh.extrude"),
    ("fem.plan_s", "s", "lower", "self", "fem.plan"),
    # SPMD
    ("mesh.partition_s", "s", "lower", "self", "mesh.partition"),
    ("mesh.halo_s", "s", "lower", "self", "mesh.halo"),
    ("mesh.halo_bytes", "B", "lower", "count", None),
    ("mesh.halo_exchanges", "count", "lower", "count", None),
    ("fem.dist_assemble_s", "s", "lower", "self", "fem.dist_assemble"),
    # evaluator DAG
    ("physics.sweep_s", "s", "lower", "incl", "physics.sweep"),
    ("physics.sweep_self_s", "s", "lower", "self", "physics.sweep"),
    ("physics.grad_interp_s", "s", "lower", "self", "physics.grad_interp"),
    ("physics.viscosity_s", "s", "lower", "self", "physics.viscosity"),
    ("physics.basal_s", "s", "lower", "self", "physics.basal"),
    ("core.stokes_resid_jacobian_s", "s", "lower", "self", "core.stokes_resid_jacobian"),
    ("core.stokes_resid_residual_s", "s", "lower", "self", "core.stokes_resid_residual"),
    ("physics.sweeps_jacobian", "count", "lower", "count", None),
    ("physics.sweeps_residual", "count", "lower", "count", None),
    # operator
    ("fem.assemble_matrix_s", "s", "lower", "self", "fem.assemble_matrix"),
    ("fem.assemble_vector_s", "s", "lower", "self", "fem.assemble_vector"),
    ("fem.matfree_setup_s", "s", "lower", "self", "fem.matfree_setup"),
    ("fem.matvec_s", "s", "lower", "self", "fem.matvec"),
    ("fem.matvecs", "count", "lower", "count", None),
    ("fem.matvec_modeled_bytes", "B", "lower", "count", None),
    ("fem.matvec_bw_fraction", "ratio", "higher", "derived", None),
    # solvers
    ("solvers.gmres_s", "s", "lower", "incl", "solvers.gmres"),
    ("solvers.gmres_self_s", "s", "lower", "self", "solvers.gmres"),
    ("solvers.gmres_iterations", "count", "lower", "count", None),
    ("solvers.gmres_stream_modeled_bytes", "B", "lower", "count", None),
    ("solvers.gmres_reorthogonalizations", "count", "lower", "count", None),
    ("solvers.mdsc_setup_s", "s", "lower", "self", "solvers.mdsc_setup"),
    ("solvers.mdsc_apply_s", "s", "lower", "self", "solvers.mdsc_apply"),
    ("solvers.mdsc_applies", "count", "lower", "calls", "solvers.mdsc_apply"),
    ("solvers.mdsc_apply_modeled_bytes", "B", "lower", "keysum", "solvers.mdsc_apply"),
    ("solvers.newton_self_s", "s", "lower", "self", "solvers.newton"),
    ("solvers.newton_steps", "count", "lower", "count", None),
    ("app.solve_s", "s", "lower", "incl", "app.solve"),
    ("app.solve_self_s", "s", "lower", "self", "app.solve"),
    # transient
    ("app.refresh_geometry_s", "s", "lower", "self", "app.refresh_geometry"),
    ("mesh.update_columns_s", "s", "lower", "self", "mesh.update_columns"),
    ("physics.thickness_step_s", "s", "lower", "self", "physics.thickness_step"),
    ("transient.particles_s", "s", "lower", "self", "transient.particles"),
    ("transient.checkpoint_s", "s", "lower", "self", "transient.checkpoint"),
    ("transient.checkpoint_bytes", "B", "lower", "count", None),
    ("transient.step_p50_s", "s", "lower", "derived", None),
    ("transient.step_p90_s", "s", "lower", "derived", None),
    ("transient.step_samples", "count", "higher", "derived", None),
    ("transient.warm_newton_mean", "count", "lower", "count", None),
    ("transient.sim_years", "yr", "higher", "count", None),
    ("transient.velocity_share", "ratio", "lower", "derived", None),
    # serve
    ("serve.latency_p50_s", "s", "lower", "derived", None),
    ("serve.latency_p75_s", "s", "lower", "derived", None),
    ("serve.latency_samples", "count", "higher", "derived", None),
    ("serve.execute_s", "s", "lower", "derived", None),
    ("serve.wait_s", "s", "lower", "derived", None),
    ("serve.cache_get_s", "s", "lower", "self", "serve.cache_get"),
    ("serve.cache_hit_ratio", "ratio", "higher", "derived", None),
    ("serve.cache_builds", "count", "lower", "derived", None),
    ("serve.dedup_share", "ratio", "higher", "derived", None),
    ("serve.degraded_share", "ratio", "lower", "derived", None),
    ("serve.worker_busy_fraction", "ratio", "higher", "derived", None),
    # normalisers (never gated)
    ("host.triad_gbs", "GB/s", "higher", "derived", None),
    ("host.nproc", "count", "higher", "derived", None),
    ("host.blas_threads", "count", "lower", "derived", None),
    # the benchmark's own health
    ("bench.trace_overhead_ratio", "ratio", "lower", "derived", None),
    ("bench.unattributed_share", "ratio", "lower", "derived", None),
)

#: the deterministic counts ``compare`` checks for equality
EXACT = tuple(name for name, _u, _b, kind, _s in PER_LAYER if kind == "count")

_CELL = {"incl": 0, "self": 1, "calls": 2, "keysum": 3}
_EMPTY = (0.0, 0.0, 0, 0.0)


def span_table(rec, op_ids=None) -> dict:
    """``span name -> [incl, self, calls, keysum]`` summed over ``op_ids``.

    ``op_ids`` of ``None`` takes every span the recorder saw (serve: the
    worker threads' request groups and the loop thread's submits).
    """
    table: dict = {}
    by_op = rec.by_op()
    for op in by_op if op_ids is None else op_ids:
        for name, cell in by_op.get(op, {}).items():
            total = table.setdefault(name, [0.0, 0.0, 0, 0.0])
            for i, v in enumerate(cell):
                total[i] += v
    return table


def per_layer(workload, results, rec, host: dict, traced_wall_s: float) -> dict:
    """Every per-layer metric of one traced run, by name.

    ``results`` are all operations of the run; the span metrics use the
    traced ones, the counts use all of them.
    """
    traced = [r for r in results if r.traced]
    untraced = [r for r in results if not r.traced]
    table = span_table(rec, [r.op_id for r in traced] if workload.sequential else None)
    extras = workload.layer_extras(results, rec, table, traced_wall_s)
    per_op = len(traced) if traced else 1
    counts = results[0].counts if results else {}

    out = {}
    for name, _unit, _better, kind, span in PER_LAYER:
        if kind in _CELL:
            out[name] = table.get(span, _EMPTY)[_CELL[kind]] / per_op
        elif kind == "count":
            out[name] = counts.get(name, 0)
        else:
            out[name] = extras.get(name, 0.0)

    out["host.triad_gbs"] = host["triad_gbs"]
    out["host.nproc"] = host["nproc"]
    out["host.blas_threads"] = host["blas_threads"]
    if out["fem.matvec_s"] > 0:
        out["fem.matvec_bw_fraction"] = (
            out["fem.matvec_modeled_bytes"] / out["fem.matvec_s"] / (host["triad_gbs"] * 1.0e9)
        )
    if traced and untraced:
        out["bench.trace_overhead_ratio"] = statistics.median(
            r.wall_s for r in traced
        ) / statistics.median(r.wall_s for r in untraced)
    root = table.get(ROOT)
    if root and root[0] > 0:
        out["bench.unattributed_share"] = root[1] / root[0]
    return out


def reconcile(values: dict, op_wall_s: float) -> float:
    """(sum of layer self times + unattributed) / operation wall; 1.0 is exact."""
    layers = sum(values[name] for name, _u, _b, kind, _s in PER_LAYER if kind == "self")
    return (layers + values["bench.unattributed_share"] * op_wall_s) / op_wall_s
