"""Per-thread kernel programs extracted by running the real kernel body.

Every thread of the ``StokesFOResid`` kernels executes the same
straight-line program (the configuration branch is data-independent), so
one recorded thread fully characterizes the kernel.  The recording uses
the same single-source kernel body as the numerics -- there is no
separate performance model of the kernel, only of the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.fields import TraceFields, make_stokes_fields
from repro.core.variants import KernelVariant, get_variant
from repro.core.viscosity_kernel import ViscosityTraceFields, make_viscosity_fields
from repro.kokkos.instrument import Access

__all__ = ["ThreadProgram", "record_kernel_trace"]


@dataclass(frozen=True)
class Slot:
    """One coalesced component stream: (view, inner offset, component)."""

    view: str
    inner: int
    comp: int


@dataclass
class ThreadProgram:
    """The ordered per-thread access program plus op counts.

    ``slot_trace`` lists one entry per *component* access (a Fad access
    of 17 components contributes 17 consecutive entries); ``writes``
    flags each entry.  ``view_inner_extents`` maps each view to (inner
    element count, components, bytes/component-element) for footprint
    computations.
    """

    variant_key: str
    accesses: list[Access]
    slot_trace: list[Slot]
    writes: list[bool]
    flops: int
    mem_insts: int
    view_meta: dict[str, tuple[int, int]]  # view -> (inner extent, components)
    num_nodes: int
    num_qps: int
    #: names of the kernel's output views (for the theoretical minimum)
    output_views: tuple = ("Residual",)

    def unique_slots(self) -> set[Slot]:
        return set(self.slot_trace)

    def unique_written_slots(self) -> set[Slot]:
        return {s for s, w in zip(self.slot_trace, self.writes) if w}

    def instructions(self, compile_time_bounds: bool, branch_in_kernel: bool) -> float:
        """Scalar-instruction estimate for the issue-time model.

        Memory and flop instructions plus loop overhead: runtime trip
        counts cost a compare+branch+index update per iteration and
        inhibit unrolling; a resident branch adds a divergence check.
        """
        loop_iters = self.num_qps * (self.num_nodes + 2) + 2 * self.num_nodes
        loop_cost = (1.0 if compile_time_bounds else 6.0) * loop_iters
        branch_cost = 40.0 if branch_in_kernel else 0.0
        return self.flops * 0.5 + self.mem_insts + loop_cost + branch_cost


@lru_cache(maxsize=32)
def record_kernel_trace(variant_key: str, num_nodes: int = 8, num_qps: int = 8) -> ThreadProgram:
    """Run ``variant_key`` for one representative cell in trace mode."""
    variant: KernelVariant = get_variant(variant_key)
    if variant.family == "viscosity":
        vfields = make_viscosity_fields(1, num_qps=num_qps, mode=variant.mode)
        tf = ViscosityTraceFields(vfields)
        view_names = ("Ugrad", "flowFactor", "muLandIce")
        output_views = ("muLandIce",)
    else:
        fields = make_stokes_fields(1, num_nodes=num_nodes, num_qps=num_qps, mode=variant.mode)
        tf = TraceFields(fields)
        view_names = ("Ugrad", "muLandIce", "force", "wBF", "wGradBF", "Residual")
        output_views = ("Residual",)
    functor = variant.make_functor(tf)
    functor(0)
    ctx = tf.ctx

    slot_trace: list[Slot] = []
    writes: list[bool] = []
    for a in ctx.accesses:
        for comp in range(a.components):
            slot_trace.append(Slot(a.view, a.inner, comp))
            writes.append(a.write)

    # take scalar specs from the trace views (wBF/wGradBF carry the
    # MeshScalarT layout there, not the compressed host storage)
    view_meta = {}
    for name in view_names:
        tv = getattr(tf, name)
        inner = 1
        for s in tv.shape[1:]:
            inner *= s
        view_meta[tv.name] = (inner, tv.scalar.components)
    return ThreadProgram(
        variant_key=variant_key,
        accesses=list(ctx.accesses),
        slot_trace=slot_trace,
        writes=writes,
        flops=ctx.flops,
        mem_insts=ctx.mem_insts,
        view_meta=view_meta,
        num_nodes=num_nodes,
        num_qps=num_qps,
        output_views=output_views,
    )
