"""Kernel-variant registry with the metadata the GPU simulator consumes.

Four variants span the paper's evaluation matrix: {baseline, optimized}
x {residual, jacobian}.  Each records its loop structure (what the
optimizations changed) and its *register demand profiles*.

Register profiles are compiler calibration data: the paper's Table II
reports the Architectural/Accumulation VGPR allocations the ROCm
compiler actually chose for each kernel under each LaunchBounds, and we
take those observed allocations as the per-kernel demand description.
The *consequences* -- occupancy, scratch-spill traffic, achieved
bandwidth, time -- are produced mechanistically by
:mod:`repro.gpusim`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernels import (
    StokesFOResidBaseline,
    StokesFOResidFusedOnly,
    StokesFOResidOptimized,
)
from repro.core.lowering import StokesFOResidHostLowering
from repro.core.viscosity_kernel import ViscosityFOKernel

__all__ = ["RegisterProfile", "KernelVariant", "VARIANTS", "get_variant", "variant_names"]


@dataclass(frozen=True)
class RegisterProfile:
    """One compiler register-allocation outcome for a kernel.

    ``arch_vgprs``/``accum_vgprs`` are per-thread 32-bit register counts
    (CDNA2 reports both classes); ``scratch_bytes`` is per-thread scratch
    (spill) memory that generates extra HBM traffic; ``issue_penalty``
    multiplies the instruction-issue time (lost ILP when the allocation
    is tight).
    """

    arch_vgprs: int
    accum_vgprs: int
    scratch_bytes: int = 0
    issue_penalty: float = 1.0

    @property
    def total_vgprs(self) -> int:
        return self.arch_vgprs + self.accum_vgprs


@dataclass(frozen=True)
class KernelVariant:
    """A kernel implementation plus everything the simulator needs."""

    key: str  # e.g. "baseline-jacobian"
    impl: str  # "baseline" | "optimized"
    mode: str  # "residual" | "jacobian"
    functor_cls: type
    display_name: str
    #: loop-structure flags (what the paper's optimizations changed)
    compile_time_bounds: bool
    fused: bool
    local_accum: bool
    branch_in_kernel: bool
    #: per-thread accumulator footprint in doubles (local arrays)
    accumulator_doubles: int
    #: CDNA2 allocation when the VGPR budget is generous (>= 2x wave share)
    profile_relaxed: RegisterProfile
    #: CDNA2 allocation when the budget is one wave share (256 regs -> 128)
    profile_tight: RegisterProfile
    #: CUDA (A100) registers per thread
    cuda_regs: int
    #: CUDA local-memory (spill) bytes per thread -- the 255-register cap
    #: cannot hold the optimized Jacobian's SFad accumulators either
    cuda_scratch_bytes: int = 0
    #: kernel family: selects the field set ("stokes" | "viscosity")
    family: str = "stokes"
    #: the listing lowered for execution spaces that launch a whole range
    #: in one call (``HostVector``); ``None``: the listing runs there too
    host_lowering: type | None = None

    @property
    def fad_dim(self) -> int:
        return 16 if self.mode == "jacobian" else 0

    def make_functor(self, fields, space=None):
        """The functor a launch on ``space`` executes.

        Without a space -- the simulator's tracer, the race checker --
        and on per-index spaces this is the Fig. 2 listing.
        """
        if self.host_lowering is not None and space is not None and space.vectorized:
            return self.host_lowering(fields)
        return self.functor_cls(fields)


def _nn(mode: str) -> int:
    return 17 if mode == "jacobian" else 1


VARIANTS: dict[str, KernelVariant] = {}


def _register(v: KernelVariant) -> None:
    VARIANTS[v.key] = v


_register(
    KernelVariant(
        key="baseline-jacobian",
        impl="baseline",
        mode="jacobian",
        functor_cls=StokesFOResidBaseline,
        display_name="Jacobian baseline",
        compile_time_bounds=False,
        fused=False,
        local_accum=False,
        branch_in_kernel=True,
        accumulator_doubles=0,
        # no local arrays: moderate pressure regardless of budget
        profile_relaxed=RegisterProfile(96, 0),
        profile_tight=RegisterProfile(96, 0),
        cuda_regs=112,
    )
)

_register(
    KernelVariant(
        key="optimized-jacobian",
        impl="optimized",
        mode="jacobian",
        functor_cls=StokesFOResidOptimized,
        display_name="Jacobian optimized",
        compile_time_bounds=True,
        fused=True,
        local_accum=True,
        branch_in_kernel=False,
        # res0/res1: 2 x 8 nodes x SFad<16> (17 doubles)
        accumulator_doubles=2 * 8 * 17,
        # Table II: generous budget -> 128 arch + 128 accum (AGPRs absorb
        # the accumulator spill); tight budget -> accumulators overflow to
        # scratch memory.
        profile_relaxed=RegisterProfile(128, 128),
        profile_tight=RegisterProfile(128, 0, scratch_bytes=2900),
        cuda_regs=232,
        cuda_scratch_bytes=704,
        host_lowering=StokesFOResidHostLowering,
    )
)

_register(
    KernelVariant(
        key="baseline-residual",
        impl="baseline",
        mode="residual",
        functor_cls=StokesFOResidBaseline,
        display_name="Residual baseline",
        compile_time_bounds=False,
        fused=False,
        local_accum=False,
        branch_in_kernel=True,
        accumulator_doubles=0,
        profile_relaxed=RegisterProfile(64, 0),
        profile_tight=RegisterProfile(64, 0),
        cuda_regs=64,
    )
)

_register(
    KernelVariant(
        key="optimized-residual",
        impl="optimized",
        mode="residual",
        functor_cls=StokesFOResidOptimized,
        display_name="Residual optimized",
        compile_time_bounds=True,
        fused=True,
        local_accum=True,
        branch_in_kernel=False,
        accumulator_doubles=2 * 8,
        # Table II: generous budget -> 128 arch, no accum; tight budget ->
        # 84 arch + 4 accum with a small residual spill and scheduling
        # penalty.
        profile_relaxed=RegisterProfile(128, 0),
        profile_tight=RegisterProfile(84, 4, scratch_bytes=64, issue_penalty=1.17),
        cuda_regs=96,
        host_lowering=StokesFOResidHostLowering,
    )
)


# ablation variants: fusion without local accumulation (not part of the
# paper's headline matrix, used by the ablation benchmarks)
_register(
    KernelVariant(
        key="fused-jacobian",
        impl="fused",
        mode="jacobian",
        functor_cls=StokesFOResidFusedOnly,
        display_name="Jacobian fused-only",
        compile_time_bounds=True,
        fused=True,
        local_accum=False,
        branch_in_kernel=False,
        accumulator_doubles=0,
        profile_relaxed=RegisterProfile(100, 0),
        profile_tight=RegisterProfile(100, 0),
        cuda_regs=120,
    )
)

_register(
    KernelVariant(
        key="fused-residual",
        impl="fused",
        mode="residual",
        functor_cls=StokesFOResidFusedOnly,
        display_name="Residual fused-only",
        compile_time_bounds=True,
        fused=True,
        local_accum=False,
        branch_in_kernel=False,
        accumulator_doubles=0,
        profile_relaxed=RegisterProfile(72, 0),
        profile_tight=RegisterProfile(72, 0),
        cuda_regs=72,
    )
)


# the next kernel in the evaluation chain (paper future work: apply the
# portability model to several kernels); purely streaming
_register(
    KernelVariant(
        key="viscosity-residual",
        impl="viscosity",
        mode="residual",
        functor_cls=ViscosityFOKernel,
        display_name="ViscosityFO",
        compile_time_bounds=True,
        fused=True,
        local_accum=False,
        branch_in_kernel=False,
        accumulator_doubles=0,
        profile_relaxed=RegisterProfile(48, 0),
        profile_tight=RegisterProfile(48, 0),
        cuda_regs=40,
        family="viscosity",
    )
)

_register(
    KernelVariant(
        key="viscosity-jacobian",
        impl="viscosity",
        mode="jacobian",
        functor_cls=ViscosityFOKernel,
        display_name="ViscosityFO (Jacobian pass)",
        compile_time_bounds=True,
        fused=True,
        local_accum=False,
        branch_in_kernel=False,
        accumulator_doubles=0,
        profile_relaxed=RegisterProfile(96, 0),
        profile_tight=RegisterProfile(96, 0),
        cuda_regs=88,
        family="viscosity",
    )
)


def get_variant(key: str) -> KernelVariant:
    """Look up a variant, accepting either 'impl-mode' or (impl, mode)."""
    if key not in VARIANTS:
        raise KeyError(f"unknown kernel variant {key!r}; available: {sorted(VARIANTS)}")
    return VARIANTS[key]


def variant_names() -> list[str]:
    return sorted(VARIANTS)
