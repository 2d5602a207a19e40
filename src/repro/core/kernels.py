"""The ``StokesFOResid`` kernel bodies, mirroring the paper's Fig. 2.

Both functors compute the same weak-form volume terms of the first-order
Stokes residual

.. code-block:: text

    R0 += strs00 * dphi/dx + strs01 * dphi/dy + strs02 * dphi/dz + f0 * phi
    R1 += strs01 * dphi/dx + strs11 * dphi/dy + strs12 * dphi/dz + f1 * phi

with ``strs00 = 2 mu (2 u_x + v_y)``, ``strs11 = 2 mu (2 v_y + u_x)``,
``strs01 = mu (u_y + v_x)``, ``strs02 = mu u_z``, ``strs12 = mu v_z``.

**Baseline** (left listing of Fig. 2): a separate zero-initialization
loop over nodes, a configuration branch inside the kernel, a qp loop
accumulating the stress terms *directly into the global Residual view*,
and a second, redundant qp loop adding the body-force term -- each
global accumulation is a read-modify-write of HBM-backed data.

**Optimized** (right listing): compile-time trip counts, the branch
hoisted out of the kernel, the force loop fused into the stress loop,
and per-thread local accumulators ``res0``/``res1`` written back to the
global view exactly once.

The bodies are single-source in the Kokkos sense: ``cell`` may be a
slice (vectorized host numerics), an int (serial reference), or the
symbolic thread index 0 with :class:`~repro.core.fields.TraceFields`
(performance tracing) -- same code path each time.  A ``HostVector``
launch of the optimized variant executes its lowering
(:mod:`repro.core.lowering`) instead of this listing with a slice.
"""

from __future__ import annotations

__all__ = ["StokesFOResidBaseline", "StokesFOResidOptimized", "StokesFOResidFusedOnly"]


class StokesFOResidBaseline:
    """Baseline Jacobian/Residual kernel (Fig. 2, left).

    ``numNodes``/``numQPs`` are runtime ints (the paper's loop-bound
    pessimization) and ``side_set_equations`` reproduces the in-kernel
    configuration branch (``cond``) the optimization hoists out.
    """

    name = "StokesFOResid<LandIce_3D>"

    def __init__(self, fields, side_set_equations: bool = False):
        self.fields = fields
        self.Ugrad = fields.Ugrad
        self.muLandIce = fields.muLandIce
        self.force = fields.force
        self.wBF = fields.wBF
        self.wGradBF = fields.wGradBF
        self.Residual = fields.Residual
        # runtime loop bounds, as in the baseline listing
        self.numNodes = int(fields.num_nodes)
        self.numQPs = int(fields.num_qps)
        self.side_set_equations = side_set_equations

    def __call__(self, cell):
        Residual = self.Residual
        Ugrad = self.Ugrad
        wGradBF = self.wGradBF

        for node in range(self.numNodes):
            Residual[cell, node, 0] = self.fields.zero(cell)
            Residual[cell, node, 1] = self.fields.zero(cell)

        if self.side_set_equations:
            # Lateral side-set branch of the production code: the paper's
            # Antarctica configuration never takes it, but its presence in
            # the kernel causes branch divergence (removed in the
            # optimized variant by generating a configuration-specific
            # kernel).
            self._side_set_contributions(cell)
        else:
            for qp in range(self.numQPs):
                mu = self.muLandIce[cell, qp]
                strs00 = 2.0 * mu * (2.0 * Ugrad[cell, qp, 0, 0] + Ugrad[cell, qp, 1, 1])
                strs11 = 2.0 * mu * (2.0 * Ugrad[cell, qp, 1, 1] + Ugrad[cell, qp, 0, 0])
                strs01 = mu * (Ugrad[cell, qp, 1, 0] + Ugrad[cell, qp, 0, 1])
                strs02 = mu * Ugrad[cell, qp, 0, 2]
                strs12 = mu * Ugrad[cell, qp, 1, 2]
                for node in range(self.numNodes):
                    Residual[cell, node, 0] += (
                        strs00 * wGradBF[cell, node, qp, 0]
                        + strs01 * wGradBF[cell, node, qp, 1]
                        + strs02 * wGradBF[cell, node, qp, 2]
                    )
                    Residual[cell, node, 1] += (
                        strs01 * wGradBF[cell, node, qp, 0]
                        + strs11 * wGradBF[cell, node, qp, 1]
                        + strs12 * wGradBF[cell, node, qp, 2]
                    )

        for qp in range(self.numQPs):
            frc0 = self.force[cell, qp, 0]
            frc1 = self.force[cell, qp, 1]
            for node in range(self.numNodes):
                Residual[cell, node, 0] += frc0 * self.wBF[cell, node, qp]
                Residual[cell, node, 1] += frc1 * self.wBF[cell, node, qp]

    def _side_set_contributions(self, cell):
        """Degenerate side-set path (never taken in the Antarctica test)."""
        for qp in range(self.numQPs):
            mu = self.muLandIce[cell, qp]
            for node in range(self.numNodes):
                Residual = self.Residual
                Residual[cell, node, 0] += mu * self.wGradBF[cell, node, qp, 0]
                Residual[cell, node, 1] += mu * self.wGradBF[cell, node, qp, 1]


class StokesFOResidOptimized:
    """Optimized Jacobian/Residual kernel (Fig. 2, right).

    Loop fusion + compile-time trip counts + local accumulation.  The
    node count is bound at construction as a "template parameter"
    (``LandIce_3D_Opt_Tag<NumNodes>``); the configuration branch is gone
    -- the specific optimized kernel only exists for the configuration
    being run.
    """

    name = "StokesFOResid<LandIce_3D_Opt>"

    def __init__(self, fields):
        self.fields = fields
        self.Ugrad = fields.Ugrad
        self.muLandIce = fields.muLandIce
        self.force = fields.force
        self.wBF = fields.wBF
        self.wGradBF = fields.wGradBF
        self.Residual = fields.Residual
        # compile-time constant (static constexpr int num_nodes)
        self.num_nodes = int(fields.num_nodes)
        self.numQPs = int(fields.num_qps)

    def __call__(self, cell):
        fields = self.fields
        Ugrad = self.Ugrad
        wGradBF = self.wGradBF
        wBF = self.wBF
        num_nodes = self.num_nodes

        res0 = [fields.zero(cell) for _ in range(num_nodes)]
        res1 = [fields.zero(cell) for _ in range(num_nodes)]

        for qp in range(self.numQPs):
            mu = self.muLandIce[cell, qp]
            strs00 = 2.0 * mu * (2.0 * Ugrad[cell, qp, 0, 0] + Ugrad[cell, qp, 1, 1])
            strs11 = 2.0 * mu * (2.0 * Ugrad[cell, qp, 1, 1] + Ugrad[cell, qp, 0, 0])
            strs01 = mu * (Ugrad[cell, qp, 1, 0] + Ugrad[cell, qp, 0, 1])
            strs02 = mu * Ugrad[cell, qp, 0, 2]
            strs12 = mu * Ugrad[cell, qp, 1, 2]
            frc0 = self.force[cell, qp, 0]
            frc1 = self.force[cell, qp, 1]
            for node in range(num_nodes):
                res0[node] = res0[node] + (
                    strs00 * wGradBF[cell, node, qp, 0]
                    + strs01 * wGradBF[cell, node, qp, 1]
                    + strs02 * wGradBF[cell, node, qp, 2]
                    + frc0 * wBF[cell, node, qp]
                )
                res1[node] = res1[node] + (
                    strs01 * wGradBF[cell, node, qp, 0]
                    + strs11 * wGradBF[cell, node, qp, 1]
                    + strs12 * wGradBF[cell, node, qp, 2]
                    + frc1 * wBF[cell, node, qp]
                )

        for node in range(num_nodes):
            self.Residual[cell, node, 0] = res0[node]
            self.Residual[cell, node, 1] = res1[node]


class StokesFOResidFusedOnly:
    """Ablation variant: loop fusion without local accumulation.

    The force term is folded into the stress loop and the branch is
    hoisted out (like the optimized kernel), but accumulation still goes
    straight to the global ``Residual`` view (like the baseline).
    Isolates how much of the paper's win comes from fusion alone versus
    the local-accumulation data-locality optimization.
    """

    name = "StokesFOResid<LandIce_3D_FusedOnly>"

    def __init__(self, fields):
        self.fields = fields
        self.Ugrad = fields.Ugrad
        self.muLandIce = fields.muLandIce
        self.force = fields.force
        self.wBF = fields.wBF
        self.wGradBF = fields.wGradBF
        self.Residual = fields.Residual
        self.num_nodes = int(fields.num_nodes)
        self.numQPs = int(fields.num_qps)

    def __call__(self, cell):
        Residual = self.Residual
        Ugrad = self.Ugrad
        wGradBF = self.wGradBF
        wBF = self.wBF

        for node in range(self.num_nodes):
            Residual[cell, node, 0] = self.fields.zero(cell)
            Residual[cell, node, 1] = self.fields.zero(cell)

        for qp in range(self.numQPs):
            mu = self.muLandIce[cell, qp]
            strs00 = 2.0 * mu * (2.0 * Ugrad[cell, qp, 0, 0] + Ugrad[cell, qp, 1, 1])
            strs11 = 2.0 * mu * (2.0 * Ugrad[cell, qp, 1, 1] + Ugrad[cell, qp, 0, 0])
            strs01 = mu * (Ugrad[cell, qp, 1, 0] + Ugrad[cell, qp, 0, 1])
            strs02 = mu * Ugrad[cell, qp, 0, 2]
            strs12 = mu * Ugrad[cell, qp, 1, 2]
            frc0 = self.force[cell, qp, 0]
            frc1 = self.force[cell, qp, 1]
            for node in range(self.num_nodes):
                Residual[cell, node, 0] += (
                    strs00 * wGradBF[cell, node, qp, 0]
                    + strs01 * wGradBF[cell, node, qp, 1]
                    + strs02 * wGradBF[cell, node, qp, 2]
                    + frc0 * wBF[cell, node, qp]
                )
                Residual[cell, node, 1] += (
                    strs01 * wGradBF[cell, node, qp, 0]
                    + strs11 * wGradBF[cell, node, qp, 1]
                    + strs12 * wGradBF[cell, node, qp, 2]
                    + frc1 * wBF[cell, node, qp]
                )
