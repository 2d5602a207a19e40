"""Suite ``spmd``: partitioned solves against the serial solve, bitwise."""

from __future__ import annotations

from repro.verify.compare import collect, first_divergence, mismatch
from repro.verify.fixtures import antarctica
from repro.verify.oracles import register

__all__: list[str] = []


_NPARTS = [1, 2, 4, 7]


@register("spmd-vs-serial", "SPMD solves at nparts in {1,2,4,7} are bitwise identical to serial")
def _oracle_spmd():
    serial = antarctica(nparts=1).problem.solve()
    divs = []
    for nparts in _NPARTS:
        sol = antarctica(nparts=nparts).problem.solve()
        divs += collect([first_divergence(f"u (nparts={nparts})", sol.u, serial.u)])
        if sol.newton.residual_norms != serial.newton.residual_norms:
            divs.append(mismatch(
                f"newton.residual_norms (nparts={nparts})",
                sol.newton.residual_norms[-1], serial.newton.residual_norms[-1],
            ))
    return divs, f"nparts {_NPARTS} vs serial, {len(serial.u)} dofs, bitwise"
