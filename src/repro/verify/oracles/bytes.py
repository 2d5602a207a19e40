"""Suite ``bytes``: the appendix's 64 B-request rocprof ``TCC_EA`` formula
against the simulator's modeled HBM traffic, exactly."""

from __future__ import annotations

from repro.verify.compare import mismatch
from repro.verify.oracles import register

__all__: list[str] = []


@register(
    "rocprof-formula-vs-model",
    "64B-request rocprof formula reconciles exactly with modeled HBM bytes",
)
def _oracle_bytes():
    from repro.core.variants import variant_names
    from repro.gpusim import ANTARCTICA_16KM, GPUSimulator
    from repro.gpusim.specs import ALL_GPUS

    divs = []
    checked = 0
    for gpu, spec in ALL_GPUS.items():
        sim = GPUSimulator(spec)
        for key in variant_names():
            dm = sim.run(key, ANTARCTICA_16KM).data_movement
            formula = dm.rocprof_formula_bytes()
            if formula != dm.total_bytes or dm.total_bytes <= 0.0:
                divs.append(mismatch(f"{gpu}/{key}", formula, dm.total_bytes))
            checked += 1
    return divs, f"{checked} (gpu, variant) pairs, exact equality"
