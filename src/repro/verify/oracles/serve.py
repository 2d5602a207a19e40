"""Suite ``serve``: the solve service under faults against fault-free
solves, bitwise."""

from __future__ import annotations

from repro.verify.compare import mismatch
from repro.verify.oracles import register

__all__: list[str] = []

#: OpenMetrics families the chaos run must expose, and how many
#: ``serve_*`` families at least
_SERVE_FAMILIES = ("serve_requests", "serve_dedup", "serve_worker_deaths")
_MIN_SERVE_FAMILIES = 10


@register(
    "chaos-vs-fault-free",
    "dedup, worker kills, the reference fault schedule and a deadline storm against the solve "
    "service, bitwise against fault-free solves; a breaker patched open is caught",
)
def _oracle_chaos():
    from unittest import mock

    from repro import observability as obs
    from repro.serve import chaos
    from repro.serve.breaker import CircuitBreaker

    checks = chaos.chaos_assertions()
    failed = [f"{name} {detail}".strip() for name, held, detail in checks if not held]
    families = obs.parse_exposition(obs.render(obs.get_metrics().snapshot(), obs.get_series()))
    served = [f for f in families if f.startswith("serve_")]
    failed += [f"OpenMetrics family {f}" for f in _SERVE_FAMILIES if f not in families]
    divs = [mismatch(name, 0.0, 1.0) for name in failed]
    if len(served) < _MIN_SERVE_FAMILIES:
        divs.append(mismatch("serve_* OpenMetrics families", len(served), _MIN_SERVE_FAMILIES))
    with mock.patch.object(CircuitBreaker, "allow", return_value=True):
        caught = [name for name, held, _ in chaos.chaos_assertions(storm_only=True) if not held]
    if not caught:
        divs.append(mismatch("planted open breaker: failed assertions", 0.0, 1.0))
    return divs, (
        f"{len(checks)} assertions; {len(served)} serve_* families; the storm wave with the "
        f"breaker patched open fails {len(caught)}"
    )
