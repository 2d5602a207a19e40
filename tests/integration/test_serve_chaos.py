"""End-to-end chaos acceptance: the ``chaos-vs-fault-free`` oracle.

Runs the full deterministic chaos scenario in-process -- real meshes,
real Newton/GMRES solves, two scripted worker kills, the reference
fault schedule on the coarse 4-rank SPMD solve, a deadline storm that
trips the circuit breaker -- and asserts the oracle's own verdict:
every completed request bitwise-identical to its fault-free reference.

A breaker that never refuses and an injector the solve never reaches
are the planted negative controls: each MUST fail the oracle.  A chaos
check that cannot fail is not a check.
"""

from unittest import mock

from repro import observability as obs
from repro.resilience.injectors import BitFlip, FaultSchedule
from repro.serve import chaos
from repro.serve.breaker import CircuitBreaker
from repro.verify.oracles import ORACLES


def _chaos_divergences():
    oracle = next(o for o in ORACLES if o.name == "chaos-vs-fault-free")
    assert oracle.suite == "serve"
    divs, _ = oracle.fn()
    return [d.name for d in divs]


class TestServeChaos:
    def test_chaos_check_passes(self):
        """Every assertion holds and the oracle's own planted open breaker
        is caught; the exposition the oracle rendered is structurally
        valid and carries the service's decision counters."""
        expositions, render = [], obs.render

        def keep(*args):
            expositions.append(render(*args))
            return expositions[-1]

        with mock.patch.object(obs, "render", keep):
            assert _chaos_divergences() == []
        families = obs.parse_exposition(expositions[0])
        serve_families = [f for f in families if f.startswith("serve_")]
        assert "serve_requests" in families
        assert "serve_dedup" in families
        assert "serve_worker_deaths" in families
        assert len(serve_families) >= 10

    def test_disarmed_breaker_is_detected(self):
        with mock.patch.object(CircuitBreaker, "allow", return_value=True):
            failed = _chaos_divergences()
        assert any(name.startswith("D: breaker sheds exactly two requests") for name in failed)
        assert any(name.startswith("D: breaker walks") for name in failed)

    def test_undelivered_injector_is_detected(self, monkeypatch):
        reference = chaos.reference_schedule

        def with_unreachable_injector(**kw):
            ref = reference(**kw)
            # a halo message the 8-step solve never sends
            unreachable = BitFlip("halo.payload", at=(10**9,))
            return FaultSchedule([*ref.injectors, unreachable], seed=ref.seed, name=ref.name)

        monkeypatch.setattr(chaos, "reference_schedule", with_unreachable_injector)
        failed = _chaos_divergences()
        assert any(name.startswith("C: all 6 scheduled injectors delivered") for name in failed)
