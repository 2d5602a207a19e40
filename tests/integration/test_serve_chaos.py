"""End-to-end chaos acceptance: the ``python -m repro chaos --check`` gate.

Runs the full deterministic chaos scenario in-process -- real meshes,
real Newton/GMRES solves, two scripted worker kills, the reference
fault schedule on the coarse 4-rank SPMD solve, a deadline storm that
trips the circuit breaker -- and asserts the harness's own verdict:
every completed request bitwise-identical to its fault-free reference.

The disarmed breaker and an injector the solve never reaches are the
planted negative controls: each MUST fail the check.  A "chaos check"
that cannot fail is not a check.
"""

from repro.resilience.injectors import BitFlip, FaultSchedule
from repro.serve import chaos, run_chaos_check


class TestServeChaos:
    def test_chaos_check_passes(self, tmp_path):
        om = tmp_path / "serve.om"
        assert run_chaos_check(seed=2024, openmetrics_out=str(om), verbose=False) == 0
        # the exposition the check wrote is structurally valid and
        # carries the service's decision counters
        from repro.observability import parse_exposition

        families = parse_exposition(om.read_text())
        serve_families = [f for f in families if f.startswith("serve_")]
        assert "serve_requests" in families
        assert "serve_dedup" in families
        assert "serve_worker_deaths" in families
        assert len(serve_families) >= 10

    def test_disarmed_breaker_is_detected(self):
        assert run_chaos_check(seed=2024, disarm_breaker=True, verbose=False) == 1

    def test_undelivered_injector_is_detected(self, monkeypatch):
        reference = chaos.reference_schedule

        def with_unreachable_injector(**kw):
            ref = reference(**kw)
            # a halo message the 8-step solve never sends
            unreachable = BitFlip("halo.payload", at=(10**9,))
            return FaultSchedule([*ref.injectors, unreachable], seed=ref.seed, name=ref.name)

        monkeypatch.setattr(chaos, "reference_schedule", with_unreachable_injector)
        assert run_chaos_check(seed=2024, verbose=False) == 1
