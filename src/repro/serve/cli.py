"""CLI entries for ``python -m repro serve`` and ``python -m repro chaos``.

* ``serve`` -- start the solve service with an HTTP frontend and serve
  until interrupted; try::

      curl -s localhost:8077/healthz
      curl -s -X POST localhost:8077/solve \\
           -d '{"name": "demo", "resolution_km": 600, "num_layers": 3}'
      curl -s localhost:8077/metrics

* ``chaos`` -- run the deterministic chaos scenario
  (:func:`repro.serve.chaos.run_chaos_check`): the service's dedup,
  worker kills and breaker, and the coarse SPMD solve under the
  reference fault schedule, every result bitwise against a fault-free
  solve.  ``--check`` exits 1 on any failed assertion (the CI gate);
  ``--disarm-breaker`` is the planted negative control (the check MUST
  fail); ``--openmetrics PATH`` dumps the run's metrics.
"""

from __future__ import annotations

import asyncio

__all__ = ["register", "serve", "chaos"]


def serve(args) -> int:
    from repro.serve.http import serve_http
    from repro.serve.service import SolveService

    workers, host, port = args.workers, args.host, args.port

    async def main() -> int:
        async with SolveService(workers=workers) as service:
            print(f"solve service on http://{host}:{port} "
                  f"({workers} workers; endpoints: /healthz /metrics /solve)")
            await serve_http(service, host=host, port=port)
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def chaos(args) -> int:
    from repro.serve.chaos import run_chaos_check

    rc = run_chaos_check(
        seed=args.seed,
        disarm_breaker=args.disarm_breaker,
        openmetrics_out=args.openmetrics,
    )
    return rc if args.check else 0


def register(sub) -> None:
    p = sub.add_parser("serve", help="resilient async solve service (HTTP)", description=__doc__)
    p.add_argument("--workers", type=int, default=2, help="worker thread count")
    p.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    p.add_argument("--port", type=int, default=8077, help="HTTP bind port")
    p.set_defaults(run=serve)

    p = sub.add_parser(
        "chaos", help="chaos scenario: faulted requests bitwise against fault-free solves",
        description=__doc__,
    )
    p.add_argument("--check", action="store_true", help="exit nonzero on failure (the CI gate)")
    p.add_argument("--seed", type=int, default=2024, help="fault-schedule RNG seed")
    p.add_argument(
        "--disarm-breaker", action="store_true",
        help="disable the circuit breaker (negative control: --check must fail)",
    )
    p.add_argument(
        "--openmetrics", default=None, help="write the run's metrics as OpenMetrics text"
    )
    p.set_defaults(run=chaos)
