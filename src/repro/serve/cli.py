"""CLI entry for ``python -m repro serve``.

Two modes:

* ``--check`` -- run the deterministic chaos acceptance scenario
  (:func:`repro.serve.chaos.run_chaos_check`) and exit 0/1: the CI
  gate.  ``--disarm-breaker`` is the planted negative control (the
  check MUST fail), ``--openmetrics PATH`` dumps the run's metrics.
* default -- start the service with an HTTP frontend and serve until
  interrupted; try::

      curl -s localhost:8077/healthz
      curl -s -X POST localhost:8077/solve \\
           -d '{"name": "demo", "resolution_km": 600, "num_layers": 3}'
      curl -s localhost:8077/metrics
"""

from __future__ import annotations

import asyncio

__all__ = ["register", "serve"]


def serve(args) -> int:
    from repro.serve.chaos import run_chaos_check

    workers, host, port = args.workers, args.host, args.port
    if args.check:
        return run_chaos_check(
            seed=args.seed,
            disarm_breaker=args.disarm_breaker,
            openmetrics_out=args.openmetrics,
            workers=workers,
        )

    from repro.serve.http import serve_http
    from repro.serve.service import SolveService

    async def main() -> int:
        service = SolveService(workers=workers, breaker_enabled=not args.disarm_breaker)
        async with service:
            print(f"solve service on http://{host}:{port} "
                  f"({workers} workers; endpoints: /healthz /metrics /solve)")
            await serve_http(service, host=host, port=port)
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def register(sub) -> None:
    p = sub.add_parser("serve", help="resilient async solve service (HTTP)", description=__doc__)
    p.add_argument("--check", action="store_true", help="run the chaos acceptance gate (exit 0/1)")
    p.add_argument("--seed", type=int, default=2024, help="chaos-scenario RNG seed")
    p.add_argument(
        "--disarm-breaker", action="store_true",
        help="disable the circuit breaker (--check negative control)",
    )
    p.add_argument(
        "--openmetrics", default=None, help="--check: write the run's metrics as OpenMetrics text"
    )
    p.add_argument("--workers", type=int, default=2, help="worker thread count")
    p.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    p.add_argument("--port", type=int, default=8077, help="HTTP bind port")
    p.set_defaults(run=serve)
