"""CLI entry for ``python -m repro serve``: start the solve service with
an HTTP frontend and serve until interrupted; try::

    curl -s localhost:8077/healthz
    curl -s -X POST localhost:8077/solve \\
         -d '{"name": "demo", "resolution_km": 600, "num_layers": 3}'
    curl -s localhost:8077/metrics

The chaos scenario against the service is the ``serve`` suite of
``python -m repro verify``.
"""

from __future__ import annotations

import asyncio

from repro.cli_types import port, positive_int

__all__ = ["register", "serve"]


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


def register(sub) -> None:
    p = sub.add_parser("serve", help="resilient async solve service (HTTP)", description=__doc__)
    p.add_argument(
        "--workers", type=positive_int, default=2,
        help="workers, each solving in its own forked numerics process",
    )
    p.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    p.add_argument("--port", type=port, default=8077, help="HTTP bind port")
    p.set_defaults(run=serve)
