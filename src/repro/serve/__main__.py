"""``python -m repro.serve`` — run the compile service.

Foreground process; logs one line on start, exits 0 on SIGTERM/SIGINT.
Default is one daemon; ``--shards N`` boots fleet mode instead — N
supervised shard daemons sharing the on-disk object store behind a
consistent-hash router (see :mod:`repro.serve.fleet`).

Each mode imports only what it runs: a fleet's process is its router
and supervisor, and holds no compiler; only the daemon imports
:mod:`repro.serve.server`, and through it the compiler.
"""

from __future__ import annotations

import argparse
import sys


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="async compile server with content-addressed artifact "
                    "cache and crash-isolated workers; --shards N runs a "
                    "sharded fleet behind a consistent-hash router")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7767,
                        help="TCP port (default 7767; 0 = ephemeral, "
                             "see --port-file)")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="fleet mode: run N shard daemons behind a "
                             "router on --port (default 0 = single daemon)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="forked compile workers per daemon "
                             "(default 2)")
    parser.add_argument("--cache-dir", default="serve_cache",
                        help="artifact store directory; 'none' disables "
                             "the on-disk tier (default serve_cache; "
                             "fleet shards share it)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="B",
                        help="disk object-store budget; exceeding it "
                             "triggers an mtime-LRU GC sweep (default "
                             "unbounded)")
    parser.add_argument("--crash-dir", default="crash_reports",
                        help="where crash bundles go (worker deaths and "
                             "unrecoverable pipelines)")
    parser.add_argument("--max-pending", type=int, default=32, metavar="N",
                        help="compiles queued or running before the server "
                             "sheds load (default 32; per shard in fleet "
                             "mode)")
    parser.add_argument("--request-timeout", type=float, default=120.0,
                        metavar="S",
                        help="per-compile wall-clock budget in seconds; "
                             "overruns kill the worker (default 120)")
    parser.add_argument("--shard-name", default=None, metavar="NAME",
                        help="identity echoed by ping/stats (set by the "
                             "fleet manager)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port here once listening "
                             "(for --port 0)")
    parser.add_argument("--no-native", action="store_true",
                        help="disable the native execution tier; 'run' "
                             "requests stop tiering at the VM")
    parser.add_argument("--native-dir", default=None,
                        help="content-addressed .so store (default "
                             "<cache-dir>/native; single daemon only)")
    parser.add_argument("--hot-requests", type=int, default=None,
                        metavar="N",
                        help="run requests per program before a background "
                             "native compile starts (default 4; single "
                             "daemon only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.shards > 0:
        from .fleet import FleetConfig, run_fleet

        if args.cache_dir == "none":
            print("fleet mode needs a shared --cache-dir", file=sys.stderr)
            return 2
        # Shards are started with fleet-wide flags only; these two would
        # be dropped silently.
        for flag, value in (("--native-dir", args.native_dir),
                            ("--hot-requests", args.hot_requests)):
            if value is not None:
                print(f"fleet mode does not take {flag}", file=sys.stderr)
                return 2
        run_fleet(FleetConfig(
            host=args.host, port=args.port, shards=args.shards,
            workers_per_shard=args.workers, cache_dir=args.cache_dir,
            crash_dir=args.crash_dir, max_pending=args.max_pending,
            request_timeout=args.request_timeout,
            native=not args.no_native,
            cache_max_bytes=args.cache_max_bytes,
            port_file=args.port_file))
        print("repro.serve: clean fleet shutdown", flush=True)
        return 0
    from .server import ServerConfig, run_server

    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=None if args.cache_dir == "none" else args.cache_dir,
        crash_dir=args.crash_dir, max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        shard_name=args.shard_name, port_file=args.port_file,
        cache_max_bytes=args.cache_max_bytes,
        native=not args.no_native, native_dir=args.native_dir)
    if args.hot_requests is not None:
        config.tier_hot_requests = args.hot_requests
    print(f"repro.serve listening on {config.host}:{config.port} "
          f"({config.workers} workers, cache={config.cache_dir})",
          flush=True)
    run_server(config)
    print("repro.serve: clean shutdown", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
