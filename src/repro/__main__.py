"""Command-line interface: ``python -m repro`` (or the ``repro``
console script after ``pip install``).

Subcommands:

* ``bounds``          — print the closed-form theory via the network plugin's
  theory hooks (so the CLI and the engine brackets can never disagree);
* ``simulate``        — run one simulation and compare against the bounds;
* ``sweep``           — delay-vs-load series with an ASCII plot (parallel with ``--jobs``);
* ``list-scenarios``  — the registered scenario catalog;
* ``schemes``         — the scheme plugins and their declared capabilities;
* ``networks``        — the network plugins: aliases, options, and the
  scheme x network capability matrix;
* ``engines``         — the engine plugins: kind, disciplines, networks,
  options, and the scheme x engine capability matrix;
* ``traffics``        — the traffic plugins: aliases, options, closed-form
  theory, and the scheme x traffic capability matrix;
* ``describe``        — one scenario in full: spec fields + plugin capabilities;
* ``run``             — execute a registered scenario: parallel replications,
  pooled confidence interval, content-hash results cache;
* ``cache``           — inspect (``info [--json]``), clear, or evict
  (``prune --older-than/--max-bytes``) the content-hash results store
  (``clear``/``prune`` take the root's lock, as every cell write does);
* ``serve``           — the measurement server: an asyncio HTTP API over the
  results cache (POST specs, instant cache hits, queued jobs with SSE
  progress, cooperative cancel).

Examples::

    python -m repro bounds --d 6 --rho 0.8
    python -m repro bounds --network ring --d 5 --rho 0.7
    python -m repro simulate --network butterfly --d 5 --rho 0.7 --p 0.3
    python -m repro sweep --d 5 --points 6 --jobs 4
    python -m repro sweep --network ring --traffic hotspot --d 4 --points 4
    python -m repro list-scenarios
    python -m repro schemes
    python -m repro networks
    python -m repro engines
    python -m repro traffics
    python -m repro describe butterfly-greedy-event
    python -m repro run hypercube-greedy-mid --replications 8 --jobs 4
    python -m repro cache info --json
    python -m repro cache prune --older-than 30d --max-bytes 100mb
    python -m repro serve --port 8765 --workers 4

Exit status: 0 on success; 1 when ``run`` pools a mean delay outside
its theory bracket; 2 for a usage or configuration error (an unknown
name, a bad option), which prints one ``repro: error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.plotting import ascii_plot
from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.runner import (
    ResultsStore,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    measure,
    measure_many,
)


def _cmd_bounds(args: argparse.Namespace) -> int:
    # a throwaway greedy spec at the requested operating point; the
    # network plugin's bound_report derives its bracket rows from the
    # same greedy_theory_bounds hook the parallel engine uses
    spec = ScenarioSpec(
        name=f"bounds-{args.network}",
        network=args.network,
        traffic=args.traffic,
        d=args.d,
        rho=args.rho,
        p=args.p,
    )
    print(
        format_table(
            ["quantity", "value"],
            spec.network_plugin.bound_report(spec),
            title=f"{spec.network}, d={args.d}, rho={args.rho}, p={args.p}",
        )
    )
    return 0


def _legacy_spec(args: argparse.Namespace, rho: float, seed: int) -> ScenarioSpec:
    """One single-run greedy cell with a directly applied seed — the
    protocol the pre-runner ``simulate``/``sweep`` commands used."""
    return ScenarioSpec(
        name=f"cli-{args.network}",
        network=args.network,
        traffic=args.traffic,
        d=args.d,
        rho=rho,
        p=args.p,
        horizon=args.horizon,
        replications=1,
        base_seed=seed,
        seed_policy="sequential",
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.runner.engine import run_replication, theory_bounds

    spec = _legacy_spec(args, args.rho, args.seed)
    out = run_replication(spec, keep_record=True)
    ci = out.record.mean_delay_ci(spec.warmup_fraction)
    lower, upper = theory_bounds(spec)
    within = lower <= out.mean_delay <= upper
    print(
        format_table(
            ["quantity", "value"],
            [
                ("packets simulated", out.num_packets),
                ("lower bound", lower),
                ("measured mean delay", out.mean_delay),
                ("95% CI halfwidth", ci.halfwidth),
                ("upper bound", upper),
                ("inside the bracket", within),
            ],
            title=(
                f"{args.network} d={args.d} rho={args.rho} p={args.p} "
                f"horizon={args.horizon} seed={args.seed}"
            ),
        )
    )
    return 0 if within else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    rhos = [0.95 * (i + 1) / args.points for i in range(args.points)]
    specs = [
        _legacy_spec(args, rho, args.seed + i) for i, rho in enumerate(rhos)
    ]
    measurements = measure_many(specs, jobs=args.jobs)
    xs = [m.rho for m in measurements]
    ys = [m.mean_delay for m in measurements]
    rows = [
        (m.rho, m.lower_bound, m.mean_delay, m.upper_bound) for m in measurements
    ]
    print(
        format_table(
            ["rho", "lower", "measured T", "upper"],
            rows,
            title=f"{args.network} delay sweep, d={args.d}, p={args.p}",
        )
    )
    print()
    print(ascii_plot(xs, ys, width=60, height=14, xlabel="rho", ylabel="T"))
    return 0


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    rows = []
    for s in list_scenarios():
        point = f"rho={s.rho}" if s.rho is not None else (
            f"lam={s.lam}" if s.lam is not None else "-"
        )
        rows.append(
            (s.name, s.network, s.scheme, s.traffic, s.discipline, s.d,
             point, s.p, s.replications, s.description)
        )
    print(
        format_table(
            ["name", "network", "scheme", "traffic", "disc", "d", "load",
             "p", "reps", "description"],
            rows,
            title="registered scenarios (run one with: python -m repro run <name>)",
        )
    )
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    from repro.plugins import iter_plugins

    rows = []
    for plugin in iter_plugins():
        caps = plugin.capabilities
        rows.append(
            (
                plugin.name,
                "* (any)" if "*" in caps.networks else " ".join(caps.networks),
                " ".join(caps.engines) or "-",
                " ".join(caps.disciplines),
                " ".join(caps.option_names()) or "-",
                " ".join(caps.metrics) or "-",
                "static" if caps.static else "dynamic",
                plugin.summary,
            )
        )
    print(
        format_table(
            ["scheme", "networks", "engines", "disciplines", "options",
             "metrics", "kind", "summary"],
            rows,
            title="registered scheme plugins "
            "(extend via the repro.scheme_plugins entry-point group)",
        )
    )
    return 0


def _cmd_networks(args: argparse.Namespace) -> int:
    from repro.networks import iter_networks
    from repro.plugins import schemes_for_network

    rows = []
    for plugin in iter_networks():
        rows.append(
            (
                plugin.name,
                " ".join(plugin.aliases) or "-",
                " ".join(schemes_for_network(plugin.name)) or "-",
                " ".join(plugin.option_names()) or "-",
                plugin.summary,
            )
        )
    print(
        format_table(
            ["network", "aliases", "schemes", "options", "summary"],
            rows,
            title="registered network plugins "
            "(extend via the repro.network_plugins entry-point group)",
        )
    )
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.engines import declared_engine_names, iter_engines
    from repro.plugins import iter_plugins

    schemes = iter_plugins()
    rows = []
    for plugin in iter_engines():
        caps = plugin.capabilities
        forceable = " ".join(
            s.name
            for s in schemes
            if plugin.name in declared_engine_names(s.capabilities.engines)
        )
        rows.append(
            (
                plugin.name,
                " ".join(plugin.aliases) or "-",
                caps.kind,
                " ".join(caps.disciplines),
                "* (any)" if "*" in caps.networks else " ".join(caps.networks),
                " ".join(plugin.option_names()) or "-",
                forceable or "-",
                plugin.summary,
            )
        )
    print(
        format_table(
            ["engine", "aliases", "kind", "disciplines", "networks",
             "options", "schemes", "summary"],
            rows,
            title="registered engine plugins "
            "(extend via the repro.engine_plugins entry-point group)",
        )
    )
    return 0


def _cmd_traffics(args: argparse.Namespace) -> int:
    from repro.plugins import schemes_for_traffic
    from repro.traffic import iter_traffics

    rows = []
    for plugin in iter_traffics():
        rows.append(
            (
                plugin.name,
                " ".join(plugin.aliases) or "-",
                " ".join(schemes_for_traffic(plugin.name)) or "-",
                " ".join(plugin.option_names()) or "-",
                "eq. (1)" if plugin.paper_law else "-",
                "d-bit" if plugin.needs_address_bits else "any",
                plugin.summary,
            )
        )
    print(
        format_table(
            ["traffic", "aliases", "schemes", "options", "theory",
             "networks", "summary"],
            rows,
            title="registered traffic plugins "
            "(extend via the repro.traffic_plugins entry-point group)",
        )
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json as _json

    from repro.runner.store import parse_duration, parse_size

    store = ResultsStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(
            f"cleared {removed.pooled} pooled and {removed.replications} "
            f"per-replication cells ({removed.total_bytes} bytes) from "
            f"{store.root}"
        )
        return 0
    if args.action == "prune":
        older_than = (
            parse_duration(args.older_than) if args.older_than else None
        )
        max_bytes = parse_size(args.max_bytes) if args.max_bytes else None
        if older_than is None and max_bytes is None:
            print(
                "nothing to prune: give --older-than and/or --max-bytes",
                file=sys.stderr,
            )
            return 2
        removed = store.prune(older_than=older_than, max_bytes=max_bytes)
        payload = {
            "root": str(store.root),
            "action": "prune",
            "removed": removed.to_dict(),
            "remaining": store.stats().to_dict(),
        }
        if args.json:
            print(_json.dumps(payload, indent=1, sort_keys=True))
        else:
            print(
                f"pruned {removed.pooled} pooled and {removed.replications} "
                f"per-replication cells ({removed.total_bytes} bytes) from "
                f"{store.root}"
            )
        return 0
    # info: verify every cell so silent-miss rot (corrupt cells) is visible
    stats = store.stats(verify=True)
    if args.json:
        payload = {
            "root": str(store.root),
            "exists": store.root.is_dir(),
            "pooled": stats.pooled,
            "replications": stats.replications,
            "total_bytes": stats.total_bytes,
            "corrupt": stats.corrupt,
        }
        print(_json.dumps(payload, indent=1, sort_keys=True))
        return 0
    rows = [
        ("root", str(store.root)),
        ("exists", store.root.is_dir()),
        ("pooled cells", stats.pooled),
        ("per-replication cells", stats.replications),
        ("total bytes", stats.total_bytes),
        ("corrupt cells", stats.corrupt),
    ]
    print(format_table(["quantity", "value"], rows, title="results store"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runner.store import parse_duration
    from repro.serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        wave_reps=args.wave_reps,
        job_ttl=parse_duration(args.job_ttl),
    )

    async def _main() -> None:
        await server.start()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(workers={server.manager.workers}, "
            f"cache={server.store_root})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.engines import resolve_engine

    spec = get_scenario(args.scenario)
    plugin = spec.plugin
    net = spec.network_plugin
    tp = spec.traffic_plugin
    engine = resolve_engine(spec)
    caps = plugin.capabilities
    point = (
        "(static task)"
        if spec.is_static
        else f"rho={spec.resolved_rho:.4g}, lam={spec.resolved_lam:.4g}"
    )
    rows = [
        ("description", spec.description or "-"),
        ("network / scheme", f"{spec.network} / {spec.scheme} ({spec.discipline})"),
        ("plugin", f"{type(plugin).__name__}: {plugin.summary}"),
        ("network plugin", f"{type(net).__name__}: {net.summary}"),
        ("traffic", spec.traffic),
        ("traffic plugin", f"{type(tp).__name__}: {tp.summary}"),
        ("operating point", f"d={spec.d}, p={spec.p}, {point}"),
        ("engine", spec.engine),
        (
            "resolved engine",
            "(scheme-managed loop)"
            if engine is None
            else f"{engine.name} ({engine.capabilities.kind})",
        ),
        ("horizon / trims",
         f"{spec.horizon} (warmup {spec.warmup_fraction}, "
         f"cooldown {spec.cooldown_fraction})"),
        ("replications / seed",
         f"{spec.replications} ({spec.seed_policy}, base {spec.base_seed})"),
        ("content hash", spec.content_hash()),
        ("scheme networks", " ".join(caps.networks)),
        ("scheme engines", " ".join(caps.engines) or "(auto only)"),
        ("scheme traffics", " ".join(caps.traffics)),
        ("scheme disciplines", " ".join(caps.disciplines)),
        ("scheme metrics", " ".join(caps.metrics) or "-"),
    ]
    def _option_rows(label, options):
        for opt in options:
            value = spec.option(opt.name, opt.default)
            choices = (
                f" one of {', '.join(map(str, opt.choices))};" if opt.choices else ""
            )
            rows.append(
                (
                    f"{label}: {opt.name}",
                    f"{value!r} ({opt.kind};{choices} {opt.description})",
                )
            )

    _option_rows("option", caps.options)
    if caps.network_options:
        _option_rows("network option", net.options)
    _option_rows("traffic option", tp.options)
    if engine is not None:
        _option_rows("engine option", engine.capabilities.options)
    print(format_table(["field", "value"], rows,
                       title=f"scenario {spec.name!r}"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = get_scenario(args.scenario)
    overrides = {}
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.d is not None:
        overrides["d"] = args.d
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.discipline is not None:
        overrides["discipline"] = args.discipline
    if args.options:
        import json as _json

        extra = spec.to_dict()["extra"]
        for item in args.options:
            key, sep, raw = item.partition("=")
            if not sep or not key:
                raise ConfigurationError(
                    f"--set expects KEY=VALUE, got {item!r}"
                )
            try:
                extra[key] = _json.loads(raw)
            except _json.JSONDecodeError:
                extra[key] = raw
        overrides["extra"] = extra
    if overrides:
        spec = spec.replace(**overrides)
    store = None if args.no_cache else ResultsStore(args.cache_dir)
    profiling = args.profile or args.profile_out is not None
    # a corrupt/torn cell counts as a miss, so probe with load, not
    # contains; skip the probe entirely under --profile so a profiled
    # simulation always actually runs
    m = None
    if store is not None and not args.refresh and not profiling:
        m = store.load(spec)
    cached = m is not None
    if m is None:
        if profiling:
            import cProfile
            import pstats
            import sys

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                m = measure(spec, jobs=args.jobs, store=store, refresh=True)
            finally:
                profiler.disable()
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(20)
                if args.profile_out is not None:
                    stats.dump_stats(args.profile_out)
        else:
            m = measure(spec, jobs=args.jobs, store=store,
                        refresh=args.refresh)
    rows = [
        ("network / scheme", f"{m.network} / {m.scheme} ({m.discipline})"),
        ("traffic", m.traffic),
        ("d, rho, p", f"{m.d}, {m.rho:.4g}, {m.p}"),
        ("per-node rate lam", m.lam),
        ("replications", m.num_replications),
        ("packets simulated", m.num_packets),
        ("lower bound", m.lower_bound),
        ("pooled mean delay", m.mean_delay),
        (
            "95% CI halfwidth",
            m.ci.halfwidth if m.ci is not None else float("nan"),
        ),
        ("upper bound", m.upper_bound),
        ("inside the bracket", m.within_bounds),
    ]
    rows += [(f"metric: {k}", v) for k, v in m.metrics]
    if m.replication_delays is not None:
        rows.append(
            (
                "per-replication T",
                " ".join(f"{x:.6g}" for x in m.replication_delays),
            )
        )
    source = "results cache" if (cached and not args.refresh) else (
        f"computed with jobs={args.jobs}"
    )
    rows.append(("source", source))
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"scenario {spec.name!r} (seed {spec.base_seed}, "
            f"policy {spec.seed_policy})",
        )
    )
    return 0 if m.within_bounds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Greedy routing in hypercubes and butterflies (SPAA 1991)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.networks import all_network_names
    from repro.traffic import all_traffic_names

    def _common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--network", choices=list(all_network_names()),
                        default="hypercube",
                        help="a registered network plugin (or alias)")
        sp.add_argument("--traffic", choices=list(all_traffic_names()),
                        default="uniform",
                        help="a registered traffic plugin (or alias)")
        sp.add_argument("--d", type=int, default=6, help="dimension")
        sp.add_argument("--rho", type=float, default=0.8, help="load factor")
        sp.add_argument("--p", type=float, default=0.5,
                        help="bit-flip probability (eq. 1; hypercube/butterfly)")

    sp = sub.add_parser("bounds", help="print the closed-form theory")
    _common(sp)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("simulate", help="one simulation vs the bounds")
    _common(sp)
    sp.add_argument("--horizon", type=float, default=600.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("sweep", help="delay-vs-load series + ASCII plot")
    _common(sp)
    sp.add_argument("--points", type=int, default=6)
    sp.add_argument("--horizon", type=float, default=500.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1,
                    help="parallel worker processes")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("list-scenarios", help="the registered scenario catalog")
    sp.set_defaults(func=_cmd_list_scenarios)

    sp = sub.add_parser(
        "schemes", help="the scheme plugins and their declared capabilities"
    )
    sp.set_defaults(func=_cmd_schemes)

    sp = sub.add_parser(
        "networks",
        help="the network plugins: aliases, options, scheme matrix",
    )
    sp.set_defaults(func=_cmd_networks)

    sp = sub.add_parser(
        "engines",
        help="the engine plugins: kind, disciplines, options, scheme matrix",
    )
    sp.set_defaults(func=_cmd_engines)

    sp = sub.add_parser(
        "traffics",
        help="the traffic plugins: aliases, options, theory, scheme matrix",
    )
    sp.set_defaults(func=_cmd_traffics)

    sp = sub.add_parser(
        "cache",
        help="inspect, clear, or prune the content-hash results store",
    )
    sp.add_argument("action", choices=("info", "clear", "prune"),
                    help="info = cell counts, size, and corrupt-cell rot; "
                    "clear = delete the store's cells (foreign files are "
                    "left alone); prune = TTL/LRU eviction")
    sp.add_argument("--cache-dir", default=None,
                    help="results store root (default: $REPRO_CACHE_DIR or .repro-cache)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable output (info and prune)")
    sp.add_argument("--older-than", default=None, metavar="AGE",
                    help="prune: drop cells older than AGE (e.g. 90, 12h, 30d)")
    sp.add_argument("--max-bytes", default=None, metavar="SIZE",
                    help="prune: evict LRU cells until the store fits SIZE "
                    "(e.g. 4096, 512kb, 100mb)")
    sp.set_defaults(func=_cmd_cache)

    sp = sub.add_parser(
        "serve",
        help="measurement server: HTTP API over the results cache",
    )
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8765,
                    help="TCP port (0 picks a free one)")
    sp.add_argument("--workers", type=int, default=2,
                    help="measurement worker processes")
    sp.add_argument("--cache-dir", default=None,
                    help="results store root, pinned at startup "
                    "(default: $REPRO_CACHE_DIR or .repro-cache)")
    sp.add_argument("--wave-reps", type=int, default=1,
                    help="replications per task wave, at least 1: the "
                    "progress/cancellation granularity of a job (larger = "
                    "more batching throughput, chunkier progress)")
    sp.add_argument("--job-ttl", default="1h", metavar="AGE",
                    help="retain terminal jobs this long before "
                    "evicting them from the job table (e.g. 90, 12h, "
                    "30d; default 1h). Active jobs are never evicted")
    sp.set_defaults(func=_cmd_serve)

    sp = sub.add_parser(
        "describe",
        help="one scenario in full: spec fields + plugin capabilities",
    )
    sp.add_argument("scenario", help="a name from list-scenarios")
    sp.set_defaults(func=_cmd_describe)

    sp = sub.add_parser(
        "run",
        help="run a registered scenario (parallel replications, cached results)",
    )
    sp.add_argument("scenario", help="a name from list-scenarios")
    sp.add_argument("--replications", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1,
                    help="parallel worker processes")
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None, help="base seed")
    sp.add_argument("--discipline", default=None, choices=("fifo", "ps"),
                    help="override the scenario's queueing discipline")
    sp.add_argument("--set", action="append", default=[], dest="options",
                    metavar="KEY=VALUE",
                    help="override a typed engine/network/traffic option "
                    "(e.g. --set chunk_packets=32768); repeatable")
    sp.add_argument("--cache-dir", default=None,
                    help="results store root (default: $REPRO_CACHE_DIR or .repro-cache)")
    sp.add_argument("--no-cache", action="store_true",
                    help="neither read nor write the results store")
    sp.add_argument("--refresh", action="store_true",
                    help="recompute even on a cache hit")
    sp.add_argument("--profile", action="store_true",
                    help="run under cProfile and print the top 20 "
                    "cumulative-time entries to stderr (forces a "
                    "recomputation so there is something to profile)")
    sp.add_argument("--profile-out", default=None, metavar="FILE",
                    help="also dump the raw pstats data to FILE "
                    "(implies --profile; load with pstats.Stats)")
    sp.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        # a typo, not a measured result (1) or an internal fault (a
        # traceback): one line and argparse's usage status
        print(f"repro: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
