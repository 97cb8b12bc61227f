"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``problems``                    list the benchmark problems
- ``solve <problem_id>``          run MAGE on one problem
- ``run <problem_id>``            solve one task with a live event stream
- ``eval <system> <suite>``       evaluate a registered system
- ``bench <system> <suite>``      benchmark the runtime (speedup, cache)
- ``cache``                       per-layer, per-tier cache stats
                                  (``--clear [--layer sim|solve|llm]``
                                  wipes a disk tier)
- ``stats``                       gateway / per-stage / cache metrics
                                  (local process or ``--service``)
- ``serve``                       start a long-lived solve service
- ``submit <system> <problem>``   submit one cell to a running service
- ``lint <file.v>``               lint a Verilog file
- ``tb <file.v> <bench.tb>``      run a testbench against a design

``eval`` and ``bench`` accept ``--jobs N`` (parallel workers; results
are bit-identical at any worker count for fixed seeds),
``--cache/--no-cache`` (content-addressed simulation memoization), and
``--solve-cache`` (whole solve-cell memoization: repeated sweeps over
the same ``config x problem x seed`` grid re-run near-free).
``eval --runs`` defaults to the ``REPRO_EVAL_RUNS`` environment
override, falling back to 1; ``eval --progress`` streams typed
per-cell events as they finish.

Rollout batching: ``eval --rollout-batch N|auto`` gang-schedules the
Step-4 sampling stage across up to N concurrent grid cells (coalesced
candidate-scoring waves through the simulation cache); ``auto`` sizes
waves adaptively from the StageClock's measured per-stage costs and
turns on speculative simulation (cache warming only).  ``bench
--rollout`` measures it against cold *and* warm serial-sampling
baselines (``speedup_vs_cold`` is gated via ``--min-speedup``; numbers
in ``BENCH_rollout.json``), ``serve --rollout-batch N`` turns the same
batching on inside the solve service's workers, and ``serve
--steal-peer ADDR`` lets a server's idle workers drain a busy peer's
published score waves (``WaveSteal`` frames, results returned through
the cache fabric).  Batched rows and event streams stay bit-identical
to ``--jobs 1`` serial runs -- with fixed or auto widths, with or
without speculation, stolen or local.

Service mode: ``serve`` binds a localhost TCP solve service (broker +
long-lived worker pool over both cache layers); ``submit`` streams one
cell's typed events from it; ``eval --service HOST:PORT[,HOST:PORT...]``
shards the evaluation grid across running servers with a deterministic
merge (bit-identical to local ``--jobs 1``); ``bench --service``
measures submit-to-done latency and warm-cache serving speedup, writing
``BENCH_service.json``; ``cache --service`` and ``serve --stop`` query
and drain a running server.

LLM gateway: ``eval``/``run``/``serve`` accept ``--gateway`` (route
every LLM call through the multi-backend gateway), ``--backends
CHAIN`` (ordered fallback chain, e.g. ``openai,anthropic,sim``;
``flaky@N`` and ``down`` exist for failure drills), ``--stage-model
role=model`` (per-agent-role routing for tb/rtl/judge/debug), and the
cassette pair ``--record``/``--replay`` with ``--cassette-dir DIR``:
record writes every completion into a content-addressed cassette
store (shareable over cache peers as the ``llm`` layer), replay
serves from it with zero network and fails loudly on a miss.  Replay
rows and event streams are bit-identical to the recording run.  The
``stats`` command reports gateway call/retry/fallback/token counters
and per-stage wall-clock.

Cache fabric: both cache layers are tiered (memory -> disk -> remote
peers).  ``eval --cache-peer ADDR``, ``serve --cache-peer ADDR``, and
``bench --cache-peer ADDR`` join one or more running solve servers to
the local fabric as remote tiers -- cells and simulations warmed
anywhere in the peer ring replay locally (rows and event streams stay
bit-identical), and fresh results gossip back over the service
protocol's ``CachePut`` frames.  ``bench --peer-cache`` gates the
cold-via-peer speedup into ``BENCH_cache.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _batch_width(value: str):
    """``--rollout-batch`` values: a positive wave width or ``auto``.

    ``auto`` turns on cost-aware adaptive sizing: the scheduler feeds
    the StageClock's measured per-stage wall-clock into a WavePlanner
    that re-sizes every wave (rows stay bit-identical either way).
    """
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer wave width or 'auto', got {value!r}"
        ) from None


def _cmd_problems(_args) -> int:
    from repro.evalsets import all_problems

    print(f"{'id':22s} {'category':14s} {'diff':>5s} title")
    print("-" * 72)
    for problem in all_problems():
        print(
            f"{problem.id:22s} {problem.category:14s} "
            f"{problem.difficulty:5.2f} {problem.title}"
        )
    return 0


def _cmd_solve(args) -> int:
    from repro import MAGE, DesignTask, MAGEConfig
    from repro.evalsets import get_problem, golden_testbench
    from repro.tb.runner import run_testbench

    problem = get_problem(args.problem)
    config = (
        MAGEConfig.low_temperature()
        if args.low_temperature
        else MAGEConfig.high_temperature()
    )
    result = MAGE(config).solve(DesignTask.from_problem(problem), seed=args.seed)
    print(result.transcript.render())
    print()
    print(result.source)
    golden = run_testbench(result.source, golden_testbench(problem), problem.top)
    print(f"golden testbench: {'PASS' if golden.passed else 'FAIL'}")
    return 0 if golden.passed else 1


def _cmd_run(args) -> int:
    """Solve one named task with the typed event stream printed live."""
    from functools import partial

    from repro import MAGEConfig
    from repro.baselines.registry import MAGESystem, SYSTEMS, system_names
    from repro.core.events import StreamSink
    from repro.evalsets import get_problem, golden_testbench
    from repro.runtime.cache import (
        SolveCellCache,
        cached_run_testbench,
        system_fingerprint,
    )
    from repro.runtime.workers import solve_streaming

    try:
        problem = get_problem(args.problem)
    except KeyError as exc:
        print(f"error: {exc}")
        return 2
    failed = _activate_gateway(args)
    if failed is not None:
        return failed
    sink = StreamSink(write=lambda line: print(f"  | {line}"))
    if args.system == "mage":
        config = (
            MAGEConfig.low_temperature()
            if args.low_temperature
            else MAGEConfig.high_temperature()
        )
        factory = partial(MAGESystem, config)
    else:
        if args.system not in SYSTEMS:
            print(f"unknown system; choose from: mage, {', '.join(system_names())}")
            return 2
        if args.low_temperature:
            print(
                "error: --low-temperature only applies to --system mage "
                "(registered systems carry their own sampling settings)"
            )
            return 2
        factory = SYSTEMS[args.system].factory
    solve_cache = None
    if args.solve_cache or args.solve_cache_dir:
        solve_cache = SolveCellCache(
            args.solve_cache_dir or os.environ.get("REPRO_SOLVE_CACHE_DIR")
        )
    fingerprint = (
        system_fingerprint(factory) if solve_cache is not None else None
    )
    source, cached = solve_streaming(
        factory,
        problem,
        args.seed,
        sink=sink,
        solve_cache=solve_cache,
        fingerprint=fingerprint,
    )
    if solve_cache is not None:
        print(f"solve-cell cache: {'hit' if cached else 'miss'}")
    print()
    print(source)
    golden = cached_run_testbench(source, golden_testbench(problem), problem.top)
    print(f"golden testbench: {'PASS' if golden.passed else 'FAIL'}")
    return 0 if golden.passed else 1


def _add_gateway_flags(parser) -> None:
    """The LLM-gateway flag family shared by eval/run/serve."""
    parser.add_argument(
        "--gateway",
        action="store_true",
        help="route LLM calls through the multi-backend gateway "
        "(retry/backoff, fallback chains, call accounting)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="gateway record mode: write every completion into the "
        "cassette store (implies --gateway)",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="gateway replay mode: serve completions from the cassette "
        "store with zero network; a miss is an error (implies --gateway)",
    )
    parser.add_argument(
        "--cassette-dir",
        default=None,
        help="cassette store directory (default: $REPRO_CASSETTE_DIR)",
    )
    parser.add_argument(
        "--backends",
        default=None,
        metavar="CHAIN",
        help="ordered gateway fallback chain, comma-separated "
        "(sim, openai[:URL], anthropic[:URL], flaky@N, down; "
        "default: $REPRO_GATEWAY_BACKENDS or sim)",
    )
    parser.add_argument(
        "--stage-model",
        action="append",
        default=None,
        metavar="ROLE=MODEL",
        help="route one agent role (tb|rtl|judge|debug) to a model; "
        "repeatable (default: $REPRO_STAGE_MODELS)",
    )


def _gateway_from_args(args):
    """(settings, error): gateway settings from flags over env, or
    (None, None) when no gateway flag was given."""
    flagged = any(
        (
            args.gateway,
            args.record,
            args.replay,
            args.cassette_dir,
            args.backends,
            args.stage_model,
        )
    )
    if not flagged:
        return None, None
    if args.record and args.replay:
        return None, "error: --record and --replay are mutually exclusive"
    from repro.llm.gateway import (
        GatewaySettings,
        parse_backends,
        parse_stage_models,
    )

    overrides: dict = {"enabled": True}
    if args.record:
        overrides["mode"] = "record"
    if args.replay:
        overrides["mode"] = "replay"
    if args.cassette_dir:
        overrides["cassette_dir"] = args.cassette_dir
    if args.backends:
        overrides["backends"] = parse_backends(args.backends)
    if args.stage_model:
        try:
            overrides["stage_models"] = parse_stage_models(
                ",".join(args.stage_model)
            )
        except ValueError as exc:
            return None, f"error: {exc}"
    try:
        settings = GatewaySettings.from_env(**overrides)
    except ValueError as exc:
        return None, f"error: {exc}"
    if settings.mode in ("record", "replay") and not settings.cassette_dir:
        return None, (
            "error: --record/--replay need --cassette-dir "
            "(or REPRO_CASSETTE_DIR)"
        )
    return settings, None


def _activate_gateway(args) -> int | None:
    """Materialise gateway flags into the environment; error code or None.

    Writing ``settings.to_env()`` through ``os.environ`` is the one
    propagation path that reaches everything downstream -- lazily built
    runtime contexts, pool worker processes, and a ``serve`` server's
    construction-time resolution -- without threading a settings object
    through every call site.
    """
    settings, error = _gateway_from_args(args)
    if error is not None:
        print(error)
        return 2
    if settings is not None:
        os.environ.update(settings.to_env())
    return None


def _render_gateway_lines(gw: dict, mode: str | None = None) -> list[str]:
    """Human-readable gateway counter block (CLI stats surface)."""
    suffix = f" (mode: {mode})" if mode else ""
    lines = [
        f"  calls {gw.get('calls', 0)}, "
        f"completions {gw.get('completions', 0)}, "
        f"retries {gw.get('retries', 0)}, "
        f"fallbacks {gw.get('fallbacks', 0)}, "
        f"failures {gw.get('failures', 0)}{suffix}",
        f"  tokens: {gw.get('prompt_tokens', 0)} prompt + "
        f"{gw.get('completion_tokens', 0)} completion "
        f"(est. cost ${gw.get('cost', 0.0):.4f})",
        f"  cassette: {gw.get('cassette_hits', 0)} hits, "
        f"{gw.get('cassette_misses', 0)} misses, "
        f"{gw.get('recorded', 0)} recorded, "
        f"{gw.get('replayed', 0)} replayed; "
        f"rate-limit waits {gw.get('rate_limit_waits', 0)}",
    ]
    return lines


def _render_stage_lines(stages: dict) -> list[str]:
    """One line per pipeline stage from a StageClock snapshot."""
    lines = []
    for name, entry in stages.items():
        runs = entry.get("runs", 0)
        seconds = entry.get("seconds", 0.0)
        mean = seconds / runs if runs else 0.0
        lines.append(
            f"  {name:40s} runs {runs:>5d}  total {seconds:8.3f}s  "
            f"mean {mean:7.4f}s"
        )
    return lines


def _render_counter_line(stats: dict) -> str:
    lookups = stats.get("lookups", 0)
    hits = stats.get("hits", 0)
    rate = 100.0 * hits / lookups if lookups else 0.0
    line = (
        f"lookups {lookups}, hits {hits} "
        f"(disk {stats.get('disk_hits', 0)}, "
        f"peer {stats.get('remote_hits', 0)}), "
        f"misses {stats.get('misses', 0)}, "
        f"stores {stats.get('stores', 0)}, hit-rate {rate:.1f}%"
    )
    if stats.get("corrupt"):
        line += f", corrupt {stats['corrupt']}"
    return line


def _render_tier_lines(tiers: list[dict]) -> list[str]:
    """One indented line per cache tier (the fabric's stats surface)."""
    lines = []
    for tier in tiers:
        entries = tier.get("entries")
        shown = "?" if entries is None else str(entries)
        line = (
            f"    tier {tier.get('detail', tier.get('kind', '?')):40s} "
            f"entries {shown:>6s}  hits {tier.get('hits', 0)}, "
            f"misses {tier.get('misses', 0)}, stores {tier.get('stores', 0)}"
        )
        if tier.get("corrupt"):
            line += f", corrupt {tier['corrupt']}"
        if tier.get("errors"):
            line += f", errors {tier['errors']}"
        if tier.get("evictions"):
            line += f", evictions {tier['evictions']}"
        if tier.get("expired"):
            line += f", expired {tier['expired']}"
        lines.append(line)
    return lines


def _cmd_cache_clear(args) -> int:
    """``cache --clear``: wipe the selected on-disk tier(s)."""
    from repro.runtime.cache import clear_disk_cache

    layers = [
        ("sim", args.sim_dir or os.environ.get("REPRO_SIM_CACHE_DIR")),
        ("solve", args.solve_dir or os.environ.get("REPRO_SOLVE_CACHE_DIR")),
        ("llm", args.cassette_dir or os.environ.get("REPRO_CASSETTE_DIR")),
    ]
    if args.layer:
        layers = [(name, directory) for name, directory in layers if name == args.layer]
    cleared = False
    for name, directory in layers:
        if not directory:
            print(f"{name}: no disk directory configured, nothing to clear")
            continue
        removed = clear_disk_cache(directory)
        print(
            f"{name}: cleared {removed.entries} entries "
            f"({removed.megabytes:.2f} MiB) from {directory}"
        )
        cleared = True
    if not cleared:
        print(
            "error: nothing to clear; pass --sim-dir/--solve-dir/"
            "--cassette-dir or set REPRO_SIM_CACHE_DIR / "
            "REPRO_SOLVE_CACHE_DIR / REPRO_CASSETTE_DIR"
        )
        return 2
    return 0


def _cmd_cache(args) -> int:
    """Per-layer cache report: disk size plus per-tier hit/miss counters.

    The two layers (simulation vs solve-cell) are reported separately
    and identically (entry counts + bytes for the disk tier, counters
    for every tier of the live fabric); ``--service`` queries a running
    solve server's live counters instead of this process's, and
    ``--clear`` wipes the selected on-disk tier(s) instead of
    reporting.
    """
    from repro.runtime.cache import disk_cache_info
    from repro.runtime.context import get_runtime

    if args.clear:
        return _cmd_cache_clear(args)
    if args.service:
        from repro.service import ProtocolError, ServiceError, fetch_stats

        try:
            stats = fetch_stats(args.service)
        except (OSError, ValueError, ServiceError, ProtocolError) as exc:
            print(f"error: cannot reach service at {args.service}: {exc}")
            return 2
        broker = stats.get("broker", {})
        workers = stats.get("service", {})
        print(
            f"service {stats.get('address', args.service)}: "
            f"{stats.get('workers', 0)} workers, "
            f"{stats.get('pending', 0)} pending"
        )
        print(
            f"  requests: submitted {broker.get('submitted', 0)}, "
            f"deduped {broker.get('deduped', 0)}, "
            f"completed {broker.get('completed', 0)}, "
            f"failed {broker.get('failed', 0)}, "
            f"rejected {broker.get('rejected', 0)}"
        )
        print(
            f"  workers: executed {workers.get('executed', 0)}, "
            f"cache-served {workers.get('cache_served', 0)}, "
            f"errors {workers.get('errors', 0)}"
        )
        print(
            f"  peer traffic: gets {workers.get('peer_gets', 0)} "
            f"(hits {workers.get('peer_hits', 0)}), "
            f"puts {workers.get('peer_puts', 0)}"
        )
        layers = stats.get("caches", {})
        for label, key in (
            ("simulation cache", "simulation"),
            ("solve-cell cache", "solve_cell"),
            ("cassette cache", "cassette"),
        ):
            layer = layers.get(key)
            if layer is None:
                print(f"  {label}: disabled")
                continue
            print(
                f"  {label}: {layer.get('entries', 0)} entries, "
                + _render_counter_line(layer)
            )
            for line in _render_tier_lines(layer.get("tiers") or []):
                print("  " + line)
        return 0

    runtime = get_runtime()
    layers = [
        (
            "simulation cache",
            args.sim_dir or os.environ.get("REPRO_SIM_CACHE_DIR"),
            runtime.cache,
            "REPRO_SIM_CACHE=1",
        ),
        (
            "solve-cell cache",
            args.solve_dir or os.environ.get("REPRO_SOLVE_CACHE_DIR"),
            runtime.solve_cache,
            "REPRO_SOLVE_CACHE=1",
        ),
        (
            "cassette cache",
            args.cassette_dir or os.environ.get("REPRO_CASSETTE_DIR"),
            None,
            "REPRO_GATEWAY=1 with a cassette dir",
        ),
    ]
    reported = False
    for label, directory, live, enable_hint in layers:
        print(label)
        if not directory:
            print("  disk: no disk directory configured")
        else:
            info = disk_cache_info(directory)
            print(
                f"  disk: {info.directory}: {info.entries} entries, "
                f"{info.megabytes:.2f} MiB"
            )
            reported = True
        if live is None:
            print(f"  this process: layer not active (set {enable_hint})")
        else:
            stats = live.stats
            print(
                "  this process: "
                + _render_counter_line(
                    {
                        "lookups": stats.lookups,
                        "hits": stats.hits,
                        "misses": stats.misses,
                        "stores": stats.stores,
                        "disk_hits": stats.disk_hits,
                        "remote_hits": stats.remote_hits,
                        "corrupt": stats.corrupt,
                    }
                )
            )
            for line in _render_tier_lines(live.tier_report()):
                print(line)
    if not reported:
        print(
            "hint: set REPRO_SIM_CACHE_DIR / REPRO_SOLVE_CACHE_DIR (or pass "
            "--sim-dir / --solve-dir) to persist caches across processes; "
            "--service HOST:PORT reports a running solve server instead"
        )
    return 0


def _cmd_stats(args) -> int:
    """Runtime metrics report: gateway, per-stage wall-clock, caches.

    Local mode reports this process's counters -- mostly useful after
    an in-process run or under test; ``--service HOST:PORT`` renders a
    running solve server's live :class:`StatsReply` instead, which is
    the normal way to watch a long-lived deployment.  ``--prometheus``
    renders either snapshot in the Prometheus text exposition format
    (scrape-by-cron / textfile-collector friendly).
    """
    if args.service:
        from repro.service import ProtocolError, ServiceError, fetch_stats

        try:
            stats = fetch_stats(args.service)
        except (OSError, ValueError, ServiceError, ProtocolError) as exc:
            print(f"error: cannot reach service at {args.service}: {exc}")
            return 2
        if args.prometheus:
            from repro.service import render_prometheus

            print(render_prometheus(stats), end="")
            return 0
        print(
            f"service {stats.get('address', args.service)}: "
            f"{stats.get('workers', 0)} workers, "
            f"{stats.get('pending', 0)} pending"
        )
        print("gateway")
        for line in _render_gateway_lines(
            stats.get("gateway", {}), stats.get("gateway_mode")
        ):
            print(line)
        stages = stats.get("stages", {})
        print("stages")
        if stages:
            for line in _render_stage_lines(stages):
                print(line)
        else:
            print("  no stage executions yet")
        layers = stats.get("caches", {})
        print("caches")
        for label, key in (
            ("simulation", "simulation"),
            ("solve-cell", "solve_cell"),
            ("cassette", "cassette"),
        ):
            layer = layers.get(key)
            if layer is None:
                print(f"  {label}: disabled")
                continue
            print(
                f"  {label}: {layer.get('entries', 0)} entries, "
                + _render_counter_line(layer)
            )
            for line in _render_tier_lines(layer.get("tiers") or []):
                print("  " + line)
        return 0

    from repro.core.pipeline import STAGE_CLOCK
    from repro.llm.gateway import GATEWAY_STATS, resolve_gateway_settings
    from repro.runtime.cache import disk_cache_info

    settings = resolve_gateway_settings()
    if args.prometheus:
        from repro.service import render_prometheus

        snapshot = {
            "gateway": GATEWAY_STATS.snapshot(),
            "gateway_mode": settings.mode if settings.enabled else None,
            "stages": STAGE_CLOCK.snapshot(),
        }
        print(render_prometheus(snapshot), end="")
        return 0
    print("gateway" + ("" if settings.enabled else " (not enabled)"))
    for line in _render_gateway_lines(
        GATEWAY_STATS.snapshot(), settings.mode if settings.enabled else None
    ):
        print(line)
    stages = STAGE_CLOCK.snapshot()
    print("stages")
    if stages:
        for line in _render_stage_lines(stages):
            print(line)
    else:
        print("  no stage executions in this process")
    print("disk caches")
    reported = False
    for label, directory in (
        ("simulation", os.environ.get("REPRO_SIM_CACHE_DIR")),
        ("solve-cell", os.environ.get("REPRO_SOLVE_CACHE_DIR")),
        ("cassette", settings.cassette_dir),
    ):
        if not directory:
            continue
        info = disk_cache_info(directory)
        print(
            f"  {label}: {info.directory}: {info.entries} entries, "
            f"{info.megabytes:.2f} MiB"
        )
        reported = True
    if not reported:
        print("  none configured")
    return 0


def _choose_problems(suite: str, limit: int | None):
    if limit is None:
        return None
    from repro.evalsets.suites import get_suite

    return get_suite(suite)[:limit]


def _cmd_eval(args) -> int:
    from repro.baselines.registry import SYSTEMS, system_names
    from repro.core.events import StreamSink
    from repro.evaluation.harness import default_runs
    from repro.runtime import create_executor, evaluate_many

    if args.system not in SYSTEMS:
        print(f"unknown system; choose from: {', '.join(system_names())}")
        return 2
    spec = SYSTEMS[args.system]
    runs = args.runs if args.runs is not None else default_runs(1)
    events = (
        StreamSink(write=lambda line: print("  ~ " + line))
        if args.progress
        else None
    )
    gateway_settings, gateway_error = _gateway_from_args(args)
    if gateway_error is not None:
        print(gateway_error)
        return 2
    if args.service:
        # Execution happens server-side; local-executor flags would be
        # silently meaningless, so reject the combination outright.
        conflicting = [
            flag
            for flag, value in (
                ("--jobs", args.jobs),
                ("--executor", args.executor),
                ("--cache/--no-cache", args.cache),
                ("--solve-cache/--no-solve-cache", args.solve_cache),
                ("--rollout-batch", args.rollout_batch),
                ("--cache-peer", args.cache_peer),
                ("--gateway/--record/--replay", gateway_settings),
            )
            if value is not None
        ]
        if conflicting:
            print(
                "error: "
                + ", ".join(conflicting)
                + " cannot be combined with --service "
                "(execution and caching are configured on the server)"
            )
            return 2
        return _eval_via_service(args, runs, events)
    if args.ring:
        print("error: --ring requires --service (ring members are servers)")
        return 2
    if gateway_settings is not None:
        os.environ.update(gateway_settings.to_env())
    cache_arg = args.cache
    solve_arg = args.solve_cache
    if args.cache_peer:
        # Peered local evaluation: both cache fabrics gain one remote
        # tier per peer address, so cells warmed anywhere in the ring
        # replay here (and local results gossip back out).  Layer
        # enablement and directories still resolve exactly as without
        # peers (flags beat env vars beat defaults) -- --cache-peer
        # must never re-enable a layer the user disabled.
        from repro.runtime import RuntimeConfig, SimulationCache, SolveCellCache
        from repro.service import parse_shards

        try:
            peers = tuple(parse_shards(args.cache_peer))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        resolved = RuntimeConfig.from_env(
            cache=args.cache, solve_cache=args.solve_cache
        )
        if resolved.cache:
            cache_arg = SimulationCache(resolved.cache_dir, peers=peers)
        if resolved.solve_cache:
            solve_arg = SolveCellCache(resolved.solve_cache_dir, peers=peers)
    from repro.runtime.config import default_jobs

    jobs = args.jobs if args.jobs is not None else default_jobs()
    try:
        executor = create_executor(jobs=jobs, kind=args.executor)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    try:
        result, report = evaluate_many(
            spec.factory,
            args.suite,
            runs=runs,
            seed0=args.seed0,
            problems=_choose_problems(args.suite, args.limit),
            executor=executor,
            cache=cache_arg,
            solve_cache=solve_arg,
            progress=(lambda line: print("  " + line)) if args.verbose else None,
            events=events,
            rollout_batch=args.rollout_batch or 0,
        )
        _print_eval_result(result, report, verbose=args.verbose)
    except (KeyError, ValueError) as exc:
        # Bad suite name, zero runs, an empty problem slice, ...
        print(f"error: {exc}")
        return 2
    finally:
        executor.shutdown()
    return 0


def _print_eval_result(result, report, verbose: bool) -> None:
    """One output path for local and service eval (CI diffs the rows)."""
    print(result.render_row())
    if verbose:
        print(report.render())
    if result.failures():
        print("failures:", ", ".join(result.failures()))


def _eval_via_service(args, runs: int, events) -> int:
    """Route one evaluation grid through running service shards."""
    from repro.service import (
        ProtocolError,
        ServiceError,
        parse_shards,
        solve_grid,
    )

    try:
        shards = parse_shards(args.service)
        result, report = solve_grid(
            args.system,
            args.suite,
            runs=runs,
            seed0=args.seed0,
            problems=_choose_problems(args.suite, args.limit),
            shards=shards,
            progress=(lambda line: print("  " + line)) if args.verbose else None,
            events=events,
            ring=args.ring,
        )
    except (KeyError, ValueError, OSError, ServiceError, ProtocolError) as exc:
        print(f"error: {exc}")
        return 2
    _print_eval_result(result, report, verbose=args.verbose)
    return 0


def _cmd_bench(args) -> int:
    """Benchmark the runtime on a repeated-runs workload.

    Pass 1 is the cold baseline (serial, empty cache); every later pass
    reuses the warmed cache on ``--jobs`` workers.  Reports per-pass
    wall-clock, simulations/second, cache hit-rate, and the end-to-end
    speedup -- and verifies that every pass reproduced the baseline
    Pass@1 exactly.
    """
    from repro.baselines.registry import SYSTEMS, system_names
    from repro.runtime import (
        SerialExecutor,
        SimulationCache,
        SolveCellCache,
        create_executor,
    )
    from repro.runtime.batch import evaluate_many

    if args.system not in SYSTEMS:
        print(f"unknown system; choose from: {', '.join(system_names())}")
        return 2
    spec = SYSTEMS[args.system]
    try:
        problems = _choose_problems(args.suite, args.limit)
    except KeyError as exc:
        print(f"error: {exc}")
        return 2
    if args.service:
        # The service bench has its own fixed shape (in-process baseline
        # + cold/warm server passes over in-memory caches); local-pass
        # flags would be silently meaningless, so reject them.
        conflicting = [
            flag
            for flag, value in (
                ("--repeat", args.repeat),
                ("--cache/--no-cache", args.cache),
                ("--cache-dir", args.cache_dir),
                ("--solve-cache/--no-solve-cache", args.solve_cache),
                ("--solve-cache-dir", args.solve_cache_dir),
            )
            if value is not None
        ]
        if args.rollout:
            conflicting.append("--rollout")
        if args.rollout_batch is not None:
            conflicting.append("--rollout-batch")
        if args.peer_cache:
            conflicting.append("--peer-cache")
        if args.cache_peer is not None:
            conflicting.append("--cache-peer")
        if args.ring:
            conflicting.append("--ring")
        if conflicting:
            print(
                "error: "
                + ", ".join(conflicting)
                + " cannot be combined with --service"
            )
            return 2
        return _bench_service(args, spec, problems)
    if args.ring:
        # The ring chaos gate spawns its own server subprocesses; local
        # pass flags don't apply.
        conflicting = [
            flag
            for flag, value in (
                ("--repeat", args.repeat),
                ("--cache/--no-cache", args.cache),
                ("--cache-dir", args.cache_dir),
                ("--solve-cache/--no-solve-cache", args.solve_cache),
                ("--solve-cache-dir", args.solve_cache_dir),
                ("--cache-peer", args.cache_peer),
            )
            if value is not None
        ]
        if args.rollout:
            conflicting.append("--rollout")
        if args.peer_cache:
            conflicting.append("--peer-cache")
        if conflicting:
            print(
                "error: "
                + ", ".join(conflicting)
                + " cannot be combined with --ring"
            )
            return 2
        return _bench_ring(args, spec, problems)
    if args.peer_cache:
        # Self-contained peer-cache gate: spawns its own in-process
        # server, so per-pass cache flags don't apply.
        conflicting = [
            flag
            for flag, value in (
                ("--repeat", args.repeat),
                ("--cache/--no-cache", args.cache),
                ("--cache-dir", args.cache_dir),
                ("--solve-cache/--no-solve-cache", args.solve_cache),
                ("--solve-cache-dir", args.solve_cache_dir),
                ("--cache-peer", args.cache_peer),
            )
            if value is not None
        ]
        if args.rollout:
            conflicting.append("--rollout")
        if conflicting:
            print(
                "error: "
                + ", ".join(conflicting)
                + " cannot be combined with --peer-cache"
            )
            return 2
        return _bench_peer_cache(args, spec, problems)
    if args.rollout_batch is not None and not args.rollout:
        print(
            "error: --rollout-batch only applies to bench --rollout "
            "(pass --rollout to benchmark gang-scheduled sampling)"
        )
        return 2
    from repro.runtime.config import default_jobs

    repeat = args.repeat if args.repeat is not None else 2
    use_cache = args.cache if args.cache is not None else True
    use_solve_cache = (
        args.solve_cache if args.solve_cache is not None else False
    )
    if repeat < 2:
        print("error: --repeat must be >= 2 (pass 1 is the cold baseline)")
        return 2
    jobs = args.jobs if args.jobs is not None else default_jobs()
    try:
        # Warm rollout passes are dominated by cache lookups and live
        # state handoff, both of which a process pool would turn into
        # pickling; the auto kind (serial on one core, threads past
        # that) keeps the handoff inline.  --executor process remains
        # available for measuring true multi-core cold sweeps.
        warm_executor = create_executor(jobs=jobs, kind=args.executor)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    cache_dir = args.cache_dir
    solve_dir = args.solve_cache_dir
    if warm_executor.kind == "process":
        # Process workers can't see the parent's in-memory caches; the
        # disk layer is the only cross-process medium for warm passes.
        import tempfile

        if use_cache and cache_dir is None:
            cache_dir = tempfile.mkdtemp(prefix="repro-simcache-")
            print(f"note: process executor; sharing the cache via {cache_dir}")
        if use_solve_cache and solve_dir is None:
            solve_dir = tempfile.mkdtemp(prefix="repro-solvecache-")
            print(
                "note: process executor; sharing the solve cache via "
                f"{solve_dir}"
            )
    peers: tuple = ()
    if args.cache_peer:
        from repro.service import parse_shards

        try:
            peers = tuple(parse_shards(args.cache_peer))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    cache = SimulationCache(cache_dir, peers=peers) if use_cache else False
    solve_cache = (
        SolveCellCache(solve_dir, peers=peers) if use_solve_cache else False
    )
    rollout_batch = (
        (args.rollout_batch if args.rollout_batch is not None else "auto")
        if args.rollout
        else 0
    )
    if args.rollout:
        # Fixed shape: one cold serial-sampling baseline, then
        # alternating warm-serial / warm-rollout passes over the same
        # cache state.  The two warm passes do near-identical work on a
        # fully warm cache, so a single-shot wall comparison is
        # scheduler-noise-bound; alternation plus best-of-(repeat - 1)
        # is what makes the warm attribution meaningful.
        plan = [("cold serial", True, 0)]
        for _ in range(repeat - 1):
            plan.append(("warm serial", True, 0))
            plan.append(("warm rollout", False, rollout_batch))
        # Spawn the process pool before any timed pass: pool startup is
        # a once-per-deployment cost, not a per-wave one.
        if warm_executor.kind == "process":
            warm_executor.map(abs, [0] * warm_executor.workers)
    else:
        plan = [("cold serial", True, 0)]
        plan += [("warm", False, 0)] * (repeat - 1)
    passes = []
    deterministic = True
    try:
        for index, (label, serial, batch) in enumerate(plan):
            executor = SerialExecutor() if serial else warm_executor
            try:
                result, report = evaluate_many(
                    spec.factory,
                    args.suite,
                    runs=args.runs,
                    seed0=args.seed0,
                    problems=problems,
                    executor=executor,
                    cache=cache,
                    solve_cache=solve_cache,
                    rollout_batch=batch,
                )
            except (KeyError, ValueError) as exc:
                print(f"error: {exc}")
                return 2
            passes.append((label, result, report))
            if result.outcomes != passes[0][1].outcomes:
                deterministic = False
            shown = label if serial else f"{label} {report.executor}"
            print(
                f"pass {index + 1} ({shown:>16s}): "
                f"{report.wall_seconds:7.2f} s  "
                f"{report.sims_per_second:7.1f} sims/s  "
                f"hit-rate {100.0 * report.cache.hit_rate:5.1f}%"
            )
    finally:
        warm_executor.shutdown()
    first, last = passes[0][2], passes[-1][2]
    gate_wall = last.wall_seconds
    if args.rollout:
        gate_wall = min(
            report.wall_seconds
            for label, _, report in passes
            if label == "warm rollout"
        )
    speedup = first.wall_seconds / gate_wall if gate_wall > 0 else 0.0
    print()
    print(passes[-1][1].render_row())
    print(last.render())
    print(f"speedup         {speedup:8.2f}x  (cold pass 1 vs best warm)")
    print(f"deterministic   {'yes' if deterministic else 'NO -- MISMATCH'}")
    if args.rollout:
        import json

        warm_wall = min(
            report.wall_seconds
            for label, _, report in passes
            if label == "warm serial"
        )
        speedup_vs_warm = warm_wall / gate_wall if gate_wall > 0 else 0.0
        print(
            f"vs cold serial  {speedup:8.2f}x  "
            f"(cache reuse + parallel waves + dedup combined)"
        )
        print(
            f"vs warm serial  {speedup_vs_warm:8.2f}x  "
            f"(equal cache state; gang-scheduling alone)"
        )
        bench_out = args.bench_out or "BENCH_rollout.json"
        payload = {
            "system": args.system,
            "suite": args.suite,
            "runs": args.runs,
            "seed0": args.seed0,
            "cells": last.cells,
            "rollout_batch": rollout_batch,
            "executor": last.executor,
            "jobs": last.jobs,
            "warm_passes": repeat - 1,
            "cold_serial_wall_seconds": round(first.wall_seconds, 6),
            # Warm walls are best-of-(repeat - 1) over alternating
            # passes; see the plan comment above.
            "warm_serial_wall_seconds": round(warm_wall, 6),
            "rollout_wall_seconds": round(gate_wall, 6),
            # Gated number: cold serial sampling vs the rollout pass
            # (cache reuse + wave dedup + gang-scheduling combined).
            "speedup_vs_cold": round(speedup, 3),
            # Gang-scheduling in isolation: warm serial vs warm rollout
            # over the same cache state.  The old single "batching"
            # number conflated these two baselines.
            "speedup_vs_warm": round(speedup_vs_warm, 3),
            "speculation": dict(last.speculation),
            "cache_hit_rate": round(last.cache.hit_rate, 4),
            "simulations": last.simulations,
            "deterministic": deterministic,
        }
        with open(bench_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"written         {bench_out}")
    if not deterministic:
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"error: speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
        return 1
    return 0


def _bench_peer_cache(args, spec, problems) -> int:
    """Benchmark cold-start serving through a warm peer's cache fabric.

    Three measured passes over the same grid: a cold local serial
    baseline over fresh caches, the same grid executed through a fresh
    in-process solve server (which warms the *server's* tiers), and a
    second cold local pass whose fresh caches carry a
    :class:`~repro.runtime.cache.RemoteTier` pointed at that server --
    every solve cell and golden scoring then replays over ``CacheGet``
    frames instead of re-running.  ``--min-speedup`` gates cold-local
    vs cold-via-peer; the numbers land in ``BENCH_cache.json``.
    """
    import json

    from repro.runtime import SerialExecutor, SimulationCache, SolveCellCache
    from repro.runtime.batch import evaluate_many
    from repro.service import ServiceError, SolveServer, solve_grid

    try:
        with SerialExecutor() as executor:
            base_result, base_report = evaluate_many(
                spec.factory,
                args.suite,
                runs=args.runs,
                seed0=args.seed0,
                problems=problems,
                executor=executor,
                cache=SimulationCache(),
                solve_cache=False,
            )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(
        f"pass 1 (      cold local): {base_report.wall_seconds:7.2f} s  "
        f"{base_report.cells_per_second:7.2f} cells/s"
    )
    peer_sim = peer_solve = None
    try:
        with SolveServer(workers=args.jobs or 2) as server:
            warm_result, warm_report = solve_grid(
                args.system,
                args.suite,
                runs=args.runs,
                seed0=args.seed0,
                problems=problems,
                shards=[server.address],
            )
            print(
                f"pass 2 (  warming peer): {warm_report.wall_seconds:7.2f} s  "
                f"{warm_report.cells_per_second:7.2f} cells/s"
            )
            # Pass 3 is a *cold* process-local state: fresh caches whose
            # only warmth is the remote tier into the peer just warmed.
            peer_sim = SimulationCache(peers=(server.address,))
            peer_solve = SolveCellCache(peers=(server.address,))
            with SerialExecutor() as executor:
                peered_result, peered_report = evaluate_many(
                    spec.factory,
                    args.suite,
                    runs=args.runs,
                    seed0=args.seed0,
                    problems=problems,
                    executor=executor,
                    cache=peer_sim,
                    solve_cache=peer_solve,
                )
            print(
                f"pass 3 ( cold via peer): {peered_report.wall_seconds:7.2f} s  "
                f"{peered_report.cells_per_second:7.2f} cells/s  "
                f"peer hits {peer_solve.stats.remote_hits} solve + "
                f"{peer_sim.stats.remote_hits} sim"
            )
    except (OSError, ServiceError, ValueError, KeyError) as exc:
        print(f"error: {exc}")
        return 2
    deterministic = (
        warm_result.outcomes == base_result.outcomes
        and peered_result.outcomes == base_result.outcomes
    )
    speedup = (
        base_report.wall_seconds / peered_report.wall_seconds
        if peered_report.wall_seconds > 0
        else 0.0
    )
    payload = {
        "system": args.system,
        "suite": args.suite,
        "runs": args.runs,
        "seed0": args.seed0,
        "cells": peered_report.cells,
        "cold_local_wall_seconds": round(base_report.wall_seconds, 6),
        "peer_warming_wall_seconds": round(warm_report.wall_seconds, 6),
        "cold_via_peer_wall_seconds": round(peered_report.wall_seconds, 6),
        # Gated number: a cold process served through a warm peer vs
        # the same cold process computing everything itself.
        "speedup": round(speedup, 3),
        "peer_solve_hits": peer_solve.stats.remote_hits,
        "peer_sim_hits": peer_sim.stats.remote_hits,
        "deterministic": deterministic,
    }
    bench_out = args.bench_out or "BENCH_cache.json"
    with open(bench_out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(peered_result.render_row())
    print(f"peer speedup    {speedup:8.2f}x  (cold local vs cold via peer)")
    print(f"deterministic   {'yes' if deterministic else 'NO -- MISMATCH'}")
    print(f"written         {bench_out}")
    if not deterministic:
        return 1
    if peer_solve.stats.remote_hits == 0:
        print("error: no peer solve-cell hits; the fabric never engaged")
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"error: peer speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
        return 1
    return 0


def _bench_service(args, spec, problems) -> int:
    """Benchmark service-mode serving against the in-process runtime.

    Three measured passes over the same grid: in-process cold serial
    (the baseline the determinism contract is checked against), a cold
    pass through a fresh solve server (real submit-to-done latency),
    and a warm pass over the same server (served from the solve-cell
    cache without touching a worker).  ``--min-speedup`` gates
    warm-vs-cold service serving; the numbers land in
    ``BENCH_service.json``.
    """
    import json

    from repro.runtime import SerialExecutor, SimulationCache
    from repro.runtime.batch import evaluate_many
    from repro.service import ServiceError, SolveServer, solve_grid

    def grid_numbers(report):
        return {
            "wall_seconds": round(report.wall_seconds, 6),
            "cells_per_second": round(report.cells_per_second, 3),
            "latency_mean_ms": round(report.mean_latency * 1000.0, 3),
            "latency_max_ms": round(report.max_latency * 1000.0, 3),
            "cached_cells": report.cached_cells,
            "dedup_cells": report.dedup_cells,
        }

    try:
        with SerialExecutor() as executor:
            local_result, local_report = evaluate_many(
                spec.factory,
                args.suite,
                runs=args.runs,
                seed0=args.seed0,
                problems=problems,
                executor=executor,
                cache=SimulationCache(),
                solve_cache=False,
            )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(
        f"pass 1 (     in-process): {local_report.wall_seconds:7.2f} s  "
        f"{local_report.cells_per_second:7.2f} cells/s"
    )
    try:
        with SolveServer(workers=args.jobs or 2) as server:
            passes = []
            for label in ("service cold", "service warm"):
                result, report = solve_grid(
                    args.system,
                    args.suite,
                    runs=args.runs,
                    seed0=args.seed0,
                    problems=problems,
                    shards=[server.address],
                )
                passes.append((result, report))
                print(
                    f"pass {len(passes) + 1} ({label:>15s}): "
                    f"{report.wall_seconds:7.2f} s  "
                    f"{report.cells_per_second:7.2f} cells/s  "
                    f"latency mean {report.mean_latency * 1000.0:7.1f} ms  "
                    f"cached {report.cached_cells}"
                )
            executed = server.executed_count()
    except (OSError, ServiceError, ValueError, KeyError) as exc:
        print(f"error: {exc}")
        return 2
    (cold_result, cold_report), (warm_result, warm_report) = passes
    deterministic = (
        cold_result.outcomes == local_result.outcomes
        and warm_result.outcomes == local_result.outcomes
    )
    speedup = (
        cold_report.wall_seconds / warm_report.wall_seconds
        if warm_report.wall_seconds > 0
        else 0.0
    )
    payload = {
        "system": args.system,
        "suite": args.suite,
        "runs": args.runs,
        "seed0": args.seed0,
        "cells": cold_report.cells,
        "workers": args.jobs or 2,
        "in_process": {
            "wall_seconds": round(local_report.wall_seconds, 6),
            "cells_per_second": round(local_report.cells_per_second, 3),
        },
        "service_cold": grid_numbers(cold_report),
        "service_warm": grid_numbers(warm_report),
        "warm_speedup": round(speedup, 3),
        "pipeline_executions": executed,
        "deterministic": deterministic,
    }
    bench_out = args.bench_out or "BENCH_service.json"
    with open(bench_out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(local_result.render_row())
    print(f"warm speedup    {speedup:8.2f}x  (service cold vs warm)")
    print(f"deterministic   {'yes' if deterministic else 'NO -- MISMATCH'}")
    print(f"written         {bench_out}")
    if not deterministic:
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"error: warm service speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
        return 1
    return 0


def _spawn_ring_server(join: str | None = None):
    """Spawn one ``repro serve`` subprocess; returns (proc, address)."""
    import subprocess
    import sys as _sys

    import repro as _repro

    src_dir = str(Path(_repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [
        _sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--workers",
        "2",
    ]
    if join:
        argv += ["--join", join]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    address = None
    for _ in range(20):  # skip banner lines (gateway, join notices)
        line = (proc.stdout.readline() or "").strip()
        if line.startswith("listening on "):
            address = line.removeprefix("listening on ")
            break
        if not line and proc.poll() is not None:
            break
    if address is None:
        proc.kill()
        raise RuntimeError("ring server failed to start")
    return proc, address


def _bench_ring(args, spec, problems) -> int:
    """Chaos-gate the elastic ring: 3 servers, one SIGKILLed mid-grid.

    Spawns a 3-member ring (two servers ``--join`` the first), runs the
    grid with ``ring=True`` placement, and SIGKILLs the member owning
    the most cells as soon as the first cell completes.  The gate is
    the determinism contract under failure: every merged row must be
    bit-identical to the local ``--jobs 1`` baseline, with the dead
    member's cells migrated to the survivors.  Results merge into
    ``BENCH_service.json`` under a ``ring`` key.
    """
    import json
    import threading
    import time as _time

    from repro.runtime import SerialExecutor, SimulationCache
    from repro.runtime.batch import evaluate_many
    from repro.service import (
        HashRing,
        ProtocolError,
        ServiceError,
        fetch_peers,
        registered_system_name,
        ring_key,
        solve_grid,
        stop_server,
    )

    try:
        with SerialExecutor() as executor:
            local_result, local_report = evaluate_many(
                spec.factory,
                args.suite,
                runs=args.runs,
                seed0=args.seed0,
                problems=problems,
                executor=executor,
                cache=SimulationCache(),
                solve_cache=False,
            )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(
        f"baseline (in-process --jobs 1): {local_report.wall_seconds:7.2f} s"
    )

    servers: list = []
    try:
        try:
            proc, seed_address = _spawn_ring_server()
            servers.append((proc, seed_address))
            for _ in range(2):
                servers.append(_spawn_ring_server(join=seed_address))
        except (OSError, RuntimeError) as exc:
            print(f"error: {exc}")
            return 2
        addresses = [address for _, address in servers]
        # Wait for the membership views to converge before placing work.
        deadline = _time.monotonic() + 30.0
        members: tuple = ()
        while _time.monotonic() < deadline:
            try:
                members = fetch_peers(seed_address)
            except (OSError, ServiceError, ProtocolError, ValueError):
                members = ()
            if set(members) >= set(addresses):
                break
            _time.sleep(0.2)
        if not set(members) >= set(addresses):
            print(f"error: ring never converged (view: {members})")
            return 1
        print(f"ring formed: {', '.join(sorted(members))}")

        # Pick the victim deterministically: the member that owns the
        # most grid cells (so the kill provably orphans work).
        ring = HashRing(sorted(members))
        resolved_name = registered_system_name(args.system)
        from repro.evalsets.suites import get_suite

        chosen = problems if problems is not None else get_suite(args.suite)
        owned: dict = {}
        for problem in chosen:
            for run in range(args.runs):
                owner = ring.node_for(
                    ring_key(resolved_name, problem.id, args.seed0 + run)
                )
                owned[owner] = owned.get(owner, 0) + 1
        victim = max(addresses, key=lambda a: owned.get(a, 0))
        victim_proc = next(p for p, a in servers if a == victim)

        killed = threading.Event()

        def chaos(event) -> None:
            # SIGKILL the victim the moment the first cell lands: the
            # grid is mid-flight by construction.
            if event.kind == "cell-finished" and not killed.is_set():
                killed.set()
                victim_proc.kill()

        started = _time.perf_counter()
        try:
            result, report = solve_grid(
                args.system,
                args.suite,
                runs=args.runs,
                seed0=args.seed0,
                problems=problems,
                shards=[seed_address],
                ring=True,
                events=chaos,
            )
        except (OSError, ServiceError, ValueError, KeyError) as exc:
            print(f"error: ring grid failed: {exc}")
            return 1
        wall = _time.perf_counter() - started
        deterministic = result.outcomes == local_result.outcomes
        print(
            f"ring grid ({len(members)} members, killed {victim} "
            f"mid-grid): {wall:7.2f} s  "
            f"{report.migrated_cells} migrated  "
            f"{report.retried_cells} retried"
        )
        print(result.render_row())
        print(
            f"deterministic   "
            f"{'yes' if deterministic else 'NO -- MISMATCH'}"
        )

        bench_out = args.bench_out or "BENCH_service.json"
        payload: dict = {}
        if os.path.exists(bench_out):
            try:
                with open(bench_out) as handle:
                    existing = json.load(handle)
                if isinstance(existing, dict):
                    payload = existing
            except (OSError, ValueError):
                payload = {}
        payload["ring"] = {
            "system": args.system,
            "suite": args.suite,
            "runs": args.runs,
            "seed0": args.seed0,
            "members": len(members),
            "cells": report.cells,
            "wall_seconds": round(wall, 6),
            "victim": victim,
            "killed_mid_grid": killed.is_set(),
            "migrated_cells": report.migrated_cells,
            "retried_cells": report.retried_cells,
            "dead_shards": list(report.dead_shards),
            "deterministic": deterministic,
        }
        with open(bench_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"written         {bench_out}")
        return 0 if deterministic else 1
    finally:
        for proc, address in servers:
            try:
                stop_server(address, timeout=5.0)
            except (OSError, ServiceError, ProtocolError, ValueError):
                pass
        for proc, _ in servers:
            try:
                proc.wait(timeout=10)
            except Exception:  # noqa: BLE001 -- force it down
                proc.kill()


def _cmd_serve(args) -> int:
    """Run (or stop) a long-lived solve service on localhost."""
    if args.stop:
        from repro.service import ProtocolError, ServiceError, stop_server

        try:
            stop_server(args.stop)
        except (OSError, ValueError, ServiceError, ProtocolError) as exc:
            print(f"error: cannot stop {args.stop}: {exc}")
            return 2
        print(f"server at {args.stop} draining")
        return 0
    failed = _activate_gateway(args)
    if failed is not None:
        return failed
    from repro.runtime import SimulationCache, SolveCellCache
    from repro.service import SolveServer

    sim_dir = args.sim_cache_dir or os.environ.get("REPRO_SIM_CACHE_DIR") or None
    solve_dir = (
        args.solve_cache_dir or os.environ.get("REPRO_SOLVE_CACHE_DIR") or None
    )
    peers: tuple = ()
    if args.cache_peer:
        from repro.service import parse_shards

        try:
            peers = tuple(parse_shards(args.cache_peer))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    steal_peers: tuple = ()
    if args.steal_peer:
        if not args.rollout_batch:
            print(
                "error: --steal-peer requires --rollout-batch "
                "(work stealing drains rollout score waves)"
            )
            return 2
        from repro.service import parse_shards

        try:
            steal_peers = tuple(parse_shards(",".join(args.steal_peer)))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    join: tuple = ()
    if args.join:
        from repro.service import parse_shards

        try:
            join = tuple(parse_shards(args.join))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    try:
        # Server-owned caches gossip write-behind: peer CachePuts ride a
        # background queue instead of the solve path, and a partitioned
        # peer's backlog drains when it comes back.
        server = SolveServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            sim_cache=SimulationCache(
                sim_dir, peers=peers, write_behind=True
            ),
            solve_cache=SolveCellCache(
                solve_dir, peers=peers, write_behind=True
            ),
            max_pending=args.max_pending,
            rollout_batch=args.rollout_batch,
            steal_peers=steal_peers,
            join=join,
            advertise=args.advertise,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    server.start()
    if join:
        print(f"joining ring via {', '.join(join)}")
    if server.gateway is not None:
        print(
            f"gateway: mode {server.gateway.mode}, "
            f"backends {','.join(server.gateway.backends)}"
        )
    print(f"listening on {server.address}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        print("draining...")
        server.shutdown()
    return 0


def _cmd_submit(args) -> int:
    """Submit one solve cell to a running service, streaming its events."""
    from repro.core.events import StreamSink
    from repro.service import MultiplexedClient, ProtocolError, ServiceError

    sink = (
        None
        if args.quiet
        else StreamSink(write=lambda line: print(f"  | {line}"))
    )
    try:
        with MultiplexedClient(args.addr) as client:
            outcome = client.solve(
                args.system,
                args.problem,
                seed=args.seed,
                priority=args.priority,
                events=sink,
            )
    except (OSError, ValueError, ServiceError, ProtocolError) as exc:
        print(f"error: {exc}")
        return 2
    if args.source:
        print(outcome.source)
    flags = " [dedup]" if outcome.dedup else ""
    print(
        f"{outcome.system} {args.problem}: "
        f"{'PASS' if outcome.passed else 'FAIL'} "
        f"score {outcome.score:.3f} ({outcome.seconds:.2f}s) "
        f"cache: {'hit' if outcome.cached else 'miss'}{flags}"
    )
    return 0 if outcome.passed else 1


def _cmd_lint(args) -> int:
    from repro.hdl.lint import lint

    with open(args.file) as handle:
        report = lint(handle.read())
    print(report.render())
    return 0 if report.ok else 1


def _cmd_tb(args) -> int:
    from repro.tb.runner import run_testbench
    from repro.tb.stimulus import parse_testbench
    from repro.tb.textlog import render_textlog

    with open(args.design) as handle:
        source = handle.read()
    with open(args.testbench) as handle:
        tb = parse_testbench(handle.read())
    report = run_testbench(source, tb)
    print(render_textlog(report))
    print(
        f"\nscore {report.score:.3f} "
        f"({report.mismatches}/{report.total_checks} mismatches)"
    )
    if args.vcd:
        from repro.hdl.vcd import VcdRecorder

        recorder = VcdRecorder.for_runner()
        run_testbench(source, tb, on_step=recorder.on_step)
        recorder.write(args.vcd)
        print(f"waveform written to {args.vcd}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAGE reproduction: multi-agent RTL generation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("problems", help="list benchmark problems").set_defaults(
        fn=_cmd_problems
    )

    solve = sub.add_parser("solve", help="run MAGE on one problem")
    solve.add_argument("problem")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--low-temperature", action="store_true")
    solve.set_defaults(fn=_cmd_solve)

    run = sub.add_parser(
        "run", help="solve one problem with a live typed event stream"
    )
    run.add_argument("problem")
    run.add_argument(
        "--system",
        default="mage",
        help="mage (default) or any registered system key",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--low-temperature", action="store_true")
    run.add_argument(
        "--solve-cache",
        action="store_true",
        help="memoize the whole solve cell (in-memory unless a dir is set)",
    )
    run.add_argument(
        "--solve-cache-dir",
        default=None,
        help="on-disk solve-cell cache; a warm second run replays its "
        "event stream from cache",
    )
    _add_gateway_flags(run)
    run.set_defaults(fn=_cmd_run)

    evaluate = sub.add_parser("eval", help="evaluate a system on a suite")
    evaluate.add_argument("system")
    evaluate.add_argument("suite", nargs="?", default="verilogeval-v2")
    evaluate.add_argument(
        "--runs",
        type=int,
        default=None,
        help="evaluation runs per problem (default: $REPRO_EVAL_RUNS or 1)",
    )
    evaluate.add_argument(
        "--seed0", type=int, default=0, help="base seed; run r uses seed0+r"
    )
    evaluate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers (default: $REPRO_JOBS or every core)",
    )
    evaluate.add_argument(
        "--executor",
        choices=["auto", "serial", "thread", "process"],
        default=None,
        help="execution backend (default: $REPRO_EXECUTOR or auto)",
    )
    evaluate.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="content-addressed simulation cache (default: on)",
    )
    evaluate.add_argument(
        "--solve-cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="whole solve-cell memoization (default: $REPRO_SOLVE_CACHE or off)",
    )
    evaluate.add_argument(
        "--rollout-batch",
        type=_batch_width,
        default=None,
        metavar="N|auto",
        help="gang-schedule Step-4 sampling across up to N concurrent "
        "cells; 'auto' sizes waves from measured stage costs "
        "(0 = off; rows stay bit-identical either way)",
    )
    evaluate.add_argument(
        "--limit", type=int, default=None, help="use only the first N problems"
    )
    evaluate.add_argument("--verbose", action="store_true")
    evaluate.add_argument(
        "--progress",
        action="store_true",
        help="stream typed per-cell events as they finish",
    )
    evaluate.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="route the grid through running solve servers (sharded, "
        "deterministic merge; bit-identical to local --jobs 1)",
    )
    evaluate.add_argument(
        "--ring",
        action="store_true",
        help="with --service: treat the given address(es) as members of "
        "an elastic peer ring -- discover the full membership, place "
        "cells by consistent hash, and migrate cells off members that "
        "die mid-grid (rows stay bit-identical)",
    )
    evaluate.add_argument(
        "--cache-peer",
        default=None,
        metavar="ADDR[,ADDR...]",
        help="peer solve servers whose caches join the local fabric as "
        "remote tiers (cells warmed anywhere in the ring replay here; "
        "rows stay bit-identical)",
    )
    _add_gateway_flags(evaluate)
    evaluate.set_defaults(fn=_cmd_eval)

    bench = sub.add_parser(
        "bench", help="benchmark runtime throughput and cache on a workload"
    )
    bench.add_argument("system")
    bench.add_argument("suite", nargs="?", default="verilogeval-v2")
    bench.add_argument("--runs", type=int, default=2)
    bench.add_argument("--seed0", type=int, default=0)
    bench.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="workers for the warm passes "
        "(default: $REPRO_JOBS or every core)",
    )
    bench.add_argument(
        "--executor",
        choices=["auto", "serial", "thread", "process"],
        default=None,
        help="execution backend for the warm passes "
        "(default: $REPRO_EXECUTOR or auto)",
    )
    bench.add_argument(
        "--repeat",
        type=int,
        default=None,
        help="total passes over the workload, at least 2 "
        "(default 2; pass 1 is the cold baseline)",
    )
    bench.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="simulation cache shared across passes (default: on)",
    )
    bench.add_argument(
        "--cache-dir", default=None, help="optional on-disk cache directory"
    )
    bench.add_argument(
        "--solve-cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="also share a whole solve-cell cache across passes "
        "(default: off)",
    )
    bench.add_argument(
        "--solve-cache-dir",
        default=None,
        help="optional on-disk solve-cell cache directory",
    )
    bench.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the warm pass is at least this many times faster",
    )
    bench.add_argument(
        "--limit", type=int, default=None, help="use only the first N problems"
    )
    bench.add_argument(
        "--service",
        action="store_true",
        help="benchmark service-mode serving (spawns an in-process server; "
        "measures submit-to-done latency and warm-cache speedup)",
    )
    bench.add_argument(
        "--ring",
        action="store_true",
        help="chaos-gate the elastic peer ring: spawn a 3-server ring "
        "(serve --join), SIGKILL one member mid-grid, and verify every "
        "row is still bit-identical to local --jobs 1 (merges a 'ring' "
        "section into BENCH_service.json)",
    )
    bench.add_argument(
        "--rollout",
        action="store_true",
        help="benchmark rollout batching: pass 1 is cold serial sampling; "
        "the warm passes gang-schedule Step-4 across cells over the "
        "shared simulation cache (speedup = wave coalescing + dedup + "
        "cache reuse; writes BENCH_rollout.json)",
    )
    bench.add_argument(
        "--rollout-batch",
        type=_batch_width,
        default=None,
        metavar="N|auto",
        help="wave width for --rollout: a fixed width or 'auto' for "
        "cost-aware adaptive sizing (default auto)",
    )
    bench.add_argument(
        "--peer-cache",
        action="store_true",
        help="benchmark the cache fabric's peer sharing: cold local "
        "baseline, a pass warming an in-process server, then a cold "
        "pass served through that peer (writes BENCH_cache.json)",
    )
    bench.add_argument(
        "--cache-peer",
        default=None,
        metavar="ADDR[,ADDR...]",
        help="peer solve servers joined to the warm passes' cache "
        "fabrics as remote tiers",
    )
    bench.add_argument(
        "--bench-out",
        default=None,
        help="where --service / --rollout / --peer-cache write their "
        "numbers (default BENCH_service.json / BENCH_rollout.json / "
        "BENCH_cache.json)",
    )
    bench.set_defaults(fn=_cmd_bench)

    cache_cmd = sub.add_parser(
        "cache", help="report per-layer cache sizes and hit/miss counters"
    )
    cache_cmd.add_argument(
        "--sim-dir",
        default=None,
        help="simulation cache directory (default: $REPRO_SIM_CACHE_DIR)",
    )
    cache_cmd.add_argument(
        "--solve-dir",
        default=None,
        help="solve-cell cache directory (default: $REPRO_SOLVE_CACHE_DIR)",
    )
    cache_cmd.add_argument(
        "--cassette-dir",
        default=None,
        help="LLM cassette directory (default: $REPRO_CASSETTE_DIR)",
    )
    cache_cmd.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT",
        help="report a running solve server's live counters instead",
    )
    cache_cmd.add_argument(
        "--clear",
        action="store_true",
        help="wipe the on-disk cache tier(s) instead of reporting",
    )
    cache_cmd.add_argument(
        "--layer",
        choices=["sim", "solve", "llm"],
        default=None,
        help="restrict --clear to one cache layer (default: all)",
    )
    cache_cmd.set_defaults(fn=_cmd_cache)

    stats_cmd = sub.add_parser(
        "stats",
        help="gateway, per-stage, and cache metrics (local or --service)",
    )
    stats_cmd.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT",
        help="report a running solve server's live metrics instead of "
        "this process's",
    )
    stats_cmd.add_argument(
        "--prometheus",
        action="store_true",
        help="render the metrics in Prometheus text exposition format "
        "(works locally and with --service)",
    )
    stats_cmd.set_defaults(fn=_cmd_stats)

    serve = sub.add_parser(
        "serve", help="start a long-lived solve service on localhost"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = pick a free one)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="long-lived solve workers"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="queued-job ceiling before submits are rejected (backpressure)",
    )
    serve.add_argument(
        "--rollout-batch",
        type=int,
        default=0,
        metavar="N",
        help="gang-schedule sampling across up to N in-flight cells per "
        "worker (0 = one job at a time)",
    )
    serve.add_argument(
        "--sim-cache-dir",
        default=None,
        help="on-disk simulation cache (default: $REPRO_SIM_CACHE_DIR)",
    )
    serve.add_argument(
        "--solve-cache-dir",
        default=None,
        help="on-disk solve-cell cache (default: $REPRO_SOLVE_CACHE_DIR)",
    )
    serve.add_argument(
        "--cache-peer",
        default=None,
        metavar="ADDR[,ADDR...]",
        help="peer solve servers whose caches join this server's fabric "
        "as remote tiers (warm cells replay across the ring; fresh "
        "results gossip back)",
    )
    serve.add_argument(
        "--steal-peer",
        action="append",
        default=None,
        metavar="ADDR",
        help="peer solve server whose published score waves this "
        "server's idle workers drain over WaveSteal frames; repeatable "
        "(requires --rollout-batch; results return through the cache "
        "fabric, so outputs never change)",
    )
    serve.add_argument(
        "--join",
        default=None,
        metavar="ADDR[,ADDR...]",
        help="join an elastic peer ring through any existing member: "
        "membership is gossiped over PeerHello/PeerList frames, ring "
        "members' caches become remote tiers automatically, and "
        "solve_grid(ring=True) places cells by consistent hash",
    )
    serve.add_argument(
        "--advertise",
        default=None,
        metavar="HOST:PORT",
        help="the address other ring members should reach this server "
        "on (default: the bound address)",
    )
    serve.add_argument(
        "--stop",
        default=None,
        metavar="HOST:PORT",
        help="gracefully drain and stop a running server instead of starting",
    )
    _add_gateway_flags(serve)
    serve.set_defaults(fn=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one solve cell to a running service"
    )
    submit.add_argument("system")
    submit.add_argument("problem")
    submit.add_argument(
        "--addr",
        default=os.environ.get("REPRO_SERVICE_ADDR", "127.0.0.1:7341"),
        help="service address (default: $REPRO_SERVICE_ADDR or "
        "127.0.0.1:7341)",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--priority", type=int, default=0, help="higher runs sooner"
    )
    submit.add_argument(
        "--quiet", action="store_true", help="suppress the event stream"
    )
    submit.add_argument(
        "--source", action="store_true", help="also print the final RTL"
    )
    submit.set_defaults(fn=_cmd_submit)

    lint_cmd = sub.add_parser("lint", help="lint a Verilog file")
    lint_cmd.add_argument("file")
    lint_cmd.set_defaults(fn=_cmd_lint)

    tb = sub.add_parser("tb", help="run a testbench against a design")
    tb.add_argument("design")
    tb.add_argument("testbench")
    tb.add_argument("--vcd", help="also dump a VCD waveform")
    tb.set_defaults(fn=_cmd_tb)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
