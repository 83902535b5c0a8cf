"""Command-line interface: ``python -m repro <command>``.

Every experiment in the evaluation can be regenerated from the shell:

* ``list`` — the Table VI benchmark inventory;
* ``run KERNEL`` — Full vs Random vs Ideal-SimPoint vs TBPoint on one
  kernel (one Fig. 9/10 row);
* ``headline`` — the full Fig. 9 + Fig. 10 sweep with geomeans;
* ``breakdown`` — Fig. 11's inter/intra skipped-instruction shares;
* ``sensitivity`` — Figs. 12-13 hardware-configuration sweep;
* ``scaling`` — TBPoint error/sample size across workload scales;
* ``model`` — Fig. 5's Markov/Monte-Carlo study;
* ``table1`` — projected simulation times at measured throughput;
* ``simulate KERNEL`` — one timing-simulator launch, with
  ``--mem-stats`` for the memory-hierarchy statistics (L1/L2 hit
  rates, DRAM row-hit rate, mean queue delay);
* ``cache info`` / ``cache clear`` — persistent profile-cache and
  journal-directory status and maintenance;
* ``serve`` / ``request`` — the warm-state simulation service: a
  long-lived daemon that keeps engines, traces and profiles warm
  across requests (DESIGN.md §13), and its one-shot client;
* ``lint`` — static determinism / process-safety / async- and
  fork-safety checks over the source tree (DESIGN.md §10, §15).

Batch execution applies to every experiment command: ``--jobs N`` fans
work out across N worker processes (0 = all CPUs, the default; results
are bit-identical to ``--jobs 1``), and the one-time functional profiles
are cached on disk across invocations unless ``--no-cache`` is given.
Execution is fault tolerant (DESIGN.md §9): batch commands and the
``serve`` daemon share one supervised worker pool, a failed or crashed
task retries on the next free worker up to ``--retries`` times,
``--task-timeout`` kills and replaces a hung worker, the sweep commands
(``headline``/``breakdown``/``sensitivity``/``scaling``) checkpoint
each completed kernel to a journal next to the profile cache (none
with ``--no-cache``), and ``--resume`` picks a killed sweep back up
without recomputing journaled work — all without changing results.

Usage errors — a malformed or out-of-range option, an unknown kernel, a
launch index past the kernel's last launch — exit 2 through the parser
with a usage message, never with a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from repro.analysis.experiments import (
    SENSITIVITY_CONFIGS,
    run_breakdown,
    run_fig5_model,
    run_fig9_fig10,
    run_kernel_comparison,
    run_sensitivity,
    run_table1,
)
from repro.analysis.report import render_table
from repro.config import ExperimentConfig
from repro.exec import (
    ExecutionConfig,
    ProfileCache,
    default_cache_dir,
    default_jobs,
)
from repro.workloads import ALL_KERNELS, TABLE_VI


class UsageError(Exception):
    """A command-line mistake found only once a command runs (it needs
    the built workload, or several options together); ``main`` reports
    it through the parser, which exits 2."""


def _experiment(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(scale=args.scale, seed=args.seed)


def _exec_config(args: argparse.Namespace) -> ExecutionConfig:
    """Execution knobs shared by every experiment command: ``--jobs 0``
    (the default) uses every CPU; the profile cache and the sweep
    journal are on unless ``--no-cache``; failed tasks retry up to
    ``--retries`` times with ``--task-timeout`` guarding against hung
    workers; ``--resume`` reads the journal, so needs the cache."""
    if args.resume and args.no_cache:
        raise UsageError("--resume needs the cache: --no-cache keeps no journal")
    return ExecutionConfig(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        task_timeout=args.task_timeout,
        retries=args.retries,
        resume=args.resume,
    )


def _kernels(args: argparse.Namespace) -> tuple[str, ...]:
    if not args.kernels:
        return ALL_KERNELS
    names = tuple(args.kernels)
    unknown = set(names) - set(ALL_KERNELS)
    if unknown:
        raise UsageError(f"unknown kernels: {sorted(unknown)}")
    return names


def cmd_list(args: argparse.Namespace) -> None:
    rows = [
        (i.name, i.full_name, i.suite, i.kind, i.launches, i.blocks)
        for i in TABLE_VI
    ]
    print(render_table(
        ["name", "benchmark", "suite", "type", "launches", "thread blocks"],
        rows,
        title="Table VI — evaluated benchmarks (paper-scale counts)",
    ))


def _comparison_row(
    name: str,
    experiment: ExperimentConfig,
    exec_config: ExecutionConfig | None = None,
    comparison=None,
):
    c = comparison
    if c is None:
        c = run_kernel_comparison(name, experiment, exec_config=exec_config)
    return c, (
        name,
        c.kind,
        f"{c.full_ipc:.3f}",
        f"{c.random_error:.2%}",
        f"{c.simpoint_error:.2%}",
        f"{c.tbpoint_error:.2%}",
        f"{c.random_sample_size:.2%}",
        f"{c.simpoint_sample_size:.2%}",
        f"{c.tbpoint_sample_size:.2%}",
    )


_COMPARISON_HEADERS = [
    "kernel", "type", "full IPC", "err(rnd)", "err(sp)", "err(tbp)",
    "size(rnd)", "size(sp)", "size(tbp)",
]


def cmd_run(args: argparse.Namespace) -> None:
    _, row = _comparison_row(args.kernel, _experiment(args), _exec_config(args))
    print(render_table(_COMPARISON_HEADERS, [row]))


def cmd_headline(args: argparse.Namespace) -> None:
    experiment = _experiment(args)
    summary = run_fig9_fig10(_kernels(args), experiment, exec_config=_exec_config(args))
    for c in summary.comparisons:
        _, row = _comparison_row(c.kernel, experiment, comparison=c)
        print(render_table(_COMPARISON_HEADERS, [row]))
    print()
    errors = summary.geomean_errors()
    sizes = summary.geomean_sample_sizes()
    print(render_table(
        ["technique", "geomean error", "geomean sample"],
        [
            (t, f"{errors[t]:.2%}", f"{sizes[t]:.2%}")
            for t in ("random", "ideal-simpoint", "tbpoint")
        ],
        title="Figs. 9-10 headline geometric means",
    ))


def cmd_breakdown(args: argparse.Namespace) -> None:
    experiment = _experiment(args)
    names = _kernels(args)
    results = run_breakdown(names, experiment, exec_config=_exec_config(args))
    rows = []
    for name, tbp in zip(names, results):
        inter, intra = tbp.skip_breakdown()
        rows.append((name, f"{inter:.0%}", f"{intra:.0%}",
                     f"{tbp.sample_size:.2%}"))
    print(render_table(
        ["kernel", "inter-launch", "intra-launch", "sample"],
        rows,
        title="Fig. 11 — skipped-instruction breakdown",
    ))


def cmd_sensitivity(args: argparse.Namespace) -> None:
    experiment = _experiment(args)
    points = run_sensitivity(
        _kernels(args), experiment=experiment, exec_config=_exec_config(args)
    )
    configs = [f"W{w}S{s}" for w, s in SENSITIVITY_CONFIGS]
    by_kernel: dict[str, dict] = {}
    for p in points:
        by_kernel.setdefault(p.kernel, {})[p.label] = p
    print(render_table(
        ["kernel", *[f"err {c}" for c in configs],
         *[f"size {c}" for c in configs]],
        [
            (k,
             *[f"{cfgs[c].error:.2%}" for c in configs],
             *[f"{cfgs[c].sample_size:.2%}" for c in configs])
            for k, cfgs in by_kernel.items()
        ],
        title="Figs. 12-13 — hardware sensitivity",
    ))


def cmd_scaling(args: argparse.Namespace) -> None:
    from repro.analysis.scaling import run_scaling
    from repro.workloads import get_workload

    # Small kernels have block-count floors, so two scales can build the
    # same workload; sweeping both would print one row twice.  Building
    # a kernel is lazy (no block is synthesized), so checking is free.
    seen: dict[tuple[int, ...], float] = {}
    for scale in args.scales:
        kernel = get_workload(args.kernel, scale=scale, seed=args.seed)
        blocks = tuple(l.num_blocks for l in kernel.launches)
        if blocks in seen:
            raise UsageError(
                f"scales {seen[blocks]:g} and {scale:g} build the same "
                f"{args.kernel} workload ({kernel.num_blocks} blocks)"
            )
        seen[blocks] = scale

    points = run_scaling(
        args.kernel, scales=tuple(args.scales), seed=args.seed,
        exec_config=_exec_config(args),
    )
    print(render_table(
        ["scale", "blocks", "warp insts", "full IPC", "tbpoint IPC",
         "error", "sample"],
        [
            (f"{p.scale:g}", str(p.num_blocks), f"{p.total_warp_insts:,}",
             f"{p.full_ipc:.3f}", f"{p.tbpoint_ipc:.3f}",
             f"{p.error:.2%}", f"{p.sample_size:.2%}")
            for p in points
        ],
        title=f"Scale sensitivity — {args.kernel}",
    ))


def cmd_model(args: argparse.Namespace) -> None:
    results = run_fig5_model(seed=args.seed)
    print(render_table(
        ["config", "mean IPC", "within 10%", "p95 deviation"],
        [
            (v.label, f"{v.mean_ipc:.4f}", f"{v.fraction_within(0.10):.2%}",
             f"{np.percentile(v.relative_deviation, 95):.2%}")
            for v in results
        ],
        title="Fig. 5 — Monte-Carlo IPC variation",
    ))


def cmd_cache(args: argparse.Namespace) -> None:
    from repro.exec import journal_dir, journals_info

    cache = ProfileCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached profile(s) from {cache.root}")
        return
    info = cache.info()
    journals = journals_info(journal_dir(args.cache_dir))
    print(render_table(
        ["field", "value"],
        [
            ("directory", info["dir"]),
            ("entries", str(info["entries"])),
            ("size", f"{info['bytes']:,} bytes"),
            ("cumulative hits", str(info["hits"])),
            ("cumulative misses", str(info["misses"])),
            ("profiler version", str(info["profiler_version"])),
            ("entry format version", str(info["format_version"])),
            ("journals directory", journals["dir"]),
            ("journals", str(journals["journals"])),
            ("journals size", f"{journals['bytes']:,} bytes"),
            ("newest sweep key", journals["newest_key"] or "none"),
        ],
        title="Profile cache",
    ))


def cmd_simulate(args: argparse.Namespace) -> None:
    from repro.config import GPUConfig
    from repro.sim import GPUSimulator
    from repro.workloads import get_workload

    kernel = get_workload(args.kernel, scale=args.scale, seed=args.seed)
    if not 0 <= args.launch < len(kernel.launches):
        raise UsageError(
            f"launch {args.launch} out of range: {args.kernel} has "
            f"{len(kernel.launches)} launches at this scale"
        )
    launch = kernel.launches[args.launch]
    result = GPUSimulator(GPUConfig()).run_launch(launch)
    # The default compact engine always attaches its counters.
    assert result.counters is not None
    ipc = (
        result.issued_warp_insts / result.wall_cycles
        if result.wall_cycles else 0.0
    )
    rows = [
        ("kernel", args.kernel),
        ("launch", str(args.launch)),
        ("issued warp insts", f"{result.issued_warp_insts:,}"),
        ("wall cycles", f"{result.wall_cycles:,}"),
        ("warp IPC", f"{ipc:.3f}"),
        ("block regenerations (memo window "
         f"{launch.block_memo})",
         f"{result.counters.block_regenerations:,}"),
    ]
    if args.mem_stats:
        m = result.mem_stats
        rows.extend([
            ("L1 hit rate", f"{m['l1_hit_rate']:.2%}"),
            ("L2 hit rate", f"{m['l2_hit_rate']:.2%}"),
            ("DRAM requests", f"{m['dram_requests']:,}"),
            ("DRAM row-hit rate", f"{m['dram_row_hit_rate']:.2%}"),
            ("DRAM mean queue delay",
             f"{m['dram_mean_queue_delay']:.1f} cycles"),
        ])
    print(render_table(
        ["field", "value"], rows,
        title=f"Timing simulation — {args.kernel} launch {args.launch}",
    ))


def cmd_serve(args: argparse.Namespace) -> None:
    """``repro serve``: run the warm-state simulation daemon until a
    ``shutdown`` request, SIGTERM or SIGINT drains it (DESIGN.md
    §13–14)."""
    import asyncio
    import json
    import os
    from pathlib import Path

    from repro.serve import ServeConfig, Server

    fault_plan = None
    if args.fault_plan:
        from repro.exec.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_dict(
                json.loads(Path(args.fault_plan).read_text())
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"cannot load --fault-plan: {exc}") from exc
    try:
        config = ServeConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            journal=args.journal,
            cache_dir=args.cache_dir,
            metrics_json=args.metrics_json,
            workers=args.workers,
            retries=args.retries,
            hang_timeout=args.hang_timeout,
            max_backlog=args.max_backlog,
            degrade_after=args.degrade_after,
            fault_plan=fault_plan,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    server = Server(config)

    async def body() -> None:
        await server.start()
        if server.address is not None:
            host, port = server.address
            where = f"{host}:{port}"
        else:
            where = server.socket_path
        print(f"serving on {where} (pid {os.getpid()}, "
              f"{config.workers} supervised worker(s)); "
              "'shutdown' request, SIGTERM or SIGINT drains and exits",
              flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(body())
    except KeyboardInterrupt:
        pass  # fallback when signal handlers can't be installed
    except OSError as exc:
        raise SystemExit(f"cannot listen: {exc}") from exc


def cmd_request(args: argparse.Namespace) -> None:
    """``repro request``: one request against a running daemon; prints
    the JSON result payload (identical to what the server computed).

    Error payloads from the daemon exit with status 2 and print a
    structured JSON error object to stderr (``error`` plus
    ``error_kind``/``retry_after`` when the server classified it) —
    stdout carries result payloads only, so scripts can never mistake
    a refusal for a result."""
    import json

    from repro.serve import ServeClient, ServeError, default_socket_path

    if args.host is not None:
        if args.port is None:
            raise UsageError("--host needs an explicit --port")
        target = {"host": args.host, "port": args.port}
    elif args.port is not None:
        raise UsageError("--port needs --host")
    else:
        target = {
            "socket_path": args.socket or default_socket_path(args.cache_dir)
        }
    params: dict | None = None
    if args.kind in ("simulate", "tbpoint"):
        if not args.kernel:
            raise UsageError(f"{args.kind} requests need a kernel")
        params = {
            "kernel": args.kernel,
            "scale": args.scale,
            "seed": args.seed,
        }
        if args.kind == "simulate":
            params["launch"] = args.launch
        if args.timeout is not None:
            params["timeout"] = args.timeout
    elif args.kernel:
        raise UsageError(f"'{args.kind}' requests take no kernel")
    try:
        with ServeClient(**target) as client:
            result = client.call(args.kind, params)
    except (ServeError, OSError) as exc:
        error = {"error": str(exc)}
        if isinstance(exc, ServeError):
            if exc.kind is not None:
                error["error_kind"] = exc.kind
            if exc.retry_after is not None:
                error["retry_after"] = exc.retry_after
        else:
            error["error"] = f"connection failed: {exc}"
        print(json.dumps(error, indent=2, sort_keys=True), file=sys.stderr)
        raise SystemExit(2) from exc
    print(json.dumps(result, indent=2, sort_keys=True))


def cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism/process-safety/async/fork-safety checks
    (DESIGN.md §10, §15); flags are shared with ``python -m
    repro.devtools.lint`` via ``configure_parser``."""
    from repro.devtools.lint.cli import run as lint_run

    return lint_run(args)


def cmd_table1(args: argparse.Namespace) -> None:
    rows = run_table1()
    print(render_table(
        ["benchmark", "GPU (ms)", "projected simulation", "slowdown"],
        [
            (r.benchmark, f"{r.gpu_ms:,.0f}", r.human_sim_time,
             f"{r.slowdown:,.0f}x")
            for r in rows
        ],
        title="Table I — projected simulation times",
    ))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (0 = all CPUs, 1 = serial)"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError("must be in 0..65535")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TBPoint reproduction: regenerate the paper's experiments.",
    )
    parser.add_argument(
        "--scale", type=_positive_float, default=0.125,
        help="workload scale factor, 1.0 = paper scale (default 0.125)",
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--jobs", "-j", type=_nonnegative_int, default=0,
        help="worker processes for batch execution; 0 (default) uses "
             "every CPU, 1 is fully serial",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent functional-profile cache; sweeps "
             "then keep no checkpoint journal either",
    )
    parser.add_argument(
        "--task-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="per-task timeout for batch execution: a task running "
             "longer once a worker has taken it is declared hung, that "
             "worker is killed and replaced and the task retried "
             "(default: no timeout)",
    )
    parser.add_argument(
        "--retries", type=_nonnegative_int, default=2, metavar="N",
        help="extra attempts a failed/hung/crashed task gets in the "
             "pool before one final in-process attempt (default 2)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume a killed sweep (headline/breakdown/sensitivity/"
             "scaling) from its checkpoint journal, skipping completed "
             "kernels; needs the cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=f"profile cache directory (default: $TBPOINT_CACHE_DIR or "
             f"{default_cache_dir()})",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and print the hottest "
             "functions (sorted by cumulative time) to stderr",
    )
    parser.add_argument(
        "--profile-limit", type=int, default=30, metavar="N",
        help="with --profile: how many stats rows to print (default 30)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="Table VI benchmark inventory")

    p = sub.add_parser("run", help="compare all techniques on one kernel")
    p.add_argument("kernel", choices=ALL_KERNELS)

    p = sub.add_parser("headline", help="Figs. 9-10 full sweep")
    p.add_argument("kernels", nargs="*", help="subset (default all 12)")

    p = sub.add_parser("breakdown", help="Fig. 11 inter/intra breakdown")
    p.add_argument("kernels", nargs="*")

    p = sub.add_parser("sensitivity", help="Figs. 12-13 hardware sweep")
    p.add_argument("kernels", nargs="*")

    p = sub.add_parser(
        "scaling", help="TBPoint error/sample size across workload scales"
    )
    p.add_argument("kernel", choices=ALL_KERNELS)
    p.add_argument(
        "--scales", type=_positive_float, nargs="+", metavar="S",
        default=[0.0625, 0.125, 0.25, 0.5],
        help="workload scales to sweep (default: 0.0625 0.125 0.25 0.5)",
    )

    sub.add_parser("model", help="Fig. 5 Markov/Monte-Carlo study")
    sub.add_parser("table1", help="Table I projected simulation times")

    p = sub.add_parser(
        "simulate", help="run the timing simulator on one kernel launch"
    )
    p.add_argument("kernel", choices=ALL_KERNELS)
    p.add_argument(
        "--launch", type=int, default=0, metavar="N",
        help="launch index within the kernel (default 0)",
    )
    p.add_argument(
        "--mem-stats", action="store_true",
        help="also print memory-hierarchy statistics (L1/L2 hit rates, "
             "DRAM row-hit rate, mean queue delay)",
    )

    p = sub.add_parser("cache", help="persistent profile-cache maintenance")
    p.add_argument("action", choices=["info", "clear"])

    p = sub.add_parser(
        "serve",
        help="run the warm-state simulation daemon: engines, traces and "
             "profiles stay warm across requests (DESIGN.md §13)",
    )
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket to listen on (default: <cache root>/serve.sock)",
    )
    p.add_argument(
        "--host", default=None,
        help="listen on TCP instead of a unix socket",
    )
    p.add_argument(
        "--port", type=_port, default=0, metavar="N",
        help="TCP port with --host (0 = ephemeral, printed at startup)",
    )
    p.add_argument(
        "--journal", action="store_true",
        help="record served payloads to the serve journal and replay "
             "them idempotently, including across restarts",
    )
    p.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="dump the final stats payload to this file on shutdown",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=default_jobs(),
        metavar="N",
        help="supervised worker processes that run every simulation "
             "(default: every CPU); crashed or hung workers are "
             "respawned and their requests retried (DESIGN.md §14)",
    )
    p.add_argument(
        "--retries", type=_nonnegative_int, default=2, metavar="N",
        help="extra worker attempts per request after a crash/hang "
             "before it fails with error_kind 'failed' (default 2)",
    )
    p.add_argument(
        "--hang-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="kill a busy worker that goes this long without a "
             "heartbeat and retry its request (default: disabled)",
    )
    p.add_argument(
        "--max-backlog", type=_nonnegative_int, default=32, metavar="N",
        help="bound on requests queued + in flight across the worker "
             "pool; past it requests are shed with an 'overloaded' "
             "error carrying a retry-after hint (default 32; "
             "0 = unbounded)",
    )
    p.add_argument(
        "--degrade-after", type=_positive_int, default=4, metavar="N",
        help="consecutive worker respawns that mark the pool degraded "
             "for good: compute requests then fail with error_kind "
             "'unavailable' (default 4)",
    )
    p.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="JSON FaultPlan injected into workers (chaos tests/CI "
             "only; see repro.exec.faults)",
    )

    p = sub.add_parser(
        "request",
        help="send one request to a running simulation daemon and print "
             "the JSON result",
    )
    p.add_argument(
        "kind", choices=["simulate", "tbpoint", "stats", "ping", "shutdown"],
    )
    p.add_argument("kernel", nargs="?", choices=ALL_KERNELS)
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket of the daemon (default: <cache root>/serve.sock)",
    )
    p.add_argument("--host", default=None, help="connect over TCP instead")
    p.add_argument(
        "--port", type=_port, default=None, metavar="N",
        help="TCP port of the daemon (with --host)",
    )
    p.add_argument(
        "--launch", type=int, default=0, metavar="N",
        help="launch index for simulate requests (default 0)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request deadline while queued server-side (the "
             "simulation still completes and warms the server)",
    )

    from repro.devtools.lint.cli import configure_parser as _configure_lint

    p = sub.add_parser(
        "lint",
        help="static determinism/process-safety/async/fork-safety "
             "checks (DESIGN.md §10, §15)",
    )
    _configure_lint(p)
    return parser


_COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "headline": cmd_headline,
    "breakdown": cmd_breakdown,
    "sensitivity": cmd_sensitivity,
    "scaling": cmd_scaling,
    "model": cmd_model,
    "table1": cmd_table1,
    "simulate": cmd_simulate,
    "cache": cmd_cache,
    "serve": cmd_serve,
    "request": cmd_request,
    "lint": cmd_lint,
}


def _run_profiled(command, args: argparse.Namespace):
    """Run ``command`` under cProfile and dump the hottest functions to
    stderr (stdout stays clean for the command's own tables)."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return command(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.strip_dirs().sort_stats("cumulative")
        print(f"\n--- cProfile: top {args.profile_limit} by cumulative "
              "time ---", file=sys.stderr)
        stats.print_stats(args.profile_limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sweeps = ("headline", "breakdown", "sensitivity", "scaling")
        if args.resume and args.command not in sweeps:
            raise UsageError(f"--resume applies only to {'/'.join(sweeps)}")
        if args.profile:
            rc = _run_profiled(_COMMANDS[args.command], args)
        else:
            rc = _COMMANDS[args.command](args)
    except UsageError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
