"""``svw-repro`` command-line interface.

Examples::

    svw-repro fig5                         # full Figure 5 sweep
    svw-repro fig6 --insts 60000           # bigger samples
    svw-repro fig7 --benchmarks crafty,vortex
    svw-repro all --insts 20000            # every experiment
    svw-repro fig5 --jobs 8                # fan cells out across processes
    svw-repro all --jobs 8                 # one worker fleet for all sweeps
    svw-repro all --cache-dir ~/.cache/svw # reruns become cache reads
    svw-repro fig5 --json results.json     # machine-readable results
    svw-repro fig5 --jobs 8 --trace-cache-dir ~/.cache/svw-traces
    svw-repro bench                        # core-throughput benchmark
    svw-repro bench --quick --out BENCH_core.json
    svw-repro bench --workloads gcc --lsus nlq   # one cell, for development
    svw-repro bench --quick --stages       # plus the per-stage wall split
    svw-repro bench-sweep --jobs 4         # sweep-throughput benchmark
    svw-repro goldens                      # regenerate tests/goldens.json
    svw-repro worker --port 7501           # start a remote worker agent
    svw-repro fig5 --remote-workers hostA:7501,hostB:7501
    svw-repro bench-sweep --quick --remote-workers auto:2   # loopback fleet
    svw-repro campaignd --port 7500 --cache-dir ~/.cache/svw   # sweep service
    svw-repro worker --port 7501 --register hostD:7500     # join its fleet
    svw-repro submit fig5 --campaign hostD:7500            # enqueue + return
    svw-repro status fig5 --campaign hostD:7500
    svw-repro fetch fig5 --campaign hostD:7500             # wait + render
    svw-repro fig5 --campaign hostD:7500   # figure sweep as a campaign
    svw-repro fig5 --campaign hostD:7500 --fallback local  # degrade, don't die
    svw-repro fsck --cache-dir ~/.cache/svw --fix          # scrub caches
    svw-repro worker --port 7501 --fault-plan seed=7,crash_after=3  # chaos
    svw-repro fuzz --seed 42 --rounds 3    # differential re-execution fuzzing
    svw-repro fuzz --seed 42 --remote-workers auto:2 --json -
    svw-repro ingest capture.svwt --ingest-dir runs/ingest # check a trace in
    svw-repro fuzz --workloads ingest:3f2a --ingest-dir runs/ingest
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Callable

from repro.experiments.backends import (
    CellExecutionError,
    ExecutionBackend,
    make_backend,
)
from repro.experiments.campaign import (
    CampaignBackend,
    CampaignClient,
    CampaignDaemon,
    CampaignError,
    scrub_journals,
    spec_campaign_id,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.pool import shutdown_session_pools
from repro.experiments.remote import RemoteBackend, WorkerAgent, resolve_worker_fleet
from repro.experiments.results import FigureResult
from repro.experiments.scheduler import check_limits, session_cost_model
from repro.experiments.fuzz import FUZZ_INSTS, FUZZ_WORKLOADS, run_fuzz
from repro.experiments.spec import DEFAULT_INSTS
from repro.experiments.store import ResultStore
from repro.harness import bench, bench_sweep, figures, goldens
from repro.harness.report import render_claims, render_figure
from repro.workloads.ingest import IngestError, IngestStore
from repro.workloads.trace_cache import TraceCache

_EXPERIMENTS: dict[str, Callable[..., FigureResult]] = {
    "fig5": figures.figure5,
    "fig6": figures.figure6,
    "fig7": figures.figure7,
    "fig8": figures.figure8,
    "ssn-width": figures.ssn_width_experiment,
    "spec-updates": figures.spec_updates_experiment,
    "composition": figures.composition_experiment,
    "svw-replacement": figures.svw_replacement_experiment,
}

#: Spec constructors for the campaign commands (submit ships the spec
#: payload; status/cancel re-derive the content-addressed campaign id).
_SPECS: dict[str, Callable] = {
    "fig5": figures.figure5_spec,
    "fig6": figures.figure6_spec,
    "fig7": figures.figure7_spec,
    "fig8": figures.figure8_spec,
    "ssn-width": figures.ssn_width_spec,
    "spec-updates": figures.spec_updates_spec,
    "composition": figures.composition_spec,
    "svw-replacement": figures.svw_replacement_spec,
}

#: Subcommands that talk to a campaign daemon about one campaign.
_CAMPAIGN_COMMANDS = ("submit", "status", "fetch", "cancel")


def _progress(message: str) -> None:
    print(f"  ... {message}", file=sys.stderr, flush=True)


def _resolve_remote_workers(
    value: str | None, stack: contextlib.ExitStack, trace_cache_dir: str | None
) -> list[str] | None:
    """``--remote-workers`` -> agent addresses (spawning ``auto:N`` fleets).

    Spawned loopback agents live on ``stack`` so they are torn down when
    the command that requested them finishes; malformed values exit with
    the parse error instead of a traceback.
    """
    try:
        return resolve_worker_fleet(value, stack, trace_cache_dir)
    except ValueError as exc:
        raise SystemExit(f"--remote-workers: {exc}") from exc


def _backend(
    args: argparse.Namespace,
    stack: contextlib.ExitStack,
    trace_cache: TraceCache | None,
) -> ExecutionBackend:
    """The backend a sweep command runs on: ``--campaign``, else
    ``--remote-workers``, else the ``--jobs`` backend."""
    if args.campaign is not None and args.remote_workers is not None:
        raise SystemExit(
            "--campaign and --remote-workers are mutually exclusive "
            "(the campaign daemon owns its own worker fleet)"
        )
    remote = _resolve_remote_workers(args.remote_workers, stack, args.trace_cache_dir)
    if args.campaign is not None:
        return CampaignBackend(args.campaign, fallback=args.fallback)
    if remote is not None:
        return RemoteBackend(remote, trace_cache=trace_cache)
    return make_backend(args.jobs, trace_cache=trace_cache)


def _write_json(args: argparse.Namespace, payload: str) -> None:
    """Write serialized ``--json`` output to stdout (``-``) or the named file."""
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w") as handle:
            handle.write(payload + "\n")


def _parse_fault_plan(value: str | None) -> FaultPlan | None:
    """``--fault-plan`` -> a seeded plan whose fired events log to stderr
    as ``svw-fault:`` lines (the chaos harness greps these for coverage)."""
    if value is None:
        return None

    def log(event) -> None:
        print(f"svw-fault: {event.describe()}", file=sys.stderr, flush=True)

    try:
        return FaultPlan.from_spec(value, log=log)
    except ValueError as exc:
        raise SystemExit(f"--fault-plan: {exc}") from exc


def _parse_job_deadline(value: str) -> float | str | None:
    """``--job-deadline`` -> 'auto' | None | positive seconds."""
    if value in ("none", "off"):
        return None
    try:
        return check_limits(1, value)
    except ValueError:
        raise SystemExit(
            f"--job-deadline: expected 'auto', 'none', or positive seconds, "
            f"got {value!r}"
        ) from None


def _run_fsck(args) -> int:
    """``svw-repro fsck``: scrub the result store, its campaign journals,
    and the trace cache for crash/bit-rot damage.

    Everything these caches hold is recomputable, so ``--fix`` deletes or
    compacts damaged entries outright; a repair costs regeneration time,
    never data.  Exits non-zero while problems remain (after a ``--fix``
    run, each scrubbed area is re-scanned to confirm the repairs took).
    """
    if (
        args.cache_dir is None
        and args.trace_cache_dir is None
        and args.ingest_dir is None
    ):
        raise SystemExit(
            "fsck: --cache-dir, --trace-cache-dir, and/or --ingest-dir is required"
        )
    failures: list[str] = []

    def check(label: str, scrub, healthy) -> None:
        report = scrub(args.fix)
        print(f"{label}: {report.describe()}")
        # After a --fix pass, trust a fresh scan over repair bookkeeping.
        ok = healthy(scrub(False)) if args.fix else healthy(report)
        if not ok:
            failures.append(label)

    if args.cache_dir is not None:
        store = ResultStore(args.cache_dir)
        check(f"result store {store.root}", store.fsck, lambda r: r.ok)
        journal_dir = store.root / "campaigns"
        if journal_dir.is_dir():
            check(
                f"campaign journals {journal_dir}",
                lambda fix: scrub_journals(journal_dir, fix),
                lambda r: r.clean,
            )
    if args.trace_cache_dir is not None:
        cache = TraceCache(args.trace_cache_dir)
        check(f"trace cache {cache.root}", cache.scrub, lambda r: r.ok)
    if args.ingest_dir is not None:
        # Ingested traces are source data, not a recomputable cache, so
        # the health bar is stricter (orphans count) and --fix deletion is
        # the operator's explicit choice, same flag, higher stakes.
        ingest = IngestStore(args.ingest_dir)
        check(f"ingest store {ingest.root}", ingest.scrub, lambda r: r.ok)
    if failures:
        hint = "" if args.fix else " (re-run with --fix to repair)"
        print(
            "fsck: problems remain in " + "; ".join(failures) + hint,
            file=sys.stderr,
        )
        return 1
    return 0


def run_experiment(
    name: str,
    benchmarks: list[str] | None,
    n_insts: int,
    quiet: bool,
    backend=None,
    store: ResultStore | None = None,
    render: bool = True,
) -> FigureResult:
    driver = _EXPERIMENTS[name]
    started = time.time()
    result = driver(
        benchmarks=benchmarks,
        n_insts=n_insts,
        progress=None if quiet else _progress,
        backend=backend,
        store=store,
    )
    if render:
        print(render_figure(result))
        print()
        print(render_claims(result))
        print(f"[{name}: {time.time() - started:.1f}s]")
    return result


def _is_campaign_id(value: str) -> bool:
    return len(value) == 64 and all(c in "0123456789abcdef" for c in value)


def _run_campaign_command(args, benchmarks: list[str] | None) -> int:
    """``svw-repro submit/status/fetch/cancel`` against a campaign daemon.

    ``submit`` enqueues and returns immediately; ``fetch`` waits for
    completion and renders the figure (through the ordinary
    :class:`~repro.experiments.campaign.CampaignBackend` path, so results
    are fingerprint-verified); ``status``/``cancel`` accept either an
    experiment name (the campaign id is re-derived from the spec, which
    must be built with the same ``--insts``/``--benchmarks``) or a raw id.
    """
    command = args.experiment
    if args.campaign is None:
        raise SystemExit(f"{command}: --campaign HOST:PORT is required")
    if args.target is None:
        raise SystemExit(
            f"{command}: a target is required (an experiment name"
            + (")" if command in ("submit", "fetch") else " or a campaign id)")
        )
    spec = None
    if args.target in _SPECS:
        spec = _SPECS[args.target](benchmarks, args.insts)
        campaign_id = spec_campaign_id(spec)
    elif command not in ("submit", "fetch") and _is_campaign_id(args.target):
        campaign_id = args.target
    else:
        choices = ", ".join(sorted(_SPECS))
        raise SystemExit(
            f"{command}: unknown target {args.target!r} (expected one of "
            f"{choices}"
            + ("" if command in ("submit", "fetch") else ", or a 64-hex campaign id")
            + ")"
        )
    try:
        if command == "fetch":
            store = ResultStore(args.cache_dir) if args.cache_dir else None
            result = run_experiment(
                args.target,
                benchmarks,
                args.insts,
                args.quiet,
                backend=CampaignBackend(args.campaign, fallback=args.fallback),
                store=store,
                render=args.json != "-",
            )
            if args.json is not None:
                _write_json(args, json.dumps({args.target: result.to_dict()}, indent=1))
            return 0
        with CampaignClient(args.campaign) as client:
            if command == "submit":
                reply = client.submit(spec=spec)
                attached = " (attached to existing campaign)" if reply.get("attached") else ""
                print(f"campaign {reply['campaign']}")
                print(
                    f"  {args.target}: {reply.get('done')}/{reply.get('total')} "
                    f"cells done, state {reply.get('state')}{attached}"
                )
                return 0
            if command == "status":
                reply = client.status(campaign_id)
                line = (
                    f"campaign {reply['campaign']}: {reply.get('state')} "
                    f"({reply.get('done')}/{reply.get('total')} cells done)"
                )
                if reply.get("error"):
                    line += f" -- {reply['error']}"
                print(line)
                return 1 if reply.get("state") == "failed" else 0
            reply = client.cancel(campaign_id)
            print(f"campaign {reply['campaign']}: {reply.get('state')}")
            return 0
    except (CampaignError, CellExecutionError) as exc:
        print(f"svw-repro {command}: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="svw-repro",
        description="Reproduce the experiments of Roth, 'Store Vulnerability "
        "Window (SVW)', ISCA 2005.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS)
        + ["all", "bench", "bench-sweep", "goldens", "worker", "campaignd", "fsck"]
        + ["fuzz", "ingest"]
        + list(_CAMPAIGN_COMMANDS),
        help="which table/figure to regenerate ('bench' runs the "
        "core-simulator throughput benchmark, 'bench-sweep' the "
        "sweep-throughput/backend-equivalence benchmark, 'goldens' "
        "regenerates the golden fingerprint table, 'worker' starts "
        "a remote execution agent serving sweeps over TCP, 'campaignd' a "
        "long-lived campaign daemon; 'submit'/'status'/'fetch'/'cancel' "
        "talk to a campaign daemon about one campaign; 'fsck' scrubs the "
        "on-disk caches for crash/bit-rot damage; 'fuzz' runs the seeded "
        "differential re-execution fuzzer over the machine matrix; "
        "'ingest' validates and checks an external trace file into the "
        "ingest store)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="submit/fetch: the experiment to run as a campaign; "
        "status/cancel: an experiment name or a raw campaign id; "
        "ingest: the trace file to check in",
    )
    parser.add_argument(
        "--insts",
        type=int,
        default=DEFAULT_INSTS,
        help=f"dynamic instructions per run (default {DEFAULT_INSTS})",
    )
    parser.add_argument(
        "--benchmarks",
        type=str,
        default=None,
        help="comma-separated benchmark list (full or short names); "
        "default is each experiment's own suite",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per sweep (default: serial in-process; "
        "bench-sweep defaults to 2)",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="content-addressed result cache; repeated cells are read, not re-simulated",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write results as JSON to PATH ('-' writes JSON to stdout "
        "and suppresses the rendered tables, keeping stdout machine-parseable)",
    )
    parser.add_argument(
        "--trace-cache-dir",
        type=str,
        default=None,
        help="on-disk encoded-trace cache; sweeps (and bench-sweep) skip "
        "trace generation for workloads cached here",
    )
    parser.add_argument(
        "--remote-workers",
        type=str,
        default=None,
        metavar="LIST",
        help="run sweeps on remote worker agents: comma-separated host:port "
        "list (agents started with 'svw-repro worker'), or 'auto:N' to "
        "spawn N loopback agents for the duration of the command; with "
        "bench-sweep this adds a fingerprint-checked 'remote' mode",
    )
    parser.add_argument(
        "--host",
        type=str,
        default="0.0.0.0",
        help="worker/campaignd only: interface to bind (default all interfaces)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7501,
        help="worker/campaignd only: TCP port to listen on (0 picks a free port)",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=1,
        help="worker only: concurrent simulations this agent accepts",
    )
    parser.add_argument(
        "--campaign",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="campaign daemon address: figure sweeps become campaign "
        "submissions executed by the daemon's registered worker fleet; "
        "required by submit/status/fetch/cancel",
    )
    parser.add_argument(
        "--register",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="worker only: register with a campaign daemon (heartbeats + "
        "dial-back job dispatch) in addition to serving direct clients",
    )
    parser.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        metavar="SPEC",
        help="worker/campaignd only: deterministic fault-injection plan for "
        "chaos testing, e.g. 'seed=7,crash_after=3' or "
        "'seed=11,corrupt_rate=0.5,max_faults=5'; fired faults log to "
        "stderr as 'svw-fault:' lines",
    )
    parser.add_argument(
        "--job-deadline",
        type=str,
        default="auto",
        metavar="SECONDS",
        help="campaignd only: per-job execution deadline -- 'auto' derives "
        "one from the measured cost model (default; configs without a "
        "measured rate get none), 'none' disables, a number is fixed "
        "seconds; a job past its deadline is re-dispatched elsewhere and "
        "the straggling worker struck",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="campaignd only: dispatch attempts per cell before its "
        "campaigns fail (default 3)",
    )
    parser.add_argument(
        "--fallback",
        choices=["local"],
        default=None,
        help="with --campaign: if the daemon stays unreachable past the "
        "retry window, run the cells locally (bit-identical, just slower) "
        "instead of failing the sweep",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="fsck only: delete/compact the damaged entries found (caches "
        "are recomputable, so a repair costs regeneration, never data)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fuzz only: campaign seed; the whole mutation plan and every "
        "verdict are a pure function of it (default 0)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="fuzz only: mutated trials per run (default 3)",
    )
    parser.add_argument(
        "--ingest-dir",
        type=str,
        default=None,
        help="ingest store root (validated external traces, addressed as "
        "ingest:<digest>); used by 'ingest', workload resolution, and the "
        "fsck scrub",
    )
    parser.add_argument(
        "--name",
        type=str,
        default=None,
        help="ingest only: display name for the checked-in trace "
        "(default: the trace's own encoded name)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="bench/bench-sweep only: reduced budget (CI smoke)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="bench/bench-sweep only: timing repetitions (best-of; "
        "default 3 for bench, 2 for bench-sweep)",
    )
    parser.add_argument(
        "--workloads",
        type=str,
        default=None,
        help="bench/bench-sweep only: comma-separated workload subset "
        "(for figures use --benchmarks)",
    )
    parser.add_argument(
        "--lsus",
        type=str,
        default=None,
        help="bench only: comma-separated LSU kinds (conventional,nlq,ssq); "
        "with --workloads this narrows the harness to a single cell",
    )
    parser.add_argument(
        "--stages",
        action="store_true",
        help="bench only: add each cell's per-stage wall split (complete, "
        "commit, rex, issue, dispatch, loop) from one extra instrumented run",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="PATH",
        help="bench/bench-sweep/goldens only: where to write the JSON "
        "(default BENCH_core.json / BENCH_sweep.json / tests/goldens.json "
        "unless --json already directs it)",
    )
    args = parser.parse_args(argv)

    if args.target is not None and args.experiment not in (
        *_CAMPAIGN_COMMANDS,
        "ingest",
    ):
        parser.error(f"unexpected argument {args.target!r} after {args.experiment!r}")

    if args.experiment == "fsck":
        return _run_fsck(args)

    if args.experiment == "ingest":
        if args.target is None:
            raise SystemExit("ingest: a trace file path is required")
        if args.ingest_dir is None:
            raise SystemExit("ingest: --ingest-dir is required")
        try:
            record = IngestStore(args.ingest_dir).ingest_file(
                args.target, name=args.name
            )
        except IngestError as exc:
            print(f"svw-repro ingest: {exc}", file=sys.stderr)
            return 1
        print(
            f"ingested {record.name!r}: {record.n_insts} insts, "
            f"{record.nbytes} bytes"
        )
        print(f"  workload reference: ingest:{record.digest[:12]}")
        return 0

    if args.fallback is not None and args.campaign is None:
        parser.error("--fallback requires --campaign")

    if args.experiment == "worker":
        # A worker agent executes codec trace bytes and JSON configs only
        # (nothing pickled crosses the wire); --trace-cache-dir gives the
        # host a persistent encoded-trace cache shared by all its agents,
        # --cache-dir a local result store memoizing repeat cells by
        # fingerprint (mergeable into a central store by content address).
        cache = TraceCache(args.trace_cache_dir) if args.trace_cache_dir else None
        agent = WorkerAgent(
            host=args.host,
            port=args.port,
            slots=args.slots,
            trace_cache=cache,
            result_store=ResultStore(args.cache_dir) if args.cache_dir else None,
            progress=None if args.quiet else _progress,
            faults=_parse_fault_plan(args.fault_plan),
        )
        if args.register is not None:
            try:
                agent.register_with(args.register)
            except ValueError as exc:
                agent.close()
                raise SystemExit(f"--register: {exc}") from exc
        # The parseable contract local_worker_fleet (and fleet scripts)
        # rely on: first stdout line names the bound address.
        print(f"svw-worker listening on {agent.address}", flush=True)
        try:
            agent.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            agent.close()
        return 0

    if args.experiment == "campaignd":
        cache = TraceCache(args.trace_cache_dir) if args.trace_cache_dir else None
        daemon = CampaignDaemon(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            trace_cache=cache,
            progress=None if args.quiet else _progress,
            job_deadline=_parse_job_deadline(args.job_deadline),
            max_attempts=args.max_attempts,
            faults=_parse_fault_plan(args.fault_plan),
        )
        try:
            daemon.start()
        except RuntimeError as exc:
            raise SystemExit(f"campaignd: {exc}") from exc
        # Same parseable contract as the worker: first stdout line names
        # the bound address (scripts and CI scrape the port from it).
        print(f"svw-campaignd listening on {daemon.address}", flush=True)
        try:
            while daemon._thread is not None and daemon._thread.is_alive():
                daemon._thread.join(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            daemon.close()
        return 0

    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    workloads = args.workloads.split(",") if args.workloads else benchmarks

    if args.experiment in _CAMPAIGN_COMMANDS:
        return _run_campaign_command(args, benchmarks)

    if args.experiment == "fuzz":
        # Differential fuzzing over the machine matrix on any backend; the
        # plan, the verdicts, and the report fingerprint are a pure
        # function of (--seed, --rounds, --workloads, budget).
        ingest = IngestStore(args.ingest_dir) if args.ingest_dir else None
        fuzz_names = list(workloads) if workloads else list(FUZZ_WORKLOADS)
        n_insts = FUZZ_INSTS if args.insts == DEFAULT_INSTS else args.insts
        trace_cache = TraceCache(args.trace_cache_dir) if args.trace_cache_dir else None
        with contextlib.ExitStack() as stack:
            backend = _backend(args, stack, trace_cache)
            try:
                report = run_fuzz(
                    args.seed,
                    rounds=args.rounds,
                    workloads=fuzz_names,
                    n_insts=n_insts,
                    backend=backend,
                    progress=None if args.quiet else _progress,
                    store=ingest,
                )
            except (ValueError, IngestError) as exc:
                raise SystemExit(f"fuzz: {exc}") from exc
        if args.json is not None:
            _write_json(args, json.dumps(report.to_dict(), indent=1, sort_keys=True))
        if args.json != "-":
            print(report.describe())
            print(f"  fingerprint: {report.fingerprint()}")
            for div in report.divergences:
                print(f"  {div.cell} [{div.kind}]: {div.error}")
                print(f"    reproducer: {json.dumps(div.reproducer, sort_keys=True)}")
        return 0 if report.ok else 1

    def emit_benchmark(payload: dict, render, write, default_out: str) -> None:
        """Shared --json/--out plumbing for bench, bench-sweep and goldens."""
        if args.json == "-":
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            print(render(payload))
            if args.json is not None:
                write(payload, args.json)
        out = args.out
        if out is None and args.json is None:
            out = default_out
        if out is not None:
            write(payload, out)
            if not args.quiet:
                print(f"wrote {out}", file=sys.stderr)

    if args.experiment == "bench":
        payload = bench.run_bench(
            workloads=workloads,
            n_insts=args.insts,
            repeats=3 if args.repeats is None else args.repeats,
            quick=args.quick,
            progress=None if args.quiet else _progress,
            lsus=args.lsus.split(",") if args.lsus else None,
            stages=args.stages,
        )
        emit_benchmark(payload, bench.render_bench, bench.write_bench, "BENCH_core.json")
        return 0
    if args.experiment == "goldens":
        emit_benchmark(
            goldens.build_table(),
            goldens.render_table,
            bench.write_bench,
            goldens.GOLDENS_PATH,
        )
        return 0
    if args.experiment == "bench-sweep":
        with contextlib.ExitStack() as stack:
            payload = bench_sweep.run_sweep_bench(
                workloads=workloads,
                n_insts=args.insts,
                jobs=bench_sweep.SWEEP_JOBS if args.jobs is None else args.jobs,
                repeats=2 if args.repeats is None else args.repeats,
                quick=args.quick,
                progress=None if args.quiet else _progress,
                trace_cache_dir=args.trace_cache_dir,
                remote_workers=_resolve_remote_workers(
                    args.remote_workers, stack, args.trace_cache_dir
                ),
            )
        emit_benchmark(
            payload,
            bench_sweep.render_sweep_bench,
            bench_sweep.write_sweep_bench,
            "BENCH_sweep.json",
        )
        # A sweep benchmark whose backends disagree is a failed run: the
        # CI smoke job leans on this exit code.
        return 0 if payload["equivalence"]["identical"] else 1
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    trace_cache = TraceCache(args.trace_cache_dir) if args.trace_cache_dir else None
    store = ResultStore(args.cache_dir) if args.cache_dir else None
    if store is not None:
        # A --cache-dir also persists *scheduling knowledge*: the session
        # cost model starts from the rates previous sessions measured, so
        # dispatch order is balanced from the first sweep, and what this
        # session learns is saved back below.
        session_cost_model().load_from(store.cost_model_path)
    results: dict[str, FigureResult] = {}
    try:
        with contextlib.ExitStack() as stack:
            backend = _backend(args, stack, trace_cache)
            for name in names:
                results[name] = run_experiment(
                    name,
                    benchmarks,
                    args.insts,
                    args.quiet,
                    backend=backend,
                    store=store,
                    render=args.json != "-",
                )
    finally:
        shutdown_session_pools()
        if store is not None:
            session_cost_model().save(store.cost_model_path)
    if args.json is not None:
        _write_json(
            args,
            json.dumps({name: result.to_dict() for name, result in results.items()}, indent=1),
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
