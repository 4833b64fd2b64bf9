"""``svw-repro`` command-line interface.

Each command has its own subparser, built from the option groups its
family shares, so a flag the command does not use is a usage error
(exit 2).

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
    svw-repro goldens                      # regenerate tests/goldens.json
    svw-repro worker --port 7501           # start a remote worker agent
    svw-repro fig5 --remote-workers hostA:7501,hostB:7501
    svw-repro campaignd --port 7500 --cache-dir ~/.cache/svw   # sweep service
    svw-repro worker --port 7501 --register hostD:7500     # join its fleet
    svw-repro submit fig5 --campaign hostD:7500            # enqueue + return
    svw-repro status fig5 --campaign hostD:7500
    svw-repro fig5 --campaign hostD:7500   # wait for the campaign, render it
    svw-repro fig5 --campaign hostD:7500 --fallback local  # degrade, don't die
    svw-repro fsck --cache-dir ~/.cache/svw --fix          # scrub caches
    svw-repro worker --port 7501 --fault-plan seed=7,crash_after=3  # chaos
    svw-repro fuzz --seed 42 --rounds 3    # differential re-execution fuzzing
    svw-repro fuzz --seed 42 --jobs 2 --json -
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.experiments.faults import FaultPlan
from repro.experiments.results import FigureResult
from repro.experiments.scheduler import check_limits, session_cost_model
from repro.experiments.spec import DEFAULT_INSTS, FUZZ_INSTS, ExperimentSpec
from repro.experiments.store import ResultStore
from repro.harness import figures
from repro.workloads.trace_cache import TraceCache

if TYPE_CHECKING:
    from repro.experiments.backends import ExecutionBackend

# Every command loads what is imported above (the parser needs
# ``figures.EXPERIMENTS``).  The rest is imported where it is used, so the
# simulator core, the remote tier, the campaign tier, the fuzzer, the
# benchmarks and the trace generators (with numpy) load only for the
# commands that run them.


def _progress(message: str) -> None:
    print(f"  ... {message}", file=sys.stderr, flush=True)


def _int_in(low: int, high: int | None = None):
    """An argparse ``type=`` for an int in ``[low, high]``: a bad value
    exits 2 with an error naming the flag, not a traceback later."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bounds = f"at least {low}" if high is None else f"in {low}-{high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


_positive_int = _int_in(1)


def _campaign_target(text: str) -> str:
    """An argparse ``type=`` for ``status``/``cancel``: an experiment name
    or a raw 64-hex campaign id."""
    if text in figures.EXPERIMENTS or (
        len(text) == 64 and all(c in "0123456789abcdef" for c in text)
    ):
        return text
    choices = ", ".join(sorted(figures.EXPERIMENTS))
    raise argparse.ArgumentTypeError(
        f"unknown target {text!r} (expected one of {choices}, or a 64-hex campaign id)"
    )


def _address(text: str) -> str:
    """An argparse ``type=`` for one ``host:port`` address, checked by
    ``parse_worker``: a malformed one exits 2 naming the flag."""
    from repro.experiments.remote import parse_worker

    try:
        parse_worker(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text.strip()


def _address_list(text: str) -> list[str]:
    """An argparse ``type=`` for ``--remote-workers``: a comma-separated
    list of ``host:port`` addresses."""
    addresses = [_address(address) for address in text.split(",") if address.strip()]
    if not addresses:
        raise argparse.ArgumentTypeError(
            f"no worker addresses in {text!r} (expected a comma-separated host:port list)"
        )
    return addresses


def _names(text: str | None) -> list[str] | None:
    """A comma-separated name list flag; ``None`` when not given."""
    return text.split(",") if text else None


def _progress_fn(args: argparse.Namespace):
    return None if args.quiet else _progress


def _trace_cache(args: argparse.Namespace) -> TraceCache | None:
    return TraceCache(args.trace_cache_dir) if args.trace_cache_dir else None


def _result_store(args: argparse.Namespace) -> ResultStore | None:
    return ResultStore(args.cache_dir) if args.cache_dir else None


def _backend(args: argparse.Namespace, trace_cache: TraceCache | None) -> ExecutionBackend:
    """The backend a sweep command runs on: ``--campaign``,
    ``--remote-workers`` or ``--jobs`` (the parser admits at most one)."""
    if args.campaign is not None:
        from repro.experiments.campaign import CampaignBackend

        return CampaignBackend(args.campaign, fallback=args.fallback)
    if args.remote_workers is not None:
        from repro.experiments.remote import RemoteBackend

        return RemoteBackend(args.remote_workers, trace_cache=trace_cache)
    from repro.experiments.backends import make_backend

    return make_backend(args.jobs, trace_cache=trace_cache)


def _sweep_failures() -> tuple[type[Exception], ...]:
    """What a backend raises when a sweep cannot finish: a failed cell, a
    lost fleet, a campaign error.  Called only once an exception is being
    matched, so a sweep that succeeds never loads the campaign tier."""
    from repro.experiments.backends import CellExecutionError
    from repro.experiments.campaign import CampaignError

    return (CellExecutionError, CampaignError)


def _failed(args: argparse.Namespace, exc: Exception) -> int:
    """Report a command's failure in one stderr line; exit status 1."""
    print(f"svw-repro {args.command}: {exc}", file=sys.stderr)
    return 1


def _write_json(target: str, payload: object) -> None:
    """Write JSON output to stdout (``-``) or, atomically, the named file."""
    if target == "-":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        from repro.ioutil import write_json

        write_json(target, payload)


def _spec(args: argparse.Namespace, name: str) -> ExperimentSpec:
    """Experiment ``name`` over ``--benchmarks`` (the experiment's own set
    when not given) at ``--insts``; an unknown benchmark exits 1 with the
    known names."""
    try:
        return figures.EXPERIMENTS[name](_names(args.benchmarks), args.insts)
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}") from exc


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


def _run_figure(
    args: argparse.Namespace,
    name: str,
    spec: ExperimentSpec,
    backend: ExecutionBackend,
    store: ResultStore | None,
) -> FigureResult:
    """Run one experiment's spec and, unless ``--json -``, print its table
    and claim checks."""
    from repro.experiments.run import run_experiment
    from repro.harness.report import render_claims, render_figure

    started = time.time()
    result = run_experiment(spec, backend=backend, store=store, progress=_progress_fn(args))
    if args.json != "-":
        print(render_figure(result))
        print()
        print(render_claims(result))
        print(f"[{name}: {time.time() - started:.1f}s]")
    return result


def _run_figures(args: argparse.Namespace) -> int:
    """``svw-repro <experiment>`` and ``svw-repro all``."""
    from repro.experiments.pool import shutdown_session_pools

    names = sorted(figures.EXPERIMENTS) if args.command == "all" else [args.command]
    specs = {name: _spec(args, name) for name in names}
    trace_cache = _trace_cache(args)
    store = _result_store(args)
    if store is not None:
        # A --cache-dir also persists *scheduling knowledge*: the session
        # cost model starts from the rates previous sessions measured, so
        # dispatch order is balanced from the first sweep, and what this
        # session learns is saved back below.
        session_cost_model().load_from(store.cost_model_path)
    results: dict[str, FigureResult] = {}
    try:
        backend = _backend(args, trace_cache)
        for name, spec in specs.items():
            results[name] = _run_figure(args, name, spec, backend, store)
    except _sweep_failures() as exc:
        return _failed(args, exc)
    finally:
        shutdown_session_pools()
        if store is not None:
            session_cost_model().save(store.cost_model_path)
    if args.json is not None:
        _write_json(args.json, {name: result.to_dict() for name, result in results.items()})
    return 0


def _run_fuzz(args: argparse.Namespace) -> int:
    """``svw-repro fuzz``: differential fuzzing over the machine matrix on
    any backend; the plan, the verdicts and the report fingerprint are a
    pure function of (--seed, --rounds, --workloads, --insts)."""
    from repro.experiments.fuzz import run_fuzz

    try:
        report = run_fuzz(
            args.seed,
            rounds=args.rounds,
            workloads=_names(args.workloads),
            n_insts=args.insts,
            backend=_backend(args, _trace_cache(args)),
            progress=_progress_fn(args),
        )
    except ValueError as exc:
        raise SystemExit(f"fuzz: {exc}") from exc
    except _sweep_failures() as exc:
        return _failed(args, exc)
    if args.json is not None:
        _write_json(args.json, report.to_dict())
    if args.json != "-":
        print(report.describe())
        print(f"  fingerprint: {report.fingerprint()}")
        for div in report.divergences:
            print(f"  {div.cell} [{div.kind}]: {div.error}")
            print(f"    reproducer: {json.dumps(div.reproducer, sort_keys=True)}")
    return 0 if report.ok else 1


def _run_goldens(args: argparse.Namespace) -> int:
    """``svw-repro goldens``: regenerate the golden fingerprint table and
    write it to ``--json``, or to ``tests/goldens.json`` without one."""
    from repro.harness import goldens

    table = goldens.build_table()
    if args.json != "-":
        print(goldens.render_table(table))
    _write_json(goldens.GOLDENS_PATH if args.json is None else args.json, table)
    if args.json is None and not args.quiet:
        print(f"wrote {goldens.GOLDENS_PATH}", file=sys.stderr)
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    """``svw-repro worker``: serve sweeps over TCP until interrupted.

    A worker agent executes codec trace bytes and JSON configs only
    (nothing pickled crosses the wire); --trace-cache-dir gives the host a
    persistent encoded-trace cache shared by all its agents.  An agent
    keeps no results: the sweep's client or campaign daemon caches them.
    """
    from repro.experiments.remote import WorkerAgent

    agent = WorkerAgent(
        host=args.host,
        port=args.port,
        trace_cache=_trace_cache(args),
        progress=_progress_fn(args),
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


def _run_campaignd(args: argparse.Namespace) -> int:
    """``svw-repro campaignd``: the long-lived campaign daemon."""
    from repro.experiments.campaign import CampaignDaemon

    daemon = CampaignDaemon(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        trace_cache=_trace_cache(args),
        progress=_progress_fn(args),
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


def _run_campaign_command(args: argparse.Namespace) -> int:
    """``svw-repro submit/status/cancel`` against a campaign daemon.

    ``submit`` enqueues and returns immediately (``svw-repro <experiment>
    --campaign`` submits and waits); ``status``/``cancel`` accept either an
    experiment name (the campaign id is re-derived from the spec, which
    must be built with the same ``--insts``/``--benchmarks``) or a raw id.
    """
    from repro.experiments.campaign import CampaignClient, CampaignError, spec_campaign_id

    command = args.command
    spec = None
    campaign_id = args.target
    if args.target in figures.EXPERIMENTS:
        spec = _spec(args, args.target)
        campaign_id = spec_campaign_id(spec)
    try:
        with CampaignClient(args.campaign) as client:
            if command == "submit":
                reply = client.submit(spec.cells(), name=spec.name)
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
    except CampaignError as exc:
        return _failed(args, exc)


def _run_fsck(args: argparse.Namespace) -> int:
    """``svw-repro fsck``: scrub the result store, its campaign journals,
    and the trace cache for crash/bit-rot damage.

    Everything these caches hold is recomputable, so ``--fix`` deletes
    damaged entries outright; a repair costs regeneration time, never
    data.  Exits non-zero while problems remain (after a ``--fix`` run,
    each scrubbed area is re-scanned to confirm the repairs took), and
    on a directory that does not exist, which it names and never creates.
    """
    if args.cache_dir is None and args.trace_cache_dir is None:
        raise SystemExit("fsck: --cache-dir and/or --trace-cache-dir is required")
    missing = [
        directory
        for directory in (args.cache_dir, args.trace_cache_dir)
        if directory is not None and not Path(directory).expanduser().is_dir()
    ]
    for directory in missing:
        print(f"fsck: no such directory: {directory}", file=sys.stderr)
    if missing:
        return 1
    from repro.experiments.campaign import scrub_journals

    failures: list[str] = []

    def check(label: str, scrub) -> None:
        report = scrub(args.fix)
        print(f"{label}: {report.describe()}")
        # After a --fix pass, trust a fresh scan over repair bookkeeping.
        if not (scrub(False) if args.fix else report).ok:
            failures.append(label)

    if args.cache_dir is not None:
        store = ResultStore(args.cache_dir)
        check(f"result store {store.root}", store.fsck)
        journal_dir = store.root / "campaigns"
        if journal_dir.is_dir():
            check(
                f"campaign journals {journal_dir}",
                lambda fix: scrub_journals(journal_dir, fix),
            )
    if args.trace_cache_dir is not None:
        cache = TraceCache(args.trace_cache_dir)
        check(f"trace cache {cache.root}", cache.scrub)
    if failures:
        hint = "" if args.fix else " (re-run with --fix to repair)"
        print(
            "fsck: problems remain in " + "; ".join(failures) + hint,
            file=sys.stderr,
        )
        return 1
    return 0


def _option(flag: str, **kwargs) -> argparse.ArgumentParser:
    """An option group holding ``flag``, for a subparser's ``parents=``."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument(flag, **kwargs)
    return group


class _Command(argparse.ArgumentParser):
    """One command's parser.  It reports its own usage errors, so the
    message carries this command's usage line rather than the root's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        if getattr(namespace, "fallback", None) is not None and namespace.campaign is None:
            self.error("--fallback requires --campaign")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """The ``svw-repro`` argument parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="svw-repro",
        description="Reproduce the experiments of Roth, 'Store Vulnerability "
        "Window (SVW)', ISCA 2005.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND", parser_class=_Command
    )

    # -- option groups shared within a family -------------------------------
    quiet = _option("--quiet", action="store_true", help="suppress progress output")
    json_out = _option(
        "--json",
        metavar="PATH",
        help="also write results as JSON to PATH ('-' writes JSON to stdout "
        "and suppresses the rendered tables, keeping stdout machine-parseable)",
    )

    def insts(default: int) -> argparse.ArgumentParser:
        return _option(
            "--insts",
            type=_positive_int,
            default=default,
            help=f"dynamic instructions per run (default {default})",
        )

    benchmarks = _option(
        "--benchmarks",
        help="comma-separated benchmark list (full or short names); "
        "default is each experiment's own suite",
    )
    cache_dir = _option(
        "--cache-dir",
        help="content-addressed result cache; repeated cells are read, not re-simulated",
    )
    trace_cache_dir = _option(
        "--trace-cache-dir",
        help="on-disk encoded-trace cache; sweeps skip trace generation "
        "for workloads cached here",
    )
    fallback = _option(
        "--fallback",
        choices=["local"],
        help="with --campaign: if the daemon stays unreachable past the "
        "retry window, run the cells locally (bit-identical, just slower) "
        "instead of failing the sweep",
    )
    backend = argparse.ArgumentParser(add_help=False)
    one_backend = backend.add_mutually_exclusive_group()
    one_backend.add_argument(
        "--jobs",
        type=_positive_int,
        help="worker processes per sweep (default: serial in-process)",
    )
    one_backend.add_argument(
        "--remote-workers",
        metavar="LIST",
        type=_address_list,
        help="run sweeps on remote worker agents: comma-separated host:port "
        "list (agents started with 'svw-repro worker')",
    )
    one_backend.add_argument(
        "--campaign",
        metavar="HOST:PORT",
        type=_address,
        help="campaign daemon address: sweeps become campaign submissions "
        "executed by the daemon's registered worker fleet",
    )
    serve = _option(
        "--host", default="0.0.0.0", help="interface to bind (default all interfaces)"
    )
    serve.add_argument(
        "--port",
        type=_int_in(0, 65535),
        default=7501,
        help="TCP port to listen on (0 picks a free port)",
    )
    serve.add_argument(
        "--fault-plan",
        metavar="SPEC",
        help="deterministic fault-injection plan for chaos testing, e.g. "
        "'seed=7,crash_after=3' or 'seed=11,corrupt_rate=0.5,max_faults=5'; "
        "fired faults log to stderr as 'svw-fault:' lines",
    )

    # -- the experiments ----------------------------------------------------
    sweep = [
        insts(DEFAULT_INSTS),
        benchmarks,
        backend,
        fallback,
        cache_dir,
        trace_cache_dir,
        json_out,
        quiet,
    ]
    for name, builder in figures.EXPERIMENTS.items():
        doc = (builder.__doc__ or "").partition("\n")[0]
        commands.add_parser(name, parents=sweep, help=doc).set_defaults(run=_run_figures)
    commands.add_parser(
        "all", parents=sweep, help="every experiment, on one backend"
    ).set_defaults(run=_run_figures)

    # -- fuzz, goldens ------------------------------------------------------
    fuzz = commands.add_parser(
        "fuzz",
        parents=[
            insts(FUZZ_INSTS),
            _option(
                "--workloads",
                help="comma-separated base workloads (default: the fuzzer's own set)",
            ),
            backend,
            fallback,
            trace_cache_dir,
            json_out,
            quiet,
        ],
        help="seeded differential re-execution fuzzing over the machine matrix",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed; the whole mutation plan and every verdict are "
        "a pure function of it (default 0)",
    )
    fuzz.add_argument(
        "--rounds",
        type=_positive_int,
        default=3,
        help="mutated trials per run (default 3)",
    )
    fuzz.set_defaults(run=_run_fuzz)

    commands.add_parser(
        "goldens", parents=[json_out, quiet], help="regenerate the golden fingerprint table"
    ).set_defaults(run=_run_goldens)

    # -- the service tier ---------------------------------------------------
    worker = commands.add_parser(
        "worker",
        parents=[serve, trace_cache_dir, quiet],
        help="a remote execution agent serving sweeps over TCP",
    )
    worker.add_argument(
        "--register",
        metavar="HOST:PORT",
        help="register with a campaign daemon (heartbeats + dial-back job "
        "dispatch) in addition to serving direct clients",
    )
    worker.set_defaults(run=_run_worker)

    campaignd = commands.add_parser(
        "campaignd",
        parents=[serve, cache_dir, trace_cache_dir, quiet],
        help="a long-lived campaign daemon",
    )
    campaignd.add_argument(
        "--job-deadline",
        default="auto",
        metavar="SECONDS",
        help="per-job execution deadline -- 'auto' derives one from the "
        "measured cost model (default; configs without a measured rate get "
        "none), 'none' disables, a number is fixed seconds; a job past its "
        "deadline is re-dispatched elsewhere and the straggling worker struck",
    )
    campaignd.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        help="dispatch attempts per cell before its campaigns fail (default 3)",
    )
    campaignd.set_defaults(run=_run_campaignd)

    client = [
        _option(
            "--campaign",
            required=True,
            metavar="HOST:PORT",
            type=_address,
            help="the campaign daemon's address",
        ),
        insts(DEFAULT_INSTS),
        benchmarks,
    ]
    for name, text in (
        ("submit", "enqueue an experiment as a campaign and return"),
        ("status", "a campaign's progress"),
        ("cancel", "cancel a campaign"),
    ):
        talk = commands.add_parser(name, parents=client, help=text)
        if name == "submit":
            talk.add_argument(
                "target",
                choices=sorted(figures.EXPERIMENTS),
                help="the experiment to run as a campaign",
            )
        else:
            talk.add_argument(
                "target", type=_campaign_target, help="an experiment name or a raw campaign id"
            )
        talk.set_defaults(run=_run_campaign_command)

    fsck = commands.add_parser(
        "fsck",
        parents=[cache_dir, trace_cache_dir],
        help="scrub the on-disk caches for crash/bit-rot damage",
    )
    fsck.add_argument(
        "--fix",
        action="store_true",
        help="delete the damaged entries found (caches are recomputable, so "
        "a repair costs regeneration, never data)",
    )
    fsck.set_defaults(run=_run_fsck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
