"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``discover``  Discover RFDs from a CSV and write them to a text file::

    python -m repro discover data.csv --limit 6 --out rfds.txt

``impute``    Impute a CSV's missing cells with RFDs::

    python -m repro impute dirty.csv --rfds rfds.txt --out clean.csv

``evaluate``  Inject, impute and score on a clean CSV (the paper's
evaluation protocol)::

    python -m repro evaluate clean.csv --rate 0.02 --limit 6 \
        --rules rules.json

``datasets``  List or export the bundled synthetic datasets::

    python -m repro datasets --export restaurant --out restaurant.csv

``serve``     Run the long-lived imputation HTTP service
(``docs/SERVICE.md``)::

    python -m repro serve --port 8080 --artifact-dir .renuver-cache
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import Sequence

from repro.core import Renuver, RenuverConfig
from repro.dataset import read_csv, write_csv
from repro.datasets import dataset_info, dataset_names, load_dataset
from repro.discovery import DiscoveryConfig, discover_rfds
from repro.evaluation import (
    inject_missing,
    load_rule_file,
    score_imputation,
)
from repro.exceptions import (
    BudgetExceededError,
    DataError,
    DiscoveryError,
    EvaluationError,
    ImputationError,
    InjectedFaultError,
    JournalError,
    PipelineError,
    ReproError,
    RFDParseError,
    RFDValidationError,
    RuleFileError,
    SchemaError,
    ServiceError,
)
from repro.rfd import load_rfds, save_rfds
from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    configure_logging,
    profile_table,
    write_metrics,
    write_trace,
)

#: The CLI error contract: each error family maps to a distinct nonzero
#: exit code so scripts can branch on *why* a run failed.  Checked in
#: order, most specific first (RuleFileError before its EvaluationError
#: parent; CSVFormatError is covered by DataError).
_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (BudgetExceededError, 3),   # budget exhausted (partial results kept)
    (DataError, 4),             # bad input data (incl. CSVFormatError)
    (SchemaError, 4),
    (RFDParseError, 5),         # bad rule/journal artifacts
    (RFDValidationError, 5),
    (RuleFileError, 5),
    (JournalError, 5),
    (DiscoveryError, 6),        # algorithm-stage failures
    (ImputationError, 6),
    (EvaluationError, 6),
    (InjectedFaultError, 6),
    # 7 is retired: scripts written for older versions may still test
    # for it, so it is never reused.
    (ServiceError, 8),          # HTTP service cannot start or operate
    (PipelineError, 9),         # continuous-ingestion pipeline failures
)


def exit_code_for(exc: BaseException) -> int:
    """The exit code the CLI uses for ``exc`` (1 for plain ReproError)."""
    for family, code in _EXIT_CODES:
        if isinstance(exc, family):
            return code
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args)
    if args.command is None:
        parser.print_help()
        return 2
    restore = _install_sigterm_handler()
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # SIGINT or SIGTERM: by the time the interrupt propagates here,
        # the driver's finally blocks have flushed the journal — exit
        # with the conventional 128+SIGINT code.
        print("interrupted; journal flushed", file=sys.stderr)
        return 130
    except ReproError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except FileNotFoundError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        restore()


def _install_sigterm_handler():
    """Make SIGTERM unwind like Ctrl-C so ``finally`` blocks run.

    Returns a zero-argument restore callable.  No-ops (and restores
    nothing) outside the main thread or when SIGTERM is unavailable.
    """
    def on_sigterm(signum: int, frame: object) -> None:
        raise KeyboardInterrupt("SIGTERM")

    try:
        previous = signal.signal(signal.SIGTERM, on_sigterm)
    except (ValueError, OSError, AttributeError):
        return lambda: None
    return lambda: signal.signal(signal.SIGTERM, previous)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RENUVER: RFD-based missing value imputation "
                    "(EDBT 2022 reproduction)",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="show full tracebacks instead of one-line errors "
             "(implies --log-level debug)",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable structured logging to stderr at this level",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines (implies --log-level info "
             "unless --log-level is given)",
    )
    sub = parser.add_subparsers(dest="command")

    discover = sub.add_parser(
        "discover", help="discover RFDs from a CSV file"
    )
    discover.add_argument("csv", help="input CSV (header row required)")
    discover.add_argument(
        "--limit", type=float, default=3.0,
        help="RHS threshold limit (paper: 3/6/9/12/15; default 3)",
    )
    discover.add_argument(
        "--max-lhs", type=int, default=2, help="max LHS size (default 2)"
    )
    discover.add_argument(
        "--max-per-rhs", type=int, default=None,
        help="cap RFDs kept per RHS attribute",
    )
    discover.add_argument(
        "--out", default=None, help="output RFD file (default: stdout)"
    )
    discover.set_defaults(handler=_cmd_discover)

    impute = sub.add_parser(
        "impute", help="impute a CSV's missing cells with RFDs"
    )
    impute.add_argument("csv", help="input CSV with missing cells")
    impute.add_argument(
        "--rfds", required=True, help="RFD file (one per line)"
    )
    impute.add_argument(
        "--out", default=None, help="output CSV (default: stdout)"
    )
    impute.add_argument(
        "--no-verify", action="store_true",
        help="skip IS_FAULTLESS verification (faster, less safe)",
    )
    impute.add_argument(
        "--report", action="store_true",
        help="print per-cell provenance to stderr",
    )
    impute.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="run wall-clock budget (exit 3 when exceeded)",
    )
    impute.add_argument(
        "--cell-budget", type=float, default=None, metavar="SECONDS",
        help="per-cell deadline (overruns degrade, not abort)",
    )
    impute.add_argument(
        "--fallback", choices=("raise", "skip", "mean_mode"),
        default="skip",
        help="last resort for a failed cell (default: skip)",
    )
    impute.add_argument(
        "--on-budget", choices=("raise", "partial"), default="raise",
        help="run-budget overrun: abort with exit 3, or keep the "
             "partial result and exit 0",
    )
    impute.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append a JSONL checkpoint journal as the run progresses",
    )
    impute.add_argument(
        "--resume", default=None, metavar="PATH",
        help="replay a journal from a killed run and continue "
             "(implies --journal PATH)",
    )
    _add_telemetry_flags(impute)
    impute.set_defaults(handler=_cmd_impute)

    evaluate = sub.add_parser(
        "evaluate",
        help="inject missing values into a clean CSV, impute, score",
    )
    evaluate.add_argument("csv", help="clean input CSV")
    evaluate.add_argument(
        "--rate", type=float, default=0.02,
        help="missing rate to inject (default 0.02)",
    )
    evaluate.add_argument(
        "--limit", type=float, default=3.0,
        help="discovery threshold limit (default 3)",
    )
    evaluate.add_argument(
        "--rules", default=None,
        help="JSON rule file for semantic validation",
    )
    evaluate.add_argument(
        "--seed", type=int, default=0, help="injection seed (default 0)"
    )
    _add_telemetry_flags(evaluate)
    evaluate.set_defaults(handler=_cmd_evaluate)

    datasets = sub.add_parser(
        "datasets", help="list or export the bundled synthetic datasets"
    )
    datasets.add_argument(
        "--export", default=None, metavar="NAME",
        help="dataset to export as CSV",
    )
    datasets.add_argument(
        "--tuples", type=int, default=None,
        help="override tuple count for --export",
    )
    datasets.add_argument("--seed", type=int, default=0)
    datasets.add_argument(
        "--out", default=None, help="output CSV for --export"
    )
    datasets.set_defaults(handler=_cmd_datasets)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived imputation HTTP service",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free one (default 8080)",
    )
    serve.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="fingerprint-keyed artifact cache directory; enables "
             "warm starts that skip rediscovery",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="imputation requests admitted concurrently; excess gets "
             "429 (default 8)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64, metavar="N",
        help="live warm-start sessions held before POST /v1/sessions "
             "answers 429 (default 64)",
    )
    serve.add_argument(
        "--request-budget", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline; overruns return partial "
             "results, never 500s",
    )
    serve.add_argument(
        "--limit", type=float, default=3.0,
        help="default discovery threshold limit for requests without "
             "a pinned RFD set (default 3)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=16, metavar="N",
        help="requests queued behind the inflight permits before the "
             "queue sheds with 429 + Retry-After (default 16; 0 "
             "disables queueing entirely)",
    )
    serve.add_argument(
        "--max-queue-wait", type=float, default=1.0, metavar="SECONDS",
        help="longest a request may sit in the admission queue before "
             "it is shed (default 1.0)",
    )
    serve.add_argument(
        "--no-brownout", action="store_true",
        help="disable the overload brownout ladder (normal -> "
             "cache-only); sheds still answer 429",
    )
    serve.add_argument(
        "--no-durable-sessions", action="store_true",
        help="keep warm-start sessions in memory only (no journaled "
             "session envelopes, no recovery after a crash)",
    )
    serve.set_defaults(handler=_cmd_serve)

    pipeline = sub.add_parser(
        "pipeline",
        help="continuous-ingestion pipeline: watermarked FULL/INCR "
             "runs with crash-safe resume (docs/PIPELINE.md)",
    )
    pipeline.add_argument(
        "action", choices=("run", "resume", "status"),
        help="run: execute one run over new ingest files; resume: "
             "finish a crashed run; status: print the pipeline state",
    )
    pipeline.add_argument(
        "--root", required=True, metavar="DIR",
        help="pipeline root (state, lease, store, runs, artifacts)",
    )
    pipeline.add_argument(
        "--ingest", default=None, metavar="DIR",
        help="append-only ingest directory of *.csv batches "
             "(required for run and resume)",
    )
    pipeline.add_argument(
        "--mode", choices=("auto", "full", "incr"), default="auto",
        help="run mode; incr degrades to full when its prerequisites "
             "are broken (default auto)",
    )
    pipeline.add_argument(
        "--limit", type=float, default=3.0,
        help="discovery threshold limit (default 3)",
    )
    pipeline.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="lease heartbeat TTL; a lease staler than this is taken "
             "over (default 30)",
    )
    pipeline.add_argument(
        "--owner", default=None, metavar="NAME",
        help="lease owner label (default: pid-<pid>)",
    )
    pipeline.set_defaults(handler=_cmd_pipeline)

    return parser


# ----------------------------------------------------------------------
# Telemetry plumbing
# ----------------------------------------------------------------------
def _add_telemetry_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the run's span tree as a JSONL trace file",
    )
    command.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write run metrics in Prometheus text exposition format",
    )
    command.add_argument(
        "--profile", action="store_true",
        help="print a per-phase time breakdown to stderr",
    )


def _setup_logging(args: argparse.Namespace) -> None:
    """Map ``--log-level``/``--log-json``/``--debug`` onto the stdlib
    logging tree.  Logging stays untouched when none are given."""
    level = args.log_level
    if level is None and args.debug:
        level = "debug"
    if level is None and args.log_json:
        level = "info"
    if level is not None:
        configure_logging(level, json_format=args.log_json)


def _telemetry_for(args: argparse.Namespace) -> Telemetry:
    """A live telemetry spine when any export flag asks for one."""
    if args.trace or args.metrics or args.profile:
        return Telemetry()
    return NULL_TELEMETRY


def _emit_telemetry(args: argparse.Namespace, telemetry: Telemetry) -> None:
    """Write the requested exports; call after the run settles (a
    partial trace from a budget-aborted run is still written)."""
    if not telemetry.enabled:
        return
    if args.trace:
        write_trace(telemetry.tracer, args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        write_metrics(telemetry.metrics, args.metrics)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    if args.profile:
        print(profile_table(telemetry.tracer), file=sys.stderr)


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------
def _cmd_discover(args: argparse.Namespace) -> int:
    relation = read_csv(args.csv)
    result = discover_rfds(
        relation,
        DiscoveryConfig(
            threshold_limit=args.limit,
            max_lhs_size=args.max_lhs,
            max_per_rhs=args.max_per_rhs,
        ),
    )
    print(result.summary(), file=sys.stderr)
    if args.out:
        save_rfds(result.all_rfds, args.out)
        print(f"wrote {len(result.all_rfds)} RFDs to {args.out}",
              file=sys.stderr)
    else:
        for rfd in result.all_rfds:
            print(rfd)
    return 0


def _cmd_impute(args: argparse.Namespace) -> int:
    relation = read_csv(args.csv)
    rfds = load_rfds(args.rfds)
    telemetry = _telemetry_for(args)
    engine = Renuver(
        rfds,
        RenuverConfig(
            verify=not args.no_verify,
            time_budget_seconds=args.budget,
            cell_time_budget_seconds=args.cell_budget,
            fallback=args.fallback,
            on_budget=args.on_budget,
        ),
        telemetry=telemetry,
    )
    try:
        result = engine.impute(
            relation, journal=args.journal, resume_from=args.resume
        )
    except BudgetExceededError as exc:
        # Preserve whatever the run managed before the budget tripped,
        # then surface the error (exit 3 via the error contract).
        if exc.partial_result is not None and args.out:
            write_csv(exc.partial_result.relation, args.out)
            print(f"wrote partial result to {args.out}", file=sys.stderr)
        _emit_telemetry(args, telemetry)
        raise
    _emit_telemetry(args, telemetry)
    print(result.report.summary(), file=sys.stderr)
    if args.report:
        for outcome in result.report:
            print(f"  {outcome}", file=sys.stderr)
    if args.out:
        write_csv(result.relation, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        from repro.dataset import to_csv_text

        sys.stdout.write(to_csv_text(result.relation))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    relation = read_csv(args.csv)
    validator = load_rule_file(args.rules) if args.rules else None
    telemetry = _telemetry_for(args)
    discovery = discover_rfds(
        relation, DiscoveryConfig(threshold_limit=args.limit),
        telemetry=telemetry,
    )
    print(discovery.summary(), file=sys.stderr)
    injection = inject_missing(relation, rate=args.rate, seed=args.seed)
    result = Renuver(
        discovery.all_rfds, telemetry=telemetry
    ).impute(injection.relation)
    scores = score_imputation(result.relation, injection, validator)
    _emit_telemetry(args, telemetry)
    print(f"injected {injection.count} missing cells at "
          f"{args.rate:.1%}", file=sys.stderr)
    print(scores)
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.export is None:
        for name in dataset_names():
            info = dataset_info(name)
            print(f"{name:<12} {info.paper_tuples:>6} tuples x "
                  f"{info.paper_attributes} attributes")
        return 0
    relation = load_dataset(
        args.export, n_tuples=args.tuples, seed=args.seed
    )
    if args.out:
        write_csv(relation, args.out)
        print(f"wrote {relation.n_tuples} tuples to {args.out}",
              file=sys.stderr)
    else:
        from repro.dataset import to_csv_text

        sys.stdout.write(to_csv_text(relation))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, build_server

    config = ServiceConfig(
        discovery=DiscoveryConfig(threshold_limit=args.limit),
        request_budget_seconds=args.request_budget,
        max_inflight=args.max_inflight,
        max_sessions=args.max_sessions,
        max_queue_depth=args.max_queue_depth,
        max_queue_wait_seconds=args.max_queue_wait,
        brownout_enabled=not args.no_brownout,
        durable_sessions=not args.no_durable_sessions,
    )
    server = build_server(
        args.host, args.port,
        config=config,
        artifact_dir=args.artifact_dir,
    )
    # The accept loop runs in a worker thread so the main thread stays
    # free to take SIGTERM/SIGINT (raised as KeyboardInterrupt by the
    # handler installed in main()) and run the drain — calling
    # ``shutdown()`` from the serve_forever thread would deadlock.
    accept = threading.Thread(
        target=server.serve_forever, name="serve-accept"
    )
    accept.start()
    print(f"serving on http://{args.host}:{server.port}",
          file=sys.stderr, flush=True)
    try:
        while accept.is_alive():
            accept.join(timeout=0.2)
    except KeyboardInterrupt:
        # Graceful drain, then a *clean* exit: stop accepting, finish
        # every in-flight request, release the socket.
        print("draining in-flight requests", file=sys.stderr)
        server.drain()
        accept.join()
        print("drained cleanly", file=sys.stderr)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    import json as _json

    from repro.pipeline import Pipeline, PipelineConfig

    if args.action in ("run", "resume") and not args.ingest:
        print("error: --ingest is required for run and resume",
              file=sys.stderr)
        return 2
    config = PipelineConfig(
        discovery=DiscoveryConfig(threshold_limit=args.limit),
        mode=args.mode,
        lease_ttl_seconds=args.lease_ttl,
        owner=args.owner,
    )
    pipeline = Pipeline(
        args.root, args.ingest or args.root, config
    )
    if args.action == "status":
        print(_json.dumps(pipeline.status(), indent=2))
        return 0
    result = pipeline.run() if args.action == "run" else pipeline.resume()
    print(result.summary(), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
