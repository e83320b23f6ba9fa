"""Command-line interface for running reproduction experiments.

Seven subcommands mirror how the library is typically used:

``run``
    Evaluate a set of mechanisms once on one configuration and print the
    per-mechanism MAE.
``sweep``
    Vary one configuration field over several values (the shape of every
    figure in the paper) and print the MAE series as a table.
``table2``
    Print the recommended (g1, g2) granularities for a grid of
    (d, lg n, ε) settings — the paper's Table 2.
``ingest-demo``
    Drive the multi-process ingest tier (:mod:`repro.ingest`) once:
    route a synthetic dataset to N collector worker processes, print
    per-worker back-pressure metrics, merge their shard states and
    answer a sample query.
``serve``
    Run the long-lived JSON-over-HTTP query service
    (:mod:`repro.serving`): ingest privatized reports incrementally,
    re-finalize on a policy, answer workloads.  The server always hosts
    tenants through a :class:`~repro.serving.TenantManager`.  With
    ``--backend sqlite --store DB`` they live in a SQLite database:
    snapshots, a write-ahead ingest log and automatic recovery on
    start.  Without it they live in process memory
    (:class:`~repro.storage.MemoryBackend`): nothing is written to disk
    and ``POST /snapshot`` answers 409.
``snapshot``
    Manage the default tenant's snapshots in a SQLite store: ``create``
    one from a freshly collected dataset, ``list`` stored versions
    (size, creation time and tenant, from listing metadata),
    ``inspect`` one document.
``tenants``
    Administer the tenants of a SQLite store offline: ``list``,
    ``create``, ``inspect``, ``delete``, and ``import`` a store of the
    retired JSON directory layout.

Examples
--------
python -m repro.cli run --dataset normal --n-users 100000 --epsilon 1.0
python -m repro.cli sweep --parameter epsilon --values 0.2 0.5 1.0 2.0
python -m repro.cli sweep --parameter epsilon --values 0.2 0.5 1.0 2.0 \\
    --jobs 4 --cache-dir /tmp/repro-cache
python -m repro.cli table2 --d 6 --lg-n 6.0
python -m repro.cli run --shards 4 --methods TDG HDG CALM Uni
python -m repro.cli serve --mechanism HDG --refinalize-every 5000 \\
    --backend sqlite --store /tmp/repro.db --port 8125
python -m repro.cli snapshot list --store /tmp/repro.db
python -m repro.cli tenants create --store /tmp/repro.db \\
    --name acme --mechanism MSW --quota 100000
python -m repro.cli tenants import --dir /tmp/json-store --store /tmp/repro.db
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from ._version import package_version
from .datasets import make_dataset
from .experiments import (ExperimentConfig, ResultCache, run_experiment,
                          sweep_parameter)
from .experiments.figures import table_2_granularities
from .ingest import IngestTier
from .mechanisms import MECHANISMS, supports_sharding
from .queries import RangeQuery, answer_workload
from .resilience import RetryPolicy
from .serving import QueryService, TenantManager, build_server, serve
from .serving.tenants import create_tenant_record, service_from_config
from .storage import (DEFAULT_TENANT, MemoryBackend, SQLiteBackend,
                      StorageError, import_json_store)


#: Mechanisms the serving and ingest paths accept.
_SHARDABLE = [name for name, cls in MECHANISMS.items()
              if supports_sharding(cls)]


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="normal",
                        help="dataset name (ipums, bfive, loan, acs, normal, laplace)")
    parser.add_argument("--n-users", type=int, default=100_000)
    parser.add_argument("--n-attributes", type=int, default=6)
    parser.add_argument("--domain-size", type=int, default=64)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--query-dimension", type=int, default=2)
    parser.add_argument("--volume", type=float, default=0.5)
    parser.add_argument("--n-queries", type=int, default=100)
    parser.add_argument("--query-kinds", nargs="+", default=["range"],
                        metavar="KIND",
                        help="query kinds the workload cycles through "
                             "(range, marginal, point, count, topk); more "
                             "than one produces a mixed typed workload "
                             "scored per kind")
    parser.add_argument("--top-k", type=int, default=5,
                        help="k of generated top-k group-by queries")
    parser.add_argument("--n-repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--methods", nargs="+",
                        default=["Uni", "MSW", "CALM", "LHIO", "TDG", "HDG"],
                        help="mechanisms to evaluate (paper names; HDG(g1,g2) supported)")
    parser.add_argument("--shards", type=int, default=1,
                        help="collect shardable mechanisms over this many "
                             "parallel user shards (1 = single-shot)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the experiment executor; "
                             "the (sweep value, repetition, mechanism) cells "
                             "run in parallel and reproduce the sequential "
                             "results bit-for-bit")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk cell cache; "
                             "completed cells are skipped on re-runs")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir: neither read nor write "
                             "cached cells")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=args.dataset, n_users=args.n_users,
        n_attributes=args.n_attributes, domain_size=args.domain_size,
        epsilon=args.epsilon, query_dimension=args.query_dimension,
        volume=args.volume, n_queries=args.n_queries,
        n_repeats=args.n_repeats, methods=tuple(args.methods), seed=args.seed,
        n_shards=args.shards, n_jobs=args.jobs,
        query_kinds=tuple(args.query_kinds), top_k=args.top_k)


def _cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    if args.cache_dir is None or args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _command_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    cache = _cache_from_args(args)
    result = run_experiment(config, cache=cache)
    print(f"dataset={config.dataset} n={config.n_users} d={config.n_attributes} "
          f"c={config.domain_size} eps={config.epsilon} "
          f"lambda={config.query_dimension} omega={config.volume} "
          f"kinds={','.join(config.query_kinds)}")
    for method in config.methods:
        method_result = result.methods[method]
        print(f"  {method:>10}: MAE = {method_result.mae}")
        if method_result.per_kind_mae:
            breakdown = "  ".join(
                f"{kind}={summary.mean:.5f}"
                for kind, summary in sorted(method_result.per_kind_mae.items()))
            print(f"  {'':>10}  per-kind: {breakdown}")
    if cache is not None:
        print(f"cache: {cache.stats()}")
    return 0


def _parse_sweep_values(parameter: str, raw_values: list[str]) -> list:
    integer_fields = {"n_users", "n_attributes", "domain_size",
                      "query_dimension", "n_queries", "n_repeats"}
    if parameter in integer_fields:
        return [int(value) for value in raw_values]
    if parameter == "dataset":
        return list(raw_values)
    return [float(value) for value in raw_values]


def _command_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    values = _parse_sweep_values(args.parameter, args.values)
    cache = _cache_from_args(args)
    sweep = sweep_parameter(config, args.parameter, values, cache=cache)
    print(sweep.format_table())
    if cache is not None:
        print(f"cache: {cache.stats()}")
    return 0


def _command_table2(args: argparse.Namespace) -> int:
    epsilons = args.epsilons or [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    settings = [(args.d, args.lg_n)]
    table = table_2_granularities(epsilons=epsilons, settings=settings,
                                  domain_size=args.domain_size)
    print(f"d={args.d}, lg(n)={args.lg_n}, c={args.domain_size}")
    for epsilon in epsilons:
        g1, g2 = table[(args.d, args.lg_n, epsilon)]
        print(f"  eps={epsilon:<4}: g1={g1:>3}  g2={g2:>3}")
    return 0


def _command_ingest_demo(args: argparse.Namespace) -> int:
    """``repro ingest-demo``: drive the multi-process ingest tier once."""
    rng = np.random.default_rng(args.seed)
    dataset = make_dataset(args.dataset, args.n_users, args.n_attributes,
                           args.domain_size, rng=rng)
    rows = dataset.values
    print(f"ingest-demo: {args.mechanism} eps={args.epsilon} "
          f"d={args.n_attributes} c={args.domain_size} "
          f"n={args.n_users} workers={args.workers}")
    tier = IngestTier(args.mechanism, args.epsilon, n_workers=args.workers,
                      n_attributes=args.n_attributes,
                      domain_size=args.domain_size, seed=args.seed,
                      planning_users=args.n_users, total_users=args.n_users)
    try:
        started = time.perf_counter()
        for start in range(0, len(rows), args.batch_size):
            tier.submit(rows[start:start + args.batch_size])
        tier.flush()
        ingest_seconds = time.perf_counter() - started
        metrics = tier.metrics()
        rate = len(rows) / ingest_seconds if ingest_seconds > 0 else 0.0
        print(f"  ingested {metrics['reports_total']} reports in "
              f"{ingest_seconds:.2f}s ({rate:,.0f} reports/s)")
        for worker in metrics["workers"]:
            print(f"  worker {worker['index']}: "
                  f"{worker['reports_done']} reports over "
                  f"{worker['batches_done']} batches "
                  f"(queue depth {worker['queue_depth']})")
        estimator = tier.merge()
        merge = tier.metrics()["merge"]
        print(f"  merged + finalized in {merge['last_merge_seconds']:.2f}s "
              f"(merge lag now {merge['merge_lag_reports']} reports)")
        half = args.domain_size // 2
        query = RangeQuery.from_dict({0: (0, half - 1),
                                      1: (half, args.domain_size - 1)})
        truth = answer_workload(dataset, [query])[0]
        estimate = estimator.answer(query)
        print(f"  sample 2-D query: estimate={estimate:.5f} "
              f"truth={truth:.5f} |error|={abs(estimate - truth):.5f}")
    finally:
        tier.close()
    return 0


def _bootstrap_rows(args: argparse.Namespace) -> np.ndarray:
    """The rows of the generated ``--bootstrap-dataset``."""
    rng = np.random.default_rng(args.seed)
    return make_dataset(args.bootstrap_dataset, args.n_users,
                        args.n_attributes, args.domain_size, rng=rng).values


def _default_tenant_config(args: argparse.Namespace) -> dict:
    """The default tenant's config from the serving CLI arguments."""
    return {
        "mechanism": args.mechanism,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "refinalize_every": args.refinalize_every,
        "total_users": args.total_users,
        "domain_size": args.domain_size,
        "ingest_workers": getattr(args, "ingest_workers", None),
        "plan_cache_entries": getattr(args, "plan_cache_entries", None),
        "answer_cache_entries": getattr(args, "answer_cache_entries", None),
        "keep_last": args.keep_last,
    }


def _service_summary(status: dict) -> str:
    return (f"{status['mechanism']} (eps={status['epsilon']}, "
            f"mode={status['mode']}, ready={status['ready']})")


def _command_serve(args: argparse.Namespace) -> int:
    """``repro serve``: a :class:`TenantManager` over a SQLite store
    (``--backend sqlite --store DB``), or over a process-local
    :class:`MemoryBackend` without ``--backend``."""
    if args.busy_timeout is not None and args.backend is None:
        print("--busy-timeout requires --backend sqlite", file=sys.stderr)
        return 2
    if args.backend is None:
        for flag, value in (("--store", args.store),
                            ("--keep-last", args.keep_last)):
            if value is not None:
                print(f"{flag} requires --backend", file=sys.stderr)
                return 2
        backend = MemoryBackend()
    else:
        if not args.store:
            print("--backend requires --store (the database file)",
                  file=sys.stderr)
            return 2
        if args.bootstrap_dataset:
            print("--bootstrap-dataset is not supported with --backend: "
                  "ingest the rows over POST /ingest so they enter the "
                  "write-ahead log", file=sys.stderr)
            return 2
        timeout = ({} if args.busy_timeout is None
                   else {"busy_timeout_ms": args.busy_timeout})
        try:
            backend = SQLiteBackend(args.store, **timeout)
        except ValueError as error:
            print(f"cannot open backend: {error}", file=sys.stderr)
            return 2
    retry_policy = RetryPolicy(attempts=args.retry_attempts,
                               base_delay=args.retry_base_delay,
                               max_delay=args.retry_max_delay)
    try:
        manager = TenantManager(
            backend, default_config=_default_tenant_config(args),
            retry_policy=retry_policy,
            breaker_threshold=args.breaker_threshold,
            breaker_reset=args.breaker_reset,
            op_deadline=args.op_deadline)
        if args.bootstrap_dataset:
            manager.ingest(DEFAULT_TENANT, _bootstrap_rows(args))
            manager.refinalize(DEFAULT_TENANT)
    except (ValueError, StorageError) as error:
        backend.close()
        print(f"cannot start tenants: {error}", file=sys.stderr)
        return 2
    for name, info in manager.quarantined_tenants().items():
        print(f"warning: tenant {name!r} quarantined: {info['error']}",
              file=sys.stderr)

    server = build_server(manager, host=args.host, port=args.port,
                          verbose=args.verbose, workers=args.workers,
                          queue_depth=args.queue_depth)
    host, port = server.server_address[:2]
    storage = manager.storage_status()
    print(f"serving {storage['tenants']} tenant(s) from "
          f"{storage['backend']}:{storage['location']} "
          f"(pending ingest log: {storage['pending_ingest_log']}) "
          f"on http://{host}:{port} with {args.workers} workers", flush=True)
    if manager.has_tenant(DEFAULT_TENANT):
        print(f"default tenant: serving "
              f"{_service_summary(manager.service().status())}", flush=True)
    print("endpoints: GET /healthz  GET /readyz  POST /ingest  POST /query  "
          "POST /refinalize  POST|GET /snapshot  GET|POST /tenants  "
          "GET|DELETE /tenants/<name>", flush=True)
    try:
        serve(server, max_requests=args.max_requests)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        backend.close()
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    """``repro snapshot``: the default tenant's versions in a SQLite store."""
    with SQLiteBackend(args.store) as backend:
        if args.action == "create":
            return _snapshot_create(args, backend)
        if args.action == "list":
            return _snapshot_list(backend)
        return _snapshot_inspect(args, backend)


def _snapshot_create(args: argparse.Namespace, backend: SQLiteBackend) -> int:
    """Collect ``--bootstrap-dataset`` and store it as the default
    tenant's next version, registering the tenant if it is missing."""
    config = _default_tenant_config(args)
    if not backend.has_tenant(DEFAULT_TENANT):
        _, service = create_tenant_record(backend, DEFAULT_TENANT, config)
    else:
        service = service_from_config(config)
    service.ingest(_bootstrap_rows(args))
    service.refinalize()
    record = backend.save_snapshot(DEFAULT_TENANT, service.state_dict())
    if args.keep_last is not None:
        backend.prune_snapshots(DEFAULT_TENANT, args.keep_last)
    status = service.status()
    service.close()
    print(f"wrote snapshot version {record.version} "
          f"({status['mechanism']}, eps={status['epsilon']}, "
          f"{status['reports_ingested']} reports) -> "
          f"{backend.location()} (tenant {DEFAULT_TENANT!r})")
    return 0


def _snapshot_list(backend: SQLiteBackend) -> int:
    """Versions from the listing table, never the snapshot blobs."""
    records = backend.list_snapshots()
    if not records:
        print(f"{backend.location()}: no snapshots")
        return 0
    latest = {}
    for record in records:
        latest[record.tenant] = record.version
    for record in records:
        marker = ("  <- latest"
                  if record.version == latest[record.tenant] else "")
        print(f"  {record.tenant:>10}  v{record.version:>4}  "
              f"{record.size_bytes:>10} bytes  {record.created_at}  "
              f"{record.mechanism or '?'}"
              f"{marker}")
    return 0


def _snapshot_inspect(args: argparse.Namespace,
                      backend: SQLiteBackend) -> int:
    try:
        state, _ = backend.load_snapshot(DEFAULT_TENANT, args.version)
    except (FileNotFoundError, StorageError) as error:
        print(str(error), file=sys.stderr)
        return 2
    estimator = state.get("estimator")
    collector = state.get("collector")
    print(f"format={state.get('format')} version={state.get('version')}")
    print(f"mechanism={state.get('mechanism')} "
          f"epsilon={state.get('epsilon')}")
    print(f"reports_ingested={state.get('reports_ingested')} "
          f"reports_since_finalize={state.get('reports_since_finalize')} "
          f"finalize_count={state.get('finalize_count')}")
    print(f"refinalize_every={state.get('refinalize_every')} "
          f"total_users={state.get('total_users')}")
    print(f"estimator={'present' if estimator else 'none'} "
          f"collector={'present' if collector else 'none'}")
    if estimator:
        print(f"  estimator: d={estimator['n_attributes']} "
              f"c={estimator['domain_size']} "
              f"config={estimator.get('config')}")
    return 0


def _command_tenants(args: argparse.Namespace) -> int:
    """``repro tenants``: offline tenant administration on a SQLite store."""
    with SQLiteBackend(args.store) as backend:
        try:
            if args.action == "import":
                names = import_json_store(args.dir, backend)
                print(f"imported {len(names)} tenant(s) from {args.dir} "
                      f"into {backend.location()}: {' '.join(names)}")
                return 0
            if args.action == "list":
                records = backend.list_tenants()
                if not records:
                    print(f"{backend.location()}: no tenants")
                    return 0
                for record in records:
                    config = record.config
                    snapshots = backend.list_snapshots(record.name)
                    print(f"  {record.name:>10}  "
                          f"{config.get('mechanism', '?'):>5}  "
                          f"eps={config.get('epsilon', '?')}  "
                          f"snapshots={len(snapshots)}  "
                          f"pending_log={backend.ingest_log_depth(record.name)}  "
                          f"created={record.created_at}")
                return 0
            if args.action == "create":
                config = _default_tenant_config(args)
                if args.quota is not None:
                    config["quota"] = args.quota
                record, service = create_tenant_record(backend, args.name,
                                                       config)
                service.close()
                print(f"created tenant {record.name!r} "
                      f"({config['mechanism']}, eps={config['epsilon']}) "
                      f"in {backend.location()}")
                return 0
            if args.action == "inspect":
                record = backend.get_tenant(args.name)
                print(f"tenant {record.name!r} created {record.created_at}")
                print(f"  config: {record.config}")
                print(f"  pending ingest log: "
                      f"{backend.ingest_log_depth(record.name)}")
                snapshots = backend.list_snapshots(record.name)
                for snapshot in snapshots:
                    print(f"  snapshot v{snapshot.version}: "
                          f"{snapshot.size_bytes} bytes, "
                          f"{snapshot.created_at}, "
                          f"wal_seq={snapshot.wal_seq}")
                if snapshots:
                    document, _ = backend.load_snapshot(record.name)
                    status = QueryService.from_state_dict(document).status()
                    plan = status.get("plan_cache") or {}
                    answer = status.get("answer_cache") or {}
                    print(f"  epoch: {status.get('epoch', 0)} "
                          f"(from snapshot v{snapshots[-1].version})")
                    print(f"  plan cache: size={plan.get('size')} "
                          f"capacity={plan.get('capacity')}")
                    print(f"  answer cache: capacity={answer.get('capacity')}")
                else:
                    config = record.config
                    print(f"  plan cache: capacity="
                          f"{config.get('plan_cache_entries') or 'default'}")
                    print(f"  answer cache: capacity="
                          f"{config.get('answer_cache_entries') or 'default'}")
                return 0
            # delete
            backend.delete_tenant(args.name)
            print(f"deleted tenant {args.name!r} and its stored state")
            return 0
        except (StorageError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2


def _add_serving_mechanism_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mechanism", default="HDG", choices=_SHARDABLE,
                        help="mechanism to collect and serve (HIO and LHIO "
                             "are experiment-only)")
    parser.add_argument("--ingest-workers", type=int, default=None,
                        metavar="N",
                        help="run ingest through N collector worker "
                             "processes (default: in-process ingest; see "
                             "docs/ingest.md)")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--plan-cache-entries", type=int, default=None,
                        metavar="N",
                        help="compiled-plan LRU capacity per service "
                             "(default: the estimator's built-in 8; raise "
                             "for workloads cycling through many distinct "
                             "query shapes)")
    parser.add_argument("--answer-cache-entries", type=int, default=None,
                        metavar="N",
                        help="answered-workload LRU capacity per service "
                             "(default 256; 0 disables answer caching)")
    parser.add_argument("--refinalize-every", type=int, default=None,
                        metavar="N",
                        help="re-run Phase 2 automatically after N newly "
                             "ingested reports (default: on demand only)")
    parser.add_argument("--total-users", type=int, default=None,
                        help="expected total population; pins the guideline "
                             "granularities up front")
    parser.add_argument("--domain-size", type=int, default=64,
                        help="attribute domain size c of ingested rows")
    parser.add_argument("--bootstrap-dataset", default=None, metavar="NAME",
                        help="warm-start: collect this generated dataset and "
                             "finalize before serving (not with --backend: "
                             "ingest over POST /ingest instead)")
    parser.add_argument("--n-users", type=int, default=100_000,
                        help="bootstrap dataset population")
    parser.add_argument("--n-attributes", type=int, default=6,
                        help="bootstrap dataset attribute count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Answering Multi-Dimensional Range "
                    "Queries under Local Differential Privacy' (VLDB 2020)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="evaluate mechanisms once")
    _add_config_arguments(run_parser)
    run_parser.set_defaults(handler=_command_run)

    sweep_parser = subparsers.add_parser("sweep", help="sweep one parameter")
    _add_config_arguments(sweep_parser)
    sweep_parser.add_argument("--parameter", default="epsilon",
                              help="configuration field to vary")
    sweep_parser.add_argument("--values", nargs="+", required=True,
                              help="values to evaluate")
    sweep_parser.set_defaults(handler=_command_sweep)

    table_parser = subparsers.add_parser("table2",
                                         help="print recommended granularities")
    table_parser.add_argument("--d", type=int, default=6)
    table_parser.add_argument("--lg-n", type=float, default=6.0)
    table_parser.add_argument("--domain-size", type=int, default=64)
    table_parser.add_argument("--epsilons", type=float, nargs="+")
    table_parser.set_defaults(handler=_command_table2)

    ingest_parser = subparsers.add_parser(
        "ingest-demo",
        help="drive the multi-process ingest tier once")
    ingest_parser.add_argument("--mechanism", default="HDG",
                               choices=_SHARDABLE,
                               help="mechanism to collect (the tier runs "
                                    "mechanisms with sharded aggregation)")
    ingest_parser.add_argument("--workers", type=int, default=4,
                               help="collector worker processes")
    ingest_parser.add_argument("--dataset", default="normal",
                               help="synthetic dataset name to ingest")
    ingest_parser.add_argument("--n-users", type=int, default=100_000)
    ingest_parser.add_argument("--n-attributes", type=int, default=4)
    ingest_parser.add_argument("--domain-size", type=int, default=16)
    ingest_parser.add_argument("--epsilon", type=float, default=1.0)
    ingest_parser.add_argument("--seed", type=int, default=0)
    ingest_parser.add_argument("--batch-size", type=int, default=10_000,
                               help="reports per submitted batch")
    ingest_parser.set_defaults(handler=_command_ingest_demo)

    serve_parser = subparsers.add_parser(
        "serve", help="run the JSON-over-HTTP query service")
    _add_serving_mechanism_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8125,
                              help="TCP port (0 binds any free port)")
    serve_parser.add_argument("--keep-last", type=int, default=None,
                              metavar="K",
                              help="with --backend: the default tenant "
                                   "retains only its newest K snapshot "
                                   "versions")
    serve_parser.add_argument("--max-requests", type=int, default=None,
                              metavar="N",
                              help="exit after serving N connections (smoke "
                                   "tests; default: run until interrupted)")
    serve_parser.add_argument("--workers", type=int, default=8,
                              metavar="N",
                              help="request worker pool size (each worker "
                                   "owns one keep-alive connection at a "
                                   "time)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log one line per handled request")
    serve_parser.add_argument("--backend", default=None,
                              choices=["sqlite"],
                              help="serve tenants from a SQLite store "
                                   "(snapshots, write-ahead ingest log, "
                                   "automatic recovery of stored state); "
                                   "requires --store.  Without it the "
                                   "service keeps no state on disk")
    serve_parser.add_argument("--store", default=None, metavar="DB",
                              help="the SQLite database file")
    serve_parser.add_argument("--queue-depth", type=int, default=16,
                              metavar="N",
                              help="admission queue: connections beyond the "
                                   "worker count that may wait for a worker "
                                   "before the listener sheds with 503")
    serve_parser.add_argument("--retry-attempts", type=int, default=3,
                              metavar="N",
                              help="attempts per storage operation on the "
                                   "ingest/snapshot path (1 = fail fast)")
    serve_parser.add_argument("--retry-base-delay", type=float, default=0.05,
                              metavar="SECONDS",
                              help="first retry backoff delay (doubles per "
                                   "retry, with seeded jitter)")
    serve_parser.add_argument("--retry-max-delay", type=float, default=2.0,
                              metavar="SECONDS",
                              help="backoff delay ceiling")
    serve_parser.add_argument("--op-deadline", type=float, default=None,
                              metavar="SECONDS",
                              help="wall-clock budget for one storage "
                                   "operation including its retries "
                                   "(default: unbounded)")
    serve_parser.add_argument("--breaker-threshold", type=int, default=3,
                              metavar="N",
                              help="consecutive write-ahead-log failures "
                                   "that trip a tenant's circuit breaker")
    serve_parser.add_argument("--breaker-reset", type=float, default=30.0,
                              metavar="SECONDS",
                              help="open-breaker duration before one "
                                   "recovery probe is allowed")
    serve_parser.add_argument("--busy-timeout", type=int, default=None,
                              metavar="MS",
                              help="with --backend: milliseconds a "
                                   "locked database is waited on before "
                                   "failing (see docs/storage.md)")
    serve_parser.set_defaults(handler=_command_serve)

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="manage the default tenant's snapshots in a "
                         "SQLite store")
    snapshot_actions = snapshot_parser.add_subparsers(dest="action",
                                                      required=True)

    def _add_store_argument(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--store", required=True, metavar="DB",
                            help="the SQLite database file (serve it with "
                                 "--backend sqlite --store DB)")

    create_parser = snapshot_actions.add_parser(
        "create", help="collect a dataset and write a snapshot version")
    _add_store_argument(create_parser)
    create_parser.add_argument("--keep-last", type=int, default=None,
                               metavar="K")
    _add_serving_mechanism_arguments(create_parser)
    create_parser.set_defaults(handler=_command_snapshot,
                               bootstrap_dataset="normal")
    list_parser = snapshot_actions.add_parser(
        "list", help="list stored snapshot versions (size, creation time "
                     "and tenant, from listing metadata)")
    _add_store_argument(list_parser)
    list_parser.set_defaults(handler=_command_snapshot)
    inspect_parser = snapshot_actions.add_parser(
        "inspect", help="print one snapshot document's summary")
    _add_store_argument(inspect_parser)
    inspect_parser.add_argument("--version", type=int, default=None,
                                help="version to inspect (default: latest)")
    inspect_parser.set_defaults(handler=_command_snapshot)

    tenants_parser = subparsers.add_parser(
        "tenants", help="administer the tenants of a SQLite store")
    tenant_actions = tenants_parser.add_subparsers(dest="action",
                                                   required=True)
    tenants_list = tenant_actions.add_parser(
        "list", help="list the store's tenants")
    _add_store_argument(tenants_list)
    tenants_list.set_defaults(handler=_command_tenants)
    tenants_create = tenant_actions.add_parser(
        "create", help="create a tenant with a service configuration")
    _add_store_argument(tenants_create)
    tenants_create.add_argument("--name", required=True,
                                help="tenant name (URL-safe)")
    tenants_create.add_argument("--quota", type=int, default=None,
                                help="max total reports the tenant may "
                                     "ingest (default: unlimited)")
    tenants_create.add_argument("--keep-last", type=int, default=None,
                                metavar="K",
                                help="snapshot retention for the tenant")
    _add_serving_mechanism_arguments(tenants_create)
    tenants_create.set_defaults(handler=_command_tenants)
    tenants_inspect = tenant_actions.add_parser(
        "inspect", help="print one tenant's config, snapshots and log depth")
    _add_store_argument(tenants_inspect)
    tenants_inspect.add_argument("--name", required=True)
    tenants_inspect.set_defaults(handler=_command_tenants)
    tenants_delete = tenant_actions.add_parser(
        "delete", help="drop a tenant and all its stored state")
    _add_store_argument(tenants_delete)
    tenants_delete.add_argument("--name", required=True)
    tenants_delete.set_defaults(handler=_command_tenants)
    tenants_import = tenant_actions.add_parser(
        "import", help="copy a store of the retired JSON directory layout "
                       "into the SQLite store (the directory is only read)")
    tenants_import.add_argument("--dir", required=True, metavar="JSON_STORE",
                                help="the JSON store directory")
    _add_store_argument(tenants_import)
    tenants_import.set_defaults(handler=_command_tenants)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
