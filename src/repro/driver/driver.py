"""The Lambada driver: query coordinator.

The driver deploys the worker function once ("installation"), then executes
queries by compiling them, invoking the worker fleet through the two-level
tree strategy, polling the SQS result queue, and merging the partial results
locally (the driver scope of the physical plan).  It reports per-query
statistics — modelled end-to-end latency and the full dollar-cost breakdown —
which the evaluation benchmarks consume.
"""

from __future__ import annotations

import functools
import math
import os
import random
import threading
import uuid
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig
from repro.cloud.s3 import SharedObjectExport
from repro.config import DEFAULT_RESILIENCE, IntegrityConfig
from repro.driver.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    CancellationToken,
)
from repro.driver.breakers import BreakerBoard, RetryBudget
from repro.driver.integrity import IntegrityStats
from repro.driver.invocation import TreeInvocationModel, build_invocation_tree
from repro.driver.messages import (
    expand_paths,
    fault_delta,
    fault_snapshot,
    fetch_spilled,
    merge_attempt,
    parse_message,
)
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    TRANSIENT_CLOUD_ERRORS,
    AttemptLog,
    ResiliencePolicy,
    ResilienceStats,
    call_with_backoff,
    decorrelated_jitter,
    pick_stragglers,
)
from repro.driver.worker import (
    COLD_EXECUTION_PENALTY,
    RESULT_BUCKET,
    WORKER_FUNCTION_NAME,
    make_worker_handler,
)
from repro.engine.aggregates import finalize_aggregates, merge_partials
from repro.engine.payload import decode_table
from repro.engine.pipeline import WorkerResult
from repro.exchange.basic import ExchangeStats
from repro.engine.table import (
    Table,
    concat_tables,
    sort_table,
    table_num_rows,
    take_rows,
)
from repro.errors import (
    CloudError,
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    RetryBudgetExhaustedError,
    WorkerFailedError,
)
from repro.plan.logical import LogicalPlan
from repro.plan.optimizer import OptimizerReport, optimize
from repro.plan.physical import (
    DagPhysicalPlan,
    JoinPhysicalPlan,
    PhysicalPlan,
    resolve_udf,
)


@dataclass
class QueryStatistics:
    """Performance and cost statistics of one query execution."""

    num_workers: int
    memory_mib: int
    cold: bool
    #: Modelled time until every worker of the fleet was running.
    invocation_seconds: float
    #: Modelled execution time of the slowest / median worker.
    max_worker_seconds: float
    median_worker_seconds: float
    #: Modelled end-to-end query latency seen by the user.
    latency_seconds: float
    rows_scanned: int
    bytes_read: int
    get_requests: int
    #: Dollar cost breakdown.
    cost_lambda_duration: float
    cost_lambda_requests: float
    cost_s3_requests: float
    cost_sqs_requests: float
    #: Per-worker modelled execution durations, seconds.
    worker_durations: List[float] = field(default_factory=list)
    #: Late-materialization scan counters, summed over the fleet: row groups
    #: whose selection vector short-circuited, rows never fully decoded, and
    #: column-chunk downloads avoided.
    row_groups_shortcircuited: int = 0
    rows_decode_saved: int = 0
    column_chunks_skipped: int = 0
    #: Exchange-plane request/byte counters, summed over the fleet (non-zero
    #: only for plans with an exchange hop, e.g. the shuffle-aggregate and
    #: shuffle-join paths).
    exchange: ExchangeStats = field(default_factory=ExchangeStats)
    #: Join-wave counters, summed over the fleet (non-zero only for join
    #: plans): rows entering the probe/build sides of the join kernels after
    #: repartitioning, and rows the kernels produced.
    join_probe_rows: int = 0
    join_build_rows: int = 0
    join_output_rows: int = 0
    #: Number of join waves in the executed schedule (1 for a binary join,
    #: ``len(dag.stages)`` for an N-way join DAG; 1 for scan queries too,
    #: where no join wave exists but the field keeps a uniform meaning).
    dag_stages: int = 1
    #: Exchange objects deleted by the coordinator's per-stage and
    #: end-of-query garbage collection (0 for scan queries).
    gc_objects_deleted: int = 0
    #: Fault-tolerance counters for this query: retries, hedges won/lost,
    #: injected faults survived, degradation fallbacks, wasted modelled cost.
    #: All-zero on a clean run.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: Data-integrity counters: bytes whose checksums were verified on read,
    #: detected mismatches by site, and how recovery resolved them (re-reads
    #: vs re-executions).  All-zero mismatches on a corruption-free run.
    integrity: IntegrityStats = field(default_factory=IntegrityStats)
    #: Overload-control block: this query's retry-budget spend plus the
    #: owning driver's circuit-breaker states and transition log at query
    #: end.  ``None`` only for catalog-pruned empty results, which never
    #: touch the fleet.
    overload: Optional[Dict[str, Any]] = None

    @property
    def cost_total(self) -> float:
        """Total dollar cost of the query.

        Retried and hedged invocations are billed inside the components like
        any other request; ``resilience.wasted_cost_dollars`` reports which
        part of this total bought nothing (it is an attribution, not an
        extra charge).
        """
        return (
            self.cost_lambda_duration
            + self.cost_lambda_requests
            + self.cost_s3_requests
            + self.cost_sqs_requests
        )


@dataclass
class QueryResult:
    """Result of one query execution."""

    table: Table
    reduce_value: Optional[Any]
    statistics: QueryStatistics
    worker_results: List[WorkerResult]
    optimizer_report: Optional[OptimizerReport] = None
    #: Rendering of the executed physical plan (``physical.explain()``).
    plan_explain: str = ""

    def column(self, name: str) -> np.ndarray:
        """One result column as a NumPy array."""
        return np.asarray(self.table[name])

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """Result rows as plain dicts of Python scalars, in result order."""
        names = list(self.table)
        columns = [np.asarray(self.table[name]) for name in names]
        return [
            {name: column[index].item() for name, column in zip(names, columns)}
            for index in range(self.num_rows)
        ]

    def explain(self) -> str:
        """The executed schedule: join order, waves, and push-downs.

        Combines the optimizer's report (join order, pruned columns,
        estimated costs) with the physical plan's wave-by-wave rendering.
        """
        parts = []
        if self.optimizer_report is not None:
            parts.append(self.optimizer_report.describe())
        if self.plan_explain:
            parts.append(self.plan_explain)
        return "\n".join(parts) if parts else "(no plan recorded)"

    def scalar(self) -> float:
        """The single value of a scalar (one row, one column) result."""
        if self.reduce_value is not None:
            return float(self.reduce_value)
        if len(self.table) != 1:
            raise ExecutionError(f"result has {len(self.table)} columns, expected 1")
        column = next(iter(self.table.values()))
        if len(column) != 1:
            raise ExecutionError(f"result has {len(column)} rows, expected 1")
        return float(column[0])

    @property
    def num_rows(self) -> int:
        """Number of result rows."""
        return table_num_rows(self.table)


class LambadaDriver:
    """Coordinates query execution over the serverless worker fleet."""

    def __init__(
        self,
        env: CloudEnvironment,
        memory_mib: int = 2048,
        function_name: str = WORKER_FUNCTION_NAME,
        result_queue: str = "lambada-result-queue",
        worker_timeout_seconds: float = 900.0,
        execution_mode: str = "serial",
        max_parallel_invocations: Optional[int] = None,
        shuffle_config: Optional["ShuffleConfig"] = None,
        resilience_policy: Optional[ResiliencePolicy] = None,
        integrity: Optional[IntegrityConfig] = None,
        breakers: Optional[BreakerBoard] = None,
    ):
        """``execution_mode`` selects how the simulated fleet runs.

        ``"serial"`` (default) invokes the tree roots one after another, as the
        seed implementation did.  ``"threads"`` drives them through a thread
        pool: workers are independent pure functions over the (thread-safe)
        simulated services, so large-fleet runs stop paying serial Python
        overhead (but the GIL still serialises their NumPy-adjacent Python
        sections).  ``"processes"`` runs eligible fragments on a persistent
        spawn-based process pool with shared-memory input/result planes
        (:mod:`repro.driver.procpool`), the only mode whose wall-clock time
        actually scales with cores; plans the pool cannot run (registry UDFs,
        join schedules) and single-core hosts fall back transparently.
        Result ordering is deterministic in every mode — results are keyed
        and merged by worker id, never by arrival order.
        ``max_parallel_invocations`` bounds the thread pool, and doubles as a
        forced process-pool size (overriding the core-count default).
        """
        if execution_mode not in ("serial", "threads", "processes"):
            raise ValueError(f"unknown execution mode {execution_mode!r}")
        self.env = env
        self.memory_mib = memory_mib
        self.function_name = function_name
        self.result_queue = result_queue
        self.worker_timeout_seconds = worker_timeout_seconds
        self.execution_mode = execution_mode
        self.max_parallel_invocations = max_parallel_invocations
        self._pool = None
        self._pool_unavailable = False
        #: Configuration of the shuffle I/O plane used by join queries
        #: (:class:`~repro.driver.shuffle.ShuffleConfig`); ``None`` selects
        #: the write-combined default.
        self.shuffle_config = shuffle_config
        self._join_coordinator = None
        #: Retry/backoff/hedging knobs (see :mod:`repro.driver.resilience`).
        self.resilience_policy = resilience_policy or DEFAULT_RESILIENCE_POLICY
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        #: Per-service circuit breakers.  Breaker state is fleet health, not
        #: query state, so the board lives as long as the driver — and a
        #: :class:`QuerySession` shares one board across all its drivers.
        self.breakers = breakers or BreakerBoard()
        # Per-query overload context, armed by execute() and read by the
        # retry/hedge/collect helpers (avoids threading four extra arguments
        # through every call chain).  A driver runs one query at a time;
        # concurrency comes from one driver per session worker thread.
        self._active_cancel: Optional[CancellationToken] = None
        self._active_budget: Optional[RetryBudget] = None
        self._active_now = None
        #: Content-checksum knobs: workers embed checksums in everything they
        #: write and every consumer verifies on read (both default on).
        self.integrity = integrity or IntegrityConfig()
        self.install()

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Deploy the worker function and create the result queue.

        This is the per-installation step of the usage model (§2.1); it incurs
        no recurring cost.
        """
        config = FunctionConfig(
            name=self.function_name,
            memory_mib=self.memory_mib,
            timeout_seconds=self.worker_timeout_seconds,
            region=self.env.region,
        )
        self.env.lambda_service.deploy(config, make_worker_handler(self.env))
        self.env.sqs.create_queue(self.result_queue)

    def set_memory(self, memory_mib: int) -> None:
        """Reconfigure the worker memory size (redeploys the function)."""
        self.memory_mib = memory_mib
        self.install()

    # -- query execution -----------------------------------------------------------

    def execute(
        self,
        plan: Union[LogicalPlan, PhysicalPlan, JoinPhysicalPlan, DagPhysicalPlan],
        num_workers: Optional[int] = None,
        files_per_worker: Optional[int] = None,
        cold: bool = False,
        threads: int = 2,
        catalog: Optional["StatisticsCatalog"] = None,
        dataset_name: Optional[str] = None,
        max_worker_retries: int = 1,
        deadline_seconds: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Execute a query and return its result and statistics.

        ``num_workers`` and ``files_per_worker`` control the fleet size (the
        paper's ``W`` and ``F`` parameters); by default one worker per input
        file is used.  ``cold=True`` forces cold starts (fresh function
        instances), reproducing the paper's cold-run measurements.

        When a :class:`~repro.driver.catalog.StatisticsCatalog` and the
        dataset's catalog name are given, files whose min/max statistics cannot
        match the query's prune ranges are skipped entirely, so their workers
        are never invoked (the §5.3 central-statistics optimisation).

        Failed workers are retried up to ``max_worker_retries`` times before
        the query is aborted with :class:`~repro.errors.WorkerFailedError`.

        Join plans run through the multi-stage shuffle-join schedule, which
        sizes both map waves and the join wave from ``num_workers`` alone:
        ``files_per_worker`` is not consulted, a failed worker aborts the
        query without retries (the waves are barriered), and catalog-based
        file pruning is rejected explicitly (its single-dataset statistics
        cannot describe two relations).

        ``deadline_seconds``/``cancel`` arm cooperative cancellation: the
        query unwinds with a typed
        :class:`~repro.errors.QueryCancelledError` at its next pump point
        (poll round, retry round, wave round), releasing shared-memory
        segments and garbage-collecting its S3/SQS state on the way out.
        Each query also draws from a retry budget
        (``resilience_policy.retry_budget``) covering backoff retries, wave
        retries, and hedges combined; exhaustion raises
        :class:`~repro.errors.RetryBudgetExhaustedError` instead of grinding
        through a sustained brownout.
        """
        # Per-query jitter stream: reseeding here makes backoff draws a
        # function of this query alone, not of how many ran before it.
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        if cancel is None and deadline_seconds is not None:
            cancel = CancellationToken(deadline_seconds=deadline_seconds)

        report: Optional[OptimizerReport] = None
        if isinstance(plan, LogicalPlan):
            physical, report = optimize(plan)
        else:
            physical = plan

        # Dispatch on the unified plan protocol: every physical plan carries
        # an ``engine`` tag ("scan" or "shuffle-dag"), so the driver never
        # needs to know the concrete plan class.
        if getattr(physical, "engine", "scan") == "shuffle-dag":
            if catalog is not None or dataset_name is not None:
                raise ExecutionError(
                    "catalog-based file pruning is not supported for join plans"
                )
            return self._execute_join(
                physical, report, num_workers=num_workers, cold=cold,
                cancel=cancel,
            )

        input_files = expand_paths(self.env.s3, physical.input_files)
        if catalog is not None and dataset_name is not None:
            input_files = catalog.prune_paths(
                input_files, dataset_name, physical.worker_template.prune_ranges
            )
            if not input_files:
                # Every file is pruned by the central statistics: the query
                # result is empty and no worker needs to be started.
                return self._empty_result(physical, report, cold)
        if not input_files:
            raise ExecutionError("query has no input files")
        physical = PhysicalPlan(
            worker_template=physical.worker_template,
            driver=physical.driver,
            input_files=input_files,
        )

        if num_workers is None:
            if files_per_worker is not None:
                if files_per_worker <= 0:
                    raise ValueError("files_per_worker must be positive")
                num_workers = math.ceil(len(input_files) / files_per_worker)
            else:
                num_workers = len(input_files)
        num_workers = min(num_workers, len(input_files))

        worker_plans = physical.worker_plans(num_workers)
        query_id = uuid.uuid4().hex[:12]

        if cold:
            self.env.lambda_service.reset_warm_instances(self.function_name)

        payloads = [
            {
                "worker_id": worker_id,
                "attempt": 0,
                "plan": worker_plan.to_dict(),
                "result_queue": self.result_queue,
                "query_id": query_id,
                "function_name": self.function_name,
                "threads": threads,
                "integrity": self.integrity.to_dict(),
            }
            for worker_id, worker_plan in enumerate(worker_plans)
        ]

        resilience = ResilienceStats()
        integrity_stats = IntegrityStats()
        snapshot = fault_snapshot(self.env)

        def now_fn() -> float:
            # Modelled "now" for breaker windows and deadlines: environment
            # clock plus the backoff this query has already accrued.
            return self.env.clock.now + resilience.backoff_seconds

        budget = RetryBudget(
            self.resilience_policy.retry_budget,
            query_id=query_id,
            breaker_states=self.breakers.states,
        )
        if cancel is not None:
            cancel.bind(now_fn, query_id=query_id)
        self._active_cancel = cancel
        self._active_budget = budget
        self._active_now = now_fn
        try:
            if self.execution_mode == "processes" and self._pool_supported(physical):
                pooled = self._execute_pooled(
                    physical, payloads, report, cold, max_worker_retries,
                    resilience, snapshot,
                )
                if pooled is not None:
                    return pooled
                # Pool unavailable (single core / spawn failure / respawn
                # storm / open invocation breaker): fall through to the
                # classic serial dispatch below.

            tree = build_invocation_tree(payloads)

            self.env.sqs.purge_queue(self.result_queue)
            self._invoke_tree(tree, resilience)

            attempt_log = AttemptLog()
            messages = self._collect_messages(
                query_id,
                expected=len(payloads),
                want={payload["worker_id"] for payload in payloads},
                raise_on_timeout=max_worker_retries <= 0,
                integrity=integrity_stats,
            )
            by_worker = self._group_messages(
                messages, resilience=resilience, integrity=integrity_stats
            )
            by_worker = self._retry_failures(
                by_worker, payloads, query_id, max_worker_retries,
                resilience=resilience, attempt_log=attempt_log,
                integrity=integrity_stats,
            )
            worker_results = self._parse_results(
                by_worker, expected=len(payloads), attempt_log=attempt_log
            )
            worker_results, hedge_billed_seconds = self._hedge_stragglers(
                worker_results, by_worker, payloads, query_id, resilience,
                integrity=integrity_stats,
            )

            table, reduce_value = self._merge(physical, worker_results)
            statistics = self._build_statistics(
                physical, worker_results, num_workers=len(payloads), cold=cold,
                resilience=resilience, fault_snapshot=snapshot,
                extra_billed_seconds=hedge_billed_seconds,
                integrity=integrity_stats,
            )
            statistics.overload = self._overload_block(budget)
            return QueryResult(
                table=table,
                reduce_value=reduce_value,
                statistics=statistics,
                worker_results=worker_results,
                optimizer_report=report,
                plan_explain=physical.explain(),
            )
        except (QueryCancelledError, RetryBudgetExhaustedError):
            # Typed teardown: a query that will never consume its results
            # must not leave spilled objects or queued messages behind.
            self._gc_cancelled_scan(query_id)
            raise
        finally:
            self._active_cancel = None
            self._active_budget = None
            self._active_now = None

    def _execute_join(
        self,
        physical: Union[JoinPhysicalPlan, DagPhysicalPlan],
        report: Optional[OptimizerReport],
        num_workers: Optional[int],
        cold: bool,
        cancel: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Execute a join plan through the shuffle-join coordinator.

        The DAG schedule (one scan wave repartitioning every relation by its
        join key through the write-combined exchange, then one join wave per
        DAG stage — middle stages re-emit into the exchange, the final stage
        computes the partial aggregates placed above the join) runs in
        :class:`~repro.driver.shuffle.ShuffleJoinCoordinator`; this wrapper
        folds its worker results into the same :class:`QueryStatistics` shape
        scan queries report, with the exchange and join counters threaded
        through.
        """
        from repro.driver.shuffle import (
            JOIN_MAP_FUNCTION_NAME,
            JOIN_REDUCE_FUNCTION_NAME,
            ShuffleConfig,
            ShuffleJoinCoordinator,
        )

        if self._join_coordinator is None:
            # An explicit shuffle config wins; otherwise the driver's
            # integrity knobs carry over to the join exchange plane.
            config = self.shuffle_config or ShuffleConfig(integrity=self.integrity)
            self._join_coordinator = ShuffleJoinCoordinator(
                self.env,
                memory_mib=self.memory_mib,
                config=config,
                resilience_policy=self.resilience_policy,
            )
        if cold:
            for name in (JOIN_MAP_FUNCTION_NAME, JOIN_REDUCE_FUNCTION_NAME):
                self.env.lambda_service.reset_warm_instances(name)
        budget = RetryBudget(
            self.resilience_policy.retry_budget,
            breaker_states=self.breakers.states,
        )
        table, join_stats, worker_results = self._join_coordinator.execute(
            physical,
            num_workers=num_workers,
            cancel=cancel,
            breakers=self.breakers,
            budget=budget,
            now_fn=lambda: self.env.clock.now,
        )

        prices = self.env.ledger.prices
        durations = [result.duration_seconds for result in worker_results]
        invocation = TreeInvocationModel(region=self.env.region)
        num_total = join_stats.num_workers
        result_poll_seconds = DEFAULT_RESILIENCE.result_poll_seconds
        # modelled_latency_seconds already includes the coordinator's backoff.
        latency = (
            invocation.time_to_start_all(num_total, cold=cold)
            + join_stats.modelled_latency_seconds
            + result_poll_seconds
        )
        resilience = join_stats.resilience
        resilience.wasted_cost_dollars += prices.lambda_invocation_cost(
            resilience.retries
        )
        get_requests = sum(result.get_requests for result in worker_results)
        exchange = join_stats.exchange
        cost_s3 = prices.s3_get_cost(
            get_requests + exchange.get_requests + exchange.head_requests
        ) + prices.s3_put_cost(exchange.put_requests + exchange.list_requests)
        sqs_requests = num_total + math.ceil(num_total / 10) + 2
        statistics = QueryStatistics(
            num_workers=num_total,
            memory_mib=self.memory_mib,
            cold=cold,
            invocation_seconds=invocation.time_to_start_all(num_total, cold=cold),
            max_worker_seconds=float(max(durations)) if durations else 0.0,
            median_worker_seconds=float(np.median(durations)) if durations else 0.0,
            latency_seconds=latency,
            rows_scanned=join_stats.rows_scanned,
            bytes_read=sum(result.bytes_read for result in worker_results),
            get_requests=get_requests,
            cost_lambda_duration=sum(
                prices.lambda_duration_cost(self.memory_mib, duration)
                for duration in durations
            ),
            cost_lambda_requests=prices.lambda_invocation_cost(
                num_total + resilience.retries
            ),
            cost_s3_requests=cost_s3,
            cost_sqs_requests=prices.sqs_cost(sqs_requests),
            worker_durations=durations,
            exchange=exchange,
            join_probe_rows=join_stats.join_probe_rows,
            join_build_rows=join_stats.join_build_rows,
            join_output_rows=join_stats.join_output_rows,
            dag_stages=join_stats.dag_stages,
            gc_objects_deleted=join_stats.gc_objects_deleted,
            resilience=resilience,
            integrity=join_stats.integrity,
        )
        statistics.overload = self._overload_block(budget)
        return QueryResult(
            table=table,
            reduce_value=None,
            statistics=statistics,
            worker_results=worker_results,
            optimizer_report=report,
            plan_explain=physical.explain(),
        )

    # -- process-pool execution plane ------------------------------------------------

    def _pool_supported(self, physical: PhysicalPlan) -> bool:
        """Whether the process pool can run this plan's fragments.

        Registry UDFs live in the driver process only (the registry is
        per-process state) and cannot be resolved inside spawned children;
        the built-in reduce UDFs are module-level and travel by name.
        """
        from repro.plan.physical import BUILTIN_REDUCE_UDFS

        template = physical.worker_template
        if template.predicate_udf is not None or template.map_udf is not None:
            return False
        if template.reduce_udf and template.reduce_udf not in BUILTIN_REDUCE_UDFS:
            return False
        return True

    def _ensure_pool(self):
        """The warm process pool, spawning it on first use; ``None`` on fallback.

        Mirrors the threads-mode single-core fallback: on a single-core host
        (unless a pool size was forced) or when spawning fails (e.g. a
        sandboxed CI runner), ``processes`` mode degrades to serial dispatch
        with a one-line warning instead of raising.
        """
        if self._pool is not None:
            return self._pool
        if self._pool_unavailable:
            return None
        size = self.max_parallel_invocations or (os.cpu_count() or 1)
        if size <= 1 and self.max_parallel_invocations is None:
            self._pool_unavailable = True
            warnings.warn(
                "processes execution mode: single-core host, "
                "falling back to serial dispatch",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        from repro.driver.procpool import ProcessWorkerPool

        try:
            self._pool = ProcessWorkerPool(
                size=min(size, DEFAULT_RESILIENCE.pool_max_children)
            )
        except Exception as exc:  # noqa: BLE001 - degrade, don't fail the query
            self._pool_unavailable = True
            warnings.warn(
                f"processes execution mode: worker pool failed to start ({exc}); "
                "falling back to serial dispatch",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return self._pool

    def close(self) -> None:
        """Shut down the process pool, if one was spawned; idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _execute_pooled(
        self,
        physical: PhysicalPlan,
        payloads: List[Dict],
        report: Optional[OptimizerReport],
        cold: bool,
        max_worker_retries: int,
        resilience: Optional[ResilienceStats] = None,
        fault_snapshot: Optional[Dict[str, int]] = None,
    ) -> Optional[QueryResult]:
        """Run the fleet on the process pool; ``None`` means "fall back".

        The SQS control plane is bypassed — worker results come back through
        shared-memory segments — but the *modelled* statistics are built by
        the exact same ``_parse_results``/``_merge``/``_build_statistics``
        tail as the classic path, and every pool task is metered through
        ``LambdaService.account_invocation``, so invocation cold/warm
        bookkeeping, the ledger, and the cost model stay identical.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        cancel = self._active_cancel
        if cancel is not None:
            # Pre-dispatch pump point: a cancelled query never touches the
            # pool (no segments to clean up).
            cancel.check("pooled dispatch")
        resilience = resilience if resilience is not None else ResilienceStats()
        policy = self.resilience_policy
        respawns_before = pool.stats().get("respawns", 0)
        attempt_log = AttemptLog()
        prices = self.env.ledger.prices

        all_files = sorted({path for p in payloads for path in p["plan"]["files"]})
        export: Optional[SharedObjectExport] = None
        attached: List[Any] = []
        by_worker: Dict[int, Dict] = {}
        try:
            export = SharedObjectExport.create(self.env.s3, all_files)
            by_worker.update(self._run_pooled_round(pool, export, payloads, attached))
            payload_by_worker = {p["worker_id"]: p for p in payloads}
            sleep = 0.0
            for _ in range(max_worker_retries):
                failed = [
                    payload_by_worker[wid]
                    for wid, msg in sorted(by_worker.items())
                    if msg.get("status") != "ok"
                ]
                if not failed:
                    break
                if cancel is not None:
                    # Mid-wave pump point: the finally block below unlinks
                    # every attached segment on the way out.
                    cancel.check("pooled retry")
                if "lambda" in self.breakers.open_services():
                    # Invocation-plane brownout: stop feeding the pool and
                    # run this query serially.  Unlike the respawn-storm path
                    # the pool stays up — the breaker recovers on its own.
                    resilience.note_fallback("processes_to_serial")
                    return None
                respawn_delta = pool.stats().get("respawns", 0) - respawns_before
                if respawn_delta > policy.pool_respawn_limit:
                    # Respawn storm: the pool keeps losing children mid-query.
                    # Degrade to serial dispatch instead of thrashing further.
                    resilience.pool_respawns = respawn_delta
                    resilience.note_fallback("processes_to_serial")
                    warnings.warn(
                        f"processes execution mode: {respawn_delta} pool "
                        "respawns in one query, falling back to serial dispatch",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    self.close()
                    self._pool_unavailable = True
                    return None
                sleep = decorrelated_jitter(
                    sleep,
                    self._jitter_rng,
                    policy.backoff_base_seconds,
                    policy.backoff_cap_seconds,
                )
                resilience.backoff_seconds += sleep
                retries: List[Dict] = []
                for payload in failed:
                    worker_id = payload["worker_id"]
                    error = by_worker[worker_id].get("error", "unknown error")
                    attempt_log.record(
                        worker_id,
                        payload.get("attempt", 0),
                        error,
                        backoff_seconds=sleep,
                    )
                    self._record_worker_failure(error)
                    retry_payload = dict(payload)
                    retry_payload["attempt"] = payload.get("attempt", 0) + 1
                    payload_by_worker[worker_id] = retry_payload
                    retries.append(retry_payload)
                    resilience.retries += 1
                    if self._active_budget is not None:
                        self._active_budget.charge("pool_retries")
                    resilience.wasted_cost_dollars += prices.lambda_invocation_cost(1)
                by_worker.update(
                    self._run_pooled_round(pool, export, retries, attached)
                )
            resilience.pool_respawns = pool.stats().get("respawns", 0) - respawns_before
            worker_results = self._parse_results(
                by_worker, expected=len(payloads), attempt_log=attempt_log
            )

            # Fold the workers' simulated S3 traffic into the ledger (the
            # classic path meters it inside ObjectStore per request).
            now = self.env.clock.now
            self.env.ledger.record(
                "s3", "get_requests",
                sum(r.get_requests for r in worker_results), now,
            )
            self.env.ledger.record(
                "s3", "bytes_read",
                sum(r.bytes_read for r in worker_results), now,
            )

            table, reduce_value = self._merge(physical, worker_results)
            statistics = self._build_statistics(
                physical, worker_results, num_workers=len(payloads), cold=cold,
                resilience=resilience, fault_snapshot=fault_snapshot,
            )
            statistics.overload = self._overload_block(self._active_budget)
            # Detach the exposed partials from shared memory before the
            # segments are unlinked: re-encode into the payload form the
            # classic path ships (copies the column data out).
            from repro.engine.payload import encode_table

            for result in worker_results:
                if result.partial:
                    result.partial = encode_table(result.partial, force_binary=True)
            return QueryResult(
                table=table,
                reduce_value=reduce_value,
                statistics=statistics,
                worker_results=worker_results,
                optimizer_report=report,
                plan_explain=physical.explain(),
            )
        finally:
            # Release the zero-copy views BEFORE unmapping the segments.  On
            # the success path the exposed partials were already re-encoded;
            # on the failure path the raised exception's traceback would keep
            # this frame (and hence the views) alive, making SharedMemory's
            # finalizer raise BufferError from the garbage collector.
            for message in by_worker.values():
                result_payload = message.get("result")
                if isinstance(result_payload, dict):
                    partial = result_payload.get("partial")
                    if isinstance(partial, dict):
                        partial.clear()
            for segment in attached:
                try:
                    segment.close()
                except BufferError:
                    pass
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
            if export is not None:
                pool.forget_segments([export.name])
                export.close()

    def _run_pooled_round(
        self,
        pool,
        export: SharedObjectExport,
        payloads: List[Dict],
        attached: List[Any],
    ) -> Dict[int, Dict]:
        """Dispatch one wave of payloads to the pool and meter each attempt.

        Returns classic-shaped result messages keyed by worker id, so the
        downstream retry/parse machinery is shared with the SQS path.
        Invocations are accounted in worker-id order (the dispatch order),
        keeping cold/warm assignment deterministic like serial invocation.

        An installed :class:`~repro.cloud.faults.FaultPlan` is consulted here,
        mirroring the SQS path: dropped/timed-out invocations are decided
        before dispatch (the fragment never runs), pool-crash injections lose
        a completed result (its segment is still attached for cleanup), and
        straggler slowdowns multiply the reported duration.
        """
        plan = getattr(self.env, "fault_plan", None)
        faulted: Dict[int, str] = {}
        if plan is not None:
            for payload in payloads:
                fault = plan.invocation_fault(self.function_name)
                if fault is not None:
                    faulted[payload["worker_id"]] = fault
        tasks = [
            (
                "run",
                payload["worker_id"],
                payload["plan"],
                export.name,
                export.directory,
                self.memory_mib,
                payload.get("threads", 2),
            )
            for payload in payloads
            if payload["worker_id"] not in faulted
        ]
        raw = pool.run_tasks(tasks)
        by_worker: Dict[int, Dict] = {}
        for payload in payloads:
            worker_id = payload["worker_id"]
            fault = faulted.get(worker_id)
            if fault is not None:
                if fault == "drop":
                    error = "InvocationDropped: injected invocation drop"
                    duration = 0.0
                else:
                    error = (
                        "FunctionTimeout: injected hang killed at the "
                        f"{self.worker_timeout_seconds:.1f}s timeout"
                    )
                    duration = self.worker_timeout_seconds
                self.env.lambda_service.account_invocation(
                    self.function_name, duration_seconds=duration, from_driver=True
                )
                by_worker[worker_id] = {
                    "worker_id": worker_id,
                    "attempt": payload.get("attempt", 0),
                    "status": "error",
                    "error": error,
                }
                continue
            raw_result = raw.get(worker_id)
            crashed = plan is not None and plan.pool_crash(
                self.function_name, worker_id
            )
            if crashed:
                # The child did the work, but the injected crash loses its
                # result.  Attach the orphaned result segment (if any) so the
                # end-of-query cleanup unlinks it.
                if (
                    raw_result is not None
                    and raw_result[0] == "ok"
                    and raw_result[3] is not None
                ):
                    from multiprocessing import shared_memory

                    try:
                        attached.append(
                            shared_memory.SharedMemory(name=raw_result[3])
                        )
                    except FileNotFoundError:
                        pass
                message = {
                    "worker_id": worker_id,
                    "status": "error",
                    "error": "WorkerCrashError: injected pool worker crash",
                }
            else:
                message = self._pooled_message(raw_result, worker_id, attached)
            message.setdefault("attempt", payload.get("attempt", 0))
            duration = message.get("result", {}).get("duration_seconds", 0.0)
            if plan is not None and message.get("status") == "ok":
                duration *= plan.straggler_factor(self.function_name)
            # Meter the attempt exactly like an invocation of the in-process
            # handler: cold/warm bookkeeping, ledger, invocation log, and the
            # cold execution penalty on the modelled duration.
            invocation = self.env.lambda_service.account_invocation(
                self.function_name,
                duration_seconds=duration,
                from_driver=True,
                cold_penalty=COLD_EXECUTION_PENALTY,
            )
            if message.get("status") == "ok":
                message["result"]["duration_seconds"] = invocation.duration_seconds
            by_worker[worker_id] = message
        return by_worker

    def _pooled_message(
        self, raw: Optional[tuple], worker_id: int, attached: List[Any]
    ) -> Dict:
        """Convert one pool child message into the classic result-message shape.

        Result segments are attached here and decoded as zero-copy views; the
        attached handles collect in ``attached`` so ``_execute_pooled`` can
        unlink every segment when the query finishes.
        """
        if raw is None:
            return {
                "worker_id": worker_id,
                "status": "error",
                "error": "no result from worker pool",
            }
        if raw[0] == "err":
            return {"worker_id": worker_id, "status": "error", "error": raw[2]}
        _, _, payload, result_segment, nbytes = raw
        if result_segment is not None:
            from multiprocessing import shared_memory

            from repro.exchange.codec import decode_partition

            segment = shared_memory.SharedMemory(name=result_segment)
            attached.append(segment)
            payload["partial"] = decode_partition(segment.buf[:nbytes], copy=False)
        else:
            payload["partial"] = {}
        return {"worker_id": worker_id, "status": "ok", "result": payload}

    # -- helpers --------------------------------------------------------------------

    def _invoke_tree(
        self, tree: List[Dict], resilience: Optional[ResilienceStats] = None
    ) -> None:
        """Invoke the tree roots, serially or through the thread pool.

        Invocations retry transient rejections (capacity brownouts throttle
        the fleet with :class:`~repro.errors.TooManyRequestsError`) with
        backoff through the driver's breaker board and the active query's
        retry budget, instead of aborting the wave on the first rejection.
        """

        def invoke(parent: Dict) -> None:
            call_with_backoff(
                self.env.lambda_service.invoke,
                self.function_name,
                parent,
                from_driver=True,
                policy=self.resilience_policy,
                rng=self._jitter_rng,
                stats=resilience,
                breakers=self.breakers,
                budget=self._active_budget,
                now_fn=self._active_now,
            )

        # On a single-core host the pool cannot overlap the workers' numpy
        # sections and only adds dispatch overhead (~10% on TPC-H Q1 at 1M
        # rows, see README "Performance notes"), so fall back to serial
        # dispatch unless the caller forced a pool size explicitly.
        single_core = (os.cpu_count() or 1) <= 1 and self.max_parallel_invocations is None
        if self.execution_mode != "threads" or len(tree) <= 1 or single_core:
            for parent in tree:
                invoke(parent)
            return
        max_workers = self.max_parallel_invocations or min(
            32, 4 * (os.cpu_count() or 4), len(tree)
        )
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(invoke, parent) for parent in tree]
            for future in futures:
                future.result()

    #: Worker-reported error prefixes that mean the invocation plane itself
    #: failed (vs. a data error inside a healthy worker).
    _LAMBDA_FAILURE_PREFIXES = (
        "InvocationDropped",
        "FunctionTimeout",
        "WorkerCrashError",
        "no result message",
    )

    def _record_worker_failure(self, error: str) -> None:
        """Charge an invocation-plane worker failure to the lambda breaker.

        Worker failures arrive as strings in result messages (or as missing
        messages), never as raised exceptions, so
        :meth:`~repro.driver.breakers.BreakerBoard.classify` cannot see them;
        a sustained invocation-side failure storm still needs to trip the
        lambda breaker and drive degradation.
        """
        if error.startswith(self._LAMBDA_FAILURE_PREFIXES):
            now = self._active_now
            self.breakers.breakers["lambda"].record_failure(
                now() if now is not None else self.env.clock.now
            )

    def _overload_block(self, budget: Optional[RetryBudget]) -> Dict[str, Any]:
        """The per-query overload-control statistics block."""
        return {
            "retry_budget": budget.to_dict() if budget is not None else None,
            "breakers": self.breakers.to_dict(),
            "breaker_transitions": self.breakers.transition_count(),
        }

    def _gc_cancelled_scan(self, query_id: str) -> int:
        """Best-effort cleanup after a cancelled/budget-killed scan query.

        Purges the result queue (nobody will consume the remaining messages
        — per-session drivers own their queue exclusively) and deletes every
        spilled result object under this query's prefix, so a cancelled query
        leaves no orphaned cloud state.  Returns the number of objects
        deleted; cleanup never masks the typed error being raised.
        """
        deleted = 0
        try:
            self.env.sqs.purge_queue(self.result_queue)
        except CloudError:
            pass
        try:
            objects = self.env.s3.list_objects(RESULT_BUCKET, prefix=f"{query_id}/")
        except CloudError:
            return deleted
        for meta in objects:
            try:
                self.env.s3.delete_object(RESULT_BUCKET, meta.key)
                deleted += 1
            except CloudError:
                continue
        return deleted

    def _collect_messages(
        self,
        query_id: str,
        expected: int,
        want: Optional[set] = None,
        raise_on_timeout: bool = True,
        integrity: Optional[IntegrityStats] = None,
    ) -> List[Dict]:
        """Poll the result queue until ``expected`` distinct workers reported.

        Progress is counted in *distinct* worker ids (restricted to ``want``
        when given), so duplicated SQS deliveries can no longer satisfy
        ``expected`` early.  The poll budget is the wave deadline; when it
        runs out the driver either raises :class:`QueryTimeoutError` or — with
        ``raise_on_timeout=False`` — returns what arrived so the caller can
        retry the workers that never reported (dropped invocations, crashes).

        Corrupt messages are dropped and counted into ``integrity`` (see
        :func:`~repro.driver.messages.parse_message`).
        """
        verify = self.integrity.verify
        messages: List[Dict] = []
        seen: set = set()
        cancel = self._active_cancel
        max_polls = max(
            DEFAULT_RESILIENCE.min_poll_rounds,
            expected * DEFAULT_RESILIENCE.poll_rounds_per_worker,
        )
        for _ in range(max_polls):
            if cancel is not None:
                cancel.check("collect")
            batch = self.env.sqs.receive_messages(self.result_queue, max_messages=10)
            for message in batch:
                payload = parse_message(message, verify, integrity)
                if payload is None or payload.get("query_id") != query_id:
                    continue  # corrupt, or stale from an earlier query
                messages.append(payload)
                worker_id = payload.get("worker_id")
                if want is None or worker_id in want:
                    seen.add(worker_id)
            if len(seen) >= expected:
                return messages
        if raise_on_timeout:
            raise QueryTimeoutError(
                f"received {len(seen)} of {expected} worker results before giving up"
            )
        return messages

    def _group_messages(
        self,
        messages: List[Dict],
        by_worker: Optional[Dict[int, Dict]] = None,
        resilience: Optional[ResilienceStats] = None,
        integrity: Optional[IntegrityStats] = None,
    ) -> Dict[int, Dict]:
        """Group result messages by worker id with ``(worker, attempt)`` dedup.

        Spilled payloads are fetched (and verified) through
        :func:`~repro.driver.messages.fetch_spilled` under the query's
        breaker board and retry budget.
        """
        if by_worker is None:
            by_worker = {}
        for message in messages:
            if "result_s3" in message:
                spilled = fetch_spilled(
                    self.env.s3, message["result_s3"], self.integrity.verify,
                    integrity, policy=self.resilience_policy,
                    rng=self._jitter_rng, stats=resilience,
                    breakers=self.breakers, budget=self._active_budget,
                    now_fn=self._active_now,
                )
                spilled.setdefault("attempt", message.get("attempt", 0))
                message = spilled
            merge_attempt(by_worker, message["worker_id"], message, resilience)
        return by_worker

    def _retry_failures(
        self,
        by_worker: Dict[int, Dict],
        payloads: List[Dict],
        query_id: str,
        max_worker_retries: int,
        resilience: Optional[ResilienceStats] = None,
        attempt_log: Optional[AttemptLog] = None,
        integrity: Optional[IntegrityStats] = None,
    ) -> Dict[int, Dict]:
        """Re-invoke failed *or missing* workers with jittered backoff.

        Replaces the seed's flat fixed-count loop: each retry round first
        backs off (exponential with decorrelated jitter, charged to modelled
        latency — never slept on the wall clock), tags every retry payload
        with its attempt number, and polls for exactly the retried workers.
        Workers that never reported at all (dropped invocations, crashed
        instances) are retried just like reported failures.
        """
        resilience = resilience if resilience is not None else ResilienceStats()
        attempt_log = attempt_log if attempt_log is not None else AttemptLog()
        payload_by_worker = {payload["worker_id"]: payload for payload in payloads}
        prices = self.env.ledger.prices
        sleep = 0.0
        for _ in range(max_worker_retries):
            need = [
                worker_id
                for worker_id in sorted(payload_by_worker)
                if by_worker.get(worker_id, {}).get("status") != "ok"
            ]
            if not need:
                break
            if self._active_cancel is not None:
                self._active_cancel.check("retry round")
            sleep = decorrelated_jitter(
                sleep,
                self._jitter_rng,
                self.resilience_policy.backoff_base_seconds,
                self.resilience_policy.backoff_cap_seconds,
            )
            resilience.backoff_seconds += sleep
            for worker_id in need:
                message = by_worker.get(worker_id)
                error = (
                    message.get("error", "unknown error")
                    if message is not None
                    else "no result message (lost invocation or worker crash)"
                )
                previous = payload_by_worker[worker_id]
                failed_attempt = previous.get("attempt", 0)
                attempt_log.record(
                    worker_id, failed_attempt, error, backoff_seconds=sleep
                )
                if integrity is not None and error.startswith("IntegrityError"):
                    # The worker detected at-rest corruption that re-GETs
                    # could not cure; this retry re-executes the attempt.
                    integrity.re_executions += 1
                self._record_worker_failure(error)
                retry_payload = dict(previous)
                retry_payload.pop("children", None)
                retry_payload["attempt"] = failed_attempt + 1
                payload_by_worker[worker_id] = retry_payload
                resilience.retries += 1
                if self._active_budget is not None:
                    self._active_budget.charge("driver_retries")
                # The failed attempt's request fee bought nothing.
                resilience.wasted_cost_dollars += prices.lambda_invocation_cost(1)
                call_with_backoff(
                    self.env.lambda_service.invoke,
                    self.function_name,
                    retry_payload,
                    from_driver=True,
                    policy=self.resilience_policy,
                    rng=self._jitter_rng,
                    stats=resilience,
                    breakers=self.breakers,
                    budget=self._active_budget,
                    now_fn=self._active_now,
                )
            retry_messages = self._collect_messages(
                query_id, expected=len(need), want=set(need),
                raise_on_timeout=False, integrity=integrity,
            )
            self._group_messages(
                retry_messages, by_worker=by_worker, resilience=resilience,
                integrity=integrity,
            )
        return by_worker

    def _parse_results(
        self,
        by_worker: Dict[int, Dict],
        expected: int,
        attempt_log: Optional[AttemptLog] = None,
    ) -> List[WorkerResult]:
        """Turn grouped messages into WorkerResults, surfacing remaining failures."""
        failures = sorted(
            (m for m in by_worker.values() if m.get("status") != "ok"),
            key=lambda message: message["worker_id"],
        )
        if failures:
            first = failures[0]
            error = first.get("error", "unknown error")
            attempts: List[Dict] = []
            if attempt_log is not None:
                attempts = list(attempt_log.for_worker(first["worker_id"]))
            attempts.append({"attempt": first.get("attempt", 0), "error": error})
            raise WorkerFailedError(first["worker_id"], error, attempts=attempts)
        if len(by_worker) != expected:
            raise QueryTimeoutError(
                f"got results from {len(by_worker)} distinct workers, expected {expected}"
            )
        return [
            WorkerResult.from_payload(by_worker[worker_id]["result"])
            for worker_id in sorted(by_worker)
        ]

    def _hedge_stragglers(
        self,
        worker_results: List[WorkerResult],
        by_worker: Dict[int, Dict],
        payloads: List[Dict],
        query_id: str,
        resilience: ResilienceStats,
        integrity: Optional[IntegrityStats] = None,
    ) -> Tuple[List[WorkerResult], float]:
        """Speculatively re-invoke straggler workers; first result wins.

        Post-wave quantile detection: workers whose modelled duration exceeds
        both ``hedge_factor`` x the fleet median and the absolute
        ``hedge_min_seconds`` floor are re-invoked once, flat.  The hedge can
        only start once the straggler is *detected*, so its effective
        completion is ``threshold + hedge duration``; if that beats the
        original, the hedge's result replaces it (the recompute is
        deterministic — data identical, only duration/counters differ) and
        the original run's duration cost is attributed as wasted.  A
        homogeneous clean fleet never crosses the threshold, so fault-free
        runs take none of this path.
        """
        policy = self.resilience_policy
        ordered_ids = sorted(by_worker)
        durations = {
            worker_id: worker_results[index].duration_seconds
            for index, worker_id in enumerate(ordered_ids)
        }
        stragglers = pick_stragglers(durations, policy)
        if not stragglers:
            return worker_results, 0.0
        fleet_median = sorted(durations.values())[len(durations) // 2]
        threshold = max(policy.hedge_min_seconds, policy.hedge_factor * fleet_median)
        payload_by_worker = {payload["worker_id"]: payload for payload in payloads}
        prices = self.env.ledger.prices
        index_of = {worker_id: index for index, worker_id in enumerate(ordered_ids)}
        budget = self._active_budget
        launched: List[int] = []
        for worker_id in stragglers:
            if budget is not None and not budget.try_charge("hedges"):
                # Hedging is optional work: when the retry budget runs dry it
                # is suppressed (and attributed), never fatal.
                resilience.note_fallback("hedge_suppressed")
                continue
            hedge_payload = dict(payload_by_worker[worker_id])
            hedge_payload.pop("children", None)
            hedge_payload["attempt"] = by_worker[worker_id].get("attempt", 0) + 1
            try:
                self.env.lambda_service.invoke(
                    self.function_name, hedge_payload, from_driver=True
                )
            except TRANSIENT_CLOUD_ERRORS as error:
                # A brownout-rejected hedge simply never enters the race;
                # the original attempt's result stands.
                now = self._active_now
                self.breakers.record_failure(
                    error, now() if now is not None else self.env.clock.now
                )
                resilience.note_fallback("hedge_rejected")
                continue
            resilience.hedges_launched += 1
            launched.append(worker_id)
        if not launched:
            return worker_results, 0.0
        stragglers = launched
        hedge_messages = self._collect_messages(
            query_id,
            expected=len(stragglers),
            want=set(stragglers),
            raise_on_timeout=False,
            integrity=integrity,
        )
        hedged: Dict[int, Dict] = {}
        self._group_messages(
            hedge_messages, by_worker=hedged, resilience=resilience,
            integrity=integrity,
        )
        # Both racers run to completion and bill their full duration (a real
        # Lambda cannot be cancelled); the loser's extra seconds are billed on
        # top of the per-worker winner durations and attributed as waste.
        extra_billed_seconds = 0.0
        for worker_id in stragglers:
            message = hedged.get(worker_id)
            if message is None or message.get("status") != "ok":
                # The hedge itself failed or vanished — it simply loses.
                resilience.hedges_lost += 1
                resilience.wasted_cost_dollars += prices.lambda_invocation_cost(1)
                continue
            hedge_result = WorkerResult.from_payload(message["result"])
            effective = threshold + hedge_result.duration_seconds
            original = durations[worker_id]
            if effective < original:
                hedge_result.duration_seconds = effective
                worker_results[index_of[worker_id]] = hedge_result
                resilience.hedges_won += 1
                extra_billed_seconds += original
                resilience.wasted_cost_dollars += prices.lambda_duration_cost(
                    self.memory_mib, original
                )
            else:
                resilience.hedges_lost += 1
                extra_billed_seconds += hedge_result.duration_seconds
                resilience.wasted_cost_dollars += (
                    prices.lambda_invocation_cost(1)
                    + prices.lambda_duration_cost(
                        self.memory_mib, hedge_result.duration_seconds
                    )
                )
        return worker_results, extra_billed_seconds

    def _empty_result(
        self,
        physical: PhysicalPlan,
        report: Optional[OptimizerReport],
        cold: bool,
    ) -> QueryResult:
        """Result of a query whose files were all pruned by the catalog."""
        table, reduce_value = self._merge(physical, [])
        statistics = QueryStatistics(
            num_workers=0,
            memory_mib=self.memory_mib,
            cold=cold,
            invocation_seconds=0.0,
            max_worker_seconds=0.0,
            median_worker_seconds=0.0,
            latency_seconds=0.0,
            rows_scanned=0,
            bytes_read=0,
            get_requests=0,
            cost_lambda_duration=0.0,
            cost_lambda_requests=0.0,
            cost_s3_requests=0.0,
            cost_sqs_requests=0.0,
            worker_durations=[],
        )
        return QueryResult(
            table=table,
            reduce_value=reduce_value,
            statistics=statistics,
            worker_results=[],
            optimizer_report=report,
            plan_explain=physical.explain(),
        )

    def _merge(
        self, physical: PhysicalPlan, worker_results: List[WorkerResult]
    ) -> Tuple[Table, Optional[Any]]:
        """Driver-scope final phase: merge partials, finalise, sort, limit."""
        driver_plan = physical.driver
        template = physical.worker_template

        if template.reduce_udf:
            reduce_fn = resolve_udf(template.reduce_udf)
            values = [
                result.reduce_value
                for result in worker_results
                if result.reduce_value is not None
            ]
            reduce_value = functools.reduce(reduce_fn, values) if values else None
            return {}, reduce_value

        # Views, not copies: the merge only concatenates the partials (one
        # concatenate + one vectorised group-by pass), so decoded columns —
        # including shared-memory views from the process pool — are never
        # mutated in place.
        partials = [decode_table(result.partial, copy=False) for result in worker_results]
        if driver_plan.collect_rows:
            table = concat_tables(partials)
        else:
            merged = merge_partials(partials, driver_plan.group_by, template.aggregates)
            table = finalize_aggregates(
                merged, driver_plan.group_by, driver_plan.final_aggregates
            )
        if driver_plan.order_by:
            table = sort_table(table, driver_plan.order_by, driver_plan.descending)
        if driver_plan.limit is not None:
            count = min(driver_plan.limit, table_num_rows(table))
            table = take_rows(table, np.arange(count))
        return table, None

    def _build_statistics(
        self,
        physical: PhysicalPlan,
        worker_results: List[WorkerResult],
        num_workers: int,
        cold: bool,
        resilience: Optional[ResilienceStats] = None,
        fault_snapshot: Optional[Dict[str, int]] = None,
        extra_billed_seconds: float = 0.0,
        integrity: Optional[IntegrityStats] = None,
    ) -> QueryStatistics:
        """Compute modelled latency and dollar cost of the query.

        ``extra_billed_seconds`` bills execution time that bought no used
        result but was still charged (e.g. the losing side of a hedge race);
        it affects cost, never latency.
        """
        resilience = resilience if resilience is not None else ResilienceStats()
        integrity = integrity if integrity is not None else IntegrityStats()
        if fault_snapshot is not None:
            resilience.faults_injected = fault_delta(self.env, fault_snapshot)
        prices = self.env.ledger.prices
        durations = [result.duration_seconds for result in worker_results]
        invocation = TreeInvocationModel(region=self.env.region)
        start_times = invocation.worker_start_times(num_workers, cold=cold)
        completion = start_times[: len(durations)] + np.asarray(durations)
        # Result collection: one additional round of SQS polling.
        result_poll_seconds = DEFAULT_RESILIENCE.result_poll_seconds
        latency = float(completion.max()) + result_poll_seconds if durations else 0.0
        # Backoff between retry rounds is charged to the modelled latency.
        latency += resilience.backoff_seconds

        rows_scanned = sum(result.rows_scanned for result in worker_results)
        bytes_read = sum(result.bytes_read for result in worker_results)
        get_requests = sum(result.get_requests for result in worker_results)
        shortcircuited = sum(result.row_groups_shortcircuited for result in worker_results)
        decode_saved = sum(result.rows_decode_saved for result in worker_results)
        chunks_skipped = sum(result.column_chunks_skipped for result in worker_results)
        exchange = ExchangeStats()
        for result in worker_results:
            if result.exchange_stats:
                exchange.merge(ExchangeStats.from_dict(result.exchange_stats))
            if result.integrity_stats:
                integrity.merge(IntegrityStats.from_dict(result.integrity_stats))

        cost_lambda_duration = sum(
            prices.lambda_duration_cost(self.memory_mib, duration) for duration in durations
        ) + prices.lambda_duration_cost(self.memory_mib, extra_billed_seconds)
        # Every actually-made invocation request is billed, including retries
        # and hedges (their wasted share is attributed in the resilience block).
        cost_lambda_requests = prices.lambda_invocation_cost(
            num_workers + resilience.retries + resilience.hedges_launched
        )
        cost_s3 = prices.s3_get_cost(get_requests)
        # Each worker sends one result message; the driver polls in batches.
        sqs_requests = num_workers + math.ceil(num_workers / 10) + 1
        cost_sqs = prices.sqs_cost(sqs_requests)

        return QueryStatistics(
            num_workers=num_workers,
            memory_mib=self.memory_mib,
            cold=cold,
            invocation_seconds=invocation.time_to_start_all(num_workers, cold=cold),
            max_worker_seconds=float(max(durations)) if durations else 0.0,
            median_worker_seconds=float(np.median(durations)) if durations else 0.0,
            latency_seconds=latency,
            rows_scanned=rows_scanned,
            bytes_read=bytes_read,
            get_requests=get_requests,
            cost_lambda_duration=cost_lambda_duration,
            cost_lambda_requests=cost_lambda_requests,
            cost_s3_requests=cost_s3,
            cost_sqs_requests=cost_sqs,
            worker_durations=durations,
            row_groups_shortcircuited=shortcircuited,
            rows_decode_saved=decode_saved,
            column_chunks_skipped=chunks_skipped,
            exchange=exchange,
            resilience=resilience,
            integrity=integrity,
        )


class QueryHandle:
    """Tracking handle for one admitted query in a :class:`QuerySession`."""

    def __init__(
        self, tenant: str, cancel: CancellationToken, permit: Any
    ):
        self.tenant = tenant
        self.cancel_token = cancel
        self.permit = permit
        self.future = None

    def cancel(self) -> None:
        """Request cooperative cancellation; the query unwinds at its next
        pump point with a typed :class:`~repro.errors.QueryCancelledError`."""
        self.cancel_token.cancel()

    def done(self) -> bool:
        return self.future is not None and self.future.done()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block for the result; re-raises the query's typed failure."""
        return self.future.result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        return self.future.exception(timeout)


class QuerySession:
    """Concurrent query submission over one simulated fleet.

    :meth:`submit` admits a query through the
    :class:`~repro.driver.admission.AdmissionController` — raising
    :class:`~repro.errors.QueryRejectedError` *synchronously* when the
    admission queue is full or the tenant is over budget — and hands it to a
    bounded thread pool.  Each worker thread lazily creates its own
    :class:`LambadaDriver` on a **unique** result queue: result-queue polling
    consumes messages, so two drivers sharing one queue would eat each
    other's results.  All drivers share one
    :class:`~repro.driver.breakers.BreakerBoard`, because breaker state is
    fleet health — a brownout seen by one query should shed load from all of
    them.

    At completion each tenant's token buckets are reconciled against the
    query's actual metered spend (invocations made, modelled dollars), so
    budgets track real consumption rather than admission-time estimates.
    Use as a context manager, or call :meth:`close` to drain and shut down.
    """

    def __init__(
        self,
        env: CloudEnvironment,
        admission: Optional[AdmissionConfig] = None,
        breakers: Optional[BreakerBoard] = None,
        **driver_kwargs: Any,
    ):
        self.env = env
        self.admission_config = admission or AdmissionConfig()
        self.breakers = breakers or BreakerBoard()
        self.controller = AdmissionController(
            self.admission_config, now_fn=lambda: env.clock.now
        )
        self._driver_kwargs = driver_kwargs
        self._executor = ThreadPoolExecutor(
            max_workers=self.admission_config.max_concurrent_queries
        )
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._drivers: List[LambadaDriver] = []
        self._driver_serial = 0
        self._closed = False

    # -- submission -----------------------------------------------------------------

    def submit(
        self,
        plan: Union[LogicalPlan, PhysicalPlan, JoinPhysicalPlan, DagPhysicalPlan],
        tenant: str = "default",
        deadline_seconds: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        invocation_estimate: Optional[float] = None,
        dollar_estimate: Optional[float] = None,
        **execute_kwargs: Any,
    ) -> QueryHandle:
        """Admit and launch one query; returns a :class:`QueryHandle`.

        Rejections (queue full, over budget) raise synchronously; every
        execution-time failure — including typed cancellation and retry-budget
        exhaustion — surfaces from ``handle.result()``.  ``execute_kwargs``
        are forwarded to :meth:`LambadaDriver.execute`.
        """
        if self._closed:
            raise ExecutionError("cannot submit to a closed session")
        permit = self.controller.admit(
            tenant,
            invocation_estimate=invocation_estimate,
            dollar_estimate=dollar_estimate,
        )
        token = cancel or CancellationToken(deadline_seconds=deadline_seconds)
        handle = QueryHandle(tenant=tenant, cancel=token, permit=permit)

        def run() -> QueryResult:
            self.controller.start(permit)
            outcome = "failed"
            actual_invocations = 0.0
            actual_dollars = 0.0
            try:
                driver = self._thread_driver()
                result = driver.execute(plan, cancel=token, **execute_kwargs)
                stats = result.statistics
                outcome = "completed"
                actual_invocations = float(
                    stats.num_workers
                    + stats.resilience.retries
                    + stats.resilience.hedges_launched
                )
                actual_dollars = stats.cost_total
                return result
            except QueryCancelledError:
                outcome = "cancelled"
                raise
            finally:
                self.controller.finish(
                    permit,
                    outcome,
                    actual_invocations=actual_invocations,
                    actual_dollars=actual_dollars,
                )

        handle.future = self._executor.submit(run)
        return handle

    def _thread_driver(self) -> LambadaDriver:
        """This worker thread's driver, created on first use."""
        driver = getattr(self._tls, "driver", None)
        if driver is None:
            with self._lock:
                self._driver_serial += 1
                queue = f"lambada-result-queue-s{self._driver_serial}"
            driver = LambadaDriver(
                self.env,
                result_queue=queue,
                breakers=self.breakers,
                **self._driver_kwargs,
            )
            with self._lock:
                self._drivers.append(driver)
            self._tls.driver = driver
        return driver

    # -- reporting ------------------------------------------------------------------

    @property
    def stats(self) -> AdmissionStats:
        """Session-wide admission counters."""
        return self.controller.stats

    def tenant_levels(self, tenant: str) -> Dict[str, float]:
        """Current budget-bucket levels of one tenant."""
        return self.controller.tenant_levels(tenant)

    def to_dict(self) -> dict:
        return {
            "admission": self.controller.stats.to_dict(),
            "config": self.admission_config.to_dict(),
            "breakers": self.breakers.to_dict(),
        }

    def close(self) -> None:
        """Drain in-flight queries and shut down every per-thread driver."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        for driver in self._drivers:
            driver.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
