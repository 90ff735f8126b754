"""Which functions the traced run wraps, and the per-layer metrics it reports.

Every hook replaces the attribute *the caller looks up*: a module-level
function is patched in the module that imported it (``repro.driver.shuffle``
calls its own ``encode_partition_set`` binding, so patching
``repro.exchange.codec`` would record nothing), and a method is patched on
its class.  Span names are those binding paths, so one kernel imported into
two modules yields two spans that per-layer metrics can group as they need.

Hooks exist only while :func:`installed` is active; nothing under ``src/``
knows about them.
"""

from __future__ import annotations

import contextlib
import types
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import repro.driver.driver as driver_module
import repro.driver.shuffle as shuffle_module
import repro.engine.pipeline as pipeline_module
import repro.exchange.codec as codec_module
import repro.formats.parquet as parquet_module
import repro.frontend.session as session_module
import run_tpch_experiments
from repro.cloud.lambda_service import LambdaService
from repro.cloud.s3 import ObjectStore
from repro.cloud.sqs import QueueService
from repro.driver.driver import LambadaDriver
from repro.engine.scan import S3ScanOperator
from repro.formats.parquet import ColumnarFile

from spans import Tracer, fold_self_times


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap: ``owner.attribute`` (a module or a class)."""

    owner: object
    attribute: str
    generator: bool = False
    nbytes: Optional[Callable[..., int]] = None

    @property
    def name(self) -> str:
        owner = self.owner
        prefix = owner.__name__ if isinstance(owner, types.ModuleType) else (
            f"{owner.__module__}.{owner.__qualname__}"
        )
        return f"{prefix}.{self.attribute}"


def _put_size(result, *args, **kwargs) -> int:
    return result.size


def _get_size(result, *args, **kwargs) -> int:
    return len(result.data)


def _crc_input_size(result, data, *args, **kwargs) -> int:
    return memoryview(data).nbytes


PARSE = Hook(session_module, "parse_sql")
OPTIMIZE = Hook(driver_module, "optimize")
EXECUTE = Hook(LambadaDriver, "execute")
DRIVER_MERGE = Hook(driver_module, "merge_partials")
DRIVER_FINALIZE = Hook(driver_module, "finalize_aggregates")
DRIVER_DECODE = Hook(driver_module, "decode_table")
INVOKE = Hook(LambdaService, "invoke")
SQS_SEND = Hook(QueueService, "send_message")
S3_GET = Hook(ObjectStore, "get_object", nbytes=_get_size)
S3_PUT = Hook(ObjectStore, "put_object", nbytes=_put_size)
S3_LIST = Hook(ObjectStore, "list_objects")
S3_HEAD = Hook(ObjectStore, "head_object")
CHUNK_READ = Hook(ColumnarFile, "read_encoded_chunk")
SCAN_DECOMPRESS = Hook(parquet_module, "decompress")
SCAN = Hook(S3ScanOperator, "scan", generator=True)
SCAN_FUSED = Hook(S3ScanOperator, "scan_fused", generator=True)
PIPELINE_AGGREGATE = Hook(pipeline_module, "partial_aggregate_fused")
PIPELINE_ENCODE = Hook(pipeline_module, "encode_table")
SHUFFLE_AGGREGATE = Hook(shuffle_module, "partial_aggregate")
SHUFFLE_MERGE = Hook(shuffle_module, "merge_partials")
SHUFFLE_FINALIZE = Hook(shuffle_module, "finalize_aggregates")
SHUFFLE_ENCODE = Hook(shuffle_module, "encode_table")
SHUFFLE_DECODE = Hook(shuffle_module, "decode_table")
HASH_JOIN = Hook(shuffle_module, "hash_join")
PARTITION = Hook(shuffle_module, "partition_assignments")
SCATTER = Hook(shuffle_module, "scatter_by_assignment")
EXCHANGE_ENCODE = Hook(shuffle_module, "encode_partition_set")
EXCHANGE_DECODE = Hook(shuffle_module, "decode_partition_slice")
EXCHANGE_COMPRESS = Hook(codec_module, "compress")
EXCHANGE_DECOMPRESS = Hook(codec_module, "decompress")
CRC32 = Hook(zlib, "crc32", nbytes=_crc_input_size)

#: The ``generate_*_dataset`` calls, as bound where ``run.upload`` looks them up.
GENERATE = tuple(
    Hook(run_tpch_experiments, f"generate_{relation}_dataset")
    for relation in (
        "lineitem", "orders", "customer", "supplier", "part", "nation", "region"
    )
)

#: Hooks every SQL query reaches, whatever its plan.
COMMON_PATH = (PARSE, OPTIMIZE, EXECUTE, INVOKE, SQS_SEND, S3_GET, CHUNK_READ,
               SCAN_DECOMPRESS, CRC32)
#: Hooks of the scan → partial aggregate → driver merge path (Q1, Q6, ...).
SCAN_PATH = (SCAN_FUSED, PIPELINE_AGGREGATE, PIPELINE_ENCODE, DRIVER_MERGE,
             DRIVER_FINALIZE, DRIVER_DECODE)
#: Hooks of the shuffle join path (Q3 and the N-way DAGs).
JOIN_PATH = (SCAN, S3_PUT, HASH_JOIN, PARTITION, SCATTER, EXCHANGE_ENCODE,
             EXCHANGE_DECODE, EXCHANGE_COMPRESS, EXCHANGE_DECOMPRESS,
             SHUFFLE_AGGREGATE, SHUFFLE_MERGE, SHUFFLE_FINALIZE, SHUFFLE_ENCODE,
             SHUFFLE_DECODE)
#: Every hook the traced queries run under.
QUERY_HOOKS = COMMON_PATH + SCAN_PATH + JOIN_PATH + (S3_LIST, S3_HEAD)


@contextlib.contextmanager
def installed(tracer: Tracer, hooks: Sequence[Hook]) -> Iterator[None]:
    """Wrap every hook for the duration of the block, then restore them."""
    originals = []
    try:
        for hook in hooks:
            original = getattr(hook.owner, hook.attribute)
            if hook.generator:
                wrapped = tracer.wrap_generator(original, hook.name)
            else:
                wrapped = tracer.wrap(original, hook.name, nbytes=hook.nbytes)
            setattr(hook.owner, hook.attribute, wrapped)
            originals.append((hook, original))
        yield
    finally:
        for hook, original in reversed(originals):
            setattr(hook.owner, hook.attribute, original)


#: Per-query self time, summed over the hooks' spans.
SELF_TIME_METRICS = {
    "frontend.parse_s": (PARSE,),
    "plan.optimize_s": (OPTIMIZE,),
    "driver.execute_self_s": (EXECUTE,),
    # Includes the driver's payload decode, which engine.payload_decode_s
    # also counts; the remainder counts each span once.
    "driver.merge_s": (DRIVER_MERGE, DRIVER_FINALIZE, DRIVER_DECODE),
    "cloud.lambda.invoke_self_s": (INVOKE,),
    "cloud.sqs.send_s": (SQS_SEND,),
    "cloud.s3.get_s": (S3_GET,),
    "cloud.s3.put_s": (S3_PUT,),
    "cloud.s3.list_head_s": (S3_LIST, S3_HEAD),
    "formats.chunk_read_s": (CHUNK_READ,),
    "formats.decompress_scan_s": (SCAN_DECOMPRESS,),
    "engine.scan_s": (SCAN, SCAN_FUSED),
    "engine.aggregate_s": (PIPELINE_AGGREGATE, SHUFFLE_AGGREGATE, SHUFFLE_MERGE,
                           SHUFFLE_FINALIZE),
    "engine.payload_encode_s": (PIPELINE_ENCODE, SHUFFLE_ENCODE),
    "engine.payload_decode_s": (DRIVER_DECODE, SHUFFLE_DECODE),
    "engine.join_s": (HASH_JOIN,),
    "exchange.partition_s": (PARTITION, SCATTER),
    "exchange.encode_s": (EXCHANGE_ENCODE,),
    "exchange.decode_s": (EXCHANGE_DECODE,),
    "exchange.compress_s": (EXCHANGE_COMPRESS,),
    "exchange.decompress_s": (EXCHANGE_DECOMPRESS,),
    "integrity.crc32_s": (CRC32,),
}

#: Per-query call counts of one hook.
CALL_METRICS = {
    "cloud.lambda.invocations_per_query": INVOKE,
    "cloud.sqs.messages_per_query": SQS_SEND,
    "cloud.s3.get_requests_per_query": S3_GET,
    "cloud.s3.put_requests_per_query": S3_PUT,
    "cloud.s3.list_requests_per_query": S3_LIST,
    "cloud.s3.head_requests_per_query": S3_HEAD,
    "formats.chunks_read_per_query": CHUNK_READ,
    "integrity.crc32_calls_per_query": CRC32,
}

#: Per-query byte counts of one hook.
BYTE_METRICS = {
    "cloud.s3.get_bytes_per_query": S3_GET,
    "cloud.s3.put_bytes_per_query": S3_PUT,
    "integrity.crc32_bytes_per_query": CRC32,
}

#: Per-query means of a field of ``QueryResult.statistics``.
STATISTICS_METRICS = {
    "engine.join_probe_rows_per_query": lambda s: s.join_probe_rows,
    "engine.join_output_rows_per_query": lambda s: s.join_output_rows,
    "exchange.bytes_written_per_query": lambda s: s.exchange.bytes_written,
    "exchange.combined_put_requests_per_query":
        lambda s: s.exchange.combined_put_requests,
    "exchange.discovery_requests_per_query":
        lambda s: s.exchange.list_requests + s.exchange.head_requests,
    "driver.waves_per_query": lambda s: s.dag_stages + 1,
    "driver.workers_per_query": lambda s: s.num_workers,
    "cloud.lambda.modelled_invocation_s": lambda s: s.invocation_seconds,
    "driver.resilience.retries_per_query": lambda s: s.resilience.retries,
    "driver.resilience.hedges_per_query": lambda s: s.resilience.hedges_launched,
    "driver.resilience.backoff_modelled_s": lambda s: s.resilience.backoff_seconds,
    "driver.resilience.faults_injected_per_query":
        lambda s: sum(s.resilience.faults_injected.values()),
}

#: Which end-to-end metric each per-layer metric should move, and on which
#: workload (recorded with every traced result).
LAYER_MAP = (
    (("frontend.parse_s", "plan.optimize_s"),
     ("query_wall_p50_s",), "interactive_small"),
    (("driver.execute_self_s", "driver.merge_s", "cloud.lambda.invoke_self_s",
      "cloud.lambda.invocations_per_query"),
     ("query_wall_p50_s", "queries_per_s"), "interactive_small"),
    (("cloud.sqs.messages_per_query",), ("queries_per_s",), "interactive_small"),
    (("cloud.s3.put_requests_per_query", "cloud.s3.put_bytes_per_query",
      "cloud.s3.put_s", "cloud.s3.list_requests_per_query",
      "cloud.s3.head_requests_per_query"),
     ("modelled_cost_usd_per_query",), "join_dag"),
    (("cloud.s3.get_requests_per_query", "cloud.s3.get_bytes_per_query",
      "cloud.s3.get_s"),
     ("modelled_cost_usd_per_query",), "scan_agg"),
    (("formats.chunk_read_s", "formats.chunks_read_per_query",
      "formats.decompress_scan_s", "formats.chunks_skipped_fraction"),
     ("cpu_s_per_query", "query_wall_p50_s"), "scan_agg"),
    (("engine.scan_s", "engine.aggregate_s", "engine.payload_encode_s",
      "engine.payload_decode_s"),
     ("cpu_s_per_query",), "scan_agg"),
    (("engine.join_s", "engine.join_probe_rows_per_query",
      "engine.join_output_rows_per_query"),
     ("cpu_s_per_query",), "join_dag"),
    (("exchange.partition_s", "exchange.encode_s", "exchange.decode_s",
      "exchange.compress_s", "exchange.decompress_s",
      "exchange.bytes_written_per_query",
      "exchange.combined_put_requests_per_query",
      "exchange.discovery_requests_per_query"),
     ("query_wall_p50_s", "cpu_s_per_query"), "join_dag"),
    (("integrity.crc32_s", "integrity.crc32_calls_per_query",
      "integrity.crc32_bytes_per_query"),
     ("query_wall_p50_s",), "join_dag"),
    (("driver.waves_per_query", "driver.workers_per_query",
      "cloud.lambda.modelled_invocation_s"),
     ("modelled_latency_mean_s",), "join_dag"),
    (("driver.resilience.retries_per_query", "driver.resilience.hedges_per_query",
      "driver.resilience.backoff_modelled_s",
      "driver.resilience.faults_injected_per_query",
      "driver.resilience.wasted_cost_fraction",
      "driver.useful_invocation_fraction"),
     ("modelled_latency_p90_s", "modelled_cost_usd_per_query"), "recovery"),
    (("workload.generate_s",), ("setup_s",), "every workload"),
)


def generate_seconds(tracer: Tracer) -> float:
    """Inclusive time of the ``generate_*_dataset`` spans the tracer holds."""
    names = {hook.name for hook in GENERATE}
    return sum(span.end - span.start for span in tracer.spans if span.name in names)


def missing_calls(tracer: Tracer, expected: Sequence[Hook]) -> List[str]:
    """Names of expected hooks that recorded no call."""
    return [hook.name for hook in expected if not tracer.calls.get(hook.name)]


def layer_metrics(
    tracer: Tracer,
    root: str,
    stats: Sequence,
    queries: int,
) -> Dict[str, float]:
    """Per-query layer metrics from the spans under ``root`` spans.

    ``queries`` counts every traced query.  ``stats`` holds the
    ``QueryResult.statistics`` of one traced pass over the cycle: each pass
    repeats the same figures, and reading one keeps floating-point sums
    identical however many passes a run makes.
    """
    self_times = fold_self_times(tracer.spans)
    metrics: Dict[str, float] = {}
    for name, hooks in SELF_TIME_METRICS.items():
        metrics[name] = sum(self_times.get(hook.name, 0.0) for hook in hooks) / queries
    for name, hook in CALL_METRICS.items():
        metrics[name] = tracer.calls.get(hook.name, 0) / queries
    for name, hook in BYTE_METRICS.items():
        metrics[name] = tracer.bytes.get(hook.name, 0) / queries
    for name, field in STATISTICS_METRICS.items():
        metrics[name] = sum(field(s) for s in stats) / len(stats) if stats else 0.0
    read = metrics["formats.chunks_read_per_query"]
    skipped = (
        sum(s.column_chunks_skipped for s in stats) / len(stats) if stats else 0.0
    )
    metrics["formats.chunks_skipped_fraction"] = (
        skipped / (read + skipped) if read + skipped else 0.0
    )
    cost = sum(s.cost_total for s in stats)
    wasted = sum(s.resilience.wasted_cost_dollars for s in stats)
    metrics["driver.resilience.wasted_cost_fraction"] = wasted / cost if cost else 0.0
    invocations = metrics["cloud.lambda.invocations_per_query"]
    metrics["driver.useful_invocation_fraction"] = (
        metrics["driver.workers_per_query"] / invocations if invocations else 0.0
    )
    metrics["trace.remainder_s"] = self_times.get(root, 0.0) / queries
    return metrics


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if "bytes" in metric:
        return "B"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_query"):
        return "count"
    return "1"
