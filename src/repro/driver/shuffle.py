"""Shuffle-based (repartitioned) aggregation across two waves of workers.

The driver-merge aggregation path (``LambadaDriver.execute``) is ideal for the
paper's evaluation queries, whose results have a handful of groups.  For
high-cardinality group-bys the driver would become the bottleneck; the paper's
exchange operator exists precisely so that such queries can repartition data
among the serverless workers through S3.

:class:`ShuffleAggregateCoordinator` implements that execution strategy as two
waves of serverless function invocations riding the write-combined exchange
I/O plane (paper §4.4):

* **map wave** — each worker scans its files, applies the filter, computes
  per-group partial aggregates, and hash-partitions them by the group keys.
  With write combining (the default) all of a mapper's partitions are
  serialised into **one** combined object via
  :func:`~repro.exchange.codec.encode_partition_set`; the per-receiver byte
  offsets ride in the object key (:class:`~repro.exchange.naming.
  WriteCombiningNaming`), empty partitions occupy zero bytes, and the map
  wave issues exactly one PUT per mapper — O(P) requests instead of the
  legacy O(P²) one-object-per-receiver pattern.  The legacy pattern survives
  behind ``ShuffleConfig(write_combining=False)`` as the parity baseline
  (with empty partitions elided before the PUT);
* **reduce wave** — each worker reads the combined objects the mappers
  announced through the driver's map barrier (the offsets directory rides in
  the keys, so it issues no discovery requests), issues **one ranged GET per
  non-empty slice**, decodes the slices zero-copy with
  :func:`~repro.exchange.codec.decode_partition_slice`, folds them with a
  single :func:`~repro.engine.aggregates.merge_partials` pass, and returns
  its result rows to the driver through SQS (spilling to S3 when large).
  Legacy per-receiver objects are located with one LIST per attempt prefix —
  never through exception-driven GET polling — so combined and legacy
  senders interoperate within one query.

Every wave runs through the wave loop all fleets share
(:func:`~repro.driver.messages.run_wave`): flat breaker-aware invocations,
one poll of the result queue per round, and up to
``ResiliencePolicy.max_attempts`` attempts per worker under jittered
backoff, with the same failure rule as the scan driver.  Shuffle waves are
not hedged.  Every shuffle query ends with a sweep of its exchange prefix,
so retried attempts leave no orphaned objects.  Request/byte counters of both waves are
accumulated into
:class:`~repro.exchange.basic.ExchangeStats`, shipped inside each worker's
:class:`~repro.engine.pipeline.WorkerResult`, and folded into the returned
:class:`ShuffleStatistics`.

The driver only concatenates the disjoint reduce outputs and finalises derived
aggregates (``avg``), so its work is proportional to the result size of its
own share, not to the number of groups.

:class:`ShuffleJoinCoordinator` extends the same machinery to distributed
equi-joins (TPC-H Q3/Q12/Q14): one map wave per side repartitions the
filtered, projected rows by join-key hash through the write-combined
exchange, and the join wave probes both sides' slices with the vectorized
:func:`~repro.engine.join.hash_join` kernel before computing the partial
aggregates placed above the join.  Because the driver barriers on the map
waves, mappers announce their offset-bearing combined keys through the
result queue and the join wave needs **zero** discovery requests — one
ranged GET per non-empty slice is all it issues.
"""

from __future__ import annotations

import json
import random
import re
import uuid
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig, InvocationContext
from repro.cloud.s3 import ObjectMetadata, parse_s3_path
from repro.config import IntegrityConfig, S3_REQUEST_LATENCY_SECONDS
from repro.driver.integrity import MESSAGE_DIGEST_KEY, IntegrityStats, sign_message
from repro.driver.messages import (
    expand_paths,
    fault_delta,
    fault_snapshot,
    fetch_spilled,
)
from repro.driver.messages import run_wave as _run_wave
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    ResiliencePolicy,
    ResilienceStats,
)
from repro.driver.worker import RESULT_BUCKET, RESULT_SPILL_BYTES
from repro.engine.aggregates import (
    finalize_aggregates,
    merge_partials,
    partial_aggregate,
    partial_aggregate_fused,
)
from repro.engine.join import hash_join
from repro.engine.payload import decode_table, encode_table
from repro.engine.pipeline import WorkerResult
from repro.engine.scan import S3ScanOperator, ScanConfig
from repro.engine.table import (
    Table,
    concat_tables,
    filter_table,
    select_columns,
    sort_table,
    table_num_rows,
)
from repro.errors import (
    CloudError,
    CorruptFileError,
    ExchangeError,
    ExecutionError,
    IntegrityError,
    NoSuchBucketError,
    QueryCancelledError,
    WorkerCrashError,
)
from repro.exchange.basic import ExchangeStats, deserialize_partition, serialize_partition
from repro.exchange.codec import decode_partition_slice, encode_partition_set
from repro.exchange.naming import MultiBucketNaming, WriteCombiningNaming
from repro.exchange.partition import partition_assignments, scatter_by_assignment, slice_partition
from repro.formats.compression import Compression
from repro.plan.expressions import evaluate, expression_from_dict, expression_to_dict
from repro.plan.logical import AggregateSpec
from repro.plan.optimizer import _decompose_aggregates
from repro.plan.physical import (
    DagPhysicalPlan,
    JoinSidePlan,
    PruneRange,
)

MAP_FUNCTION_NAME = "lambada-shuffle-map"
REDUCE_FUNCTION_NAME = "lambada-shuffle-reduce"
SHUFFLE_RESULT_QUEUE = "lambada-shuffle-results"
JOIN_MAP_FUNCTION_NAME = "lambada-join-map"
JOIN_REDUCE_FUNCTION_NAME = "lambada-join-reduce"

#: Bucket family of the shuffle exchange objects (spread per §4.4.1).
SHUFFLE_BUCKET_PREFIX = "shuffle-b"


@dataclass
class ShuffleConfig:
    """Configuration of the shuffle I/O plane.

    ``write_combining=True`` (the default) makes every mapper write one
    combined object — O(P) PUTs for the whole map wave — and every reducer
    issue one ranged GET per non-empty slice.  ``write_combining=False``
    restores the legacy one-object-per-receiver format as the parity
    baseline; it still elides empty partitions before the PUT.
    """

    #: Combine all of a mapper's partitions into a single object.
    write_combining: bool = True
    #: Serialise legacy per-receiver objects with the fast codec
    #: (:mod:`repro.exchange.codec`); ``False`` writes full LPQ files.
    #: Readers sniff the format per object/slice regardless.
    fast_codec: bool = True
    #: Compression of the partition payloads.
    compression: Compression = Compression.FAST
    #: Content-checksum generation/verification knobs (both default on):
    #: slice crcs in the combined-object keys, embedded frame checksums, and
    #: digests on every result message.
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)


@dataclass
class ShuffleStatistics:
    """Statistics of one shuffle-aggregation execution."""

    map_workers: int
    reduce_workers: int
    rows_scanned: int
    #: Partition objects written by the map wave (combined objects count 1).
    partition_objects_written: int
    #: Objects / non-empty slices read by the reduce wave.
    partition_objects_read: int
    result_rows: int
    #: Request and byte counters of both waves (PUT/GET/LIST/HEAD, combined
    #: PUTs, ranged GETs, empty partitions elided, bytes shipped vs touched).
    exchange: ExchangeStats = field(default_factory=ExchangeStats)
    #: Modelled duration of the slowest worker per wave (scan/merge time plus
    #: one :data:`~repro.config.S3_REQUEST_LATENCY_SECONDS` round-trip per
    #: exchange request the worker issued).
    modelled_map_seconds: float = 0.0
    modelled_reduce_seconds: float = 0.0
    #: Retries, wave re-runs, fallbacks, and injected-fault counts survived.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: Checksum verification and corruption-recovery counters.
    integrity: IntegrityStats = field(default_factory=IntegrityStats)
    #: Exchange objects deleted by the end-of-query sweep.
    gc_objects_deleted: int = 0

    @property
    def modelled_latency_seconds(self) -> float:
        """Modelled end-to-end shuffle latency (the waves are barriered),
        including any backoff the retry machinery charged."""
        return (
            self.modelled_map_seconds
            + self.modelled_reduce_seconds
            + self.resilience.backoff_seconds
        )


def _slice_crcs(payload: bytes, offsets: Sequence[int]) -> List[int]:
    """Per-receiver crc32 digests of a combined object's slices.

    They ride in the object key next to the offset directory
    (:meth:`~repro.exchange.naming.WriteCombiningNaming.combined_key`), so a
    reducer verifies each ranged GET against a directory it already holds —
    no extra request, and a truncated or bit-flipped slice is caught before
    it is decoded.
    """
    return [
        zlib.crc32(payload[offsets[index]:offsets[index + 1]])
        for index in range(len(offsets) - 1)
    ]


def _exchange_buckets(num_buckets: int) -> List[str]:
    """Buckets of both exchange naming planes (query-independent)."""
    buckets = _combined_naming("", num_buckets).buckets()
    return buckets + _legacy_naming("", num_buckets).buckets()


def _key_tag(key: str) -> str:
    """The tag segment of an exchange key: after the query id and an
    optional ``r{n}/`` attempt segment."""
    parts = key.split("/")
    if len(parts) > 2 and re.fullmatch(r"r\d+", parts[1]):
        return parts[2]
    return parts[1] if len(parts) > 1 else ""


def _sweep_exchange(
    env: CloudEnvironment, query_id: str, num_buckets: int, tag: Optional[str] = None
) -> int:
    """Delete a query's exchange objects from both naming planes; returns count.

    Every attempt prefix and every side/stage tag lives under ``{query_id}/``
    in the buckets of both planes, so one LIST per bucket finds them all —
    combined objects, legacy per-receiver objects a degraded retry wrote, and
    orphans of superseded attempts.  With ``tag`` only keys whose tag segment
    (:func:`_key_tag`) equals it are deleted: a consumed DAG intermediate.
    Best-effort: an injected fault during cleanup skips that bucket rather
    than masking the caller's own outcome.
    """
    deleted = 0
    for bucket in _exchange_buckets(num_buckets):
        try:
            metas = env.s3.list_objects(bucket, prefix=f"{query_id}/")
        except CloudError:
            continue
        for meta in metas:
            if tag is not None and _key_tag(meta.key) != tag:
                continue
            try:
                env.s3.delete_object(bucket, meta.key)
                deleted += 1
            except CloudError:
                continue
    return deleted


def _gc_cancelled_query(
    env: CloudEnvironment, query_id: str, num_buckets: int, queue: str
) -> int:
    """Garbage-collect a cancelled query's cloud state; returns keys deleted.

    Sweeps every exchange object the query's attempts wrote and purges the
    result queue so no orphaned message can leak into a later query's poll.
    Best-effort: the brownout that provoked the cancellation may still be
    raging, and cleanup never masks the cancellation itself.
    """
    deleted = _sweep_exchange(env, query_id, num_buckets)
    try:
        env.sqs.purge_queue(queue)
    except CloudError:
        pass
    return deleted


def _attempt_prefix(query_id: str, attempt: int, tag: str = "") -> str:
    """Key prefix of one attempt's outputs under an exchange ``tag``.

    Retries write under a fresh ``r{attempt}`` prefix, so a mapper that
    crashed *after* its PUT (duplicate-object hazard) can never have its
    orphaned first-attempt object confused with the retry's: the reduce wave
    reads only the keys announced by the attempt the driver accepted.  Join
    DAGs write each relation and intermediate under its own tag
    (``L``/``R``/``R{k}``/``J{k}``); the aggregation exchange is untagged.
    """
    prefix = f"{query_id}/" if attempt <= 0 else f"{query_id}/r{attempt}/"
    return prefix + (f"{tag}/" if tag else "")


def _combined_naming(
    query_id: str, num_buckets: int, attempt: int = 0, tag: str = ""
) -> WriteCombiningNaming:
    """Naming of the combined (write-combined) exchange objects."""
    return WriteCombiningNaming(
        bucket=SHUFFLE_BUCKET_PREFIX,
        prefix=_attempt_prefix(query_id, attempt, tag),
        num_buckets=num_buckets,
    )


def _legacy_naming(
    query_id: str, num_buckets: int, attempt: int = 0, tag: str = ""
) -> MultiBucketNaming:
    """Naming of the legacy one-object-per-receiver exchange objects."""
    return MultiBucketNaming(
        num_buckets=num_buckets,
        bucket_prefix=SHUFFLE_BUCKET_PREFIX,
        prefix=_attempt_prefix(query_id, attempt, tag),
    )


def _reply(event: Dict, worker_id: int, **fields) -> Dict:
    """A result message answering ``event``'s attempt (status ok unless
    ``fields`` say otherwise); join waves key it by the event's side."""
    message = {
        "query_id": event.get("query_id"),
        "worker_id": worker_id,
        "status": "ok",
        "attempt": int(event.get("attempt", 0)),
        **fields,
    }
    if event.get("side") is not None:
        message["side"] = event["side"]
    return message


def _post(
    env: CloudEnvironment, event: Dict, message: Dict, integrity: IntegrityConfig
) -> Dict:
    """Sign ``message`` (when digests are generated) and queue it."""
    if integrity.generate:
        sign_message(message)
    env.sqs.send_json(event["result_queue"], message)
    return message


def _guarded(env: CloudEnvironment, run):
    """Wrap a wave handler so failures surface as error result messages.

    Any exception (throttle, visibility lag, execution bug) becomes an
    attempt-tagged error message on the result queue for the wave retry loop
    to act on — except :class:`~repro.errors.WorkerCrashError`, which models
    the instance dying: it propagates so *no* message is posted and the
    driver sees a silently-lost worker.
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        try:
            return run(event, context)
        except WorkerCrashError:
            raise
        except Exception as exc:  # noqa: BLE001 - every failure must surface
            message = _reply(
                event,
                event.get("worker_id", event.get("partition", -1)),
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )
            integrity = IntegrityConfig.from_dict(event.get("integrity"))
            return _post(env, event, message, integrity)

    return handler


def _charge(
    context: InvocationContext, base_seconds: float, stats: ExchangeStats
) -> float:
    """Charge a worker's modelled duration and return it.

    ``base_seconds`` (scan or merge time) plus one round-trip per exchange
    request the worker issued: requests go out sequentially, as in
    Algorithm 1 — this is where write combining buys its latency.
    """
    seconds = (
        base_seconds + stats.total_requests * S3_REQUEST_LATENCY_SECONDS
    ) * getattr(context, "straggler_factor", 1.0)
    context.charge(seconds)
    return seconds


def _write_exchange(
    env: CloudEnvironment,
    event: Dict,
    sender: int,
    tag: str,
    rows: Table,
    keys: List[str],
    num_partitions: int,
    stats: ExchangeStats,
    integrity: IntegrityConfig,
) -> Dict:
    """Hash-partition ``rows`` by ``keys`` into the exchange.

    Returns the fields that announce the write in the sender's result
    message.  With write combining (the default) every partition is
    serialised into **one** object whose key carries the per-receiver offsets
    and slice crcs; announcing its path through the driver's barrier lets the
    reading wave skip discovery entirely, and an orphaned duplicate from a
    crashed earlier attempt is never read.  The legacy plane writes one
    object per non-empty receiver.  Rows are partitioned once into
    contiguous slices; both formats serialise straight from the scattered
    columns without re-gathering rows.
    """
    query_id = event["query_id"]
    attempt = int(event.get("attempt", 0))
    num_buckets = int(event.get("num_buckets", 10))
    compression = Compression(event.get("compression", Compression.FAST.value))
    assignment = partition_assignments(rows, keys, num_partitions)
    reordered, boundaries = scatter_by_assignment(rows, assignment, num_partitions)
    if event.get("write_combining", True):
        payload, offsets = encode_partition_set(
            reordered, boundaries, compression, checksum=integrity.generate
        )
        crcs = _slice_crcs(payload, offsets) if integrity.generate else None
        naming = _combined_naming(query_id, num_buckets, attempt, tag)
        try:
            path = naming.combined_path(sender, offsets, crcs)
        except ExchangeError:
            # The offset directory of a very wide fleet overflows the S3
            # key limit; fall back to per-receiver objects for this sender —
            # the reading wave handles mixed formats.
            pass
        else:
            env.s3.put_path(path, payload)
            stats.put_requests += 1
            stats.combined_put_requests += 1
            stats.bytes_written += len(payload)
            return {
                "format": "combined",
                "partitions_written": 1,
                "combined_path": path,
                "combined_size": len(payload),
            }
    naming = _legacy_naming(query_id, num_buckets, attempt, tag)
    written = 0
    for receiver in range(num_partitions):
        data = serialize_partition(
            slice_partition(reordered, boundaries, receiver),
            compression,
            fast=bool(event.get("fast_codec", True)),
            checksum=integrity.generate,
        )
        if not data:
            # Empty partition: skip the PUT entirely (the reading wave
            # treats the missing object as an elided empty).
            stats.empty_parts_elided += 1
            continue
        env.s3.put_path(naming.path(sender, receiver), data)
        stats.put_requests += 1
        stats.bytes_written += len(data)
        written += 1
    return {"format": "objects", "partitions_written": written}


def _map_output(
    env: CloudEnvironment,
    event: Dict,
    context: InvocationContext,
    scan: S3ScanOperator,
    rows: Table,
    keys: List[str],
    **counters,
) -> Dict:
    """Ship a mapper's rows into the exchange and report to the driver."""
    integrity = IntegrityConfig.from_dict(event.get("integrity"))
    stats = ExchangeStats()
    announce = _write_exchange(
        env, event, event["worker_id"], event.get("side") or "", rows, keys,
        event["num_partitions"], stats, integrity,
    )
    result = WorkerResult(
        partial={},
        rows_scanned=scan.counters.rows_scanned,
        get_requests=scan.statistics.get_requests,
        bytes_read=scan.statistics.bytes_read,
        duration_seconds=_charge(context, scan.modelled_seconds(), stats),
        exchange_stats=stats.to_dict(),
        **counters,
    )
    message = _reply(
        event,
        event["worker_id"],
        rows_scanned=scan.counters.rows_scanned,
        worker_result=result.to_payload(),
        **announce,
    )
    return _post(env, event, message, integrity)


def _make_map_handler(env: CloudEnvironment):
    """Handler of the map-wave function."""

    def handler(event: Dict, context: InvocationContext) -> Dict:
        group_by = list(event["group_by"])
        partials_specs = [AggregateSpec.from_dict(item) for item in event["aggregates"]]
        predicate = expression_from_dict(event.get("predicate"))
        prune_ranges = [PruneRange.from_dict(item) for item in event.get("prune_ranges", [])]

        # The predicate is pushed into the scan (selection vectors on encoded
        # chunks) and the fused kernel folds surviving rows straight into the
        # partial aggregates — same single-pass pipeline as scan workers.
        scan = S3ScanOperator(
            env.s3,
            files=event["files"],
            columns=event.get("columns") or None,
            prune_ranges=prune_ranges,
            config=ScanConfig(memory_mib=context.memory_mib),
            bandwidth=env.bandwidth,
            predicate=predicate,
        )
        partials: List[Table] = []
        for batch in scan.scan_fused(group_by):
            partials.append(partial_aggregate_fused(batch, group_by, partials_specs))
        merged = merge_partials(partials, group_by, partials_specs)
        return _map_output(env, event, context, scan, merged, group_by)

    return _guarded(env, handler)


def _discover_legacy(
    env: CloudEnvironment,
    naming: MultiBucketNaming,
    object_senders: Sequence[int],
    partition: int,
    stats: ExchangeStats,
) -> Dict[int, ObjectMetadata]:
    """Find the legacy per-receiver objects addressed to ``partition``.

    One LIST covers the receiver's bucket.  The map-wave barrier (the driver
    collects every mapper's result before invoking the reduce wave)
    guarantees all objects are already visible, so a key absent from the
    LIST is definitively an empty partition the sender elided — no HEAD
    probe is spent confirming it.  (The barrier-free generic exchange keeps
    its HEAD-for-stragglers path in ``BasicGroupExchange``.)
    """
    found: Dict[int, ObjectMetadata] = {}
    if not object_senders:
        return found
    bucket = naming.bucket_for(partition)
    stats.list_requests += 1
    try:
        listed = {meta.key: meta for meta in env.s3.list_objects(bucket, naming.prefix)}
    except NoSuchBucketError:
        listed = {}
    for sender in object_senders:
        _, key = parse_s3_path(naming.path(sender, partition))
        meta = listed.get(key)
        if meta is None:
            stats.empty_parts_elided += 1
            continue
        found[sender] = meta
    return found


def _verified_read(read, integrity: Optional[IntegrityStats]):
    """Run ``read`` with one verification-failure retry.

    ``read`` issues the GET and raises
    :class:`~repro.errors.CorruptFileError` (usually its
    :class:`~repro.errors.IntegrityError` subclass) when any check fails.
    Injected corruption is applied in flight — the object at rest is clean —
    so a re-issued GET returns intact bytes; the cure is counted into
    ``integrity.re_reads``.  A second failure means the stored bytes
    themselves are bad: the error propagates with full provenance and the
    wave retry re-executes the producing attempt.
    """
    try:
        return read()
    except CorruptFileError as exc:
        if integrity is not None:
            integrity.note_mismatch(getattr(exc, "layer", None) or "slice.decode")
        try:
            value = read()
        except CorruptFileError as again:
            if integrity is not None:
                integrity.note_mismatch(
                    getattr(again, "layer", None) or "slice.decode"
                )
            raise
        if integrity is not None:
            integrity.re_reads += 1
        return value


def _sender_manifest(messages: List[Dict], side: Optional[str] = None) -> Dict:
    """Where one wave's senders (those keyed ``side``) wrote their partitions.

    Combined objects are listed with the offset-bearing paths their writers
    announced (the reading wave needs no discovery requests for them, and an
    orphaned earlier-attempt duplicate is never read); legacy senders as
    ``(sender, attempt)`` pairs, since retried writers wrote under
    attempt-suffixed prefixes.  ``"empty"`` senders (an emit stage that
    joined zero rows) wrote nothing and appear in neither list.
    """
    tagged = [m for m in messages if m.get("side") == side]
    return {
        "combined": sorted(
            [m["worker_id"], m["combined_path"], m["combined_size"]]
            for m in tagged
            if m.get("format") == "combined"
        ),
        "object_senders": sorted(
            [m["worker_id"], int(m.get("attempt", 0))]
            for m in tagged
            if m.get("format") == "objects"
        ),
    }


def _collect_partition_pieces(
    env: CloudEnvironment,
    event: Dict,
    manifest: Dict,
    tag: str,
    stats: ExchangeStats,
    istats: IntegrityStats,
) -> tuple:
    """Read every sender's slice addressed to ``event``'s partition.

    ``manifest`` is the driver-built :func:`_sender_manifest` of the wave
    that wrote under exchange ``tag``.  Combined slices need no discovery
    requests (the offsets ride in the announced keys), and only announced
    keys are touched; legacy per-receiver objects are located with one LIST
    per attempt prefix.  Returns ``(pieces, objects_read)`` with empty
    pieces dropped, in global sender order regardless of format — the reduce
    output is bit-identical however each sender shipped its partitions.

    With verification on, every read is checked before its rows are used:
    ranged-GET lengths against the offset directory, slice bytes against the
    per-slice crcs riding in the key, and the frame's embedded checksums on
    decode.  A failed check triggers one re-issued GET (in-flight corruption
    is cured by a clean second read, counted as ``istats.re_reads``); if
    the second read also fails, the :class:`~repro.errors.IntegrityError`
    propagates with full provenance and the driver's wave retry re-executes
    the consuming attempt.
    """
    query_id = event["query_id"]
    partition = event["partition"]
    num_partitions = event["num_partitions"]
    num_buckets = int(event.get("num_buckets", 10))
    verify = IntegrityConfig.from_dict(event.get("integrity")).verify
    sliced: Dict[int, tuple] = {}
    for sender, path, size in manifest.get("combined", []):
        sliced[int(sender)] = (path, int(size))

    legacy_by_attempt: Dict[int, List[int]] = {}
    for sender, attempt in manifest.get("object_senders", []):
        legacy_by_attempt.setdefault(int(attempt), []).append(int(sender))
    legacy: Dict[int, ObjectMetadata] = {}
    for attempt in sorted(legacy_by_attempt):
        legacy.update(
            _discover_legacy(
                env,
                _legacy_naming(query_id, num_buckets, attempt, tag),
                legacy_by_attempt[attempt],
                partition,
                stats,
            )
        )

    pieces: List[Table] = []
    objects_read = 0
    for sender in sorted(set(sliced) | set(legacy)):
        if sender in sliced:
            path, size = sliced[sender]
            _, key = parse_s3_path(path)
            _, offsets, crcs = WriteCombiningNaming.parse_directory(key)
            if len(offsets) != num_partitions + 1:
                raise ExchangeError(
                    f"combined object {path!r} has {len(offsets) - 1} "
                    f"parts, expected {num_partitions}"
                )
            start, end = offsets[partition], offsets[partition + 1]
            if end <= start:
                # Empty slice: zero bytes in the object, no GET at all.
                stats.empty_parts_elided += 1
                continue
            expected_crc = crcs[partition] if crcs is not None else None

            def read_slice(path=path, start=start, end=end,
                           size=size, expected_crc=expected_crc):
                result = env.s3.get_path(path, start, end)
                stats.get_requests += 1
                stats.ranged_get_requests += 1
                stats.bytes_read += len(result.data)
                stats.bytes_touched += int(size)
                if verify and len(result.data) != end - start:
                    raise IntegrityError(
                        "ranged GET returned wrong slice length",
                        key=path, layer="slice.length", offset=start,
                        expected=end - start, actual=len(result.data),
                    )
                if verify and expected_crc is not None:
                    actual = zlib.crc32(result.data)
                    if actual != expected_crc:
                        raise IntegrityError(
                            f"slice of partition {partition} failed its "
                            "directory crc",
                            key=path, layer="slice.crc", offset=start,
                            expected=expected_crc, actual=actual,
                        )
                piece = decode_partition_slice(
                    result.data, verify=verify, key=path
                )
                return piece, len(result.data)

            piece, nbytes = _verified_read(read_slice, istats)
            objects_read += 1
        else:
            meta = legacy[sender]

            def read_object(meta=meta):
                result = env.s3.get_path(meta.path)
                stats.get_requests += 1
                stats.bytes_read += len(result.data)
                stats.bytes_touched += meta.size
                piece = deserialize_partition(
                    result.data, verify=verify, key=meta.path
                )
                return piece, len(result.data)

            piece, nbytes = _verified_read(read_object, istats)
            objects_read += 1
        if verify:
            istats.verified_bytes += nbytes
        if table_num_rows(piece):
            pieces.append(piece)
    return pieces, objects_read


def _reduce_result(
    context: InvocationContext,
    output: Table,
    objects_read: int,
    stats: ExchangeStats,
    istats: IntegrityStats,
    **counters,
) -> WorkerResult:
    """Charge a reading worker's modelled duration and describe its work."""
    return WorkerResult(
        partial={},
        rows_output=table_num_rows(output),
        duration_seconds=_charge(context, 0.1 + 0.001 * objects_read, stats),
        exchange_stats=stats.to_dict(),
        integrity_stats=istats.to_dict(),
        **counters,
    )


def _send_result(
    env: CloudEnvironment,
    event: Dict,
    message: Dict,
    output: Table,
    spill_name: str,
    integrity: IntegrityConfig,
) -> Dict:
    """Return ``output`` to the driver, spilling it to S3 when too large.

    A spilled message is stored whole under an attempt-suffixed key (a
    retried reducer never overwrites an earlier attempt's spill mid-read)
    and announced by a signed pointer carrying everything but the rows.
    """
    message["result"] = encode_table(output, checksum=integrity.generate)
    if integrity.generate:
        sign_message(message)
    encoded = json.dumps(message).encode("utf-8")
    if len(encoded) <= RESULT_SPILL_BYTES:
        # Reuse the bytes already serialised for the spill-size check.
        env.sqs.send_message(event["result_queue"], encoded.decode("utf-8"))
        return message
    env.s3.ensure_bucket(RESULT_BUCKET)
    key = (
        f"{message['query_id']}/{spill_name}-{message['worker_id']}"
        f".a{message['attempt']}.json"
    )
    env.s3.put_object(RESULT_BUCKET, key, encoded)
    pointer = {
        name: value
        for name, value in message.items()
        if name not in ("result", MESSAGE_DIGEST_KEY)
    }
    pointer["result_s3"] = f"s3://{RESULT_BUCKET}/{key}"
    _post(env, event, pointer, integrity)
    return message


def _make_reduce_handler(env: CloudEnvironment):
    """Handler of the reduce-wave function."""

    def handler(event: Dict, context: InvocationContext) -> Dict:
        group_by = list(event["group_by"])
        partials_specs = [AggregateSpec.from_dict(item) for item in event["aggregates"]]
        integrity = IntegrityConfig.from_dict(event.get("integrity"))
        istats = IntegrityStats()

        stats = ExchangeStats()
        pieces, objects_read = _collect_partition_pieces(
            env, event, event, "", stats, istats
        )
        # Single merge pass: the zero-copy slice views are folded (and thereby
        # materialised into fresh group buffers) exactly once.
        merged = merge_partials(pieces, group_by, partials_specs)
        result = _reduce_result(context, merged, objects_read, stats, istats)
        message = _reply(
            event,
            event["partition"],
            objects_read=objects_read,
            worker_result=result.to_payload(),
        )
        return _send_result(env, event, message, merged, "reduce", integrity)

    return _guarded(env, handler)


class _ResilientWaves:
    """Shared machinery of the shuffle coordinators.

    Deploys the subclass's two wave functions (``FUNCTIONS``: name and
    handler factory of each) next to its result queue, runs each query's
    waves under one prologue and epilogue (:meth:`_run_query`), retries
    waves (:meth:`_wave`), and folds the workers' results (:meth:`_fold`).

    The overload-control context is armed per query: the driver passes its
    cancellation token, breaker board, retry budget, and modelled
    now-function, and every wave threads them into the shared wave loop
    (:func:`~repro.driver.messages.run_wave`).
    """

    RESULT_QUEUE: str
    FUNCTIONS: tuple

    #: Per-query overload context; ``None`` outside a query.
    _cancel = None
    _breakers = None
    _budget = None
    _now_fn = None

    def __init__(
        self,
        env: CloudEnvironment,
        memory_mib: int = 2048,
        num_buckets: int = 10,
        result_queue: Optional[str] = None,
        config: Optional[ShuffleConfig] = None,
        resilience_policy: Optional[ResiliencePolicy] = None,
    ):
        self.env = env
        self.memory_mib = memory_mib
        self.num_buckets = num_buckets
        self.result_queue = result_queue or self.RESULT_QUEUE
        self.config = config or ShuffleConfig()
        self.resilience_policy = resilience_policy or DEFAULT_RESILIENCE_POLICY
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        env.sqs.create_queue(self.result_queue)
        # The handlers are stateless (per-query naming is derived from the
        # event), so coordinators sharing an environment can interleave.
        for name, make_handler in self.FUNCTIONS:
            env.lambda_service.deploy(
                FunctionConfig(name=name, memory_mib=memory_mib), make_handler(env)
            )

    def _run_query(self, body, cancel=None, breakers=None, budget=None, now_fn=None):
        """Run ``body(query_id)`` — one query's waves — and return its outcome.

        ``body`` returns a tuple whose second item is the query's statistics.
        Before it runs, every exchange bucket exists, the jitter stream is
        reseeded (backoff schedules must not depend on how many queries this
        coordinator ran before: order-independent chaos) and the overload
        context is armed.  A cancellation raised mid-wave garbage-collects
        every exchange object the query wrote and purges its result-queue
        messages before propagating; a completed query ends with a sweep of
        its exchange prefix, so superseded attempts leave no orphans.
        """
        query_id = uuid.uuid4().hex[:12]
        for bucket in _exchange_buckets(self.num_buckets):
            self.env.s3.ensure_bucket(bucket)
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        self._cancel, self._breakers = cancel, breakers
        self._budget, self._now_fn = budget, now_fn
        if cancel is not None and now_fn is not None:
            cancel.bind(now_fn, query_id=query_id)
        snapshot = fault_snapshot(self.env)
        try:
            outcome = body(query_id)
        except QueryCancelledError:
            _gc_cancelled_query(self.env, query_id, self.num_buckets, self.result_queue)
            raise
        finally:
            self._cancel = self._breakers = self._budget = self._now_fn = None
        statistics = outcome[1]
        statistics.gc_objects_deleted += _sweep_exchange(
            self.env, query_id, self.num_buckets
        )
        statistics.resilience.faults_injected = fault_delta(self.env, snapshot)
        return outcome

    def _event(self, query_id: str, num_partitions: int, **fields) -> Dict:
        """An invocation payload carrying the query's exchange settings."""
        return {
            "query_id": query_id,
            "attempt": 0,
            "num_partitions": num_partitions,
            "result_queue": self.result_queue,
            "write_combining": self.config.write_combining,
            "fast_codec": self.config.fast_codec,
            "compression": self.config.compression.value,
            "num_buckets": self.num_buckets,
            "integrity": self.config.integrity.to_dict(),
            **fields,
        }

    def _wave(
        self,
        function_name: str,
        events: Dict,
        query_id: str,
        what: str,
        resilience: ResilienceStats,
        on_retry=None,
        integrity: Optional[IntegrityStats] = None,
    ) -> List[Dict]:
        """Run one wave with retries; messages in wave-key order."""
        by_key = _run_wave(
            self.env,
            function_name,
            events,
            self.result_queue,
            query_id,
            what,
            self.resilience_policy,
            self._jitter_rng,
            resilience,
            rounds=self.resilience_policy.max_attempts,
            budget_key="wave_retries",
            stage=what,
            on_retry=on_retry,
            verify=self.config.integrity.verify,
            integrity=integrity,
            cancel=self._cancel,
            breakers=self._breakers,
            budget=self._budget,
            now_fn=self._now_fn,
        )
        return [by_key[key] for key in sorted(by_key)]

    def _degrade_map_retry(self, resilience: ResilienceStats):
        """Retry hook flipping a repeatedly-failing mapper to the legacy plane.

        A mapper whose combined write keeps failing (e.g. throttles or
        crash-after-PUT aimed at its one big object) degrades to the legacy
        one-object-per-receiver format from
        ``policy.combined_fallback_attempt`` on — the reduce wave handles
        mixed formats within one query, so correctness is unaffected.
        """

        def on_retry(key, retry: Dict) -> None:
            if not retry.get("write_combining"):
                return
            threshold = self.resilience_policy.combined_fallback_attempt
            if self._breakers is not None and "s3" in self._breakers.open_services():
                # Brownout response: with the S3 breaker open the combined
                # write plane (one big PUT per mapper) is the most exposed,
                # so degrade to the legacy format on the first retry already.
                threshold = 1
            if retry["attempt"] >= threshold:
                retry["write_combining"] = False
                resilience.note_fallback("combined_to_legacy")

        return on_retry

    def _fold(
        self,
        waves: List[List[Dict]],
        resilience: ResilienceStats,
        integrity_stats: IntegrityStats,
        label: str,
    ):
        """Fold the waves' worker results; decode the last wave's tables.

        Returns ``(exchange, worker_results, wave_seconds, tables)``: the
        summed exchange counters (integrity counters fold into
        ``integrity_stats``), every worker's :class:`WorkerResult` in wave
        order, the slowest worker's modelled duration per wave, and the last
        wave's result tables — spilled ones fetched through
        :func:`~repro.driver.messages.fetch_spilled`.
        """
        exchange = ExchangeStats()
        worker_results: List[WorkerResult] = []
        wave_seconds: List[float] = []
        for messages in waves:
            slowest = 0.0
            for message in messages:
                payload = message.get("worker_result")
                if not payload:
                    continue
                parsed = WorkerResult.from_payload(payload)
                worker_results.append(parsed)
                exchange.merge(ExchangeStats.from_dict(parsed.exchange_stats))
                integrity_stats.merge(IntegrityStats.from_dict(parsed.integrity_stats))
                slowest = max(slowest, parsed.duration_seconds)
            wave_seconds.append(slowest)
        verify = self.config.integrity.verify
        tables: List[Table] = []
        for message in waves[-1]:
            if "result_s3" in message:
                message = fetch_spilled(
                    self.env.s3, message["result_s3"], verify, integrity_stats,
                    policy=self.resilience_policy, rng=self._jitter_rng,
                    stats=resilience,
                )
            tables.append(
                decode_table(
                    message["result"],
                    verify=verify,
                    key=f"{label}-{message.get('worker_id')}",
                )
            )
        return exchange, worker_results, wave_seconds, tables


class ShuffleAggregateCoordinator(_ResilientWaves):
    """Coordinates two-wave (map + reduce) aggregation over serverless workers."""

    RESULT_QUEUE = SHUFFLE_RESULT_QUEUE
    FUNCTIONS = (
        (MAP_FUNCTION_NAME, _make_map_handler),
        (REDUCE_FUNCTION_NAME, _make_reduce_handler),
    )

    # -- execution ------------------------------------------------------------------

    def _map_mode(self, worker_id: int) -> bool:
        """Whether mapper ``worker_id`` write-combines its partitions.

        The default applies the coordinator's configuration uniformly;
        subclasses (and the mixed-format parity tests) may vary it per
        mapper — the reduce wave handles both formats within one query.
        """
        return self.config.write_combining

    def execute(
        self,
        paths: Sequence[str],
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        predicate=None,
        columns: Optional[Sequence[str]] = None,
        num_workers: Optional[int] = None,
        order_by: Optional[Sequence[str]] = None,
        cancel=None,
        breakers=None,
        budget=None,
        now_fn=None,
    ):
        """Run a repartitioned group-by aggregation and return (table, statistics).

        ``cancel``/``breakers``/``budget``/``now_fn`` arm the overload plane
        for this query; see :meth:`_ResilientWaves._run_query` for the
        cancellation GC and the end-of-query sweep.
        """
        paths = expand_paths(self.env.s3, paths)
        if not paths:
            raise ExecutionError("shuffle aggregation has no input files")
        if not group_by:
            raise ExecutionError("shuffle aggregation requires group-by keys")
        num_workers = num_workers or len(paths)
        num_workers = min(num_workers, len(paths))

        partials, finals = _decompose_aggregates(list(aggregates))
        return self._run_query(
            lambda query_id: self._execute_waves(
                paths, group_by, partials, finals, predicate, columns,
                num_workers, order_by, query_id,
            ),
            cancel, breakers, budget, now_fn,
        )

    def _execute_waves(
        self,
        paths: Sequence[str],
        group_by: Sequence[str],
        partials,
        finals,
        predicate,
        columns: Optional[Sequence[str]],
        num_workers: int,
        order_by: Optional[Sequence[str]],
        query_id: str,
    ):
        """The wave body of :meth:`execute`."""
        resilience = ResilienceStats()
        integrity_stats = IntegrityStats()

        # -- map wave -------------------------------------------------------------
        assignments = [paths[i::num_workers] for i in range(num_workers)]
        assignments = [files for files in assignments if files]
        map_events = {}
        for worker_id, files in enumerate(assignments):
            map_events[worker_id] = self._event(
                query_id,
                len(assignments),
                worker_id=worker_id,
                files=files,
                columns=list(columns) if columns else None,
                predicate=expression_to_dict(predicate),
                prune_ranges=[],
                group_by=list(group_by),
                aggregates=[spec.to_dict() for spec in partials],
                write_combining=self._map_mode(worker_id),
            )
        map_messages = self._wave(
            MAP_FUNCTION_NAME, map_events, query_id, "shuffle map", resilience,
            on_retry=self._degrade_map_retry(resilience),
            integrity=integrity_stats,
        )
        rows_scanned = sum(message.get("rows_scanned", 0) for message in map_messages)
        objects_written = sum(message.get("partitions_written", 0) for message in map_messages)
        manifest = _sender_manifest(map_messages)

        # -- reduce wave ------------------------------------------------------------
        reduce_events = {}
        for partition in range(len(assignments)):
            reduce_events[partition] = self._event(
                query_id,
                len(assignments),
                partition=partition,
                group_by=list(group_by),
                aggregates=[spec.to_dict() for spec in partials],
                **manifest,
            )
        reduce_messages = self._wave(
            REDUCE_FUNCTION_NAME, reduce_events, query_id, "shuffle reduce",
            resilience, integrity=integrity_stats,
        )
        objects_read = sum(message.get("objects_read", 0) for message in reduce_messages)

        exchange, _, wave_seconds, pieces = self._fold(
            [map_messages, reduce_messages], resilience, integrity_stats, "reduce"
        )
        merged = concat_tables([piece for piece in pieces if table_num_rows(piece)])
        result = finalize_aggregates(merged, list(group_by), list(finals))
        if order_by:
            result = sort_table(result, list(order_by))

        statistics = ShuffleStatistics(
            map_workers=len(assignments),
            reduce_workers=len(assignments),
            rows_scanned=rows_scanned,
            partition_objects_written=objects_written,
            partition_objects_read=objects_read,
            result_rows=table_num_rows(result),
            exchange=exchange,
            modelled_map_seconds=wave_seconds[0],
            modelled_reduce_seconds=wave_seconds[1],
            resilience=resilience,
            integrity=integrity_stats,
        )
        return result, statistics


# ---------------------------------------------------------------------------
# Distributed shuffle join
# ---------------------------------------------------------------------------

JOIN_RESULT_QUEUE = "lambada-join-results"

#: Side tags of the join exchange; each side writes under its own prefix of
#: the shuffle buckets so the two repartition streams never collide.
JOIN_SIDES = ("L", "R")


def _make_join_map_handler(env: CloudEnvironment):
    """Handler of the join map-wave function.

    One side's mapper scans its files with the side's pushed-down predicate
    and projection, hash-partitions the surviving rows by the join key, and
    ships the partitions through the write-combined exchange (one combined
    PUT per mapper; the legacy one-object-per-receiver plane survives behind
    ``write_combining=False``).
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        side_plan = JoinSidePlan.from_dict(event)
        scan = S3ScanOperator(
            env.s3,
            files=side_plan.files,
            columns=side_plan.columns or None,
            prune_ranges=side_plan.prune_ranges,
            config=ScanConfig(memory_mib=context.memory_mib),
            bandwidth=env.bandwidth,
            predicate=side_plan.predicate,
        )
        # The pushed-down predicate rides inside the scan operator, so chunks
        # arrive already filtered through the late-materialization path.
        rows = concat_tables(list(scan.scan()))
        return _map_output(
            env, event, context, scan, rows, [side_plan.key],
            rows_after_filter=table_num_rows(rows),
        )

    return _guarded(env, handler)


def _make_join_reduce_handler(env: CloudEnvironment):
    """Handler of the join-wave function.

    Each join worker owns one hash partition of the key space: it reads its
    slice of every mapper's output on both sides (write-combined objects are
    announced with their offset-bearing keys through the driver barrier, so
    non-empty slices cost one ranged GET each and nothing else), probes the
    build (right) side with the vectorized join kernel, applies the residual
    two-sided predicate, computes the partial aggregates placed above the
    join, and returns the partials (or the joined rows for aggregate-free
    queries) to the driver.

    A middle DAG stage (an event with ``emit``) returns no rows to the
    driver: it prunes the joined rows to the columns later stages still
    need, scatters them by the *next* stage's probe key under the
    intermediate tag (``J{k}``), and announces what it wrote through the
    result queue — so the next join wave reads its slices with zero
    discovery requests, exactly like a scan-side mapper with the join output
    as its "scan".  Zero joined rows cost zero PUTs (format ``"empty"``).
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        partition = event["partition"]
        group_by = list(event["group_by"])
        partials_specs = [AggregateSpec.from_dict(item) for item in event["aggregates"]]
        residual = expression_from_dict(event.get("residual_predicate"))
        collect_rows = bool(event.get("collect_rows", False))
        suffix = event.get("suffix", "_right")
        integrity = IntegrityConfig.from_dict(event.get("integrity"))
        istats = IntegrityStats()

        stats = ExchangeStats()
        side_tables: Dict[str, Table] = {}
        objects_read = 0
        for side in JOIN_SIDES:
            spec = event["sides"][side]
            # DAG stages address each input by its exchange tag: the probe
            # side of stage k>0 is the previous stage's intermediate
            # ("J{k-1}"), the build side a scan fleet ("R{k}").  Binary
            # joins omit the tag and keep the historical "L"/"R" prefixes.
            pieces, side_objects = _collect_partition_pieces(
                env, event, spec, spec.get("tag", side), stats, istats
            )
            objects_read += side_objects
            side_tables[side] = concat_tables(pieces) if pieces else {}

        left, right = side_tables["L"], side_tables["R"]
        left_key = event["sides"]["L"]["key"]
        right_key = event["sides"]["R"]["key"]
        probe_rows = table_num_rows(left)
        build_rows = table_num_rows(right)
        if probe_rows and build_rows:
            joined = hash_join(left, right, left_key, right_key, suffix=suffix)
            if (
                bool(event.get("restore_right_key", False))
                and table_num_rows(joined)
                and right_key not in joined
            ):
                # hash_join drops the build side's key column (it equals the
                # probe key on every joined row); a later stage or residual
                # that references it gets the column materialized back here.
                joined = dict(joined)
                joined[right_key] = joined[left_key]
            if residual is not None and table_num_rows(joined):
                joined = filter_table(
                    joined, np.asarray(evaluate(residual, joined), dtype=bool)
                )
        else:
            # One side is empty: an inner join produces nothing; the partial
            # aggregate below still emits the right (empty) columns.
            joined = {}
        output_rows = table_num_rows(joined)

        emit = event.get("emit")
        announce: Dict = {}
        if emit is not None:
            output = joined
            if emit.get("columns") and output_rows:
                output = select_columns(joined, list(emit["columns"]))
            announce = {"format": "empty", "partitions_written": 0}
            if table_num_rows(output):
                announce = _write_exchange(
                    env, event, partition, emit["tag"], output, [emit["key"]],
                    int(emit.get("num_partitions", event["num_partitions"])),
                    stats, integrity,
                )
        elif collect_rows:
            output = joined
        else:
            output = partial_aggregate(joined, group_by, partials_specs)
        result = _reduce_result(
            context, output, objects_read, stats, istats,
            join_probe_rows=probe_rows,
            join_build_rows=build_rows,
            join_output_rows=output_rows,
        )
        message = _reply(
            event,
            partition,
            objects_read=objects_read,
            worker_result=result.to_payload(),
            **announce,
        )
        if emit is not None:
            return _post(env, event, message, integrity)
        return _send_result(env, event, message, output, "join", integrity)

    return _guarded(env, handler)


@dataclass
class JoinStatistics:
    """Statistics of one distributed join execution."""

    left_map_workers: int
    right_map_workers: int
    reduce_workers: int
    rows_scanned: int
    #: Rows entering the join kernels across the fleet (after repartition).
    join_probe_rows: int
    join_build_rows: int
    #: Rows produced by the join kernels (before the residual predicate).
    join_output_rows: int
    result_rows: int
    #: Partition objects written / non-empty slices read, both sides summed.
    partition_objects_written: int
    partition_objects_read: int
    #: Request and byte counters of all three waves.
    exchange: ExchangeStats = field(default_factory=ExchangeStats)
    modelled_map_seconds: float = 0.0
    modelled_reduce_seconds: float = 0.0
    #: Retries, wave re-runs, fallbacks, and injected-fault counts survived.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: Checksum verification and corruption-recovery counters.
    integrity: IntegrityStats = field(default_factory=IntegrityStats)
    #: Number of join waves the DAG scheduler ran (1 for a binary join).
    dag_stages: int = 1
    #: Intermediate/exchange objects garbage-collected during and after the
    #: query (per-stage intermediate GC plus the end-of-query sweep).
    gc_objects_deleted: int = 0

    @property
    def modelled_latency_seconds(self) -> float:
        """Modelled end-to-end join latency (map and join waves are
        barriered), including any backoff the retry machinery charged."""
        return (
            self.modelled_map_seconds
            + self.modelled_reduce_seconds
            + self.resilience.backoff_seconds
        )

    @property
    def num_workers(self) -> int:
        """Total serverless workers across all waves."""
        return self.left_map_workers + self.right_map_workers + self.reduce_workers


class ShuffleJoinCoordinator(_ResilientWaves):
    """Schedules a join DAG as a scan wave + successive shuffle-join waves.

    Accepts any shuffle physical plan (:class:`JoinPhysicalPlan` is
    normalised through ``as_dag()`` into a one-stage
    :class:`~repro.plan.physical.DagPhysicalPlan`):

    1. **scan wave** — every relation's fleet in one wave: scan, per-side
       pushed-down filter, projection, repartition by that relation's join
       key through the write-combined exchange (one combined PUT per
       mapper, offsets in the key);
    2. **join waves** (one per DAG stage) — one worker per hash partition
       reads its slice of every announced sender object (the combined
       paths ride through the driver barrier, so discovery costs zero
       requests), probes with :func:`~repro.engine.join.hash_join`,
       restores the build key when a later stage needs it, applies the
       stage residual, then either *emits* — reprojects to the columns
       later stages need and scatters by the next stage's probe key under
       the intermediate tag ``J{k}`` — or, on the final stage, computes
       the partial aggregates placed above the join;
    3. **driver scope** — merge the disjoint partials, finalise derived
       aggregates, order, and limit.

    Consumed intermediates are garbage-collected as soon as the wave that
    read them completes, and the query ends with a sweep of its whole
    exchange prefix, so retried attempts leave no orphaned objects.
    """

    RESULT_QUEUE = JOIN_RESULT_QUEUE
    FUNCTIONS = (
        (JOIN_MAP_FUNCTION_NAME, _make_join_map_handler),
        (JOIN_REDUCE_FUNCTION_NAME, _make_join_reduce_handler),
    )

    # -- execution ------------------------------------------------------------------

    def _map_mode(self, side: str, worker_id: int) -> bool:
        """Whether mapper ``worker_id`` of ``side`` write-combines (see
        :meth:`ShuffleAggregateCoordinator._map_mode`)."""
        return self.config.write_combining

    def execute(
        self,
        physical,
        num_workers: Optional[int] = None,
        cancel=None,
        breakers=None,
        budget=None,
        now_fn=None,
    ):
        """Run the join plan; returns ``(table, statistics, worker_results)``.

        ``physical`` is a :class:`JoinPhysicalPlan` or
        :class:`DagPhysicalPlan`; binary plans are normalised through
        ``as_dag()`` and run as a one-stage DAG with the historical
        ``"L"``/``"R"`` exchange tags.

        ``cancel``/``breakers``/``budget``/``now_fn`` arm the overload plane
        for this query; see :meth:`_ResilientWaves._run_query` for the
        cancellation GC (every tag's objects live under the query prefix)
        and the end-of-query sweep.
        """
        dag = physical.as_dag()
        fleets: Dict[str, JoinSidePlan] = {"L": dag.base}
        build_tags: List[str] = []
        for index, stage in enumerate(dag.stages):
            tag = "R" if index == 0 else f"R{index}"
            build_tags.append(tag)
            fleets[tag] = stage.right
        inter_tags = [f"J{k}" for k in range(len(dag.stages) - 1)]

        paths: Dict[str, List[str]] = {}
        for tag, plan in fleets.items():
            expanded = expand_paths(self.env.s3, plan.files)
            if not expanded:
                label = "left" if tag == "L" else "right"
                raise ExecutionError(f"join {label} side has no input files")
            paths[tag] = expanded

        mappers = {
            tag: min(num_workers or len(paths[tag]), len(paths[tag]))
            for tag in fleets
        }
        num_partitions = num_workers or max(mappers.values())
        return self._run_query(
            lambda query_id: self._execute_waves(
                dag, fleets, build_tags, inter_tags, paths, mappers,
                num_partitions, query_id,
            ),
            cancel, breakers, budget, now_fn,
        )

    def _execute_waves(
        self,
        dag: DagPhysicalPlan,
        fleets: Dict[str, JoinSidePlan],
        build_tags: List[str],
        inter_tags: List[str],
        paths: Dict[str, List[str]],
        mappers: Dict[str, int],
        num_partitions: int,
        query_id: str,
    ):
        """The wave body of :meth:`execute`."""
        resilience = ResilienceStats()
        integrity_stats = IntegrityStats()
        num_stages = len(dag.stages)

        # -- scan wave (every relation's fleet dispatched together) ----------------
        assignments: Dict[str, List[List[str]]] = {}
        map_events: Dict = {}
        for tag, plan in fleets.items():
            tag_assignments = [paths[tag][i::mappers[tag]] for i in range(mappers[tag])]
            tag_assignments = [files for files in tag_assignments if files]
            assignments[tag] = tag_assignments
            for worker_id, files in enumerate(tag_assignments):
                # The side fragment travels through its own serialisation
                # (with the worker's file assignment substituted in).
                fragment = plan.to_dict()
                fragment["files"] = files
                map_events[(tag, worker_id)] = self._event(
                    query_id,
                    num_partitions,
                    **fragment,
                    worker_id=worker_id,
                    side=tag,
                    write_combining=self._map_mode(tag, worker_id),
                )
        map_messages = self._wave(
            JOIN_MAP_FUNCTION_NAME, map_events, query_id, "join map", resilience,
            on_retry=self._degrade_map_retry(resilience),
            integrity=integrity_stats,
        )
        rows_scanned = sum(message.get("rows_scanned", 0) for message in map_messages)
        objects_written = sum(message.get("partitions_written", 0) for message in map_messages)

        # -- join waves (one per DAG stage, chained through the exchange) ----------
        # ``tag`` names the exchange prefix a side's objects live under; the
        # manifest selects the announcing messages by their wave key (an
        # emit wave's messages are keyed "S{k}" but write under "J{k}").
        left_spec = {
            "key": dag.stages[0].left_key, "tag": "L",
            **_sender_manifest(map_messages, "L"),
        }
        reduce_waves: List[List[Dict]] = []
        objects_read = 0
        gc_deleted = 0
        for k, stage in enumerate(dag.stages):
            final = k == num_stages - 1
            emit = None
            if not final:
                emit = {
                    "tag": inter_tags[k],
                    "key": dag.stages[k + 1].left_key,
                    "num_partitions": num_partitions,
                    "columns": list(stage.output_columns),
                }
            right_spec = {
                "key": stage.right.key, "tag": build_tags[k],
                **_sender_manifest(map_messages, build_tags[k]),
            }
            reduce_events: Dict = {}
            for partition in range(num_partitions):
                reduce_events[(f"S{k}", partition)] = self._event(
                    query_id,
                    num_partitions,
                    partition=partition,
                    side=f"S{k}",
                    sides={"L": left_spec, "R": right_spec},
                    group_by=list(dag.group_by) if final else [],
                    aggregates=(
                        [spec.to_dict() for spec in dag.aggregates] if final else []
                    ),
                    residual_predicate=expression_to_dict(stage.residual_predicate),
                    collect_rows=dag.driver.collect_rows if final else False,
                    suffix=stage.suffix,
                    restore_right_key=stage.restore_right_key,
                    emit=emit,
                )
            reduce_messages = self._wave(
                JOIN_REDUCE_FUNCTION_NAME, reduce_events, query_id,
                "join" if final else f"join stage {k}", resilience,
                on_retry=None if final else self._degrade_map_retry(resilience),
                integrity=integrity_stats,
            )
            reduce_waves.append(reduce_messages)
            objects_read += sum(m.get("objects_read", 0) for m in reduce_messages)
            if not final:
                objects_written += sum(
                    m.get("partitions_written", 0) for m in reduce_messages
                )
                left_spec = {
                    "key": dag.stages[k + 1].left_key, "tag": inter_tags[k],
                    **_sender_manifest(reduce_messages, f"S{k}"),
                }
            if k > 0:
                # Stage k has fully consumed the previous intermediate: drop
                # its objects now so peak exchange storage stays bounded by
                # two live stages, not the whole DAG.
                gc_deleted += _sweep_exchange(
                    self.env, query_id, self.num_buckets, tag=inter_tags[k - 1]
                )

        # -- fold statistics and the driver scope --------------------------------------
        exchange, worker_results, wave_seconds, partials = self._fold(
            [map_messages] + reduce_waves, resilience, integrity_stats, "join"
        )
        driver_plan = dag.driver
        if driver_plan.collect_rows:
            result = concat_tables([piece for piece in partials if table_num_rows(piece)])
            if dag.project and result:
                # Explicit projection above the join: drop the join key and
                # predicate columns the repartition needed but the user did
                # not select.
                result = select_columns(result, dag.project)
        else:
            merged = merge_partials(partials, dag.group_by, dag.aggregates)
            result = finalize_aggregates(
                merged, dag.group_by, driver_plan.final_aggregates
            )
        if driver_plan.order_by:
            result = sort_table(result, driver_plan.order_by, driver_plan.descending)
        if driver_plan.limit is not None:
            count = min(driver_plan.limit, table_num_rows(result))
            result = {name: np.asarray(column)[:count] for name, column in result.items()}

        statistics = JoinStatistics(
            left_map_workers=len(assignments["L"]),
            right_map_workers=sum(
                len(workers) for tag, workers in assignments.items() if tag != "L"
            ),
            reduce_workers=num_partitions * num_stages,
            rows_scanned=rows_scanned,
            join_probe_rows=sum(r.join_probe_rows for r in worker_results),
            join_build_rows=sum(r.join_build_rows for r in worker_results),
            join_output_rows=sum(r.join_output_rows for r in worker_results),
            result_rows=table_num_rows(result),
            partition_objects_written=objects_written,
            partition_objects_read=objects_read,
            exchange=exchange,
            modelled_map_seconds=wave_seconds[0],
            # Join waves are barriered on each other: their modelled
            # latencies add, while workers within one wave run abreast.
            modelled_reduce_seconds=sum(wave_seconds[1:]),
            resilience=resilience,
            integrity=integrity_stats,
            dag_stages=num_stages,
            gc_objects_deleted=gc_deleted,
        )
        return result, statistics, worker_results
