"""The result-message protocol shared by the scan driver and the shuffle waves.

Every worker answers through one SQS result queue (paper §4.2): a signed JSON
message per attempt, or a pointer to a spilled S3 object when the answer is
too large for the queue.  Both the scan driver
(:class:`~repro.driver.driver.LambadaDriver`) and the shuffle coordinators
(:mod:`repro.driver.shuffle`) read that protocol through this module: the
parse and digest check of a queue message, the ``(key, attempt)`` dedup, the
verified spill fetch, plus the glob expansion and fault-plan bookkeeping both
engines run around a query.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.cloud.s3 import parse_s3_path
from repro.config import DEFAULT_RESILIENCE
from repro.driver.integrity import IntegrityStats, message_intact
from repro.driver.resilience import ResilienceStats, call_with_backoff
from repro.errors import IntegrityError, NoSuchBucketError


def expand_paths(s3, paths: Sequence[str]) -> List[str]:
    """Expand glob patterns against the object store.

    Globs over missing buckets expand to nothing (the caller then reports
    "no input files"), mirroring how a CLI glob over a missing directory
    behaves.
    """
    expanded: List[str] = []
    for path in paths:
        if "*" in path:
            try:
                expanded.extend(s3.glob(path))
            except NoSuchBucketError:
                continue
        else:
            expanded.append(path)
    return expanded


def fault_snapshot(env) -> Optional[Dict[str, int]]:
    """Per-kind injection counts of the installed fault plan, or ``None``."""
    plan = getattr(env, "fault_plan", None)
    return plan.to_dict() if plan is not None else None


def fault_delta(env, snapshot: Optional[Dict[str, int]]) -> Dict[str, int]:
    """Faults injected since ``snapshot`` (the plan outlives single queries)."""
    current = fault_snapshot(env)
    if current is None or snapshot is None:
        return {}
    return {
        kind: count - snapshot.get(kind, 0)
        for kind, count in current.items()
        if count > snapshot.get(kind, 0)
    }


def parse_message(
    message, verify: bool, integrity: Optional[IntegrityStats]
) -> Optional[Dict]:
    """The payload of one queue message, or ``None`` when it is corrupt.

    A message that does not parse to a JSON object, or (with ``verify``)
    whose content digest mismatches, is dropped and counted into
    ``integrity``: the producing worker then looks missing and the retry
    machinery re-invokes it, so a corrupt message never contributes rows.
    """
    try:
        payload = message.json()
        if not isinstance(payload, dict):
            raise ValueError("result message is not an object")
    except ValueError:
        site = "sqs.parse"
    else:
        if not verify or message_intact(payload):
            return payload
        site = "sqs.digest"
    if integrity is not None:
        integrity.note_mismatch(site)
        integrity.re_executions += 1
    return None


def merge_attempt(
    by_key: Dict, key, payload: Dict, resilience: Optional[ResilienceStats]
) -> None:
    """Fold one result message into ``by_key`` under ``(key, attempt)`` dedup.

    A higher attempt supersedes a lower one; within the same attempt an ok
    result beats an error, and anything else is a duplicate delivery.  A late
    or re-delivered message from an earlier attempt can therefore never
    clobber a successful retry; superseded and duplicate deliveries are
    counted into ``resilience``, never applied twice.
    """
    current = by_key.get(key)
    if current is None:
        by_key[key] = payload
        return
    current_attempt = int(current.get("attempt", 0))
    new_attempt = int(payload.get("attempt", 0))
    if new_attempt > current_attempt:
        by_key[key] = payload
    elif new_attempt < current_attempt:
        if resilience is not None:
            resilience.stale_messages_ignored += 1
    elif current.get("status") != "ok" and payload.get("status") == "ok":
        by_key[key] = payload
    elif resilience is not None:
        resilience.duplicate_messages_ignored += 1


def fetch_spilled(
    s3, path: str, verify: bool, integrity: Optional[IntegrityStats], **backoff
) -> Dict:
    """Fetch a spilled result message, verifying its content digest.

    The GET retries transients through
    :func:`~repro.driver.resilience.call_with_backoff` with the caller's
    ``backoff`` context (policy, jitter stream, stats, and optionally the
    breaker board, retry budget and modelled clock); the pointed-to object
    may be transiently invisible under an injected read-after-write lag.
    With verification on the JSON must also match its digest.  A corrupt
    first read (in-flight corruption) is cured by one re-issued GET counted
    into ``integrity.re_reads``; a second one raises
    :class:`~repro.errors.IntegrityError` with ``layer="spill.digest"``.
    """
    bucket, key = parse_s3_path(path)
    last_error: Optional[IntegrityError] = None
    for read_attempt in range(DEFAULT_RESILIENCE.spill_read_attempts):
        raw = call_with_backoff(s3.get_object, bucket, key, **backoff).data
        try:
            spilled = json.loads(raw.decode("utf-8"))
            if not isinstance(spilled, dict):
                raise ValueError("spilled result is not an object")
        except (ValueError, UnicodeDecodeError) as exc:
            last_error = IntegrityError(
                f"spilled result does not parse: {exc}",
                key=path, layer="spill.digest",
            )
        else:
            if not verify or message_intact(spilled):
                if integrity is not None:
                    if verify:
                        integrity.verified_bytes += len(raw)
                    if read_attempt:
                        integrity.re_reads += 1
                return spilled
            last_error = IntegrityError(
                "spilled result failed its content digest",
                key=path, layer="spill.digest",
            )
        if integrity is not None:
            integrity.note_mismatch("spill.digest")
    raise last_error
