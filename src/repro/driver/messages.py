"""The result-message protocol and the wave loop shared by every fleet.

Every worker answers through one SQS result queue (paper §4.2): a signed JSON
message per attempt, or a pointer to a spilled S3 object when the answer is
too large for the queue.  Both the scan driver
(:class:`~repro.driver.driver.LambadaDriver`) and the shuffle coordinators
(:mod:`repro.driver.shuffle`) read that protocol through this module: the
parse and digest check of a queue message, the ``(key, attempt)`` dedup, the
verified spill fetch, plus the glob expansion and fault-plan bookkeeping both
engines run around a query.

Every fleet also runs through one wave loop, :func:`run_wave`: dispatch a
round of payloads, collect one answer per worker, and re-invoke the workers
that failed or went missing with jittered backoff until they succeed or the
rounds run out.  The scan plane, the process pool and the shuffle waves
differ only in the round function they pass: how a round is dispatched and
how its answers come back (the result queue through :func:`collect_messages`,
or shared memory).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence

from repro.cloud.s3 import parse_s3_path
from repro.config import DEFAULT_RESILIENCE
from repro.driver.integrity import IntegrityStats, message_intact
from repro.driver.resilience import (
    AttemptLog,
    ResilienceStats,
    call_with_backoff,
    decorrelated_jitter,
)
from repro.errors import (
    IntegrityError,
    NoSuchBucketError,
    QueryTimeoutError,
    WorkerFailedError,
)

#: The failure of an attempt that never answered.
NO_RESULT = "no result message (lost invocation or worker crash)"

#: Worker-reported error prefixes that mean the invocation plane itself
#: failed (vs. a data error inside a healthy worker).
LAMBDA_FAILURE_PREFIXES = (
    "InvocationDropped",
    "FunctionTimeout",
    "WorkerCrashError",
    "no result message",
)


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


def message_key(payload: Dict):
    """Wave-local identity of a result message.

    Join map waves run both sides concurrently with overlapping worker ids,
    so their messages are keyed ``(side, worker_id)``; every other wave keys
    by the bare worker id (the reduce waves report their partition there).
    """
    side = payload.get("side")
    worker = payload.get("worker_id", -1)
    return (side, worker) if side is not None else worker


def collect_messages(
    sqs,
    queue: str,
    query_id: str,
    batch: Dict,
    by_key: Dict,
    resilience: Optional[ResilienceStats] = None,
    verify: bool = True,
    integrity: Optional[IntegrityStats] = None,
    cancel=None,
    stage: str = "collect",
) -> Dict:
    """Poll ``queue`` until every key of ``batch`` answered its attempt.

    ``batch`` maps message keys (:func:`message_key`) to the payloads just
    dispatched.  Messages of ``query_id`` for those keys fold into ``by_key``
    under ``(key, attempt)`` dedup (:func:`merge_attempt`); other queries'
    messages and corrupt ones (:func:`parse_message`) are dropped.  A key
    counts as answered only by a message (ok *or* error) whose attempt is at
    least the one dispatched, so a late or re-delivered copy from a
    superseded attempt never ends the poll.  The bounded poll budget models
    the wave deadline; keys still unanswered when it runs out are left for
    the caller's retry loop.  ``cancel`` is checked at every poll as
    ``stage``.
    """

    def answered() -> int:
        return sum(
            1
            for key, payload in batch.items()
            if key in by_key
            and int(by_key[key].get("attempt", 0)) >= int(payload.get("attempt", 0))
        )

    polls = max(
        DEFAULT_RESILIENCE.min_poll_rounds,
        len(batch) * DEFAULT_RESILIENCE.poll_rounds_per_worker,
    )
    for _ in range(polls):
        if cancel is not None:
            cancel.check(stage)
        for message in sqs.receive_messages(queue, max_messages=10):
            payload = parse_message(message, verify, integrity)
            if payload is None or payload.get("query_id") != query_id:
                continue  # corrupt, or stale from an earlier query
            key = message_key(payload)
            if key in batch:
                merge_attempt(by_key, key, payload, resilience)
        if answered() >= len(batch):
            break
    return by_key


def _failure(message: Optional[Dict], attempt: int) -> str:
    """Why ``attempt`` failed, given the newest message held for its key."""
    if message is None or int(message.get("attempt", 0)) < attempt:
        return NO_RESULT
    return message.get("error", "unknown error")


def run_wave(
    env,
    function_name: str,
    events: Dict,
    queue: str,
    query_id: str,
    what: str,
    policy,
    rng,
    resilience: ResilienceStats,
    rounds: int,
    budget_key: str,
    stage: str,
    on_retry: Optional[Callable[[object, Dict], None]] = None,
    verify: bool = True,
    integrity: Optional[IntegrityStats] = None,
    cancel=None,
    breakers=None,
    budget=None,
    now_fn: Optional[Callable[[], float]] = None,
    run_round: Optional[Callable[[Dict, Dict, str], None]] = None,
) -> Dict:
    """Run one wave of workers; return one ok result message per event key.

    ``events`` maps wave keys (:func:`message_key`) to invocation payloads;
    it is updated in place to the payload last dispatched per key.
    ``run_round(batch, by_key, kind)`` dispatches ``batch`` (``kind`` is
    ``"first"`` or ``"retry"``) and folds its answers into ``by_key``; the
    default invokes ``function_name`` flat, breaker-aware, and polls
    ``queue`` (:func:`collect_messages`).

    Up to ``rounds`` rounds run.  Each retry round backs off (decorrelated
    jitter charged to ``resilience.backoff_seconds``, never slept), counts
    one ``wave_retries``, and re-invokes every failed or missing key with the
    next attempt number: per key it logs the failed attempt, counts an
    ``IntegrityError`` as a re-execution, charges invocation-plane failures
    to the lambda breaker, lets ``on_retry(key, payload)`` adjust the retry,
    and charges ``budget_key`` to the retry budget.  ``cancel`` is checked as
    ``"{what} dispatch"`` before the first round and as ``stage`` at every
    retry round.

    When the rounds run out, a key whose last attempt reported an error
    raises :class:`~repro.errors.WorkerFailedError` with its attempt
    history; otherwise the keys that never answered raise
    :class:`~repro.errors.QueryTimeoutError`.
    """

    def invoke_and_poll(batch: Dict, by_key: Dict, kind: str) -> None:
        for key in sorted(batch):
            call_with_backoff(
                env.lambda_service.invoke, function_name, batch[key],
                policy=policy, rng=rng, stats=resilience, breakers=breakers,
                budget=budget, now_fn=now_fn,
            )
        collect_messages(
            env.sqs, queue, query_id, batch, by_key, resilience, verify,
            integrity, cancel, stage,
        )

    run_round = run_round or invoke_and_poll
    if cancel is not None:
        cancel.check(f"{what} dispatch")
    by_key: Dict = {}
    attempt_log = AttemptLog()
    batch = dict(events)
    sleep = 0.0
    for round_index in range(max(1, rounds)):
        if round_index:
            if cancel is not None:
                cancel.check(stage)
            sleep = decorrelated_jitter(
                sleep, rng, policy.backoff_base_seconds, policy.backoff_cap_seconds
            )
            resilience.backoff_seconds += sleep
            resilience.wave_retries += 1
            batch = {}
            for key in failed:
                attempt = int(events[key].get("attempt", 0))
                error = _failure(by_key.get(key), attempt)
                attempt_log.record(key, attempt, error, backoff_seconds=sleep)
                if integrity is not None and error.startswith("IntegrityError"):
                    # The worker detected at-rest corruption that re-GETs
                    # could not cure; this retry re-executes the attempt.
                    integrity.re_executions += 1
                if breakers is not None and error.startswith(LAMBDA_FAILURE_PREFIXES):
                    # Worker failures arrive as strings (or missing messages),
                    # never as exceptions the breaker board could classify.
                    breakers.breakers["lambda"].record_failure(
                        now_fn() if now_fn is not None else env.clock.now
                    )
                retry = dict(events[key])
                retry["attempt"] = attempt + 1
                if on_retry is not None:
                    on_retry(key, retry)
                events[key] = batch[key] = retry
                resilience.retries += 1
                if budget is not None:
                    budget.charge(budget_key)
        run_round(batch, by_key, "retry" if round_index else "first")
        failed = sorted(
            key for key in events if by_key.get(key, {}).get("status") != "ok"
        )
        if not failed:
            return by_key
    for key in failed:
        attempt = int(events[key].get("attempt", 0))
        error = _failure(by_key.get(key), attempt)
        if error != NO_RESULT:
            history = attempt_log.for_worker(key) + [
                {"attempt": attempt, "error": error}
            ]
            worker_id = key[1] if isinstance(key, tuple) else key
            raise WorkerFailedError(worker_id, f"{what}: {error}", attempts=history)
    raise QueryTimeoutError(
        f"received {len(events) - len(failed)} of {len(events)} {what} results "
        "before giving up"
    )
