"""Unit tests of the shared result-message protocol (``repro.driver.messages``).

The scan driver keys result messages by worker id, the shuffle waves by
worker id or ``(side, worker_id)``; both go through the same attempt dedup
and the same verified spill fetch.
"""

import json
import random

import pytest

from repro.cloud.environment import CloudEnvironment
from repro.cloud.faults import FaultPlan, FaultRule
from repro.driver.integrity import IntegrityStats, sign_message
from repro.driver.messages import fetch_spilled, merge_attempt
from repro.driver.resilience import ResilienceStats
from repro.errors import IntegrityError

KEYS = [3, ("L", 3)]


def _merge_all(key, messages):
    by_key, stats = {}, ResilienceStats()
    for message in messages:
        merge_attempt(by_key, key, message, stats)
    return by_key[key], stats


@pytest.mark.parametrize("key", KEYS, ids=["worker", "side-worker"])
def test_higher_attempt_wins(key):
    kept, stats = _merge_all(
        key, [{"attempt": 0, "status": "ok"}, {"attempt": 1, "status": "error"}]
    )
    assert kept == {"attempt": 1, "status": "error"}
    assert stats.stale_messages_ignored == 0
    assert stats.duplicate_messages_ignored == 0


@pytest.mark.parametrize("key", KEYS, ids=["worker", "side-worker"])
def test_lower_attempt_is_stale(key):
    kept, stats = _merge_all(
        key, [{"attempt": 2, "status": "error"}, {"attempt": 1, "status": "ok"}]
    )
    assert kept == {"attempt": 2, "status": "error"}
    assert stats.stale_messages_ignored == 1
    assert stats.duplicate_messages_ignored == 0


@pytest.mark.parametrize("key", KEYS, ids=["worker", "side-worker"])
def test_ok_beats_error_at_the_same_attempt(key):
    kept, stats = _merge_all(
        key, [{"attempt": 1, "status": "error"}, {"attempt": 1, "status": "ok"}]
    )
    assert kept == {"attempt": 1, "status": "ok"}
    assert stats.stale_messages_ignored == 0
    assert stats.duplicate_messages_ignored == 0


@pytest.mark.parametrize("key", KEYS, ids=["worker", "side-worker"])
def test_repeats_are_duplicates(key):
    first = {"attempt": 1, "status": "ok", "copy": 1}
    kept, stats = _merge_all(
        key,
        [first, {"attempt": 1, "status": "ok", "copy": 2},
         {"attempt": 1, "status": "error"}],
    )
    assert kept is first
    assert stats.duplicate_messages_ignored == 2
    assert stats.stale_messages_ignored == 0


PATH = "s3://results/q/reduce-0.a0.json"


def _spill(corrupt_reads: int):
    env = CloudEnvironment.create(region="eu")
    env.s3.ensure_bucket("results")
    message = sign_message({"worker_id": 0, "status": "ok", "result": [1, 2, 3]})
    env.s3.put_path(PATH, json.dumps(message).encode("utf-8"))
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "truncate", 1.0, operation="get", max_count=corrupt_reads)],
            seed=1,
        )
    )
    return env, message


def _fetch(env, integrity):
    return fetch_spilled(
        env.s3, PATH, True, integrity,
        rng=random.Random(0), stats=ResilienceStats(),
    )


def test_spill_fetch_cures_one_corrupt_read():
    env, message = _spill(corrupt_reads=1)
    integrity = IntegrityStats()
    assert _fetch(env, integrity) == message
    assert integrity.re_reads == 1
    assert integrity.mismatches == {"spill.digest": 1}
    assert integrity.verified_bytes > 0


def test_spill_fetch_raises_after_two_corrupt_reads():
    env, _ = _spill(corrupt_reads=2)
    integrity = IntegrityStats()
    with pytest.raises(IntegrityError) as raised:
        _fetch(env, integrity)
    assert raised.value.layer == "spill.digest"
    assert integrity.re_reads == 0
    assert integrity.mismatches == {"spill.digest": 2}
