"""Unit tests of the shared result-message protocol (``repro.driver.messages``).

The scan driver keys result messages by worker id, the shuffle waves by
worker id or ``(side, worker_id)``; both go through the same attempt dedup,
the same verified spill fetch, and the same wave loop (``run_wave``), whose
terminal errors are checked here on a join wave.
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


# -- the shared wave loop --------------------------------------------------------


@pytest.fixture(scope="module")
def join_stack():
    from repro.analysis.experiments import setup_functional_environment
    from repro.workload.tpch import generate_orders_dataset

    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=4)
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.002, num_files=3, row_group_rows=512, seed=7
    )
    return env, dataset, orders


def _join_driver(env, monkeypatch, rewrite):
    """A driver whose join-wave invocations pass through ``rewrite``; it
    returns the event to run, or ``None`` to drop the invocation."""
    from repro.driver.driver import LambadaDriver
    from repro.driver.resilience import ResiliencePolicy
    from repro.driver.shuffle import JOIN_REDUCE_FUNCTION_NAME

    original = env.lambda_service.invoke

    def invoke(name, event, from_driver=True):
        if name == JOIN_REDUCE_FUNCTION_NAME and event.get("partition") == 0:
            event = rewrite(event)
            if event is None:
                return None
        return original(name, event, from_driver)

    monkeypatch.setattr(env.lambda_service, "invoke", invoke)
    return LambadaDriver(env, resilience_policy=ResiliencePolicy(max_attempts=3))


def test_join_worker_never_reporting_times_out(join_stack, monkeypatch):
    """Every attempt of one join-wave worker is dropped: the wave loop gives
    up with QueryTimeoutError naming how many workers answered."""
    from repro.errors import QueryTimeoutError
    from repro.workload.queries import q3_plan

    env, dataset, orders = join_stack
    driver = _join_driver(env, monkeypatch, lambda event: None)
    with pytest.raises(QueryTimeoutError, match="received 1 of 2 join results"):
        driver.execute(q3_plan(dataset.paths, orders.paths), num_workers=2)


def test_join_worker_always_failing_reports_full_history(join_stack, monkeypatch):
    """A join-wave worker that errors on every attempt raises
    WorkerFailedError carrying one history entry per attempt."""
    from repro.errors import WorkerFailedError
    from repro.workload.queries import q3_plan

    env, dataset, orders = join_stack
    driver = _join_driver(env, monkeypatch, lambda event: dict(event, sides=None))
    with pytest.raises(WorkerFailedError) as excinfo:
        driver.execute(q3_plan(dataset.paths, orders.paths), num_workers=2)
    error = excinfo.value
    assert error.worker_id == 0
    assert [entry["attempt"] for entry in error.attempts] == [0, 1, 2]
    assert all(entry["error"].startswith("TypeError") for entry in error.attempts)
    assert error.message.startswith("join: TypeError")
