"""Tests for driver-side retries of failed workers."""

import pytest

from repro.errors import WorkerFailedError
from repro.plan.logical import AggregateNode, AggregateSpec, FilterNode, ScanNode
from repro.workload.queries import reference_q6, q6_plan


class FlakyPredicate:
    """A predicate UDF that fails the first ``failures`` times it is called."""

    def __init__(self, failures: int):
        self.remaining_failures = failures

    def __call__(self, row):
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise RuntimeError("transient failure injected by the test")
        return True


def _flaky_plan(dataset, failures: int):
    return AggregateNode(
        child=FilterNode(child=ScanNode(paths=tuple(dataset.paths)), udf=FlakyPredicate(failures)),
        aggregates=(AggregateSpec("count", None, "n"),),
    )


def test_transient_worker_failure_is_retried(driver, dataset, lineitem_table):
    result = driver.execute(_flaky_plan(dataset, failures=1), max_worker_retries=1)
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))


def test_persistent_failure_raises_after_retries(driver, dataset):
    with pytest.raises(WorkerFailedError):
        driver.execute(_flaky_plan(dataset, failures=10_000), max_worker_retries=1)


def test_no_retries_surfaces_first_failure(driver, dataset):
    with pytest.raises(WorkerFailedError):
        driver.execute(_flaky_plan(dataset, failures=1), max_worker_retries=0)


def test_retry_does_not_duplicate_results(driver, dataset, lineitem_table):
    """Retried workers replace their failed attempt; partials are not double-counted."""
    result = driver.execute(_flaky_plan(dataset, failures=2), max_worker_retries=2)
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))
    assert len(result.worker_results) == result.statistics.num_workers


def test_retries_do_not_affect_healthy_queries(driver, dataset, lineitem_table):
    result = driver.execute(q6_plan(dataset.paths), max_worker_retries=3)
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)


# ---------------------------------------------------------------------------
# Shared poller timeout paths
# ---------------------------------------------------------------------------

def test_collect_messages_times_out_on_empty_queue(driver):
    """No worker ever reports: the shared poller gives up and the wave loop
    surfaces the missing workers as QueryTimeoutError."""
    from repro.driver.messages import collect_messages, run_wave
    from repro.driver.resilience import ResilienceStats
    from repro.errors import QueryTimeoutError

    events = {worker_id: {"worker_id": worker_id, "attempt": 0} for worker_id in range(3)}

    def silent_round(batch, by_key, kind):
        collect_messages(
            driver.env.sqs, driver.result_queue, "no-such-query", batch, by_key
        )

    with pytest.raises(QueryTimeoutError, match="0 of 3"):
        run_wave(
            driver.env, driver.function_name, events, driver.result_queue,
            "no-such-query", "scan", driver.resilience_policy,
            driver._jitter_rng, ResilienceStats(), rounds=1,
            budget_key="driver_retries", stage="collect", run_round=silent_round,
        )


def test_dropped_worker_message_times_out(driver, dataset, monkeypatch):
    """A worker whose result message is lost triggers the timeout path."""
    import json

    from repro.errors import QueryTimeoutError
    from repro.workload.queries import q6_plan

    original = driver.env.sqs.send_message
    dropped = {"count": 0}

    def dropping_send_message(queue, body):
        payload = json.loads(body)
        if (
            queue == driver.result_queue
            and payload.get("worker_id") == 0
            and dropped["count"] == 0
        ):
            dropped["count"] += 1
            return None  # swallow exactly one result message
        return original(queue, body)

    monkeypatch.setattr(driver.env.sqs, "send_message", dropping_send_message)
    with pytest.raises(QueryTimeoutError):
        driver.execute(q6_plan(dataset.paths), max_worker_retries=0)
    assert dropped["count"] == 1


def test_stale_messages_from_other_queries_are_ignored(driver, dataset, lineitem_table):
    """Results of an earlier query id do not satisfy the current collection."""
    from repro.workload.queries import q6_plan, reference_q6

    driver.env.sqs.send_json(
        driver.result_queue,
        {"query_id": "stale-query", "worker_id": 0, "status": "ok", "result": {}},
    )
    result = driver.execute(q6_plan(dataset.paths))
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)


# ---------------------------------------------------------------------------
# Shared retry loop merging
# ---------------------------------------------------------------------------

def test_retry_failures_reinvokes_only_failed_workers(driver, monkeypatch):
    """The shared wave loop re-invokes exactly the failed workers, flat
    (without the tree children) through the scan plane's round, and merges
    their fresh results over the failures."""
    from repro.driver.integrity import IntegrityStats
    from repro.driver.messages import run_wave
    from repro.driver.resilience import ResilienceStats

    query_id = "unit-retry-query"
    payloads = [
        {
            "worker_id": worker_id,
            "plan": {"files": [], "columns": []},
            "result_queue": driver.result_queue,
            "query_id": query_id,
            "children": [{"worker_id": 99}] if worker_id == 0 else [],
        }
        for worker_id in range(3)
    ]
    by_worker = {
        0: {"worker_id": 0, "status": "ok", "result": {"partial": {}}},
        1: {"worker_id": 1, "status": "error", "error": "injected"},
        2: {"worker_id": 2, "status": "error", "error": "injected"},
    }
    invoked = []

    def fake_invoke(name, payload, from_driver=False):
        invoked.append(dict(payload))
        driver.env.sqs.send_json(
            driver.result_queue,
            {
                "query_id": query_id,
                "worker_id": payload["worker_id"],
                "attempt": payload["attempt"],
                "status": "ok",
                "result": {"partial": {}, "rows_scanned": 7},
            },
        )

    monkeypatch.setattr(driver.env.lambda_service, "invoke", fake_invoke)
    resilience = ResilienceStats()
    scan_round = driver._sqs_round(query_id, resilience, IntegrityStats())

    def run_round(batch, by_key, kind):
        if kind == "first":
            by_key.update(by_worker)  # the first round's answers, as given
        else:
            scan_round(batch, by_key, kind)

    merged = run_wave(
        driver.env, driver.function_name,
        {payload["worker_id"]: payload for payload in payloads},
        driver.result_queue, query_id, "scan", driver.resilience_policy,
        driver._jitter_rng, resilience, rounds=3, budget_key="driver_retries",
        stage="collect", on_retry=driver._retry_hook(resilience),
        run_round=run_round,
    )

    assert sorted(payload["worker_id"] for payload in invoked) == [1, 2]
    assert all("children" not in payload for payload in invoked)
    assert all(message["status"] == "ok" for message in merged.values())
    # The healthy worker's original result is untouched; retried workers
    # carry their fresh results.
    assert merged[1]["result"]["rows_scanned"] == 7
    assert merged[0]["result"] == {"partial": {}}


def test_retry_failures_merges_partials_without_double_count(driver, dataset,
                                                             lineitem_table):
    """Retried workers' partials merge with the healthy ones exactly once."""
    result = driver.execute(_flaky_plan(dataset, failures=3), max_worker_retries=3)
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))


def test_recovery_on_the_last_retry_round(driver, dataset, lineitem_table):
    """With W workers failing twice each, two retry rounds recover exactly."""
    workers = len(dataset.paths)
    result = driver.execute(
        _flaky_plan(dataset, failures=2 * workers), max_worker_retries=2
    )
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))


def test_retry_budget_exhausted_mid_recovery(driver, dataset):
    """One failure more than the retry budget covers still aborts the query."""
    workers = len(dataset.paths)
    with pytest.raises(WorkerFailedError):
        driver.execute(
            _flaky_plan(dataset, failures=2 * workers + 1), max_worker_retries=2
        )


def test_superseded_attempt_does_not_end_a_retry_poll(driver, dataset, monkeypatch):
    """A late re-delivery of a failed attempt's message must not end the poll
    for its retry: worker 1's attempt 0 errors, and when its attempt-1 ok
    message is delayed by one receive, the attempt-0 error arrives again in
    its place.  One retry round still suffices."""
    service, queue = driver.env.lambda_service, driver.env.sqs
    original_invoke = service.invoke
    original_receive = queue.receive_messages

    def invoke(name, event, from_driver=True):
        if event.get("worker_id") == 1 and event.get("attempt", 0) == 0:
            # Attempt 0 of worker 1 reads a missing file and reports an error.
            plan = dict(event["plan"], files=["s3://no-such-bucket/missing.lpq"])
            event = dict(event, plan=plan)
        return original_invoke(name, event, from_driver)

    state = {"error": None, "held": None}

    def receive_messages(name, max_messages=10):
        batch = original_receive(name, max_messages)
        if name != driver.result_queue:
            return batch
        delivered = []
        if state["held"] is not None:
            delivered.append(state.pop("held"))  # the delayed retry answer
        for message in batch:
            payload = message.json()
            if payload.get("worker_id") == 1 and payload.get("attempt") == 0:
                state["error"] = message
            if (
                payload.get("worker_id") == 1
                and payload.get("attempt") == 1
                and "held" in state
            ):
                # Hold the retry's answer back one receive; re-deliver the
                # superseded attempt's error in its place.
                state["held"] = message
                delivered.append(state["error"])
                continue
            delivered.append(message)
        return delivered

    monkeypatch.setattr(service, "invoke", invoke)
    monkeypatch.setattr(queue, "receive_messages", receive_messages)
    result = driver.execute(q6_plan(dataset.paths), max_worker_retries=3)

    assert "held" not in state, "the retry's answer was never held back"
    assert result.statistics.resilience.retries == 1
    assert result.statistics.resilience.wave_retries == 1
