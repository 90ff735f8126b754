"""Tests for the simulated Lambda (FaaS) service."""

import pytest

from repro.cloud.lambda_service import (
    FunctionConfig,
    LambdaService,
    compute_throughput,
    cpu_share_for_memory,
)
from repro.errors import FunctionNotFoundError


def echo_handler(event, context):
    context.charge(1.0)
    return {"echo": event.get("x")}


@pytest.fixture
def service() -> LambdaService:
    service = LambdaService()
    service.deploy(FunctionConfig(name="echo", memory_mib=2048), echo_handler)
    return service


# -- resource model ---------------------------------------------------------------

def test_cpu_share_one_vcpu_at_1792():
    assert cpu_share_for_memory(1792) == pytest.approx(1.0)


def test_cpu_share_proportional_to_memory():
    assert cpu_share_for_memory(896) == pytest.approx(0.5)
    assert cpu_share_for_memory(3008) == pytest.approx(3008 / 1792)


def test_cpu_share_rejects_nonpositive_memory():
    with pytest.raises(ValueError):
        cpu_share_for_memory(0)


def test_single_thread_capped_at_one_vcpu():
    assert compute_throughput(3008, 1) == pytest.approx(1.0)


def test_two_threads_exploit_large_workers():
    # The paper measures a maximum of ~1.67x at 3008 MiB (Figure 4).
    assert compute_throughput(3008, 2) == pytest.approx(1.678, rel=0.01)


def test_small_workers_limited_regardless_of_threads():
    assert compute_throughput(896, 1) == pytest.approx(0.5)
    assert compute_throughput(896, 2) == pytest.approx(0.5)


def test_compute_throughput_rejects_zero_threads():
    with pytest.raises(ValueError):
        compute_throughput(1792, 0)


# -- function configuration ----------------------------------------------------------

def test_config_rejects_out_of_range_memory():
    with pytest.raises(ValueError):
        FunctionConfig(name="f", memory_mib=64)
    with pytest.raises(ValueError):
        FunctionConfig(name="f", memory_mib=4096)


def test_config_rejects_unknown_region():
    with pytest.raises(ValueError):
        FunctionConfig(name="f", region="mars")


# -- invocation -----------------------------------------------------------------------

def test_invoke_returns_handler_payload(service):
    result = service.invoke("echo", {"x": 42})
    assert result.succeeded
    assert result.payload == {"echo": 42}


def test_invoke_missing_function_raises(service):
    with pytest.raises(FunctionNotFoundError):
        service.invoke("nope", {})


def test_first_invocation_is_cold_then_warm(service):
    first = service.invoke("echo", {})
    second = service.invoke("echo", {})
    assert first.cold_start
    assert not second.cold_start
    assert first.startup_seconds > second.startup_seconds


def test_reset_warm_instances_forces_cold(service):
    service.invoke("echo", {})
    service.reset_warm_instances("echo")
    assert service.invoke("echo", {}).cold_start


def test_handler_exception_is_reported_not_raised(service):
    def broken(event, context):
        raise RuntimeError("boom")

    service.deploy(FunctionConfig(name="broken", memory_mib=1024), broken)
    result = service.invoke("broken", {})
    assert not result.succeeded
    assert "boom" in result.error


def test_duration_is_billed(service):
    result = service.invoke("echo", {})
    assert result.duration_seconds == pytest.approx(1.0)
    assert result.billed_cost > 0
    assert service.ledger.total("lambda", "invocations") == 1
    assert service.ledger.total("lambda", "gib_seconds") == pytest.approx(2.0)


def test_timeout_truncates_and_reports_error():
    service = LambdaService()

    def slow(event, context):
        context.charge(100.0)
        return "done"

    service.deploy(FunctionConfig(name="slow", memory_mib=1024, timeout_seconds=10.0), slow)
    result = service.invoke("slow", {})
    assert not result.succeeded
    assert "Timeout" in result.error
    assert result.duration_seconds == pytest.approx(10.0)


def test_concurrency_limit_rejects_nested_invocations():
    service = LambdaService(concurrency_limit=1)

    def recurse(event, context):
        return service.invoke("recurse", {"depth": event["depth"] + 1}).payload

    service.deploy(FunctionConfig(name="recurse", memory_mib=1024), recurse)
    result = service.invoke("recurse", {"depth": 0})
    # The nested invocation exceeds the limit; its error is captured in the
    # outer handler's result.
    assert not result.succeeded
    assert "TooManyRequests" in result.error


def test_concurrency_limit_allows_nested_within_limit():
    service = LambdaService(concurrency_limit=10)
    calls = []

    def parent(event, context):
        calls.append("parent")
        return service.invoke("child", {}, from_driver=False).payload

    def child(event, context):
        calls.append("child")
        return "leaf"

    service.deploy(FunctionConfig(name="parent", memory_mib=1024), parent)
    service.deploy(FunctionConfig(name="child", memory_mib=1024), child)
    result = service.invoke("parent", {})
    assert result.succeeded
    assert result.payload == "leaf"
    assert calls == ["parent", "child"]


def test_intra_region_invocation_latency_is_lower(service):
    assert service.invocation_latency(from_driver=False) < service.invocation_latency(True)


def test_invocation_rates_match_table1(service):
    assert service.invocation_rate(from_driver=True) == pytest.approx(294.0)
    assert service.invocation_rate(from_driver=False) == pytest.approx(81.0)


def test_invocation_log_and_total_cost(service):
    results = [service.invoke("echo", {}), service.invoke("echo", {})]
    assert service.total_invocations() == 2
    assert service.total_billed_cost() == pytest.approx(
        sum(result.billed_cost for result in results)
    )


def test_retained_memory_does_not_grow_with_invocations(service):
    """Metering keeps running totals: neither the ledger's records nor the
    invocations' results (payloads included) are retained per request."""
    import tracemalloc

    def run(count):
        for index in range(count):
            service.invoke("echo", {"x": f"{index:06d}" + "x" * 200})

    tracemalloc.start()
    try:
        run(50)
        before = tracemalloc.get_traced_memory()[0]
        run(2000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Keeping each invocation's record, result and payload costs well over
    # 100 bytes apiece; running totals cost nothing per request.
    assert grown < 20_000, f"{grown} bytes retained by 2000 invocations"


def test_delete_function(service):
    service.delete_function("echo")
    assert "echo" not in service.list_functions()


def test_out_of_memory_reporting():
    service = LambdaService()

    def hungry(event, context):
        context.note_memory_use(10 * 1024 * 1024 * 1024)
        return "never"

    service.deploy(FunctionConfig(name="hungry", memory_mib=512), hungry)
    result = service.invoke("hungry", {})
    assert not result.succeeded
    assert "OutOfMemory" in result.error or "used" in result.error
