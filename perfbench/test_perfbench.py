"""Unit tests of the benchmark's span recording, self-time fold and verdict.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "scripts")]

from spans import Span, Tracer, fold_self_times  # noqa: E402


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_fold_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 6.0, 0),
        Span("b", 2.0, 5.0, 1),
        Span("a", 7.0, 9.0, 0),
    ]
    assert fold_self_times(spans) == {"root": 3.0, "a": 4.0, "b": 3.0}


def test_nested_invoke_spans_share_self_time_and_sum_to_root():
    clock = FakeClock()
    tracer = Tracer(clock)

    def crc():
        clock.advance(0.25)

    traced_crc = tracer.wrap(crc, "crc32")

    def invoke(children):
        clock.advance(0.5)
        for child in children:
            traced_invoke(child)
        traced_crc()

    # A two-level invocation tree: the root worker invokes two children
    # through the same wrapped function.
    traced_invoke = tracer.wrap(invoke, "invoke")
    root = tracer.begin("query")
    clock.advance(1.0)
    traced_invoke([[], []])
    clock.advance(0.75)
    tracer.end(root)

    totals = fold_self_times(tracer.spans)
    assert totals == pytest.approx({"query": 1.75, "invoke": 1.5, "crc32": 0.75})
    assert sum(totals.values()) == pytest.approx(clock.now)
    assert tracer.calls == {"query": 1, "invoke": 3, "crc32": 3}
    parents = {index: span.parent for index, span in enumerate(tracer.spans)}
    assert parents[1] == 0 and parents[2] == 1 and parents[4] == 1


def test_generator_spans_exclude_the_consumer_between_items():
    clock = FakeClock()
    tracer = Tracer(clock)
    read = tracer.wrap(lambda: clock.advance(0.5), "read")

    def scan():
        for item in range(3):
            clock.advance(1.0)
            read()
            yield item

    traced_scan = tracer.wrap_generator(scan, "scan")
    root = tracer.begin("query")
    for _ in traced_scan():
        clock.advance(10.0)  # consumer work, charged to the root
    tracer.end(root)

    totals = fold_self_times(tracer.spans)
    assert totals == pytest.approx({"query": 30.0, "scan": 3.0, "read": 1.5})
    assert sum(totals.values()) == pytest.approx(clock.now)
    # One span per next(), the last one ending in StopIteration.
    assert tracer.calls["scan"] == 4


def test_abandoned_generator_leaves_no_span_open():
    clock = FakeClock()
    tracer = Tracer(clock)
    traced = tracer.wrap_generator(lambda: iter(range(5)), "scan")
    root = tracer.begin("query")
    for item in traced():
        if item == 1:
            break
    after = tracer.begin("merge")
    tracer.end(after)
    tracer.end(root)
    assert tracer.spans[after].parent == root


def test_spans_closed_out_of_order_are_rejected():
    tracer = Tracer(FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_hooks_patch_the_looked_up_name_and_restore_it():
    import layers

    tracer = Tracer()
    original = zlib.crc32
    with layers.installed(tracer, [layers.CRC32]):
        assert zlib.crc32 is not original
        assert zlib.crc32(b"abcd") == original(b"abcd")
    assert zlib.crc32 is original
    assert tracer.calls == {"zlib.crc32": 1}
    assert tracer.bytes == {"zlib.crc32": 4}
    assert layers.missing_calls(tracer, [layers.CRC32, layers.HASH_JOIN]) == [
        layers.HASH_JOIN.name
    ]


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    import layers
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = set(layers.layer_metrics(Tracer(), run.ROOT_SPAN, [], 1))
    per_layer |= {"workload.generate_s", "trace.overhead_ratio", "run.failed_fraction"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layers.unit_of(name) for name in per_layer
    }


class FakeSession:
    """Answers every query with ``ANSWER`` except those named in ``failing``."""

    ANSWER = {"value": [1.0]}

    def __init__(self, failing):
        self.failing = failing
        self.env = SimpleNamespace(install_fault_plan=lambda plan: None)

    def sql(self, text, **kwargs):
        import workloads

        if any(text == workloads.SQL[name] for name in self.failing):
            raise RuntimeError("worker gave up")
        stats = SimpleNamespace(latency_seconds=1.0, cost_total=1e-4)
        return SimpleNamespace(table=self.ANSWER, statistics=stats)

    def close(self):
        pass


@pytest.mark.parametrize("failing, code", [((), 0), (("q6",), 1)])
def test_a_query_that_raises_fails_the_run(monkeypatch, capsys, failing, code):
    import run
    import workloads

    workload = workloads.Workload(
        name="fake", why="two queries", scale_factor=0.001, files=1,
        cycle=("q1", "q6"), expected=(),
    )
    monkeypatch.setitem(workloads.WORKLOADS, "fake", workload)
    monkeypatch.setattr(run, "MIN_QUERIES", 4)
    monkeypatch.setattr(run, "set_up", lambda *args: (FakeSession(failing), {}))
    monkeypatch.setattr(
        run, "references_for",
        lambda *args: {name: FakeSession.ANSWER for name in workload.queries},
    )
    assert run.main(["--workload", "fake", "--seed", "1", "--seconds", "0"]) == code
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is (code == 0)
    assert result["attempted"] == 4
    assert result["failed"] == 2 * len(failing)
